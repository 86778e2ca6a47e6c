//===--- ToolArgs.cpp - Shared command-line scanner for the tools -----------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ToolArgs.h"

#include "support/StringExtras.h"

#include <cctype>
#include <charconv>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace esp;

static const char kVersion[] = "0.5.0";

ToolArgs::ToolArgs(int Argc, char **Argv, std::string ToolName,
                   std::string UsageText)
    : Argc(Argc), Argv(Argv), Tool(std::move(ToolName)),
      Usage(std::move(UsageText)) {}

bool ToolArgs::next() {
  if (Exit || Index + 1 >= Argc)
    return false;
  Current = Argv[++Index];
  return true;
}

void ToolArgs::noteOption(const char *Name) {
  // Scripted invocations append overrides ("espserve $BASE_FLAGS
  // --requests 1000"), so a repeated option is not an error: the last
  // value wins, and the first repeat gets one warning.
  if (!SeenOptions.insert(Name).second && !Quiet)
    std::fprintf(stderr,
                 "%s: warning: option '%s' given more than once; "
                 "the last value wins\n",
                 Tool.c_str(), Name);
}

bool ToolArgs::option(const char *Name, std::string &Value) {
  // --name=value spelling: everything after the first '=' is the value
  // (which may itself contain '=' or be empty).
  size_t NameLen = std::string::traits_type::length(Name);
  if (Current.size() > NameLen && Current[NameLen] == '=' &&
      Current.compare(0, NameLen, Name) == 0) {
    noteOption(Name);
    Value = Current.substr(NameLen + 1);
    return true;
  }
  if (Current != Name)
    return false;
  if (Index + 1 >= Argc) {
    usageError(std::string(Name) + " expects a value");
    return true; // Consumed; the caller's chain must not keep matching.
  }
  noteOption(Name);
  Value = Argv[++Index];
  return true;
}

bool ToolArgs::optionRange(const char *Name, uint64_t &Value, uint64_t Min,
                           uint64_t Max) {
  std::string Text;
  if (!option(Name, Text))
    return false;
  if (Exit)
    return true;
  // strtoull would skip blanks and accept a sign, reading "-1" as
  // 2^64 - 1, so the text must start with a digit.
  errno = 0;
  char *End = nullptr;
  unsigned long long Parsed = 0;
  const bool Digit =
      !Text.empty() && std::isdigit(static_cast<unsigned char>(Text[0]));
  if (Digit)
    Parsed = std::strtoull(Text.c_str(), &End, 10);
  if (!Digit || *End != '\0' || errno == ERANGE || Parsed < Min ||
      Parsed > Max) {
    usageError(std::string(Name) + " expects an integer from " +
               std::to_string(Min) + " to " + std::to_string(Max) +
               ", got '" + Text + "'");
    return true;
  }
  Value = Parsed;
  return true;
}

bool ToolArgs::optionIntList(const char *Name, std::vector<int64_t> &Values) {
  std::string Text;
  if (!option(Name, Text))
    return false;
  if (Exit)
    return true;
  std::vector<int64_t> Parsed;
  for (std::string_view Piece : split(Text, ',')) {
    // from_chars takes an optional '-' and digits only: no blanks, no
    // '+', and out-of-range values fail.
    int64_t V = 0;
    const char *End = Piece.data() + Piece.size();
    auto [Stop, Err] = std::from_chars(Piece.data(), End, V);
    if (Err != std::errc() || Stop != End) {
      usageError(std::string(Name) +
                 " expects comma-separated integers, got '" + Text + "'");
      return true;
    }
    Parsed.push_back(V);
  }
  Values = std::move(Parsed);
  return true;
}

void ToolArgs::unknownOrBuiltin() {
  if (Current == "--help" || Current == "-h") {
    printUsage();
    Exit = true;
    Code = 0;
    return;
  }
  if (Current == "--version") {
    std::printf("%s (esplang) %s\n", Tool.c_str(), kVersion);
    Exit = true;
    Code = 0;
    return;
  }
  if (Current == "--quiet" || Current == "-q") {
    Quiet = true;
    return;
  }
  // For --name=value, report only the flag: the value can be long
  // (a path) and is not what the user needs to fix.
  std::string Flag = Current.substr(0, Current.find('='));
  usageError("unknown option '" + Flag + "'");
}

void ToolArgs::usageError(const std::string &Message) {
  std::fprintf(stderr, "%s: %s\n", Tool.c_str(), Message.c_str());
  printUsage();
  Exit = true;
  Code = 2;
}

void ToolArgs::error(const std::string &Message) {
  std::fprintf(stderr, "%s: %s\n", Tool.c_str(), Message.c_str());
  Exit = true;
  Code = 1;
}

void ToolArgs::printUsage() const {
  std::fputs(Usage.c_str(), stderr);
}
