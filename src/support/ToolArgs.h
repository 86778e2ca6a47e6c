//===--- ToolArgs.h - Shared command-line scanner for the tools -*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One command-line grammar for espc, esplint, and espmc. Each tool
/// keeps its own flag set but gets --help/-h, --version, value-taking
/// options, integer validation, and unknown-option reporting with
/// identical wording and exit codes:
///
///   while (Args.next()) {
///     if (Args.flag("--check"))            Act = Check;
///     else if (Args.option("-o", Out))     ;
///     else if (Args.optionUInt("--max-states", N)) ;
///     else if (Args.positional())          Inputs.push_back(Args.arg());
///     else                                 Args.unknownOrBuiltin();
///   }
///   if (Args.shouldExit()) return Args.exitCode();
///
/// unknownOrBuiltin handles --help/--version (exit 0) and reports
/// anything else as an unknown option (exit 2), so tool-specific flags
/// always win over the builtins.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_SUPPORT_TOOLARGS_H
#define ESP_SUPPORT_TOOLARGS_H

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <type_traits>

namespace esp {

/// The ceiling of every tool's `--jobs`: far above any host's core count,
/// far below a thread count that would exhaust the process table.
inline constexpr uint64_t MaxToolJobs = 1024;

class ToolArgs {
public:
  /// \p UsageText is the full help body, printed verbatim for --help and
  /// after usage errors.
  ToolArgs(int Argc, char **Argv, std::string ToolName,
           std::string UsageText);

  /// Advances to the next argument. False when exhausted or after a
  /// terminal state (help, version, error) was reached.
  bool next();

  /// The current argument.
  const std::string &arg() const { return Current; }

  /// True when the current argument equals \p Name exactly.
  bool flag(const char *Name) const { return Current == Name; }

  /// True when the current argument is \p Name; consumes the following
  /// argument into \p Value. The --name=value spelling is accepted too.
  /// A missing value is a usage error. Repeated occurrences of the same
  /// option are accepted — the last value wins — with a warning on the
  /// first repeat (scripted invocations append overrides; see espserve).
  bool option(const char *Name, std::string &Value);

  /// Like option, but the value must be a decimal integer in [\p Min,
  /// \p Max], where \p Max defaults to the largest \p T. A sign, or a
  /// value out of range, is a usage error and leaves \p Value unchanged.
  template <typename T>
  bool optionUInt(const char *Name, T &Value, uint64_t Min = 0,
                  uint64_t Max = std::numeric_limits<T>::max()) {
    static_assert(std::is_unsigned_v<T>, "optionUInt parses into unsigned");
    uint64_t Parsed = Value;
    if (!optionRange(Name, Parsed, Min, Max))
      return false;
    Value = static_cast<T>(Parsed);
    return true;
  }
  /// Like option, but the value must parse as a decimal integer.
  bool optionInt(const char *Name, int64_t &Value);

  /// True when the current argument does not start with '-'.
  bool positional() const {
    return Current.empty() || Current[0] != '-';
  }

  /// Fallback for unmatched arguments: handles --help/-h, --version
  /// (exit 0), and --quiet/-q (recorded, see quiet()); reports anything
  /// else as an unknown option (exit 2), naming just the flag for the
  /// --name=value spelling.
  void unknownOrBuiltin();

  /// True once --quiet/-q was seen (any tool may honor it; the scanner
  /// accepts it everywhere so scripts can pass it uniformly).
  bool quiet() const { return Quiet; }

  /// Reports "tool: message" followed by the usage text; exit code 2.
  void usageError(const std::string &Message);

  /// Reports "tool: message" without usage; exit code 1 (runtime errors
  /// such as unreadable files).
  void error(const std::string &Message);

  void printUsage() const;

  /// True once a terminal state was reached; the tool should return
  /// exitCode() without doing any work.
  bool shouldExit() const { return Exit; }
  int exitCode() const { return Code; }

private:
  /// optionUInt's parser, over the full width.
  bool optionRange(const char *Name, uint64_t &Value, uint64_t Min,
                   uint64_t Max);

  /// Warns (once per name) when a value-taking option repeats; the later
  /// value overwrites the earlier one in the caller's variable anyway.
  void noteOption(const char *Name);

  int Argc;
  char **Argv;
  int Index = 0;
  std::string Tool;
  std::string Usage;
  std::string Current;
  std::set<std::string> SeenOptions;
  bool Exit = false;
  bool Quiet = false;
  int Code = 0;
};

} // namespace esp

#endif // ESP_SUPPORT_TOOLARGS_H
