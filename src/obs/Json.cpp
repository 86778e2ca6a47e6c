//===--- Json.cpp - Minimal JSON value, parser, and printer -----------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace esp;
using namespace esp::obs;

//===----------------------------------------------------------------------===//
// Construction and access
//===----------------------------------------------------------------------===//

JsonValue JsonValue::boolean(bool B) {
  JsonValue V;
  V.K = Kind::Bool;
  V.Bool = B;
  return V;
}

JsonValue JsonValue::integer(int64_t I) {
  JsonValue V;
  V.K = Kind::Int;
  V.Int = I;
  return V;
}

JsonValue JsonValue::uinteger(uint64_t U) {
  JsonValue V;
  V.K = Kind::UInt;
  V.Int = static_cast<int64_t>(U);
  return V;
}

JsonValue JsonValue::number(double D) {
  JsonValue V;
  V.K = Kind::Double;
  V.Dbl = D;
  return V;
}

JsonValue JsonValue::str(std::string S) {
  JsonValue V;
  V.K = Kind::String;
  V.Str = std::move(S);
  return V;
}

JsonValue JsonValue::array() {
  JsonValue V;
  V.K = Kind::Array;
  return V;
}

JsonValue JsonValue::object() {
  JsonValue V;
  V.K = Kind::Object;
  return V;
}

bool JsonValue::has(std::string_view Key) const {
  for (const auto &M : Members)
    if (M.first == Key)
      return true;
  return false;
}

const JsonValue &JsonValue::get(std::string_view Key) const {
  static const JsonValue Null;
  for (const auto &M : Members)
    if (M.first == Key)
      return M.second;
  return Null;
}

void JsonValue::set(std::string Key, JsonValue V) {
  for (auto &M : Members) {
    if (M.first == Key) {
      M.second = std::move(V);
      return;
    }
  }
  Members.emplace_back(std::move(Key), std::move(V));
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

void esp::obs::appendJsonEscaped(std::string &Out, std::string_view Text) {
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

namespace {

void dumpTo(const JsonValue &V, std::string &Out, unsigned Indent,
            unsigned Depth) {
  auto newline = [&](unsigned D) {
    if (Indent == 0)
      return;
    Out += '\n';
    Out.append(static_cast<size_t>(Indent) * D, ' ');
  };
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    Out += "null";
    break;
  case JsonValue::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    break;
  case JsonValue::Kind::Int: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld",
                  static_cast<long long>(V.asInt()));
    Out += Buf;
    break;
  }
  case JsonValue::Kind::UInt: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(V.asUInt()));
    Out += Buf;
    break;
  }
  case JsonValue::Kind::Double: {
    double D = V.asDouble();
    if (!std::isfinite(D)) {
      Out += "null"; // JSON has no Inf/NaN.
      break;
    }
    // Shortest of %.15g and %.17g that parses back to the same double,
    // so 17.58 prints as 17.58, not 17.579999999999998.
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.15g", D);
    if (std::strtod(Buf, nullptr) != D)
      std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    Out += Buf;
    break;
  }
  case JsonValue::Kind::String:
    Out += '"';
    appendJsonEscaped(Out, V.asString());
    Out += '"';
    break;
  case JsonValue::Kind::Array: {
    Out += '[';
    for (size_t I = 0; I != V.size(); ++I) {
      if (I)
        Out += ',';
      newline(Depth + 1);
      dumpTo(V.at(I), Out, Indent, Depth + 1);
    }
    if (V.size())
      newline(Depth);
    Out += ']';
    break;
  }
  case JsonValue::Kind::Object: {
    Out += '{';
    const auto &Members = V.members();
    for (size_t I = 0; I != Members.size(); ++I) {
      if (I)
        Out += ',';
      newline(Depth + 1);
      Out += '"';
      appendJsonEscaped(Out, Members[I].first);
      Out += Indent ? "\": " : "\":";
      dumpTo(Members[I].second, Out, Indent, Depth + 1);
    }
    if (!Members.empty())
      newline(Depth);
    Out += '}';
    break;
  }
  }
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

class Parser {
public:
  Parser(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool run(JsonValue &Out) {
    skipWs();
    if (!parseValue(Out))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  bool fail(const std::string &Message) {
    Error = Message + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool parseString(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected '\"'");
    ++Pos;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        // UTF-8 encode (no surrogate-pair handling; trace content is
        // ASCII plus the occasional control escape).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    bool IsDouble = false;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(
                                    Text[Pos])))
      ++Pos;
    if (Pos < Text.size() && Text[Pos] == '.') {
      IsDouble = true;
      ++Pos;
      while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(
                                      Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      IsDouble = true;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(
                                      Text[Pos])))
        ++Pos;
    }
    std::string Num(Text.substr(Start, Pos - Start));
    if (Num.empty() || Num == "-")
      return fail("malformed number");
    // An integer is an Int when int64_t holds it and a UInt when only
    // uint64_t does; past both it is a Double, as any fraction is.
    const char *Begin = Num.data(), *End = Begin + Num.size();
    int64_t I;
    uint64_t U;
    if (!IsDouble && std::from_chars(Begin, End, I).ec == std::errc())
      Out = JsonValue::integer(I);
    else if (!IsDouble && std::from_chars(Begin, End, U).ec == std::errc())
      Out = JsonValue::uinteger(U);
    else
      Out = JsonValue::number(std::strtod(Num.c_str(), nullptr));
    return true;
  }

  bool parseValue(JsonValue &Out) {
    if (++Depth > 256)
      return fail("nesting too deep");
    bool OK = parseValueInner(Out);
    --Depth;
    return OK;
  }

  bool parseValueInner(JsonValue &Out) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == 'n')
      return literal("null") ? (Out = JsonValue::null(), true)
                             : fail("bad literal");
    if (C == 't')
      return literal("true") ? (Out = JsonValue::boolean(true), true)
                             : fail("bad literal");
    if (C == 'f')
      return literal("false") ? (Out = JsonValue::boolean(false), true)
                              : fail("bad literal");
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = JsonValue::str(std::move(S));
      return true;
    }
    if (C == '[') {
      ++Pos;
      Out = JsonValue::array();
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        JsonValue Elem;
        if (!parseValue(Elem))
          return false;
        Out.push(std::move(Elem));
        skipWs();
        if (Pos >= Text.size())
          return fail("unterminated array");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '{') {
      ++Pos;
      Out = JsonValue::object();
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        JsonValue Val;
        if (!parseValue(Val))
          return false;
        Out.set(std::move(Key), std::move(Val));
        skipWs();
        if (Pos >= Text.size())
          return fail("unterminated object");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '-' || std::isdigit(static_cast<unsigned char>(C)))
      return parseNumber(Out);
    return fail("unexpected character");
  }

  std::string_view Text;
  std::string &Error;
  size_t Pos = 0;
  unsigned Depth = 0;
};

} // namespace

std::string JsonValue::dump(unsigned Indent) const {
  std::string Out;
  dumpTo(*this, Out, Indent, 0);
  return Out;
}

bool esp::obs::parseJson(std::string_view Text, JsonValue &Out,
                         std::string &Error) {
  Parser P(Text, Error);
  return P.run(Out);
}
