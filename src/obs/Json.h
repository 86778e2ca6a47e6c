//===--- Json.h - Minimal JSON value, parser, and printer -------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small JSON DOM for the observability layer: the trace and stats
/// emitters print through it (or are validated against it in tests), and
/// the structural trace tests parse their own output back. No external
/// dependency — the container ships no JSON library.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_OBS_JSON_H
#define ESP_OBS_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace esp {
namespace obs {

/// One JSON value. Numbers keep an integer/double distinction so trace
/// timestamps round-trip exactly, and integers a signed/unsigned one so
/// 64-bit hashes and counters above INT64_MAX do too.
class JsonValue {
public:
  enum class Kind : uint8_t {
    Null, Bool, Int, UInt, Double, String, Array, Object
  };

  JsonValue() = default;
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool B);
  static JsonValue integer(int64_t I);
  static JsonValue uinteger(uint64_t U);
  static JsonValue number(double D);
  static JsonValue str(std::string S);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isUInt() const { return K == Kind::UInt; }
  bool isNumber() const {
    return K == Kind::Int || K == Kind::UInt || K == Kind::Double;
  }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return Bool; }
  int64_t asInt() const { return K == Kind::Double ? (int64_t)Dbl : Int; }
  uint64_t asUInt() const {
    return K == Kind::Double ? (uint64_t)Dbl : (uint64_t)Int;
  }
  double asDouble() const {
    if (K == Kind::Int)
      return (double)Int;
    return K == Kind::UInt ? (double)asUInt() : Dbl;
  }
  const std::string &asString() const { return Str; }

  /// Array access.
  size_t size() const { return Elems.size(); }
  const JsonValue &at(size_t I) const { return Elems[I]; }
  void push(JsonValue V) { Elems.push_back(std::move(V)); }

  /// Object access. get() returns null for a missing key.
  bool has(std::string_view Key) const;
  const JsonValue &get(std::string_view Key) const;
  void set(std::string Key, JsonValue V);
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }

  /// Serializes the value. Compact (no whitespace) unless \p Indent > 0.
  std::string dump(unsigned Indent = 0) const;

private:
  Kind K = Kind::Null;
  bool Bool = false;
  int64_t Int = 0; // A UInt's bits, too.
  double Dbl = 0;
  std::string Str;
  std::vector<JsonValue> Elems;
  // Insertion-ordered; lookup is linear (observability payloads are
  // small and mostly iterated, not queried).
  std::vector<std::pair<std::string, JsonValue>> Members;
};

/// Appends \p Text to \p Out with JSON string escaping (no quotes).
void appendJsonEscaped(std::string &Out, std::string_view Text);

/// Parses \p Text into \p Out. Returns false and fills \p Error (with a
/// byte offset) on malformed input. Trailing garbage after the value is
/// an error.
bool parseJson(std::string_view Text, JsonValue &Out, std::string &Error);

} // namespace obs
} // namespace esp

#endif // ESP_OBS_JSON_H
