//===--- StringExtras.h - Small string helpers ------------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared across the compiler and runtime.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_SUPPORT_STRINGEXTRAS_H
#define ESP_SUPPORT_STRINGEXTRAS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace esp {

/// Splits \p Text on \p Sep, keeping empty pieces.
std::vector<std::string_view> split(std::string_view Text, char Sep);

/// Joins \p Pieces with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Pieces,
                 std::string_view Sep);

/// True if \p C can start an ESP identifier.
inline bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}

/// True if \p C can continue an ESP identifier.
inline bool isIdentChar(char C) {
  return isIdentStart(C) || (C >= '0' && C <= '9');
}

/// True if \p C is an ASCII decimal digit.
inline bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// xxHash64 of \p Size bytes at \p Data: the model checker's one state
/// hash. Reads the input as little-endian 8-byte words in four
/// independent lanes (so the multiply chains overlap), folds the tail
/// in 8-, 4- and 1-byte steps, and ends with a full avalanche, so every
/// output bit depends on every input bit. The visited set uses the
/// value directly: its high bits pick a lock stripe, the whole value is
/// the hash-compaction fingerprint, and two seeds give bit-state
/// hashing its two probes.
uint64_t xxHash64(const void *Data, size_t Size, uint64_t Seed = 0);

/// splitmix64 finalizer: avalanches a 64-bit value. The parallel search
/// derives its per-worker and per-run random seeds with it.
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

/// Zigzag encoding of a signed value for the state serializer's
/// unsigned varints.
inline uint64_t zigzagEncode(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}

/// Counts non-blank, non-comment-only lines of an ESP or C source text.
/// Used by the lines-of-code experiment table.
unsigned countEffectiveLines(std::string_view Text);

} // namespace esp

#endif // ESP_SUPPORT_STRINGEXTRAS_H
