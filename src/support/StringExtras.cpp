//===--- StringExtras.cpp - Small string helpers ---------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/StringExtras.h"

#include <bit>
#include <cstring>

using namespace esp;

std::vector<std::string_view> esp::split(std::string_view Text, char Sep) {
  std::vector<std::string_view> Out;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Out.push_back(Text.substr(Start));
      return Out;
    }
    Out.push_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string esp::join(const std::vector<std::string> &Pieces,
                      std::string_view Sep) {
  std::string Out;
  for (size_t I = 0, E = Pieces.size(); I != E; ++I) {
    if (I != 0)
      Out += Sep;
    Out += Pieces[I];
  }
  return Out;
}

namespace {

constexpr uint64_t Prime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t Prime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t Prime3 = 0x165667b19e3779f9ULL;
constexpr uint64_t Prime4 = 0x85ebca77c2b2ae63ULL;
constexpr uint64_t Prime5 = 0x27d4eb2f165667c5ULL;

/// The little-endian 8- and 4-byte words of the input, on any host.
uint64_t read64(const unsigned char *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof V);
  if constexpr (std::endian::native == std::endian::big)
    V = __builtin_bswap64(V);
  return V;
}

uint32_t read32(const unsigned char *P) {
  uint32_t V;
  std::memcpy(&V, P, sizeof V);
  if constexpr (std::endian::native == std::endian::big)
    V = __builtin_bswap32(V);
  return V;
}

uint64_t laneRound(uint64_t Acc, uint64_t Word) {
  return std::rotl(Acc + Word * Prime2, 31) * Prime1;
}

uint64_t mergeLane(uint64_t Hash, uint64_t Lane) {
  return (Hash ^ laneRound(0, Lane)) * Prime1 + Prime4;
}

} // namespace

uint64_t esp::xxHash64(const void *Data, size_t Size, uint64_t Seed) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  const unsigned char *End = P + Size;
  uint64_t Hash;
  if (Size >= 32) {
    uint64_t V1 = Seed + Prime1 + Prime2, V2 = Seed + Prime2, V3 = Seed,
             V4 = Seed - Prime1;
    do {
      V1 = laneRound(V1, read64(P));
      V2 = laneRound(V2, read64(P + 8));
      V3 = laneRound(V3, read64(P + 16));
      V4 = laneRound(V4, read64(P + 24));
      P += 32;
    } while (End - P >= 32);
    Hash = std::rotl(V1, 1) + std::rotl(V2, 7) + std::rotl(V3, 12) +
           std::rotl(V4, 18);
    Hash = mergeLane(mergeLane(mergeLane(mergeLane(Hash, V1), V2), V3), V4);
  } else {
    Hash = Seed + Prime5;
  }
  Hash += Size;
  for (; End - P >= 8; P += 8)
    Hash = std::rotl(Hash ^ laneRound(0, read64(P)), 27) * Prime1 + Prime4;
  if (End - P >= 4) {
    Hash = std::rotl(Hash ^ read32(P) * Prime1, 23) * Prime2 + Prime3;
    P += 4;
  }
  for (; P != End; ++P)
    Hash = std::rotl(Hash ^ *P * Prime5, 11) * Prime1;
  Hash ^= Hash >> 33;
  Hash *= Prime2;
  Hash ^= Hash >> 29;
  Hash *= Prime3;
  Hash ^= Hash >> 32;
  return Hash;
}

unsigned esp::countEffectiveLines(std::string_view Text) {
  unsigned Count = 0;
  bool InBlockComment = false;
  for (std::string_view Line : split(Text, '\n')) {
    bool HasCode = false;
    for (size_t I = 0; I < Line.size(); ++I) {
      char C = Line[I];
      if (InBlockComment) {
        if (C == '*' && I + 1 < Line.size() && Line[I + 1] == '/') {
          InBlockComment = false;
          ++I;
        }
        continue;
      }
      if (C == '/' && I + 1 < Line.size() && Line[I + 1] == '/')
        break; // Rest of line is a comment.
      if (C == '/' && I + 1 < Line.size() && Line[I + 1] == '*') {
        InBlockComment = true;
        ++I;
        continue;
      }
      if (C != ' ' && C != '\t' && C != '\r')
        HasCode = true;
    }
    if (HasCode)
      ++Count;
  }
  return Count;
}
