//===--- StateStore.cpp - Visited-state storage for the checker ------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mc/StateStore.h"

#include "support/StringExtras.h"

#include <algorithm>
#include <cassert>

using namespace esp;
using namespace esp::mc_detail;

// Xored into the second bit-state probe's input, so the two probes are
// independent remixes of the fingerprint for every swarm seed.
static constexpr uint64_t SecondHashSeed = 0x9e3779b97f4a7c15ULL;

/// The lock stripe of hash \p H among 2^\p Bits stripes: its high bits
/// (a shift by 64 would be undefined, hence the one-stripe case).
static size_t shardIndex(uint64_t H, unsigned Bits) {
  return Bits == 0 ? 0 : static_cast<size_t>(H >> (64 - Bits));
}

//===----------------------------------------------------------------------===//
// SegmentPool
//===----------------------------------------------------------------------===//

uint32_t SegmentPool::intern(std::string_view Bytes, uint32_t Objects) {
  return intern(Bytes, Objects, xxHash64(Bytes.data(), Bytes.size()));
}

uint32_t SegmentPool::intern(std::string_view Bytes, uint32_t Objects,
                             uint64_t Hash) {
  uint32_t Id = Index.find(Hash, [&](uint32_t Id) {
    return Segments[Id].Hash == Hash && bytes(Id) == Bytes;
  });
  if (Id != IdIndex::kNone) {
    assert(Segments[Id].Objects == Objects && "one segment, two counts");
    return Id;
  }
  Segments.push_back(
      {Hash, store(Bytes), static_cast<uint32_t>(Bytes.size()), Objects});
  Index.insert(Hash, [&](uint32_t Id) { return Segments[Id].Hash; });
  return Index.size() - 1;
}

const char *SegmentPool::store(std::string_view Bytes) {
  if (Bytes.size() > TailBytes) {
    const size_t Size = std::max(NextChunk, Bytes.size());
    Chunks.push_back(std::make_unique_for_overwrite<char[]>(Size));
    ChunkBytes += Size;
    NextChunk = std::min(2 * NextChunk, kMaxChunk);
    Tail = Chunks.back().get();
    TailBytes = Size;
  }
  const char *Data = Tail;
  Tail = std::copy(Bytes.begin(), Bytes.end(), Tail);
  TailBytes -= Bytes.size();
  return Data;
}

size_t SegmentPool::memoryBytes() const {
  return ChunkBytes + Chunks.capacity() * sizeof(Chunks[0]) +
         Segments.capacity() * sizeof(Segment) + Index.memoryBytes();
}

//===----------------------------------------------------------------------===//
// FingerprintSet
//===----------------------------------------------------------------------===//

void FingerprintSet::grow() {
  std::vector<uint64_t> Old = std::move(Slots);
  Slots.assign(std::max<size_t>(16, 2 * Old.size()), 0);
  const size_t Mask = Slots.size() - 1;
  for (uint64_t Fp : Old) {
    if (Fp == 0)
      continue;
    size_t I = Fp & Mask;
    while (Slots[I] != 0)
      I = (I + 1) & Mask;
    Slots[I] = Fp;
  }
}

//===----------------------------------------------------------------------===//
// ConcurrentVisitedSet
//===----------------------------------------------------------------------===//

ConcurrentVisitedSet::ConcurrentVisitedSet(Impl K, unsigned Log2Shards)
    : Kind(K) {
  if (K == Impl::BitState)
    return; // The bit table is allocated by the factory.
  assert(Log2Shards < 16 && "unreasonable shard count");
  size_t NumShards = size_t(1) << Log2Shards;
  Shards.reserve(NumShards);
  for (size_t I = 0; I != NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
  ShardBits = Log2Shards;
}

ConcurrentVisitedSet ConcurrentVisitedSet::exact(unsigned Log2Shards) {
  return ConcurrentVisitedSet(Impl::Exact, Log2Shards);
}

ConcurrentVisitedSet ConcurrentVisitedSet::hashCompact(unsigned Log2Shards) {
  return ConcurrentVisitedSet(Impl::Hash64, Log2Shards);
}

ConcurrentVisitedSet ConcurrentVisitedSet::bitState(unsigned Bits,
                                                    uint64_t Seed) {
  assert(Bits >= 6 && Bits < 64 && "bit-state bits must be validated");
  ConcurrentVisitedSet S(Impl::BitState, 0);
  S.NumBitWords = (size_t(1) << Bits) / 64;
  S.BitWords = std::make_unique<std::atomic<uint64_t>[]>(S.NumBitWords);
  for (size_t I = 0; I != S.NumBitWords; ++I)
    S.BitWords[I].store(0, std::memory_order_relaxed);
  S.BitMask = (uint64_t(1) << Bits) - 1;
  S.Seed = Seed;
  return S;
}

bool ConcurrentVisitedSet::insert(uint64_t Fp, std::string_view Bytes) {
  bool New;
  if (Kind == Impl::BitState) {
    // Two independent probes over one bit table (SPIN's supertrace uses
    // the same trick to cut collisions), each a remix of the fingerprint.
    // A swarm seed perturbs both so each worker prunes a different slice.
    uint64_t H1 = mix64(Fp ^ Seed) & BitMask;
    uint64_t H2 = mix64(Fp ^ Seed ^ SecondHashSeed) & BitMask;
    uint64_t Old1 = BitWords[H1 / 64].fetch_or(uint64_t(1) << (H1 % 64),
                                               std::memory_order_relaxed);
    uint64_t Old2 = BitWords[H2 / 64].fetch_or(uint64_t(1) << (H2 % 64),
                                               std::memory_order_relaxed);
    bool Seen1 = Old1 & (uint64_t(1) << (H1 % 64));
    bool Seen2 = Old2 & (uint64_t(1) << (H2 % 64));
    New = !(Seen1 && Seen2);
  } else {
    // The shard comes from the fingerprint's high bits; hash compaction
    // stores the full 64-bit value, so sharding does not change its
    // collision behavior.
    Shard &S = *Shards[shardIndex(Fp, ShardBits)];
    std::lock_guard<std::mutex> Lock(S.M);
    if (Kind == Impl::Hash64) {
      New = S.Fp64.insert(Fp);
    } else {
      // A vector is new exactly when interning it grows the pool.
      const size_t Before = S.Vectors.size();
      S.Vectors.intern(Bytes, 0, Fp);
      New = S.Vectors.size() != Before;
    }
  }
  if (New)
    Stored.fetch_add(1, std::memory_order_relaxed);
  return New;
}

size_t ConcurrentVisitedSet::bytes() const {
  if (Kind == Impl::BitState)
    return NumBitWords * sizeof(uint64_t);
  size_t Total = 0;
  for (const std::unique_ptr<Shard> &Sp : Shards) {
    Shard &S = *Sp;
    std::lock_guard<std::mutex> Lock(S.M);
    switch (Kind) {
    case Impl::Exact:
      Total += S.Vectors.memoryBytes();
      break;
    case Impl::Hash64:
      Total += S.Fp64.bytes();
      break;
    case Impl::BitState:
      break;
    }
  }
  return Total;
}
