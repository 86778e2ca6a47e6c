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

// Xored into the seed of the second bit-state probe, so the two probes
// are independent hash functions for every swarm seed.
static constexpr uint64_t SecondHashSeed = 0x9e3779b97f4a7c15ULL;

/// Estimated memory of one stored exact-mode key: its bytes plus the
/// string and hash-node overhead. Summed at insert, so bytes() is O(1).
static size_t exactKeyBytes(std::string_view Key) {
  return Key.size() + sizeof(std::string) + 16;
}

/// The lock stripe of hash \p H among 2^\p Bits stripes: its high bits
/// (a shift by 64 would be undefined, hence the one-stripe case).
static size_t shardIndex(uint64_t H, unsigned Bits) {
  return Bits == 0 ? 0 : static_cast<size_t>(H >> (64 - Bits));
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

bool ConcurrentVisitedSet::insert(std::string_view Key) {
  bool New = false;
  if (Kind == Impl::BitState) {
    // Two independent hash functions over one bit table (SPIN's
    // supertrace uses the same trick to cut collisions). A swarm seed
    // perturbs both probes so each worker prunes a different slice.
    uint64_t H1 = xxHash64(Key.data(), Key.size(), Seed) & BitMask;
    uint64_t H2 =
        xxHash64(Key.data(), Key.size(), Seed ^ SecondHashSeed) & BitMask;
    uint64_t Old1 = BitWords[H1 / 64].fetch_or(uint64_t(1) << (H1 % 64),
                                               std::memory_order_relaxed);
    uint64_t Old2 = BitWords[H2 / 64].fetch_or(uint64_t(1) << (H2 % 64),
                                               std::memory_order_relaxed);
    bool Seen1 = Old1 & (uint64_t(1) << (H1 % 64));
    bool Seen2 = Old2 & (uint64_t(1) << (H2 % 64));
    New = !(Seen1 && Seen2);
    if (New)
      Stored.fetch_add(1, std::memory_order_relaxed);
    return New;
  }

  // Sharded backends: the shard index comes from the fingerprint's high
  // bits; the stored fingerprint is the full 64-bit value, so sharding
  // does not change the collision behavior.
  uint64_t Fp = xxHash64(Key.data(), Key.size());
  if (Kind == Impl::Hash64)
    return insertFingerprint(Fp);
  Shard &S = *Shards[shardIndex(Fp, ShardBits)];
  {
    std::lock_guard<std::mutex> Lock(S.M);
    if (S.ExactKeys.find(Key) == S.ExactKeys.end()) {
      S.ExactKeys.emplace(Key);
      S.ExactKeyBytes += exactKeyBytes(Key);
      New = true;
    }
  }
  if (New)
    Stored.fetch_add(1, std::memory_order_relaxed);
  return New;
}

bool ConcurrentVisitedSet::insertFingerprint(uint64_t Fp) {
  assert(Kind == Impl::Hash64 && "only hash compaction stores fingerprints");
  Shard &S = *Shards[shardIndex(Fp, ShardBits)];
  bool New;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    New = S.Fp64.insert(Fp);
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
      Total += S.ExactKeys.bucket_count() * sizeof(void *) + S.ExactKeyBytes;
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
