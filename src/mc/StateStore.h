//===--- StateStore.h - Visited-state storage for the checker ---*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Visited-state storage for the explicit-state model checker,
/// reproducing SPIN's answers to state explosion. ConcurrentVisitedSet
/// is thread-safe, since the search's workers share it (SPIN's multicore
/// mode; one worker is the common case). Every store takes a state by
/// one key: its 64-bit fingerprint (TransitionCache::fingerprint), plus
/// its canonical vector (Machine::serializeState), which only exact
/// storage reads. The three backends are exact (the full vector, SPIN's
/// default), hash compaction (the fingerprint, SPIN's -DHC) and
/// bit-state hashing (two bits per state in a fixed table, SPIN's
/// supertrace; both probes derive from the fingerprint). Exact and hash
/// storage is a lock-striped sharded table (shard selected by the
/// fingerprint's high bits); bit-state is an atomic fetch_or bit table.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_MC_STATESTORE_H
#define ESP_MC_STATESTORE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace esp {

/// Transparent hash for string-keyed tables: lets the hot lookup path
/// probe with a std::string_view and allocate a std::string only on
/// first insertion (C++20 heterogeneous lookup).
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>{}(S);
  }
};

/// Open-addressing set of 64-bit fingerprints: linear probing in a
/// power-of-two table kept at most half full, 8 bytes per slot. Hash
/// compaction's fingerprints are already well mixed, so a slot index is
/// just their low bits. Slot value 0 marks an empty slot; a zero
/// fingerprint is tracked by a flag instead, so membership is exact.
class FingerprintSet {
public:
  /// Inserts \p Fp; true when it was not present before.
  bool insert(uint64_t Fp) {
    if (Fp == 0) {
      bool New = !HasZero;
      HasZero = true;
      Count += New;
      return New;
    }
    if (2 * (Count + 1) > Slots.size())
      grow();
    const size_t Mask = Slots.size() - 1;
    for (size_t I = Fp & Mask;; I = (I + 1) & Mask) {
      if (Slots[I] == Fp)
        return false;
      if (Slots[I] == 0) {
        Slots[I] = Fp;
        ++Count;
        return true;
      }
    }
  }

  size_t size() const { return Count; }
  size_t bytes() const { return Slots.size() * sizeof(uint64_t); }

private:
  void grow();

  std::vector<uint64_t> Slots;
  size_t Count = 0;
  bool HasZero = false;
};

/// Thread-safe visited-state set. `insert` returns true when the state
/// was new; a false return in the lossy backends (hash-compaction
/// fingerprint collision, bit-state saturation) can prune an unvisited
/// state — the probability is negligible for hash-compaction
/// (~n^2/2^64) and the accepted trade-off of supertrace for bit-state.
/// Storage is lock-striped by the fingerprint's high bits, and the
/// bit-state table uses atomic fetch_or. Under concurrent insertion of
/// the *same* bit-state key, two workers can both observe "new" (the two
/// probe bits live in different words) — acceptable for the lossy
/// supertrace mode; the exact/hash backends are linearizable per key.
class ConcurrentVisitedSet {
public:
  /// Exact storage of full keys (SPIN's default exhaustive storage).
  static ConcurrentVisitedSet exact(unsigned Log2Shards = 6);
  /// Hash-compaction: store one 64-bit fingerprint per state.
  static ConcurrentVisitedSet hashCompact(unsigned Log2Shards = 6);
  /// Bit-state hashing over a 2^Bits-bit table with two independent
  /// probes of the fingerprint. \p Bits must already be validated (see
  /// clampedBitStateBits in ModelChecker.h). \p Seed perturbs both
  /// probes; swarm workers pass distinct seeds so each covers a
  /// different random slice of a huge state space.
  static ConcurrentVisitedSet bitState(unsigned Bits, uint64_t Seed = 0);

  /// Movable (factory return); the atomic counter is transferred
  /// non-atomically, which is fine before any concurrent use.
  ConcurrentVisitedSet(ConcurrentVisitedSet &&O) noexcept
      : Kind(O.Kind), Shards(std::move(O.Shards)), ShardBits(O.ShardBits),
        Stored(O.Stored.load(std::memory_order_relaxed)),
        BitWords(std::move(O.BitWords)), NumBitWords(O.NumBitWords),
        BitMask(O.BitMask), Seed(O.Seed) {}

  /// Thread-safe insert of the state with fingerprint \p Fp and vector
  /// \p Bytes; true when it was not present before. Equal vectors must
  /// come with equal fingerprints. Only exact storage reads \p Bytes.
  bool insert(uint64_t Fp, std::string_view Bytes = {});

  /// Whether insert() reads the vector (exact storage).
  bool keepsBytes() const { return Kind == Impl::Exact; }

  /// States recorded via insert() returning true. Exact after all
  /// writers joined.
  uint64_t size() const { return Stored.load(std::memory_order_relaxed); }

  /// Estimated memory held by the set.
  size_t bytes() const;

private:
  enum class Impl : uint8_t { Exact, Hash64, BitState };

  struct Shard {
    std::mutex M;
    std::unordered_set<std::string, TransparentStringHash, std::equal_to<>>
        ExactKeys;
    size_t ExactKeyBytes = 0; ///< Key and node bytes of ExactKeys.
    FingerprintSet Fp64;
  };

  ConcurrentVisitedSet(Impl K, unsigned Log2Shards);

  Impl Kind;
  std::vector<std::unique_ptr<Shard>> Shards;
  unsigned ShardBits = 0;
  std::atomic<uint64_t> Stored{0};

  // Bit-state backend.
  std::unique_ptr<std::atomic<uint64_t>[]> BitWords;
  size_t NumBitWords = 0;
  uint64_t BitMask = 0;
  uint64_t Seed = 0;
};

} // namespace esp

#endif // ESP_MC_STATESTORE_H
