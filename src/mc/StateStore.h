//===--- StateStore.h - Visited-state storage for the checker ---*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Visited-state storage for the explicit-state model checker,
/// reproducing SPIN's answers to state explosion, and SegmentPool, the
/// checker's one byte-string interner. ConcurrentVisitedSet is
/// thread-safe, since the search's workers share it (SPIN's multicore
/// mode; one worker is the common case). Every store takes a state by
/// one key: its 64-bit fingerprint (TransitionCache::fingerprint), plus
/// its canonical vector (Machine::serializeState), which only exact
/// storage reads. The three backends are exact (the full vector, SPIN's
/// default), hash compaction (the fingerprint, SPIN's -DHC) and
/// bit-state hashing (two bits per state in a fixed table, SPIN's
/// supertrace; both probes derive from the fingerprint). Exact and hash
/// storage is a lock-striped sharded table (shard selected by the
/// fingerprint's high bits) whose exact shards intern each vector in a
/// SegmentPool under its fingerprint; bit-state is an atomic fetch_or
/// bit table.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_MC_STATESTORE_H
#define ESP_MC_STATESTORE_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace esp {
namespace mc_detail {

/// A hash index over records kept densely elsewhere under ids 0, 1, ...:
/// linear probing in a power-of-two table of 4-byte slots, at most half
/// full, each holding an id + 1 (0 marks an empty slot).
class IdIndex {
public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The first id filed under \p Hash that \p Match accepts, or kNone.
  template <typename MatchFn>
  uint32_t find(uint64_t Hash, MatchFn &&Match) const {
    if (Slots.empty())
      return kNone;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask; Slots[I] != 0; I = (I + 1) & Mask)
      if (Match(Slots[I] - 1))
        return Slots[I] - 1;
    return kNone;
  }

  /// Files the next id, size(), under \p Hash. Growing the table re-files
  /// every id under \p HashOf(id).
  template <typename HashFn> void insert(uint64_t Hash, HashFn &&HashOf) {
    const uint32_t Id = Count++;
    if (2 * Count > Slots.size()) {
      Slots.assign(std::max<size_t>(64, 2 * Slots.size()), 0);
      for (uint32_t Old = 0; Old != Id; ++Old)
        place(HashOf(Old), Old);
    }
    place(Hash, Id);
  }

  uint32_t size() const { return Count; }
  size_t memoryBytes() const { return Slots.capacity() * sizeof(uint32_t); }
  /// Drops every id and releases the memory.
  void clear() {
    std::vector<uint32_t>().swap(Slots);
    Count = 0;
  }

private:
  void place(uint64_t Hash, uint32_t Id) {
    const size_t Mask = Slots.size() - 1;
    size_t I = Hash & Mask;
    while (Slots[I] != 0)
      I = (I + 1) & Mask;
    Slots[I] = Id + 1;
  }

  std::vector<uint32_t> Slots;
  uint32_t Count = 0;
};

/// Interned byte strings: each distinct string is stored once under a
/// dense uint32_t id, with the hash it is filed under and the number of
/// heap objects it reaches (a transition-cache segment's count; exact
/// storage passes 0). The bytes live in chunks that never move, 4 KB at
/// first and doubling up to 64 KB, so a small pool stays small and a
/// large one wastes at most the tail of its last chunk.
class SegmentPool {
public:
  /// The id of \p Bytes, interning it with its object count \p Objects on
  /// first sight, filed under its xxHash64.
  uint32_t intern(std::string_view Bytes, uint32_t Objects);
  /// The same, filed under \p Hash. Equal strings must come with equal
  /// hashes.
  uint32_t intern(std::string_view Bytes, uint32_t Objects, uint64_t Hash);

  /// String \p Id's bytes; valid until clear().
  std::string_view bytes(uint32_t Id) const {
    const Segment &S = Segments[Id];
    return {S.Data, S.Length};
  }
  uint32_t objects(uint32_t Id) const { return Segments[Id].Objects; }
  /// The hash string \p Id is filed under.
  uint64_t hash(uint32_t Id) const { return Segments[Id].Hash; }

  size_t size() const { return Segments.size(); }
  /// Bytes held: the chunks, the string records and the table.
  size_t memoryBytes() const;
  /// Drops every string and releases the memory.
  void clear() { *this = SegmentPool(); }

private:
  static constexpr size_t kFirstChunk = 4 << 10, kMaxChunk = 64 << 10;

  struct Segment {
    uint64_t Hash;
    const char *Data;
    uint32_t Length;
    uint32_t Objects;
  };

  /// Copies \p Bytes into the last chunk, opening a new chunk when they
  /// do not fit in its free tail.
  const char *store(std::string_view Bytes);

  std::vector<std::unique_ptr<char[]>> Chunks;
  size_t ChunkBytes = 0; ///< The chunks' total size.
  size_t NextChunk = kFirstChunk;
  char *Tail = nullptr; ///< The last chunk's free tail.
  size_t TailBytes = 0;
  std::vector<Segment> Segments;
  IdIndex Index;
};

} // namespace mc_detail

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

  /// Memory held by the set.
  size_t bytes() const;

private:
  enum class Impl : uint8_t { Exact, Hash64, BitState };

  struct Shard {
    std::mutex M;
    mc_detail::SegmentPool Vectors; ///< Exact storage's vectors.
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
