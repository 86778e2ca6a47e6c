//===--- TransitionCache.h - The search's successor cache -------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-worker cache of the exhaustive search's transitions: LTSmin's
/// PINS transition cache (Blom, van de Pol and Weber, CAV 2010) over
/// per-process components interned as in SPIN's COLLAPSE mode.
///
/// In verification mode a move changes only the processes that take part
/// in it, its writer and its reader (the environment is neither), and
/// deep-copy transfers keep every heap object reachable from one process
/// at most. A state vector is one segment per process plus a tail
/// (Machine::serializeState), so a successor's vector is a function of
/// the move, the participants' segments and the heap's live count, which
/// decides whether an allocation hits MaxObjects. The cache stores that
/// function, with the successor's live count, for the transitions that
/// raised no violation; a move it has seen costs a lookup of the
/// successor's parts instead of a restore, an apply and a serialize.
///
/// A state's fingerprint, the key of every visited store, is one hash
/// over its segments' hashes, which the pool keeps, and its
/// environment-send counts, so a hit yields its successor's fingerprint
/// without a vector. Only exact storage splices the vector from the pool.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_MC_TRANSITIONCACHE_H
#define ESP_MC_TRANSITIONCACHE_H

#include "mc/StateStore.h"
#include "runtime/Machine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace esp {
namespace mc_detail {

/// One worker's transition cache. The search keeps each DFS frame's
/// *parts*, partsWords() words: one segment id per process, the
/// envSends() counts, then the heap's live count. Ids are valid for one
/// generation(): enforceBudget() drops the pool and the table together,
/// after which older parts must be captured again.
class TransitionCache {
public:
  /// A cache for machines shaped like \p M (its process count, whether
  /// its vectors carry environment-send counts, and the channels the
  /// environment drives). \p M must use DeepCopyTransfers, as every
  /// search machine does, and have its environment model set.
  explicit TransitionCache(const Machine &M);

  size_t partsWords() const { return NumProcs + NumEnv + 1; }

  /// Fills \p Parts with \p M's current state, interning every segment.
  /// Returns the number of heap objects its vector reaches
  /// (Machine::countLeakedObjects(size_t)).
  size_t capture(const Machine &M, uint32_t *Parts);

  /// When the successor of the state \p Parent under \p Mv is cached,
  /// writes its parts into \p Child. Such a successor raised no
  /// violation.
  bool lookup(const uint32_t *Parent, const Move &Mv, uint32_t *Child);

  /// \p M holds the successor of \p Parent under \p Mv, after a miss, and
  /// has no runtime error. Serializes the participants' segments and
  /// writes the successor's parts into \p Child. Returns the number of
  /// heap objects its vector reaches.
  size_t successor(const Machine &M, const uint32_t *Parent, const Move &Mv,
                   uint32_t *Child);

  /// Writes the state vector of \p Parts into \p Vec.
  void splice(const uint32_t *Parts, std::string &Vec) const;

  /// The hash-compaction fingerprint of the state \p Parts: one xxHash64
  /// over its segments' hashes, in process order, and the send counts of
  /// the channels the environment drives (every other channel's count is
  /// 0). It depends on the state alone, not on the pool's ids, so
  /// workers with different pools agree on it.
  uint64_t fingerprint(const uint32_t *Parts);

  /// Caches \p Parent --\p Mv--> \p Child, a transition whose successor
  /// raised no violation.
  void record(const uint32_t *Parent, const Move &Mv, const uint32_t *Child);

  uint32_t generation() const { return Generation; }

  /// Drops the pool and the table, starting a new generation, when
  /// together they hold more than \p Budget bytes.
  void enforceBudget(size_t Budget);

  uint64_t hits() const { return Hits; }
  size_t entries() const { return Entries.size(); }
  const SegmentPool &pool() const { return Pool; }
  /// Peak bytes of the segment pool and of the entry table.
  size_t peakPoolBytes() const;
  size_t peakTableBytes() const;

private:
  static constexpr uint32_t kNone = IdIndex::kNone;

  /// A move, its participants' segment ids and the live count, packed
  /// into 20 bytes. The move's channel is left out: the participant's
  /// case index and its PC, which its segment holds, determine it.
  struct Key {
    uint32_t Packed[2]; ///< Kind, writer, reader, their cases, variant.
    uint32_t In[2];   ///< Writer's and reader's segment ids, or kNone.
    uint32_t Live;    ///< The parent's heap live count.
    friend bool operator==(const Key &, const Key &) = default;
  };
  struct Entry {
    Key K;
    uint32_t Out[2]; ///< The participants' successor segment ids.
    uint32_t Live;   ///< The successor's heap live count.
  };

  /// Packs the key of \p Mv from \p Parent; false for a move whose
  /// indices do not fit the packing, which is never cached.
  bool makeKey(const Move &Mv, const uint32_t *Parent, Key &K) const;
  static uint64_t hash(const Key &K);
  /// The number of heap objects the vector of \p Parts reaches.
  size_t reached(const uint32_t *Parts) const;
  size_t tableBytes() const {
    return Entries.capacity() * sizeof(Entry) + Index.memoryBytes();
  }

  unsigned NumProcs;
  size_t NumEnv;
  /// The driven channels whose counts a fingerprint covers; empty
  /// without an environment budget.
  std::vector<uint32_t> SendChannels;
  SegmentPool Pool;
  std::vector<Entry> Entries;
  IdIndex Index; ///< Of Entries, by key.
  uint32_t Generation = 0;
  uint64_t Hits = 0;
  size_t PeakPool = 0;
  size_t PeakTable = 0;
  std::string Scratch; ///< One segment being serialized.
  /// A fingerprint's input: the segment hashes, then the driven
  /// channels' counts two to a word.
  std::vector<uint64_t> FpBlock;
};

} // namespace mc_detail
} // namespace esp

#endif // ESP_MC_TRANSITIONCACHE_H
