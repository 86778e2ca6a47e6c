//===--- TransitionCache.cpp - The search's successor cache -----------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mc/TransitionCache.h"

#include "support/StringExtras.h"

#include <algorithm>
#include <cassert>

using namespace esp;
using namespace esp::mc_detail;

//===----------------------------------------------------------------------===//
// TransitionCache
//===----------------------------------------------------------------------===//

TransitionCache::TransitionCache(const Machine &M)
    : NumProcs(M.numProcesses()), NumEnv(M.envSends().size()) {
  if (NumEnv != 0) {
    std::span<const uint32_t> Driven = M.envSendChannels();
    SendChannels.assign(Driven.begin(), Driven.end());
  }
  FpBlock.resize(NumProcs + (SendChannels.size() + 1) / 2);
}

size_t TransitionCache::capture(const Machine &M, uint32_t *Parts) {
  for (unsigned P = 0; P != NumProcs; ++P) {
    size_t Objects = M.serializeProcess(P, Scratch);
    Parts[P] = Pool.intern(Scratch, static_cast<uint32_t>(Objects));
  }
  std::span<const uint32_t> Env = M.envSends();
  std::copy(Env.begin(), Env.end(), Parts + NumProcs);
  Parts[NumProcs + NumEnv] = M.heap().getLiveCount();
  return reached(Parts);
}

size_t TransitionCache::reached(const uint32_t *Parts) const {
  size_t Reached = 0;
  for (unsigned P = 0; P != NumProcs; ++P)
    Reached += Pool.objects(Parts[P]);
  return Reached;
}

bool TransitionCache::makeKey(const Move &Mv, const uint32_t *Parent,
                              Key &K) const {
  // From the top: the kind in 2 bits, the writer and the reader plus one
  // (0 is the environment) in 11 each, their case indices in 10 each,
  // the environment variant in 20.
  constexpr uint32_t MaxProc = (1u << 11) - 2, MaxCase = (1u << 10) - 1,
                     MaxVariant = (1u << 20) - 1;
  if (NumProcs > MaxProc || Mv.WriterCase > MaxCase ||
      Mv.ReaderCase > MaxCase || Mv.EnvVariant > MaxVariant)
    return false;
  const uint64_t Packed = static_cast<uint64_t>(Mv.K) << 62 |
                          static_cast<uint64_t>(Mv.Writer + 1) << 51 |
                          static_cast<uint64_t>(Mv.Reader + 1) << 40 |
                          static_cast<uint64_t>(Mv.WriterCase) << 30 |
                          static_cast<uint64_t>(Mv.ReaderCase) << 20 |
                          Mv.EnvVariant;
  K.Packed[0] = static_cast<uint32_t>(Packed >> 32);
  K.Packed[1] = static_cast<uint32_t>(Packed);
  K.In[0] = Mv.Writer >= 0 ? Parent[Mv.Writer] : kNone;
  K.In[1] = Mv.Reader >= 0 ? Parent[Mv.Reader] : kNone;
  K.Live = Parent[NumProcs + NumEnv];
  return true;
}

uint64_t TransitionCache::hash(const Key &K) {
  auto Pair = [](uint32_t Hi, uint32_t Lo) {
    return static_cast<uint64_t>(Hi) << 32 | Lo;
  };
  uint64_t H = mix64(Pair(K.Packed[0], K.Packed[1]));
  H = mix64(H ^ Pair(K.In[0], K.In[1]));
  return mix64(H ^ K.Live);
}

bool TransitionCache::lookup(const uint32_t *Parent, const Move &Mv,
                             uint32_t *Child) {
  Key K;
  if (Entries.empty() || !makeKey(Mv, Parent, K))
    return false;
  const uint32_t Id =
      Index.find(hash(K), [&](uint32_t Id) { return Entries[Id].K == K; });
  if (Id == kNone)
    return false;
  const Entry &E = Entries[Id];
  std::copy(Parent, Parent + NumProcs + NumEnv, Child);
  if (Mv.Writer >= 0)
    Child[Mv.Writer] = E.Out[0];
  if (Mv.Reader >= 0)
    Child[Mv.Reader] = E.Out[1];
  if (Mv.K == Move::Kind::EnvSend && NumEnv != 0)
    ++Child[NumProcs + Mv.Channel];
  Child[NumProcs + NumEnv] = E.Live;
  ++Hits;
  return true;
}

size_t TransitionCache::successor(const Machine &M, const uint32_t *Parent,
                                  const Move &Mv, uint32_t *Child) {
  assert(!M.error() && "a faulted successor is not cached");
  std::copy(Parent, Parent + NumProcs, Child);
  for (int P : {Mv.Writer, Mv.Reader}) {
    if (P < 0)
      continue;
    size_t Objects = M.serializeProcess(static_cast<unsigned>(P), Scratch);
    Child[P] = Pool.intern(Scratch, static_cast<uint32_t>(Objects));
  }
  std::span<const uint32_t> Env = M.envSends();
  std::copy(Env.begin(), Env.end(), Child + NumProcs);
  Child[NumProcs + NumEnv] = M.heap().getLiveCount();
  return reached(Child);
}

void TransitionCache::record(const uint32_t *Parent, const Move &Mv,
                             const uint32_t *Child) {
  Entry New;
  if (!makeKey(Mv, Parent, New.K))
    return;
  New.Out[0] = Mv.Writer >= 0 ? Child[Mv.Writer] : kNone;
  New.Out[1] = Mv.Reader >= 0 ? Child[Mv.Reader] : kNone;
  New.Live = Child[NumProcs + NumEnv];
  Entries.push_back(New);
  Index.insert(hash(New.K), [&](uint32_t Id) { return hash(Entries[Id].K); });
}

void TransitionCache::splice(const uint32_t *Parts, std::string &Vec) const {
  Vec.clear();
  for (unsigned P = 0; P != NumProcs; ++P)
    Vec.append(Pool.bytes(Parts[P]));
  Machine::appendStateTail(Vec, RuntimeErrorKind::None,
                           {Parts + NumProcs, NumEnv});
}

uint64_t TransitionCache::fingerprint(const uint32_t *Parts) {
  for (unsigned P = 0; P != NumProcs; ++P)
    FpBlock[P] = Pool.hash(Parts[P]);
  // The driven channels' counts, two to a word (an odd last one with a
  // zero high half). Hashing them as one block with the segment hashes
  // costs less than folding each into the hash.
  uint64_t *Counts = FpBlock.data() + NumProcs;
  const uint32_t *Env = Parts + NumProcs;
  for (size_t I = 0, N = SendChannels.size(); I < N; I += 2)
    Counts[I / 2] = Env[SendChannels[I]] |
                    (I + 1 < N ? uint64_t(Env[SendChannels[I + 1]]) << 32 : 0);
  return xxHash64(FpBlock.data(), FpBlock.size() * sizeof(uint64_t));
}

void TransitionCache::enforceBudget(size_t Budget) {
  const size_t PoolBytes = Pool.memoryBytes();
  const size_t TableBytes = tableBytes();
  PeakPool = std::max(PeakPool, PoolBytes);
  PeakTable = std::max(PeakTable, TableBytes);
  if (PoolBytes + TableBytes <= Budget)
    return;
  Pool.clear();
  std::vector<Entry>().swap(Entries);
  Index.clear();
  ++Generation;
}

size_t TransitionCache::peakPoolBytes() const {
  return std::max(PeakPool, Pool.memoryBytes());
}

size_t TransitionCache::peakTableBytes() const {
  return std::max(PeakTable, tableBytes());
}
