//===--- test_mc_cache.cpp - Transition cache tests -------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the search's transition cache (mc/TransitionCache.h): the
/// segment pool, and an oracle that drives the cache along seeded walks
/// and checks every vector it serves against a full serialization of the
/// machine the move was applied to.
///
//===----------------------------------------------------------------------===//

#include "mc/ParallelSearch.h"
#include "mc/TransitionCache.h"
#include "vmmc/EspFirmwareSource.h"
#include "TestHelpers.h"

#include <algorithm>
#include <random>

using namespace esp;
using namespace esp::mc_detail;
using namespace esp::test;

namespace {

MachineOptions searchOptions(uint32_t MaxObjects, uint32_t Budget) {
  McOptions Mc;
  Mc.MaxObjects = MaxObjects;
  Mc.EnvSendBudget = Budget;
  return verifyMachineOptions(Mc);
}

/// What an oracle walk saw.
struct OracleStats {
  uint64_t Hits = 0;
  bool RendezvousHit = false; ///< A hit on a two-participant move.
  bool AllocatingHit = false; ///< A hit whose successor has more objects.
  bool LeakedState = false;   ///< A state whose live count exceeds reached.
};

/// Walks \p Steps seeded steps over \p H's module, offering every enabled
/// move of each state to one TransitionCache, as the search does. A hit
/// must serve exactly the parts, live count included, that successor()
/// takes of the machine the move was applied to, and they must splice
/// into that machine's vector; a miss is recorded from the applied
/// machine when it raised no violation (runtime error, or with
/// \p CheckLeaks a leak). A dead end or a faulted step goes back to the
/// root. Adds what it saw to \p Stats.
void oracleWalk(const Harness &H, const MachineOptions &MO, bool CheckLeaks,
                uint64_t Seed, unsigned Steps, OracleStats &Stats) {
  Machine M(H.Module, MO);
  M.setEnvModel(H.Env.get());
  M.start();
  const Machine::Snapshot Root = M.snapshot();
  TransitionCache Cache(M);
  const size_t Words = Cache.partsWords();
  std::vector<uint32_t> Parent(Words), Child(Words);
  std::mt19937_64 Rng(Seed);
  std::string Served, Full;
  for (unsigned Step = 0; Step != Steps; ++Step) {
    Machine::Snapshot Here = M.snapshot();
    Cache.capture(M, Parent.data());
    std::vector<Move> Moves = M.enumerateMoves();
    if (M.error() || Moves.empty()) {
      M.restore(Root);
      continue;
    }
    for (const Move &Mv : Moves) {
      const bool Hit = Cache.lookup(Parent.data(), Mv, Child.data());
      M.restore(Here);
      M.applyMove(Mv);
      if (Hit) {
        ++Stats.Hits;
        ASSERT_FALSE(M.error()) << Mv.str(H.Module) << ": "
                                << M.error().Message;
        Cache.splice(Child.data(), Served);
        size_t Reached = M.serializeState(Full);
        ASSERT_EQ(Served, Full) << Mv.str(H.Module);
        const std::vector<uint32_t> ServedParts = Child;
        ASSERT_EQ(Cache.successor(M, Parent.data(), Mv, Child.data()),
                  Reached);
        ASSERT_EQ(Child, ServedParts) << Mv.str(H.Module);
        Stats.RendezvousHit |= Mv.Writer >= 0 && Mv.Reader >= 0;
        Stats.AllocatingHit |= Child[Words - 1] > Parent[Words - 1];
        Stats.LeakedState |= M.heap().getLiveCount() > Reached;
        continue;
      }
      if (M.error())
        continue;
      size_t Reached = Cache.successor(M, Parent.data(), Mv, Child.data());
      Cache.splice(Child.data(), Served);
      ASSERT_EQ(Reached, M.serializeState(Full)) << Mv.str(H.Module);
      ASSERT_EQ(Served, Full) << Mv.str(H.Module);
      Stats.LeakedState |= M.heap().getLiveCount() > Reached;
      if (!CheckLeaks || M.countLeakedObjects(Reached) == 0)
        Cache.record(Parent.data(), Mv, Child.data());
    }
    M.restore(Here);
    M.applyMove(Moves[Rng() % Moves.size()]);
    if (M.error())
      M.restore(Root);
  }
}

//===----------------------------------------------------------------------===//
// SegmentPool
//===----------------------------------------------------------------------===//

TEST(TransitionCache, SegmentPoolInternsEachSegmentOnce) {
  // Longer than a std::string's inline buffer, so each one is stored on
  // the heap.
  auto Segment = [](unsigned I) {
    return "interned segment " + std::to_string(I);
  };
  SegmentPool Pool;
  std::vector<uint32_t> Ids;
  Ids.push_back(Pool.intern(Segment(0), 0));
  // Chunks never move: a view stays valid across later interns, among
  // them one longer than any chunk.
  const std::string_view First = Pool.bytes(Ids[0]);
  for (unsigned I = 1; I != 1000; ++I)
    Ids.push_back(Pool.intern(Segment(I), I % 7));
  const std::string Long(100000, 'x');
  const uint32_t LongId = Pool.intern(Long, 0);
  EXPECT_EQ(First, Segment(0));
  EXPECT_EQ(Pool.bytes(LongId), Long);
  EXPECT_EQ(Pool.size(), 1001u);
  EXPECT_GE(Pool.memoryBytes(), Long.size() + 1000 * 18);
  for (unsigned I = 0; I != 1000; ++I) {
    EXPECT_EQ(Pool.intern(Segment(I), I % 7), Ids[I]);
    EXPECT_EQ(Pool.bytes(Ids[I]), Segment(I));
    EXPECT_EQ(Pool.objects(Ids[I]), I % 7);
  }
  EXPECT_EQ(Pool.size(), 1001u);
  EXPECT_EQ(Pool.intern(std::string("\0\1", 2), 0), 1001u);
  EXPECT_EQ(Pool.intern(std::string("\0\2", 2), 0), 1002u);
  // Filed under a caller's hash: two strings under one hash are two ids.
  EXPECT_EQ(Pool.intern("a", 0, 7), 1003u);
  EXPECT_EQ(Pool.intern("b", 0, 7), 1004u);
  EXPECT_EQ(Pool.intern("a", 0, 7), 1003u);
  EXPECT_EQ(Pool.hash(1003), 7u);
  Pool.clear();
  EXPECT_EQ(Pool.size(), 0u);
  EXPECT_EQ(Pool.memoryBytes(), SegmentPool().memoryBytes());
}

//===----------------------------------------------------------------------===//
// Oracle walks
//===----------------------------------------------------------------------===//

TEST(TransitionCache, VerifyHarnessWalksMatchSerialization) {
  // The `verify` harness: the environment drives both pageTable and
  // deliver, so every move has one participant.
  auto C = compile(vmmc::getVmmcEspSource());
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"pageTable", "deliver"});
  OracleStats All;
  for (uint64_t Seed : {1u, 2u, 3u})
    oracleWalk(H, searchOptions(256, 4), /*CheckLeaks=*/true, Seed, 300, All);
  EXPECT_GT(All.Hits, 0u);
}

TEST(TransitionCache, WholeFirmwareWalksMatchSerialization) {
  // Every VMMC process at once: processes rendezvous with each other,
  // and userReq's moves allocate.
  auto C = compile(vmmc::getVmmcEspSource());
  ASSERT_TRUE(C);
  Harness H = makeHarness(
      *C->Prog, {"userReq", "pageTable", "txWindow", "rxDemux", "deliver"});
  OracleStats All;
  for (uint64_t Seed : {1u, 2u})
    oracleWalk(H, searchOptions(256, 1), /*CheckLeaks=*/true, Seed, 200, All);
  EXPECT_GT(All.Hits, 0u);
  EXPECT_TRUE(All.RendezvousHit);
  EXPECT_TRUE(All.AllocatingHit);
}

TEST(TransitionCache, LeakyWalkWithoutLeakChecks) {
  // Without the leak check, a leaked object keeps the live count above
  // the objects the vector reaches; the key's live count must still be
  // the heap's, not the vector's.
  auto C = compile(R"(
channel t: int
channel u: int
process leaker {
  while (true) {
    in(t, $x);
    $b: array of int = { 1 -> x };
  }
}
process other {
  while (true) { in(u, $y); }
}
)");
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"leaker", "other"});
  OracleStats S;
  oracleWalk(H, searchOptions(6, 0), /*CheckLeaks=*/false, /*Seed=*/7, 400, S);
  EXPECT_GT(S.Hits, 0u);
  EXPECT_TRUE(S.LeakedState);
}

TEST(TransitionCache, LiveCountIsPartOfTheKey) {
  // At the root the heap is one object below MaxObjects and taker's
  // allocation fits. Once keeper holds its object, taker's segment is the
  // same but the heap is full, so the transition cached at the root must
  // not be served, and applying the move runs out of objects.
  auto C = compile(kKeeperTakerSource);
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"keeper", "taker"});
  Machine M(H.Module, searchOptions(/*MaxObjects=*/2, /*Budget=*/0));
  M.setEnvModel(H.Env.get());
  M.start();
  const Machine::Snapshot Root = M.snapshot();
  TransitionCache Cache(M);
  const size_t Words = Cache.partsWords();
  std::vector<uint32_t> Parent(Words), Child(Words);
  std::string Vec;

  Cache.capture(M, Parent.data());
  const Move Take = findEnvSend(M, M.enumerateMoves(), "t", 0);
  ASSERT_FALSE(Cache.lookup(Parent.data(), Take, Child.data()));
  M.applyMove(Take);
  ASSERT_FALSE(M.error()) << M.error().Message;
  Cache.successor(M, Parent.data(), Take, Child.data());
  Cache.record(Parent.data(), Take, Child.data());
  M.restore(Root);
  ASSERT_TRUE(Cache.lookup(Parent.data(), Take, Child.data()));
  Cache.splice(Child.data(), Vec);
  EXPECT_EQ(Vec, [&] {
    M.applyMove(Take);
    return M.serializeState();
  }());

  M.restore(Root);
  M.applyMove(findEnvSend(M, M.enumerateMoves(), "k", 0));
  ASSERT_FALSE(M.error()) << M.error().Message;
  std::vector<uint32_t> Held(Words);
  Cache.capture(M, Held.data());
  EXPECT_EQ(Held[1], Parent[1]) << "taker's segment should not change";
  EXPECT_EQ(Held[Words - 1], Parent[Words - 1] + 1);
  EXPECT_EQ(Held[Words - 1], 2u);
  EXPECT_FALSE(Cache.lookup(Held.data(), Take, Child.data()));
  M.applyMove(Take);
  EXPECT_EQ(M.error().Kind, RuntimeErrorKind::OutOfObjects);
}

TEST(TransitionCache, HitCarriesTheWholeSuccessor) {
  // keeper's first receive allocates, so its successor's live count is
  // one above the root's. Re-applying the recorded move, the hit must
  // serve every part successor() takes of the machine, that count too.
  auto C = compile(kKeeperTakerSource);
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"keeper", "taker"});
  Machine M(H.Module, searchOptions(/*MaxObjects=*/4, /*Budget=*/0));
  M.setEnvModel(H.Env.get());
  M.start();
  const Machine::Snapshot Root = M.snapshot();
  TransitionCache Cache(M);
  const size_t Words = Cache.partsWords();
  std::vector<uint32_t> Parent(Words), Applied(Words), Served(Words);

  Cache.capture(M, Parent.data());
  const Move Keep = findEnvSend(M, M.enumerateMoves(), "k", 0);
  M.applyMove(Keep);
  ASSERT_FALSE(M.error()) << M.error().Message;
  Cache.successor(M, Parent.data(), Keep, Applied.data());
  Cache.record(Parent.data(), Keep, Applied.data());
  EXPECT_EQ(Applied[Words - 1], Parent[Words - 1] + 1);

  M.restore(Root);
  std::fill(Served.begin(), Served.end(), UINT32_MAX);
  ASSERT_TRUE(Cache.lookup(Parent.data(), Keep, Served.data()));
  EXPECT_EQ(Served, Applied);
  M.applyMove(Keep);
  EXPECT_EQ(Served[Words - 1], M.heap().getLiveCount());
}

TEST(TransitionCache, BudgetOverflowStartsANewGeneration) {
  auto C = compile(kKeeperTakerSource);
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"keeper", "taker"});
  Machine M(H.Module, searchOptions(4, 2));
  M.setEnvModel(H.Env.get());
  M.start();
  TransitionCache Cache(M);
  std::vector<uint32_t> Parent(Cache.partsWords()), Child(Parent);
  Cache.capture(M, Parent.data());
  const Move Take = findEnvSend(M, M.enumerateMoves(), "t", 1);
  M.applyMove(Take);
  Cache.successor(M, Parent.data(), Take, Child.data());
  Cache.record(Parent.data(), Take, Child.data());
  EXPECT_EQ(Cache.entries(), 1u);
  // Under an environment budget the parts carry every channel's sends.
  EXPECT_EQ(Cache.partsWords(), M.numProcesses() + M.envSends().size() + 1);

  Cache.enforceBudget(SIZE_MAX);
  EXPECT_EQ(Cache.generation(), 0u);
  EXPECT_EQ(Cache.entries(), 1u);
  Cache.enforceBudget(0);
  EXPECT_EQ(Cache.generation(), 1u);
  EXPECT_EQ(Cache.entries(), 0u);
  EXPECT_EQ(Cache.pool().size(), 0u);
  EXPECT_FALSE(Cache.lookup(Parent.data(), Take, Child.data()));
  EXPECT_GT(Cache.peakPoolBytes(), 0u);
  EXPECT_GT(Cache.peakTableBytes(), 0u);
}

TEST(TransitionCache, FingerprintIgnoresInternOrder) {
  // A fingerprint hashes segment bytes, not pool ids: two caches that
  // numbered the same segments differently agree on it, and an
  // environment-send count is part of it.
  auto C = compile(kKeeperTakerSource);
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"keeper", "taker"});
  Machine M(H.Module, searchOptions(4, 2));
  M.setEnvModel(H.Env.get());
  M.start();
  const Machine::Snapshot Root = M.snapshot();
  TransitionCache First(M), Second(M);
  const size_t Words = First.partsWords();
  std::vector<uint32_t> A(Words), B(Words), Other(Words);
  // Second meets a successor of the root before the root itself.
  M.applyMove(findEnvSend(M, M.enumerateMoves(), "k", 1));
  ASSERT_FALSE(M.error()) << M.error().Message;
  Second.capture(M, Other.data());
  M.restore(Root);
  First.capture(M, A.data());
  Second.capture(M, B.data());
  EXPECT_NE(A, B) << "the pools should number keeper's segment differently";
  EXPECT_EQ(First.fingerprint(A.data()), Second.fingerprint(B.data()));
  EXPECT_NE(First.fingerprint(A.data()), Second.fingerprint(Other.data()));

  // The root with one more send spent on a driven channel.
  const uint32_t Driven = M.envSendChannels().front();
  std::vector<uint32_t> Sent = A;
  ++Sent[M.numProcesses() + Driven];
  EXPECT_NE(First.fingerprint(Sent.data()), First.fingerprint(A.data()));
}

//===----------------------------------------------------------------------===//
// The search
//===----------------------------------------------------------------------===//

TEST(TransitionCache, VerifyHarnessHitCountIsPinned) {
  // `espmc vmmc.esp --process pageTable,deliver --env-budget 4`: all but
  // 1,008 of its transitions are served by the cache.
  auto C = compile(vmmc::getVmmcEspSource());
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"pageTable", "deliver"});
  McOptions Mc;
  Mc.EnvSendBudget = 4;
  McResult R = H.check(Mc);
  ASSERT_EQ(R.Verdict, McVerdict::OK) << R.report();
  EXPECT_EQ(R.Transitions, 697272u);
  EXPECT_EQ(R.TransitionCacheHits, 696264u);
  EXPECT_GT(R.SegmentPoolBytes, 0u);
  EXPECT_GT(R.TransitionCacheBytes, 0u);
  EXPECT_NE(R.json().find("\"transition_cache_hits\": 696264"),
            std::string::npos)
      << R.json();
}

} // namespace
