//===--- test_mc_parallel.cpp - Parallel model checker tests ----------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for `--jobs N` (the worker count of the search engine in
/// ParallelSearch.cpp) and the concurrent visited-set backends. The
/// load-bearing property: a COMPLETED exhaustive search reports the
/// identical verdict, StatesStored, StatesExplored, and Transitions at
/// any worker count, because each stored state is expanded exactly once
/// — by whichever worker first inserted it. The reference counts are
/// literals recorded from the retired sequential DFS, so they also pin
/// the one-worker search to it.
///
//===----------------------------------------------------------------------===//

#include "mc/SafetyHarness.h"
#include "mc/StateStore.h"
#include "TestHelpers.h"

#include <iterator>
#include <string>
#include <thread>
#include <vector>

using namespace esp;
using namespace esp::test;

namespace {

//===----------------------------------------------------------------------===//
// Determinism: every -jN reports the reference counts on completed searches
//===----------------------------------------------------------------------===//

// Clean (non-violating) models with enough interleaving to exercise
// work sharing. Deadlock/leak checks stay on, so a completed search
// really covers the whole reachable space.
const char *CleanCorpus[] = {
    // Producer/consumer over a rendezvous channel.
    R"(
channel c: int
process a { $i = 0; while (i < 3) { out(c, i); i = i + 1; } }
process b { $i = 0; while (i < 3) { in(c, $x); assert(x == i); i = i + 1; } }
)",
    // Two clients racing for a server: wide branching near the root.
    R"(
channel req: record of { ret: int }
channel reply: record of { ret: int, v: int }
process p1 { out(req, { @ }); in(reply, { @, $v }); assert(v == 1); }
process p2 { out(req, { @ }); in(reply, { @, $v }); assert(v == 1); }
process server {
  $n = 0;
  while (n < 2) { in(req, { $who }); out(reply, { who, 1 }); n = n + 1; }
}
)",
    // Object transfers: heap objects in the state vector.
    R"(
channel c: array of int
process p {
  $i = 0;
  while (i < 3) {
    $data: array of int = { 2 -> 5 };
    out(c, data);
    unlink(data);
    i = i + 1;
  }
}
process q {
  $i = 0;
  while (i < 3) { in(c, $d); assert(d[0] == 5); unlink(d); i = i + 1; }
}
)",
};

struct Outcome {
  McVerdict Verdict;
  uint64_t Explored, Stored, Transitions;
};

/// Completed exhaustive-search counts of CleanCorpus, per entry, at any
/// visited kind.
const Outcome CleanCorpusCounts[] = {
    {McVerdict::OK, 4, 4, 3},
    {McVerdict::OK, 9, 9, 8},
    {McVerdict::OK, 4, 4, 3},
};

Outcome runJobs(const ModuleIR &Module, McOptions Options, unsigned Jobs) {
  Options.Jobs = Jobs;
  McResult R = checkModel(Module, Options);
  return {R.Verdict, R.StatesExplored, R.StatesStored, R.Transitions};
}

TEST(ParallelMc, CompletedSearchMatchesSequentialAcrossVisitedKinds) {
  for (size_t I = 0; I != std::size(CleanCorpus); ++I) {
    auto C = compile(CleanCorpus[I]);
    ASSERT_TRUE(C);
    const Outcome &Seq = CleanCorpusCounts[I];
    for (VisitedKind Kind : {VisitedKind::Exact, VisitedKind::Hash64}) {
      McOptions Options;
      Options.Visited = Kind;
      for (unsigned Jobs : {1u, 2u, 4u}) {
        Outcome Par = runJobs(C->Module, Options, Jobs);
        EXPECT_EQ(Par.Verdict, Seq.Verdict);
        EXPECT_EQ(Par.Stored, Seq.Stored)
            << "visited kind " << int(Kind) << " jobs " << Jobs;
        EXPECT_EQ(Par.Explored, Seq.Explored);
        EXPECT_EQ(Par.Transitions, Seq.Transitions);
        // The once-per-stored-state expansion invariant.
        EXPECT_EQ(Par.Explored, 1 + Par.Transitions);
      }
    }
  }
}

TEST(ParallelMc, BitStateCompletedSearchMatchesSequential) {
  // Seed-0 bit-state hashes do not depend on the worker count, so even
  // the (lossy) supertrace counts agree.
  auto C = compile(CleanCorpus[1]);
  ASSERT_TRUE(C);
  McOptions Options;
  Options.Mode = SearchMode::BitState;
  Options.BitStateBits = 16;
  const Outcome Seq = {McVerdict::PartialOK, 9, 9, 8};
  for (unsigned Jobs : {1u, 2u, 4u}) {
    Outcome Par = runJobs(C->Module, Options, Jobs);
    EXPECT_EQ(Par.Verdict, Seq.Verdict);
    EXPECT_EQ(Par.Stored, Seq.Stored) << "jobs " << Jobs;
    EXPECT_EQ(Par.Explored, Seq.Explored);
  }
}

TEST(ParallelMc, RepeatedParallelRunsAreSelfConsistent) {
  // Schedules differ run to run; completed-search counts must not.
  auto C = compile(CleanCorpus[2]);
  ASSERT_TRUE(C);
  McOptions Options;
  Outcome First = runJobs(C->Module, Options, 4);
  for (int I = 0; I < 8; ++I) {
    Outcome Again = runJobs(C->Module, Options, 4);
    EXPECT_EQ(Again.Stored, First.Stored);
    EXPECT_EQ(Again.Explored, First.Explored);
    EXPECT_EQ(Again.Transitions, First.Transitions);
  }
}

TEST(ParallelMc, ReportsWorkerAccounting) {
  auto C = compile(CleanCorpus[0]);
  ASSERT_TRUE(C);
  McOptions Options;
  Options.Jobs = 4;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.JobsUsed, 4u);
  ASSERT_EQ(R.WorkerExplored.size(), 4u);
  uint64_t Sum = 0;
  for (uint64_t E : R.WorkerExplored)
    Sum += E;
  // The root is expanded on the coordinating thread, workers do the rest.
  EXPECT_EQ(Sum + 1, R.StatesExplored);
  EXPECT_NE(R.report().find("workers"), std::string::npos);
}

TEST(ParallelMc, JobsZeroUsesHardwareConcurrency) {
  auto C = compile(CleanCorpus[0]);
  ASSERT_TRUE(C);
  McOptions Options;
  Options.Jobs = 0;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::OK) << R.report();
  EXPECT_GE(R.JobsUsed, 1u);
  EXPECT_EQ(R.StatesStored, CleanCorpusCounts[0].Stored);
}

//===----------------------------------------------------------------------===//
// Violations: verdicts agree, parallel traces replay
//===----------------------------------------------------------------------===//

const char *ViolatingCorpus[] = {
    // Assertion race (only one interleaving fails).
    R"(
channel req: record of { ret: int }
channel reply: record of { ret: int, v: int }
process p1 { out(req, { @ }); in(reply, { @, $v }); }
process p2 { out(req, { @ }); in(reply, { @, $v }); assert(false); }
process server {
  $n = 0;
  while (n < 2) { in(req, { $who }); out(reply, { who, 1 }); n = n + 1; }
}
)",
    // Deadlock.
    R"(
channel go: int
channel c1: int
channel c2: int
process a { out(go, 1); out(c1, 1); in(c2, $x); }
process b { in(go, $g); out(c2, 2); in(c1, $y); }
)",
    // Use after free.
    R"(
channel c: array of int
process p {
  $data: array of int = { 4 -> 7 };
  out(c, data);
  unlink(data);
}
process q {
  in(c, $d);
  unlink(d);
  assert(d[0] == 7);
}
)",
    // Leak.
    R"(
channel c: array of int
process p {
  $i = 0;
  while (i < 3) {
    $data: array of int = { 2 -> 1 };
    out(c, data);
    unlink(data);
    i = i + 1;
  }
}
process q {
  $i = 0;
  while (i < 3) { in(c, $d); i = i + 1; }
}
)",
};

/// The violation each ViolatingCorpus entry has, as reported by the
/// former sequential engine (recorded literals, not a live run).
struct ViolationOutcome {
  RuntimeErrorKind Kind;
  bool Deadlock;
};
const ViolationOutcome ViolatingCorpusOutcomes[] = {
    {RuntimeErrorKind::AssertFailed, false},
    {RuntimeErrorKind::None, true},
    {RuntimeErrorKind::UseAfterFree, false},
    {RuntimeErrorKind::OutOfObjects, false},
};
static_assert(std::size(ViolatingCorpusOutcomes) ==
              std::size(ViolatingCorpus));

TEST(ParallelMc, ViolationVerdictsAgreeAndTracesReplay) {
  for (size_t I = 0; I != std::size(ViolatingCorpus); ++I) {
    auto C = compile(ViolatingCorpus[I]);
    ASSERT_TRUE(C);
    const ViolationOutcome &Want = ViolatingCorpusOutcomes[I];
    McOptions Options;
    for (unsigned Jobs : {1u, 2u, 4u}) {
      Options.Jobs = Jobs;
      McResult Par = checkModel(C->Module, Options);
      ASSERT_EQ(Par.Verdict, McVerdict::Violation) << Par.report();
      EXPECT_EQ(Par.Deadlock, Want.Deadlock) << "program " << I;
      EXPECT_EQ(Par.Violation.Kind, Want.Kind) << Par.report();
      EXPECT_EQ(Par.Trace.size(), Par.TraceMoves.size());
      EXPECT_FALSE(Par.TraceMoves.empty());
      EXPECT_TRUE(replayTrace(C->Module, Options, Par))
          << "parallel trace does not replay:\n"
          << Par.report();
    }
  }
}

TEST(ParallelMc, ParallelSimulationFindsViolationAndReplays) {
  auto C = compile(R"(
channel c: int
process a { out(c, 1); }
process b { in(c, $x); assert(x == 0); }
)");
  ASSERT_TRUE(C);
  McOptions Options;
  Options.Mode = SearchMode::Simulation;
  Options.SimulationRuns = 32;
  Options.Jobs = 4;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_EQ(R.JobsUsed, 4u);
  EXPECT_TRUE(replayTrace(C->Module, Options, R)) << R.report();
}

TEST(ParallelMc, ParallelSimulationCleanModelRunsAllRuns) {
  auto C = compile(CleanCorpus[0]);
  ASSERT_TRUE(C);
  McOptions Options;
  Options.Mode = SearchMode::Simulation;
  Options.SimulationRuns = 64;
  Options.Jobs = 4;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::PartialOK) << R.report();
}

//===----------------------------------------------------------------------===//
// Swarm verification
//===----------------------------------------------------------------------===//

TEST(ParallelMc, SwarmCoverageAtLeastSingleWorkerBitState) {
  // Worker 0 of a swarm reproduces the one-worker seed-0 search, and
  // every worker's discoveries land in the shared union table, so the
  // union coverage can only be >= the single-worker coverage.
  auto C = compile(CleanCorpus[1]);
  ASSERT_TRUE(C);
  McOptions Options;
  Options.Mode = SearchMode::BitState;
  Options.BitStateBits = 16;
  Outcome Seq = runJobs(C->Module, Options, 1);
  Options.Swarm = true;
  for (unsigned Jobs : {2u, 4u}) {
    Outcome Swarm = runJobs(C->Module, Options, Jobs);
    EXPECT_GE(Swarm.Stored, Seq.Stored) << "jobs " << Jobs;
  }
}

TEST(ParallelMc, SwarmFindsViolation) {
  auto C = compile(ViolatingCorpus[0]);
  ASSERT_TRUE(C);
  McOptions Options;
  Options.Mode = SearchMode::BitState;
  Options.BitStateBits = 16;
  Options.Swarm = true;
  Options.Jobs = 4;
  McResult R = checkModel(C->Module, Options);
  ASSERT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_TRUE(replayTrace(C->Module, Options, R)) << R.report();
}

//===----------------------------------------------------------------------===//
// §5.3 safety harnesses stay deterministic under -jN
//===----------------------------------------------------------------------===//

const char *PageTableSource = R"(
const TABLE_SIZE = 2;
type updateT = record of { vAddr: int, pAddr: int }
type userT = union of { update: updateT }
channel ptReqC: record of { ret: int, vAddr: int }
channel ptReplyC: record of { ret: int, pAddr: int }
channel userReqC: userT
process pageTable {
  $table: #array of int = #{ TABLE_SIZE -> 0 };
  while (true) {
    alt {
      case( in( ptReqC, { $ret, $vAddr})) {
        out( ptReplyC, { ret, table[vAddr % TABLE_SIZE]});
      }
      case( in( userReqC, { update |> { $vAddr, $pAddr}})) {
        table[vAddr % TABLE_SIZE] = pAddr;
      }
    }
  }
}
)";

TEST(ParallelMc, SafetyHarnessDeterministicUnderJobs) {
  auto C = compile(PageTableSource);
  ASSERT_TRUE(C);
  SafetyOptions Options;
  Options.IntDomain = {0, 1};
  for (unsigned Jobs : {1u, 4u}) {
    Options.Mc.Jobs = Jobs;
    McResult Par = verifyProcessMemorySafety(*C->Prog, "pageTable", Options);
    EXPECT_EQ(Par.Verdict, McVerdict::OK) << Par.report();
    EXPECT_EQ(Par.StatesStored, 65u) << "jobs " << Jobs;
    EXPECT_EQ(Par.StatesExplored, 325u) << "jobs " << Jobs;
    EXPECT_EQ(Par.Transitions, 324u) << "jobs " << Jobs;
  }
}

//===----------------------------------------------------------------------===//
// Concurrent storage backends
//===----------------------------------------------------------------------===//

std::string keyFor(int I) { return "state-" + std::to_string(I); }

TEST(ConcurrentVisitedSet, ExactInsertSemantics) {
  ConcurrentVisitedSet V = ConcurrentVisitedSet::exact();
  EXPECT_TRUE(V.keepsBytes());
  EXPECT_TRUE(insertKey(V, "a"));
  EXPECT_TRUE(insertKey(V, "b"));
  EXPECT_FALSE(insertKey(V, "a"));
  EXPECT_EQ(V.size(), 2u);
  EXPECT_GT(V.bytes(), 0u);
  // Exact storage compares the bytes: two vectors that share a
  // fingerprint are still two states.
  EXPECT_TRUE(V.insert(7, "c"));
  EXPECT_TRUE(V.insert(7, "d"));
  EXPECT_FALSE(V.insert(7, "c"));
  EXPECT_EQ(V.size(), 4u);
  // bytes() measures the vectors held; a repeated insert adds nothing.
  size_t Distinct = 4;
  for (int I = 0; I != 1000; ++I) {
    std::string Key = std::string(200, 'v') + keyFor(I);
    EXPECT_TRUE(insertKey(V, Key));
    Distinct += Key.size();
  }
  EXPECT_GE(V.bytes(), Distinct);
  const size_t Held = V.bytes();
  EXPECT_FALSE(insertKey(V, std::string(200, 'v') + keyFor(0)));
  EXPECT_EQ(V.bytes(), Held);
}

TEST(ConcurrentVisitedSet, HammeredInsertCountsDistinctKeys) {
  // 4 threads race over an overlapping key range; every key must be
  // stored exactly once regardless of interleaving.
  constexpr int NumKeys = 2000;
  for (auto Make : {+[] { return ConcurrentVisitedSet::exact(4); },
                    +[] { return ConcurrentVisitedSet::hashCompact(4); }}) {
    ConcurrentVisitedSet V = Make();
    std::atomic<uint64_t> NewCount{0};
    std::vector<std::thread> Threads;
    for (int T = 0; T < 4; ++T)
      Threads.emplace_back([&V, &NewCount, T] {
        // Each thread covers 3/4 of the space, offset by thread id.
        for (int I = 0; I < NumKeys * 3 / 4; ++I)
          if (insertKey(V, keyFor((I + T * NumKeys / 4) % NumKeys)))
            NewCount.fetch_add(1, std::memory_order_relaxed);
      });
    for (std::thread &T : Threads)
      T.join();
    EXPECT_EQ(V.size(), uint64_t(NumKeys));
    EXPECT_EQ(NewCount.load(), uint64_t(NumKeys));
  }
}

TEST(ConcurrentVisitedSet, BitStateSeedChangesHashes) {
  // Different seeds must map keys to different bit positions (that is
  // the whole point of swarm verification). With a tiny table and many
  // keys, two seeds collide differently, so the stored counts differ
  // with overwhelming probability.
  ConcurrentVisitedSet A = ConcurrentVisitedSet::bitState(10, 0);
  ConcurrentVisitedSet B = ConcurrentVisitedSet::bitState(10, 0x1234567);
  for (int I = 0; I < 4000; ++I) {
    std::string K = keyFor(I);
    insertKey(A, K);
    insertKey(B, K);
  }
  EXPECT_NE(A.size(), 0u);
  EXPECT_NE(B.size(), 0u);
  EXPECT_NE(A.size(), B.size());
}

//===----------------------------------------------------------------------===//
// Exact storage takes a string_view and copies it only on first insert
//===----------------------------------------------------------------------===//

TEST(VisitedSet, ExactInsertAcceptsStringView) {
  ConcurrentVisitedSet V = ConcurrentVisitedSet::exact();
  std::string Key = "full-state-vector";
  EXPECT_TRUE(insertKey(V, std::string_view(Key)));
  EXPECT_FALSE(insertKey(V, std::string_view(Key)));
  EXPECT_EQ(V.size(), 1u);
}

} // namespace
