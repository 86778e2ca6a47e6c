//===--- test_mc.cpp - Model checker tests ----------------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mc/ParallelSearch.h"
#include "mc/SafetyHarness.h"
#include "vmmc/EspFirmwareSource.h"
#include "TestHelpers.h"

using namespace esp;
using namespace esp::test;

namespace {

TEST(ModelChecker, TerminatingProgramVerifiesClean) {
  auto C = compile(R"(
channel c: int
process a { $i = 0; while (i < 3) { out(c, i); i = i + 1; } }
process b { $i = 0; while (i < 3) { in(c, $x); assert(x == i); i = i + 1; } }
)");
  ASSERT_TRUE(C);
  McOptions Options;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::OK) << R.report();
  EXPECT_GT(R.StatesExplored, 0u);
}

TEST(ModelChecker, FindsAssertionViolationInSomeInterleaving) {
  // The assertion only fails when p1 wins the race for the server; a
  // depth-first scheduler could easily miss it, the checker must not.
  auto C = compile(R"(
channel req: record of { ret: int }
channel reply: record of { ret: int, v: int }
process p1 { out(req, { @ }); in(reply, { @, $v }); }
process p2 { out(req, { @ }); in(reply, { @, $v }); assert(false); }
process server {
  $n = 0;
  while (n < 2) { in(req, { $who }); out(reply, { who, 1 }); n = n + 1; }
}
)");
  ASSERT_TRUE(C);
  McOptions Options;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::AssertFailed);
  EXPECT_FALSE(R.Trace.empty());
}

TEST(ModelChecker, DetectsDeadlock) {
  // Classic cross-coupled rendezvous deadlock.
  auto C = compile(R"(
channel c1: int
channel c2: int
process a { out(c1, 1); in(c2, $x); }
process b { out(c2, 2); in(c1, $y); }
)");
  ASSERT_TRUE(C);
  McOptions Options;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_TRUE(R.Deadlock);
}

TEST(ModelChecker, NoFalseDeadlockOnGuardedAlt) {
  auto C = compile(R"(
channel c1: int
channel c2: int
process buf {
  $have = false; $v = 0;
  while (true) {
    alt {
      case( !have, in( c1, $x)) { v = x; have = true; }
      case( have, out( c2, v)) { have = false; }
    }
  }
}
process a { $i = 0; while (i < 4) { out(c1, i); i = i + 1; } }
process b { $i = 0; while (i < 4) { in(c2, $x); assert(x == i); i = i + 1; } }
)");
  ASSERT_TRUE(C);
  McOptions Options;
  McOptions O = Options;
  McResult R = checkModel(C->Module, O);
  // buf loops forever and ends blocked with no counterpart: that IS a
  // terminal state with a blocked process, i.e. reported as deadlock.
  // Restrict the check: no assertion/memory violation may be found.
  if (R.Verdict == McVerdict::Violation) {
    EXPECT_TRUE(R.Deadlock) << R.report();
  }
}

TEST(ModelChecker, DetectsUseAfterFreeRace) {
  // Process q frees its own reference then reads: a local memory bug.
  auto C = compile(R"(
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
)");
  ASSERT_TRUE(C);
  McOptions Options;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::UseAfterFree);
}

TEST(ModelChecker, DetectsLeak) {
  // The receiver never unlinks what it binds: the object leaks when the
  // binding is overwritten on the next loop iteration.
  auto C = compile(R"(
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
)");
  ASSERT_TRUE(C);
  McOptions Options;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_GT(R.LeakedObjects, 0u);
}

TEST(ModelChecker, CleanRefcountingVerifiesNoLeak) {
  auto C = compile(R"(
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
  while (i < 3) { in(c, $d); unlink(d); i = i + 1; }
}
)");
  ASSERT_TRUE(C);
  McOptions Options;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::OK) << R.report();
}

TEST(ModelChecker, BitStateModeFindsSeededBug) {
  auto C = compile(R"(
channel c: int
process a { $i = 0; while (i < 8) { out(c, i); i = i + 1; } }
process b { $i = 0; while (i < 8) { in(c, $x); assert(x < 7); i = i + 1; } }
)");
  ASSERT_TRUE(C);
  McOptions Options;
  Options.Mode = SearchMode::BitState;
  Options.BitStateBits = 16;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::AssertFailed);
}

TEST(ModelChecker, SimulationModeFindsShallowBug) {
  auto C = compile(R"(
channel c: int
process a { out(c, 1); }
process b { in(c, $x); assert(x == 0); }
)");
  ASSERT_TRUE(C);
  McOptions Options;
  Options.Mode = SearchMode::Simulation;
  Options.SimulationRuns = 8;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
}

//===----------------------------------------------------------------------===//
// Verdict and trace regressions
//===----------------------------------------------------------------------===//

TEST(ModelChecker, TraceDoesNotDuplicateFinalMove) {
  // Deadlock exactly one move deep: the violation surfaces after
  // enumerating the successor's moves — the path that used to push the
  // final move twice (once via the frame label, once explicitly).
  auto C = compile(R"(
channel go: int
channel c1: int
channel c2: int
process a { out(go, 1); out(c1, 1); in(c2, $x); }
process b { in(go, $g); out(c2, 2); in(c1, $y); }
)");
  ASSERT_TRUE(C);
  McOptions Options;
  McResult R = checkModel(C->Module, Options);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_TRUE(R.Deadlock);
  ASSERT_EQ(R.Trace.size(), 1u) << R.report();
  ASSERT_EQ(R.TraceMoves.size(), 1u);
  EXPECT_TRUE(replayTrace(C->Module, Options, R));
}

TEST(ModelChecker, EveryCounterexampleReplays) {
  // Each violating model's reported trace must actually replay to the
  // reported violation: every move enabled in sequence, final state
  // exhibiting the error/deadlock/leak.
  const char *Violating[] = {
      // Assertion race.
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
  for (const char *Source : Violating) {
    auto C = compile(Source);
    ASSERT_TRUE(C);
    McOptions Options;
    McResult R = checkModel(C->Module, Options);
    ASSERT_EQ(R.Verdict, McVerdict::Violation) << R.report();
    EXPECT_EQ(R.Trace.size(), R.TraceMoves.size());
    EXPECT_TRUE(replayTrace(C->Module, Options, R))
        << "trace does not replay:\n"
        << R.report();
  }
}

TEST(ModelChecker, DepthTruncationDowngradesToPartialOK) {
  // The assertion bug needs 8 rendezvous; a depth bound of 4 hides it,
  // and a truncated search must not claim a full proof.
  auto C = compile(R"(
channel c: int
process a { $i = 0; while (i < 8) { out(c, i); i = i + 1; } }
process b { $i = 0; while (i < 8) { in(c, $x); assert(x < 7); i = i + 1; } }
)");
  ASSERT_TRUE(C);
  McOptions Shallow;
  Shallow.MaxDepth = 4;
  McResult R = checkModel(C->Module, Shallow);
  EXPECT_EQ(R.Verdict, McVerdict::PartialOK) << R.report();
  EXPECT_TRUE(R.DepthTruncated);
  EXPECT_NE(R.report().find("max search depth too small"), std::string::npos);
  // The same search without the bound finds the violation.
  McOptions Full;
  McResult R2 = checkModel(C->Module, Full);
  EXPECT_EQ(R2.Verdict, McVerdict::Violation) << R2.report();
  // A genuinely complete search still reports OK.
  McOptions Deep;
  Deep.MaxDepth = 100;
  auto Clean = compile(R"(
channel c: int
process a { $i = 0; while (i < 3) { out(c, i); i = i + 1; } }
process b { $i = 0; while (i < 3) { in(c, $x); i = i + 1; } }
)");
  ASSERT_TRUE(Clean);
  McResult R3 = checkModel(Clean->Module, Deep);
  EXPECT_EQ(R3.Verdict, McVerdict::OK) << R3.report();
  EXPECT_FALSE(R3.DepthTruncated);
}

TEST(ModelChecker, BitStateBitsExtremesAreClamped) {
  // --bits 2 used to allocate a 0-byte table and write out of bounds;
  // --bits 64 used to shift by the full word width (UB). Both must be
  // clamped to the valid range and still find the seeded bug.
  EXPECT_EQ(clampedBitStateBits(2), MinBitStateBits);
  EXPECT_EQ(clampedBitStateBits(64), MaxBitStateBits);
  EXPECT_EQ(clampedBitStateBits(24), 24u);
  auto C = compile(R"(
channel c: int
process a { $i = 0; while (i < 8) { out(c, i); i = i + 1; } }
process b { $i = 0; while (i < 8) { in(c, $x); assert(x < 7); i = i + 1; } }
)");
  ASSERT_TRUE(C);
  for (unsigned Bits : {2u, 64u}) {
    McOptions Options;
    Options.Mode = SearchMode::BitState;
    Options.BitStateBits = Bits;
    McResult R = checkModel(C->Module, Options);
    EXPECT_EQ(R.Verdict, McVerdict::Violation)
        << "bits=" << Bits << "\n"
        << R.report();
    EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::AssertFailed);
  }
}

//===----------------------------------------------------------------------===//
// Visited-set / compression mode agreement
//===----------------------------------------------------------------------===//

TEST(ModelChecker, VisitedModesAgreeOnVerdictsAndCounts) {
  const char *Models[] = {
      // Clean terminating.
      R"(
channel c: int
process a { $i = 0; while (i < 4) { out(c, i); i = i + 1; } }
process b { $i = 0; while (i < 4) { in(c, $x); assert(x == i); i = i + 1; } }
)",
      // Assertion race.
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
      // Heap traffic, clean.
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
  while (i < 3) { in(c, $d); unlink(d); i = i + 1; }
}
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
  };
  for (const char *Source : Models) {
    auto C = compile(Source);
    ASSERT_TRUE(C);
    McOptions Exact;
    Exact.Visited = VisitedKind::Exact;
    McResult Reference = checkModel(C->Module, Exact);

    McOptions Hash;
    Hash.Visited = VisitedKind::Hash64;
    McResult R = checkModel(C->Module, Hash);
    EXPECT_EQ(R.Verdict, Reference.Verdict);
    EXPECT_EQ(R.StatesExplored, Reference.StatesExplored);
    EXPECT_EQ(R.StatesStored, Reference.StatesStored);
    EXPECT_EQ(R.Transitions, Reference.Transitions);
    EXPECT_EQ(R.Trace, Reference.Trace);
  }
}

TEST(ModelChecker, AutoCheckpointsMakeBacktrackingReplayFree) {
  // The budgeted VMMC cluster is shallow (depth 21) and bushy: the
  // checkpoint rule checkpoints every branching frame, where a checkpoint
  // every 16th level alone replayed 8.6 moves per explored state.
  auto C = compile(vmmc::getVmmcEspSource());
  ASSERT_TRUE(C);
  SafetyOptions Options;
  Options.Mc.EnvSendBudget = 4;
  McResult R = verifyProcessClusterMemorySafety(
      *C->Prog, {"pageTable", "deliver"}, Options);
  ASSERT_EQ(R.Verdict, McVerdict::OK) << R.report();
  EXPECT_EQ(R.StatesExplored, 697273u);
  EXPECT_EQ(R.StatesStored, 63393u);
  EXPECT_EQ(R.Transitions, 697272u);
  EXPECT_LE(static_cast<double>(R.ReplayedMoves) / R.StatesExplored, 0.5)
      << R.report();
  EXPECT_LE(R.CheckpointBytes, R.MemoryBytes) << R.report();
}

TEST(ModelChecker, AutoCheckpointsStayWithinVisitedSetBudget) {
  // A deep, narrow search (50000 states reach depth 30009): dense
  // checkpoints would cost a snapshot per level, so the checkpoint rule
  // may add at most the visited set's bytes on top of the fallback
  // stride's snapshots. The counts and the bytes of a stride-16 search
  // are pinned; the backtracking replays, so the counts also pin replay.
  auto C = compile(vmmc::getVmmcEspSource());
  ASSERT_TRUE(C);
  SafetyOptions Options;
  Options.Mc.MaxStates = 50000;
  McResult R = verifyProcessClusterMemorySafety(
      *C->Prog, {"rxDemux", "txWindow"}, Options);
  EXPECT_EQ(R.Verdict, McVerdict::StateLimit);
  EXPECT_EQ(R.StatesExplored, 50000u);
  EXPECT_EQ(R.StatesStored, 30009u);
  EXPECT_EQ(R.Transitions, 49999u);
  EXPECT_EQ(R.MaxDepthReached, 30009u);
  EXPECT_GT(R.ReplayedMoves, 0u);
  constexpr size_t kStride16CheckpointBytes = 7541804;
  EXPECT_LE(R.CheckpointBytes, kStride16CheckpointBytes + R.MemoryBytes)
      << R.report();
}

TEST(ModelChecker, SpentEnvBudgetIsNotADeadlockForSearchOrReplay) {
  // The verify harness at budget 4, walked along each state's first
  // move: the walk ends with every process blocked on input and the
  // budget spent. That is quiescence, so a deadlock claimed there must
  // not replay.
  auto C = compile(vmmc::getVmmcEspSource());
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"pageTable", "deliver"});
  McOptions Mc;
  Mc.EnvSendBudget = 4;
  Machine M(H.Module, verifyMachineOptions(Mc));
  M.setEnvModel(H.Env.get());
  M.start();
  McResult Claimed;
  Claimed.Verdict = McVerdict::Violation;
  Claimed.Deadlock = true;
  std::vector<Move> Moves = M.enumerateMoves();
  for (unsigned Step = 0; !Moves.empty() && Step != 1000; ++Step) {
    Claimed.TraceMoves.push_back(Moves.front());
    M.applyMove(Moves.front());
    ASSERT_FALSE(M.error()) << M.error().Message;
    Moves = M.enumerateMoves();
  }
  ASSERT_TRUE(Moves.empty());
  ASSERT_TRUE(M.stuckOnEnvBudget());
  EXPECT_FALSE(isDeadlocked(M, Moves));
  EXPECT_FALSE(H.replay(Mc, Claimed));

  // A real deadlock one move deep: both rules agree, and the search's
  // trace replays.
  auto D = compile(R"(
channel c: int
channel a: int
channel b: int
process p { out(c, 1); in(a, $x); out(b, 1); }
process q { in(c, $z); in(b, $y); out(a, 2); }
)");
  ASSERT_TRUE(D);
  McOptions Closed;
  McResult R = checkModel(D->Module, Closed);
  ASSERT_TRUE(R.Deadlock) << R.report();
  EXPECT_EQ(R.TraceMoves.size(), 1u);
  EXPECT_TRUE(replayTrace(D->Module, Closed, R));
  Machine Stuck(D->Module, verifyMachineOptions(Closed));
  Stuck.start();
  Stuck.applyMove(R.TraceMoves[0]);
  EXPECT_TRUE(isDeadlocked(Stuck, Stuck.enumerateMoves()));
}

TEST(ModelChecker, StateCountsAreDeterministic) {
  auto C = compile(R"(
channel c: int
process a { $i = 0; while (i < 4) { out(c, i); i = i + 1; } }
process b { $i = 0; while (i < 4) { in(c, $x); i = i + 1; } }
)");
  ASSERT_TRUE(C);
  McOptions Options;
  McResult R1 = checkModel(C->Module, Options);
  McResult R2 = checkModel(C->Module, Options);
  EXPECT_EQ(R1.StatesExplored, R2.StatesExplored);
  EXPECT_EQ(R1.StatesStored, R2.StatesStored);
  EXPECT_EQ(R1.Transitions, R2.Transitions);
}

//===----------------------------------------------------------------------===//
// Per-process memory-safety harness (§5.3)
//===----------------------------------------------------------------------===//

/// The paper's pageTable process (Appendix B), with correct refcounting.
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

TEST(SafetyHarness, PageTableIsMemorySafe) {
  auto C = compile(PageTableSource);
  ASSERT_TRUE(C);
  SafetyOptions Options;
  Options.IntDomain = {0, 1};
  McResult R = verifyProcessMemorySafety(*C->Prog, "pageTable", Options);
  EXPECT_EQ(R.Verdict, McVerdict::OK) << R.report();
  EXPECT_GT(R.StatesExplored, 1u);
}

TEST(SafetyHarness, DetectsInjectedUseAfterFree) {
  // A process that unlinks the received object and then touches it.
  auto C = compile(R"(
type msgT = record of { v: int, data: array of int }
channel c: msgT
channel d: int
process buggy {
  while (true) {
    in(c, { $v, $data });
    unlink(data);
    out(d, data[0]);
  }
}
)");
  ASSERT_TRUE(C);
  SafetyOptions Options;
  McResult R = verifyProcessMemorySafety(*C->Prog, "buggy", Options);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::UseAfterFree);
}

TEST(SafetyHarness, DetectsInjectedLeak) {
  // Never unlinks what it receives.
  auto C = compile(R"(
type msgT = record of { v: int, data: array of int }
channel c: msgT
process leaky {
  while (true) {
    in(c, { $v, $data });
  }
}
)");
  ASSERT_TRUE(C);
  SafetyOptions Options;
  McResult R = verifyProcessMemorySafety(*C->Prog, "leaky", Options);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
}

TEST(SafetyHarness, CorrectConsumerVerifiesClean) {
  auto C = compile(R"(
type msgT = record of { v: int, data: array of int }
channel c: msgT
channel d: int
process ok {
  while (true) {
    in(c, { $v, $data });
    out(d, data[0] + v);
    unlink(data);
  }
}
)");
  ASSERT_TRUE(C);
  SafetyOptions Options;
  McResult R = verifyProcessMemorySafety(*C->Prog, "ok", Options);
  EXPECT_EQ(R.Verdict, McVerdict::OK) << R.report();
}

TEST(SafetyHarness, EnvSendAtObjectLimitIsAViolation) {
  // An environment send copies its message into the state heap. When the
  // object table fills during that copy, the search reports OutOfObjects
  // with a trace that replays, as for any other allocation.
  auto C = compile(R"(
type msgT = record of { v: int, data: array of int }
channel c: msgT
process holder {
  while (true) {
    in(c, $m);
    unlink(m);
  }
}
)");
  ASSERT_TRUE(C);
  Harness Holder = makeHarness(*C->Prog, {"holder"});
  McOptions Mc;
  Mc.MaxObjects = 1; // The record fits, its array does not.
  McResult R = Holder.check(Mc);
  ASSERT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::OutOfObjects);
  EXPECT_NE(R.Violation.Message.find("receiving a message"),
            std::string::npos)
      << R.report();
  EXPECT_TRUE(Holder.replay(Mc, R)) << R.report();
  Mc.MaxObjects = 2; // The copy alone: the template is not in the table.
  R = Holder.check(Mc);
  EXPECT_EQ(R.Verdict, McVerdict::OK) << R.report();

  // The budgeted VMMC cluster needs four live objects. Below that every
  // limit is a violation with a replayable trace, never a crash; at and
  // above it the search is the full one.
  auto V = compile(vmmc::getVmmcEspSource());
  ASSERT_TRUE(V);
  Harness Cluster = makeHarness(*V->Prog, {"pageTable", "deliver"});
  for (uint32_t Max = 1; Max <= 5; ++Max) {
    McOptions Budgeted;
    Budgeted.EnvSendBudget = 4;
    Budgeted.MaxObjects = Max;
    McResult Res = Cluster.check(Budgeted);
    std::string Label = "MaxObjects=" + std::to_string(Max);
    if (Max < 4) {
      ASSERT_EQ(Res.Verdict, McVerdict::Violation) << Label;
      EXPECT_EQ(Res.Violation.Kind, RuntimeErrorKind::OutOfObjects) << Label;
      EXPECT_TRUE(Cluster.replay(Budgeted, Res)) << Label;
      continue;
    }
    ASSERT_EQ(Res.Verdict, McVerdict::OK) << Label << "\n" << Res.report();
    EXPECT_EQ(Res.StatesExplored, 697273u) << Label;
    EXPECT_EQ(Res.StatesStored, 63393u) << Label;
    EXPECT_EQ(Res.Transitions, 697272u) << Label;
  }
}

// The whole firmware, every process at once, under a one-message
// environment budget (`espmc vmmc.esp --process
// userReq,pageTable,txWindow,rxDemux,deliver --env-budget 1`). Pinned so
// that a change to the state hash, the environment templates or the
// proviso shows up as a count change here.
TEST(WholeFirmware, Budget1CountsArePinned) {
  auto C = compile(vmmc::getVmmcEspSource());
  ASSERT_TRUE(C);
  const std::vector<std::string> All = {"userReq", "pageTable", "txWindow",
                                        "rxDemux", "deliver"};
  SafetyOptions Options;
  Options.Mc.EnvSendBudget = 1;
  Options.Mc.Jobs = 4;
  McResult Full = verifyProcessClusterMemorySafety(*C->Prog, All, Options);
  ASSERT_EQ(Full.Verdict, McVerdict::OK) << Full.report();
  EXPECT_EQ(Full.StatesStored, 294991u);
  EXPECT_EQ(Full.StatesExplored, 672919u);
  EXPECT_EQ(Full.Transitions, 672918u);
  Options.Mc.Por = true;
  for (unsigned Jobs : {1u, 4u}) {
    Options.Mc.Jobs = Jobs;
    McResult Por = verifyProcessClusterMemorySafety(*C->Prog, All, Options);
    std::string Label = "--por --jobs " + std::to_string(Jobs);
    ASSERT_EQ(Por.Verdict, McVerdict::OK) << Label << "\n" << Por.report();
    EXPECT_EQ(Por.StatesStored, 249053u) << Label;
    EXPECT_EQ(Por.StatesExplored, 386845u) << Label;
  }
}

} // namespace
