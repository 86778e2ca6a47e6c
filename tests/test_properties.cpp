//===--- test_properties.cpp - Cross-cutting property tests --------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Property-style checks across the whole system: determinism of the
// runtime and checker, agreement between the interpreter, the model
// checker's semantic mode, and the generated C, and invariants of the
// reference-counting discipline under parameter sweeps.
//
//===----------------------------------------------------------------------===//

#include "mc/ModelChecker.h"
#include "mc/SafetyHarness.h"
#include "vmmc/EspFirmwareSource.h"
#include "TestHelpers.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

using namespace esp;
using namespace esp::test;

namespace {

/// Builds an N-stage pipeline with a refcounted payload flowing through
/// every stage; checks every stage saw it and nothing leaked.
std::string makePipeline(unsigned Stages, unsigned Messages) {
  std::string Source = "type dataT = array of int\n"
                       "type msgT = record of { hops: int, data: dataT }\n";
  for (unsigned I = 0; I <= Stages; ++I)
    Source += "channel c" + std::to_string(I) + ": msgT\n";
  Source += "process source {\n  $i = 0;\n  while (i < " +
            std::to_string(Messages) + ") {\n"
            "    $d: dataT = { 2 -> i };\n"
            "    out(c0, { 0, d });\n"
            "    unlink(d);\n"
            "    i = i + 1;\n  }\n}\n";
  for (unsigned I = 0; I != Stages; ++I) {
    Source += "process stage" + std::to_string(I) + " {\n";
    Source += "  while (true) {\n";
    Source += "    in(c" + std::to_string(I) + ", { $hops, $d });\n";
    Source += "    out(c" + std::to_string(I + 1) + ", { hops + 1, d });\n";
    Source += "    unlink(d);\n  }\n}\n";
  }
  Source += "process sink {\n  $n = 0;\n  while (n < " +
            std::to_string(Messages) + ") {\n"
            "    in(c" + std::to_string(Stages) + ", { $hops, $d });\n"
            "    assert(hops == " + std::to_string(Stages) + ");\n"
            "    assert(d[0] == n);\n"
            "    unlink(d);\n"
            "    n = n + 1;\n  }\n}\n";
  return Source;
}

struct PipelineParam {
  unsigned Stages;
  unsigned Messages;
};

class PipelineSweep : public ::testing::TestWithParam<PipelineParam> {};

INSTANTIATE_TEST_SUITE_P(
    Sizes, PipelineSweep,
    ::testing::Values(PipelineParam{1, 1}, PipelineParam{1, 8},
                      PipelineParam{2, 4}, PipelineParam{3, 4},
                      PipelineParam{5, 2}, PipelineParam{8, 3}),
    [](const ::testing::TestParamInfo<PipelineParam> &Info) {
      std::string Name = "s";
      Name += std::to_string(Info.param.Stages);
      Name += "m";
      Name += std::to_string(Info.param.Messages);
      return Name;
    });

TEST_P(PipelineSweep, ExecutesWithoutLeaks) {
  auto C = compile(makePipeline(GetParam().Stages, GetParam().Messages));
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  StepResult R = M.run(1'000'000);
  ASSERT_FALSE(M.error()) << M.error().Message;
  // Stages loop forever; source and sink must be done, heap empty.
  EXPECT_EQ(R, StepResult::Quiescent);
  EXPECT_EQ(M.heap().getLiveCount(), 0u);
  EXPECT_EQ(M.countLeakedObjects(), 0u);
}

TEST_P(PipelineSweep, SharingAndDeepCopyModesAgree) {
  auto C = compile(makePipeline(GetParam().Stages, GetParam().Messages));
  ASSERT_TRUE(C);
  for (bool DeepCopy : {false, true}) {
    MachineOptions Options;
    Options.DeepCopyTransfers = DeepCopy;
    Machine M(C->Module, Options);
    M.start();
    M.run(1'000'000);
    ASSERT_FALSE(M.error()) << "deep=" << DeepCopy << ": "
                            << M.error().Message;
    EXPECT_EQ(M.heap().getLiveCount(), 0u) << "deep=" << DeepCopy;
  }
}

TEST_P(PipelineSweep, ModelCheckerVerifiesClean) {
  PipelineParam Param = GetParam();
  if (Param.Stages * Param.Messages > 12)
    GTEST_SKIP() << "state space too large for a unit test";
  auto C = compile(makePipeline(Param.Stages, Param.Messages));
  ASSERT_TRUE(C);
  McOptions Options;
  Options.CheckDeadlock = false; // Stages loop forever.
  Options.MaxStates = 500'000;
  McResult R = checkModel(C->Module, Options);
  EXPECT_NE(R.Verdict, McVerdict::Violation) << R.report();
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(Determinism, ExecutionStatsAreReproducible) {
  auto C = compile(makePipeline(3, 5));
  ASSERT_TRUE(C);
  uint64_t FirstInstructions = 0;
  uint64_t FirstRendezvous = 0;
  for (int Round = 0; Round != 3; ++Round) {
    Machine M(C->Module, MachineOptions());
    M.start();
    M.run(1'000'000);
    ASSERT_FALSE(M.error());
    if (Round == 0) {
      FirstInstructions = M.stats().Instructions;
      FirstRendezvous = M.stats().Rendezvous;
    } else {
      EXPECT_EQ(M.stats().Instructions, FirstInstructions);
      EXPECT_EQ(M.stats().Rendezvous, FirstRendezvous);
    }
  }
}

TEST(Determinism, StateSerializationIsCanonical) {
  auto C = compile(R"(
type dataT = array of int
channel c: dataT
channel d: int
process p {
  $a: dataT = { 3 -> 7 };
  out(c, a);
  unlink(a);
}
process q { in(c, $x); out(d, x[0]); unlink(x); }
process r { in(d, $v); }
)");
  ASSERT_TRUE(C);
  MachineOptions Options;
  Options.DeepCopyTransfers = true;
  Machine M1(C->Module, Options);
  Machine M2(C->Module, Options);
  M1.start();
  M2.start();
  EXPECT_EQ(M1.serializeState(), M2.serializeState());
  std::vector<Move> Moves1 = M1.enumerateMoves();
  std::vector<Move> Moves2 = M2.enumerateMoves();
  ASSERT_EQ(Moves1.size(), Moves2.size());
  ASSERT_FALSE(Moves1.empty());
  M1.applyMove(Moves1[0]);
  M2.applyMove(Moves2[0]);
  EXPECT_EQ(M1.serializeState(), M2.serializeState());
}

TEST(Determinism, SnapshotRestoreRoundTrips) {
  auto C = compile(makePipeline(2, 3));
  ASSERT_TRUE(C);
  MachineOptions Options;
  Options.DeepCopyTransfers = true;
  Machine M(C->Module, Options);
  M.start();
  std::vector<Move> Moves = M.enumerateMoves();
  ASSERT_FALSE(Moves.empty());
  Machine::Snapshot Snap = M.snapshot();
  std::string Before = M.serializeState();
  M.applyMove(Moves[0]);
  EXPECT_NE(M.serializeState(), Before);
  M.restore(Snap);
  EXPECT_EQ(M.serializeState(), Before);
  // The restored machine can take the same move again.
  std::vector<Move> Again = M.enumerateMoves();
  EXPECT_EQ(Again.size(), Moves.size());
}

TEST(Determinism, McStateCountsStableAcrossRuns) {
  auto C = compile(makePipeline(2, 2));
  ASSERT_TRUE(C);
  McOptions Options;
  Options.CheckDeadlock = false;
  McResult A = checkModel(C->Module, Options);
  McResult B = checkModel(C->Module, Options);
  EXPECT_EQ(A.StatesStored, B.StatesStored);
  EXPECT_EQ(A.Transitions, B.Transitions);
}

//===----------------------------------------------------------------------===//
// Refcount discipline properties
//===----------------------------------------------------------------------===//

class FanoutSweep : public ::testing::TestWithParam<unsigned> {};

INSTANTIATE_TEST_SUITE_P(Readers, FanoutSweep,
                         ::testing::Values(2u, 3u, 5u));

TEST_P(FanoutSweep, OneObjectSharedWithNReadersFreesExactlyOnce) {
  // One payload broadcast to N readers over N channels (refcount
  // transfer, §6.1): every reader unlinks its reference; the writer
  // unlinks its own; the object must die exactly once.
  unsigned N = GetParam();
  std::string Source = "type dataT = array of int\n";
  for (unsigned I = 0; I != N; ++I)
    Source += "channel c" + std::to_string(I) + ": dataT\n";
  Source += "process writer {\n  $d: dataT = { 2 -> 9 };\n";
  for (unsigned I = 0; I != N; ++I)
    Source += "  out(c" + std::to_string(I) + ", d);\n";
  Source += "  unlink(d);\n}\n";
  for (unsigned I = 0; I != N; ++I)
    Source += "process r" + std::to_string(I) + " { in(c" +
              std::to_string(I) + ", $x); assert(x[1] == 9); unlink(x); }\n";
  auto C = compile(Source);
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(100'000), StepResult::Halted)
      << M.error().Message;
  EXPECT_EQ(M.heap().getLiveCount(), 0u);
  // Sharing mode: exactly one allocation regardless of reader count.
  EXPECT_EQ(M.heap().getTotalAllocations(), 1u);
}

TEST(RefcountProperties, ForgettingOneUnlinkLeaksExactlyOneObject) {
  auto C = compile(R"(
type dataT = array of int
channel c: dataT
channel d: dataT
process w {
  $a: dataT = { 2 -> 1 };
  $b: dataT = { 2 -> 2 };
  out(c, a); out(d, b);
  unlink(a); unlink(b);
}
process r1 { in(c, $x); unlink(x); }
process r2 { in(d, $y); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(100'000), StepResult::Halted)
      << M.error().Message;
  EXPECT_EQ(M.heap().getLiveCount(), 1u);
  EXPECT_EQ(M.countLeakedObjects(), 1u);
}

//===----------------------------------------------------------------------===//
// Leak check folded into serialization
//===----------------------------------------------------------------------===//

// The checker computes leaked = live - objects reached by the canonical
// serialization (Machine::countLeakedObjects(size_t)) instead of sweeping
// the heap. These tests hold it against the sweep state by state.

const char *ForgottenUnlinkSource = R"(
type dataT = array of int
channel c: dataT
channel d: dataT
process w {
  $a: dataT = { 2 -> 1 };
  $b: dataT = { 2 -> 2 };
  out(c, a); out(d, b);
  unlink(a); unlink(b);
}
process r1 { in(c, $x); unlink(x); }
process r2 { in(d, $y); }
)";

/// Walks seeded random paths through \p Module (back to the root at dead
/// ends and errors) on a verification-mode machine and checks, in every
/// state, the folded leak count against the sweep. Returns the number of
/// states checked in which some process was Done.
unsigned expectFoldedLeakCountMatchesSweep(const ModuleIR &Module,
                                           const EnvModel *Env,
                                           uint32_t EnvBudget, uint64_t Seed,
                                           unsigned Steps,
                                           const std::string &Label) {
  MachineOptions MO;
  MO.MaxObjects = 256;
  MO.DeepCopyTransfers = true;
  MO.EnvSendBudget = EnvBudget;
  Machine M(Module, MO);
  M.setEnvModel(Env);
  M.start();
  Machine::Snapshot Root = M.snapshot();
  std::mt19937_64 Rng(Seed);
  std::string Vector;
  unsigned DoneStates = 0;
  for (unsigned Step = 0; Step != Steps; ++Step) {
    size_t Reached = M.serializeState(Vector);
    unsigned Swept = M.countLeakedObjects();
    EXPECT_EQ(M.countLeakedObjects(Reached), Swept)
        << Label << ", step " << Step;
    bool AnyDone = false;
    for (unsigned P = 0; P != M.numProcesses(); ++P)
      AnyDone |= M.proc(P).St == ProcState::Status::Done;
    if (AnyDone)
      ++DoneStates;
    else
      EXPECT_EQ(M.heap().getLiveCount() - Reached, Swept)
          << Label << ", step " << Step;
    std::vector<Move> Moves;
    if (!M.error())
      Moves = M.enumerateMoves();
    if (Moves.empty() || M.error()) {
      M.restore(Root);
      continue;
    }
    M.applyMove(Moves[Rng() % Moves.size()]);
  }
  return DoneStates;
}

TEST(LeakFold, SerializationCountMatchesSweepOnSeededWalks) {
  // Every per-process harness of every example program.
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::string(ESP_SOURCE_DIR) + "/examples/esp"))
    if (Entry.path().extension() == ".esp")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  for (const std::filesystem::path &File : Files) {
    std::ifstream In(File);
    ASSERT_TRUE(In) << File;
    std::stringstream Text;
    Text << In.rdbuf();
    auto C = compile(Text.str());
    ASSERT_TRUE(C) << File;
    for (const auto &Proc : C->Prog->Processes) {
      Harness H = makeHarness(*C->Prog, {Proc->Name});
      for (uint64_t Seed : {1u, 2u, 3u})
        expectFoldedLeakCountMatchesSweep(
            H.Module, H.Env.get(), 0, Seed, 300,
            File.filename().string() + " --process " + Proc->Name);
    }
  }
  auto Vmmc = compile(vmmc::getVmmcEspSource());
  ASSERT_TRUE(Vmmc);
  Harness H = makeHarness(*Vmmc->Prog, {"pageTable", "deliver"});
  for (uint64_t Seed : {1u, 2u, 3u, 4u})
    expectFoldedLeakCountMatchesSweep(H.Module, H.Env.get(), 4, Seed, 2000,
                                      "vmmc pageTable+deliver@budget4");
}

TEST(LeakFold, DoneProcessFallsBackToSweep) {
  // r2 finishes holding y: its slot is still serialized (so live -
  // reached would say 0) but a Done process can never unlink, so y is
  // leaked. The folded count must see through that.
  auto C = compile(ForgottenUnlinkSource);
  ASSERT_TRUE(C);
  EXPECT_GT(expectFoldedLeakCountMatchesSweep(C->Module, nullptr, 0, 7, 200,
                                              "forgotten unlink"),
            0u);
  MachineOptions MO;
  MO.DeepCopyTransfers = true;
  Machine M(C->Module, MO);
  M.start();
  while (!M.allDone()) {
    std::vector<Move> Moves = M.enumerateMoves();
    ASSERT_FALSE(Moves.empty());
    M.applyMove(Moves.front());
    ASSERT_FALSE(M.error()) << M.error().Message;
  }
  std::string Vector;
  size_t Reached = M.serializeState(Vector);
  EXPECT_EQ(M.heap().getLiveCount() - Reached, 0u);
  EXPECT_EQ(M.countLeakedObjects(), 1u);
  EXPECT_EQ(M.countLeakedObjects(Reached), 1u);
}

TEST(LeakFold, LeakyProgramsKeepVerdictCountsAndReplay) {
  // Every search configuration reports the leak the sweep-based checker
  // reported (explored 3, stored 2, transitions 2, one object leaked,
  // two-move counterexample), and the counterexample replays.
  struct Leaky {
    const char *Name;
    std::string Source;
    const char *Process; ///< Non-null: a per-process harness.
  } Programs[] = {
      {"overwritten binding", R"(
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
       nullptr},
      {"forgotten unlink", ForgottenUnlinkSource, nullptr},
      {"leaky harness", R"(
type msgT = record of { v: int, data: array of int }
channel c: msgT
process leaky {
  while (true) {
    in(c, { $v, $data });
  }
}
)",
       "leaky"},
  };
  for (const Leaky &P : Programs) {
    auto C = compile(P.Source);
    ASSERT_TRUE(C) << P.Name;
    Harness H;
    if (P.Process)
      H = makeHarness(*C->Prog, {P.Process});
    const ModuleIR &Module = P.Process ? H.Module : C->Module;
    struct Config {
      const char *Name;
      VisitedKind Visited;
      unsigned Jobs;
    } Configs[] = {{"hash64", VisitedKind::Hash64, 1},
                   {"exact", VisitedKind::Exact, 1},
                   {"hash64 --jobs 4", VisitedKind::Hash64, 4}};
    for (const Config &Cfg : Configs) {
      McOptions Options;
      Options.Env = H.Env.get();
      Options.Visited = Cfg.Visited;
      Options.Jobs = Cfg.Jobs;
      std::string Label = std::string(P.Name) + ", " + Cfg.Name;
      McResult R = checkModel(Module, Options);
      EXPECT_EQ(R.Verdict, McVerdict::Violation) << Label << R.report();
      EXPECT_EQ(R.StatesExplored, 3u) << Label;
      EXPECT_EQ(R.StatesStored, 2u) << Label;
      EXPECT_EQ(R.Transitions, 2u) << Label;
      EXPECT_EQ(R.LeakedObjects, 1u) << Label;
      EXPECT_EQ(R.TraceMoves.size(), 2u) << Label;
      EXPECT_TRUE(replayTrace(Module, Options, R)) << Label;
    }
  }
}

} // namespace
