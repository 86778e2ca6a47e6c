//===--- test_mc_por.cpp - Partial-order reduction differential tests ----------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// `--por` must never change a verdict, only the amount of work done to
// reach it. Every test here runs the same harness twice — full expansion
// and ample-set reduction — and checks verdict equality, counterexample
// replayability, and (for completed searches) that the reduced run
// stored no more states than the full one. Truncated searches explore
// different prefixes of the space and are deliberately not compared on
// counts.
//
//===----------------------------------------------------------------------===//

#include "mc/SafetyHarness.h"
#include "vmmc/EspFirmwareSource.h"
#include "TestHelpers.h"

#include <fstream>
#include <set>
#include <sstream>

using namespace esp;
using namespace esp::test;

namespace {

std::string readExample(const std::string &Name) {
  std::string Path = std::string(ESP_SOURCE_DIR) + "/examples/esp/" + Name;
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In) << "cannot read " << Path;
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// The per-process / cluster harness, opened up so tests can hold on to
/// the module and environment and call replayTrace on the results.
/// Mirrors verifyProcessMemorySafety (single name: the environment
/// drives every channel the process receives from) and
/// verifyProcessClusterMemorySafety (several names: driven = read by a
/// kept process and written by none).
struct Harness {
  ModuleIR Module;
  std::unique_ptr<BoundedEnvModel> Env;

  McResult check(McOptions Mc) const {
    Mc.Env = Env.get();
    return checkModel(Module, Mc);
  }
  bool replay(McOptions Mc, const McResult &R) const {
    Mc.Env = Env.get();
    return replayTrace(Module, Mc, R);
  }
};

Harness makeHarness(const Program &Prog,
                    const std::vector<std::string> &Names) {
  Harness H;
  ModuleIR Full = lowerProgram(Prog);
  H.Module.Prog = Full.Prog;
  for (ProcIR &P : Full.Procs)
    for (const std::string &Name : Names)
      if (P.Proc->Name == Name) {
        H.Module.Procs.push_back(std::move(P));
        break;
      }
  EXPECT_FALSE(H.Module.Procs.empty());

  std::set<std::string> Read, Written;
  for (const ProcIR &P : H.Module.Procs)
    for (const Inst &I : P.Insts) {
      if (I.Kind != InstKind::Block)
        continue;
      for (const IRCase &Case : I.Cases)
        (Case.IsIn ? Read : Written).insert(Case.Channel->Name);
    }
  std::set<std::string> Driven;
  for (const std::string &Name : Read)
    if (Names.size() == 1 || !Written.count(Name))
      Driven.insert(Name);
  H.Env = std::make_unique<BoundedEnvModel>(Driven);
  return H;
}

/// Runs \p H full and reduced and checks the differential contract.
void expectPorAgrees(const Harness &H, McOptions Mc, const char *Label) {
  McOptions FullMc = Mc;
  FullMc.Por = false;
  McResult Full = H.check(FullMc);
  McOptions PorMc = Mc;
  PorMc.Por = true;
  McResult Por = H.check(PorMc);
  EXPECT_EQ(Por.Verdict, Full.Verdict) << Label;
  // Stored-count comparisons only make sense when both searches ran to
  // completion; a truncated pair explores two different prefixes.
  if (Full.Verdict == McVerdict::OK && Por.Verdict == McVerdict::OK) {
    EXPECT_LE(Por.StatesStored, Full.StatesStored) << Label;
  }
  if (Por.Verdict == McVerdict::Violation) {
    EXPECT_TRUE(H.replay(PorMc, Por)) << Label << "\n" << Por.report();
  }
}

// With a single kept process every enabled move shares that process, so
// no proper ample subset exists and the reduced search must be
// bit-identical to the full goldens (see test_determinism.cpp).
TEST(McPor, SingleProcessHarnessBitIdentical) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  struct Golden {
    const char *Process;
    uint64_t Explored, Stored, Transitions;
  };
  static const Golden Goldens[] = {
      {"pageTable", 221, 45, 220},
      {"userReq", 745, 105, 744},
      {"deliver", 285, 29, 284},
  };
  for (const Golden &G : Goldens) {
    SafetyOptions Options;
    Options.Mc.Por = true;
    McResult Result = verifyProcessMemorySafety(*R.Prog, G.Process, Options);
    EXPECT_EQ(Result.Verdict, McVerdict::OK) << G.Process;
    EXPECT_EQ(Result.StatesExplored, G.Explored) << G.Process;
    EXPECT_EQ(Result.StatesStored, G.Stored) << G.Process;
    EXPECT_EQ(Result.Transitions, G.Transitions) << G.Process;
    EXPECT_EQ(Result.PorReducedStates, 0u) << G.Process;
  }
}

TEST(McPor, ExamplesPerProcessDifferential) {
  static const struct {
    const char *File;
    const char *Process;
  } Cases[] = {
      {"pagetable.esp", "translator"},     {"pagetable.esp", "pageTable"},
      {"quickstart.esp", "producer"},      {"quickstart.esp", "add5"},
      {"quickstart.esp", "consumer"},      {"sliding_window.esp", "sender"},
      {"sliding_window.esp", "wire"},      {"sliding_window.esp", "receiver"},
      {"sliding_window.esp", "sink"},
  };
  for (const auto &C : Cases) {
    SourceManager SM;
    DiagnosticEngine Diags(SM);
    CompileResult R = compileBuffer(SM, Diags, C.File, readExample(C.File));
    ASSERT_TRUE(R.Success) << Diags.renderAll();
    Harness H = makeHarness(*R.Prog, {C.Process});
    expectPorAgrees(H, McOptions(),
                    (std::string(C.File) + " --process " + C.Process).c_str());
  }
}

TEST(McPor, ExamplesWholeSystemDifferential) {
  // All three shipped examples end in an expected terminal violation;
  // the reduced search must find one too, and its trace must replay.
  for (const char *File :
       {"pagetable.esp", "quickstart.esp", "sliding_window.esp"}) {
    auto C = compile(readExample(File));
    ASSERT_TRUE(C);
    McResult Full = checkModel(C->Module, McOptions());
    McOptions PorMc;
    PorMc.Por = true;
    McResult Por = checkModel(C->Module, PorMc);
    EXPECT_EQ(Por.Verdict, Full.Verdict) << File;
    EXPECT_EQ(Por.Verdict, McVerdict::Violation) << File;
    EXPECT_TRUE(replayTrace(C->Module, PorMc, Por)) << File;
  }
}

// The headline case: two channel-disjoint VMMC processes under a finite
// environment workload. The interleavings of pageTable's translations
// with deliver's RDMA transfers are independent, and budgeted
// environment sends cannot close a cycle, so the cycle proviso never
// bites and the reduced search collapses the product. The bench row in BENCH_mc_modes.json
// records the same ratio at budget 4.
TEST(McPor, BudgetedClusterReductionAtLeastFiveX) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  SafetyOptions Options;
  Options.Mc.EnvSendBudget = 3;
  McResult Full = verifyProcessClusterMemorySafety(
      *R.Prog, {"pageTable", "deliver"}, Options);
  ASSERT_EQ(Full.Verdict, McVerdict::OK) << Full.report();
  Options.Mc.Por = true;
  McResult Por = verifyProcessClusterMemorySafety(
      *R.Prog, {"pageTable", "deliver"}, Options);
  ASSERT_EQ(Por.Verdict, McVerdict::OK) << Por.report();
  EXPECT_GT(Por.PorReducedStates, 0u);
  EXPECT_GE(Full.StatesStored, 5 * Por.StatesStored)
      << "full " << Full.StatesStored << " vs reduced " << Por.StatesStored;
}

// Exhausting the environment budget leaves every process blocked on
// input. That is the workload completing, not a deadlock: the verdict
// must stay OK.
TEST(McPor, BudgetQuiescenceIsNotDeadlock) {
  auto C = compile(R"(
channel req: int
process srv { while (true) { in(req, $x); } }
)");
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"srv"});
  for (bool Por : {false, true}) {
    McOptions Mc;
    Mc.EnvSendBudget = 2;
    Mc.Por = Por;
    McResult R = H.check(Mc);
    EXPECT_EQ(R.Verdict, McVerdict::OK)
        << (Por ? "por: " : "full: ") << R.report();
  }
}

// Regression for the ample-set C1 condition under a budget: `steady`
// and `buggy` share no channels, so a reduction may defer `buggy`'s
// moves — but must not starve them. With a *global* send budget the two
// env inputs would be dependent through the shared counter and the
// ample seed could consume every unit before `buggy` ever ran, hiding
// the assertion failure; the per-channel budget keeps them independent
// and the reduced search must still reach the bug.
TEST(McPor, PartnerBugSurvivesReduction) {
  auto C = compile(R"(
channel reqA: int
channel reqB: int
process steady { while (true) { in(reqA, $x); } }
process buggy {
  $n = 0;
  while (true) { in(reqB, $x); n = n + x; assert(n < 2); }
}
)");
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"steady", "buggy"});
  McOptions Mc;
  Mc.EnvSendBudget = 2;
  expectPorAgrees(H, Mc, "partner bug, sequential");
  McOptions PorMc = Mc;
  PorMc.Por = true;
  McResult R = H.check(PorMc);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::AssertFailed);
}

// Reduced searches with four workers keep the one-worker verdicts.
TEST(ParallelMcPor, VerdictsMatchSequential) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(R.Success) << Diags.renderAll();

  // Single-process: no ample subsets exist, counts stay the goldens.
  {
    SafetyOptions Options;
    Options.Mc.Por = true;
    Options.Mc.Jobs = 4;
    McResult Result = verifyProcessMemorySafety(*R.Prog, "pageTable", Options);
    EXPECT_EQ(Result.Verdict, McVerdict::OK) << Result.report();
    EXPECT_EQ(Result.StatesExplored, 221u);
    EXPECT_EQ(Result.StatesStored, 45u);
  }

  // Budgeted cluster: clean under full search, must stay clean reduced.
  {
    SafetyOptions Options;
    Options.Mc.EnvSendBudget = 3;
    Options.Mc.Por = true;
    Options.Mc.Jobs = 4;
    McResult Result = verifyProcessClusterMemorySafety(
        *R.Prog, {"pageTable", "deliver"}, Options);
    EXPECT_EQ(Result.Verdict, McVerdict::OK) << Result.report();
  }
}

TEST(ParallelMcPor, PartnerBugFoundWithJobs) {
  auto C = compile(R"(
channel reqA: int
channel reqB: int
process steady { while (true) { in(reqA, $x); } }
process buggy {
  $n = 0;
  while (true) { in(reqB, $x); n = n + x; assert(n < 2); }
}
)");
  ASSERT_TRUE(C);
  Harness H = makeHarness(*C->Prog, {"steady", "buggy"});
  McOptions Mc;
  Mc.EnvSendBudget = 2;
  Mc.Por = true;
  Mc.Jobs = 4;
  McResult R = H.check(Mc);
  EXPECT_EQ(R.Verdict, McVerdict::Violation) << R.report();
  EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::AssertFailed);
  EXPECT_TRUE(H.replay(Mc, R)) << R.report();
}

// Regression for the static cycle proviso (C3). `a` and `b` ping-pong
// forever on internal channels, a cycle with no environment send; `c`
// fails its assertion on its first input, which `d` can always supply.
// Both loops offer a one-move ample set, and the lowest seed (`a`)
// wins, so without C3 the reduced search would circle ping/pong and
// never take `go`. Each pong closes a loop of its skeleton, so the
// state about to pong must be fully expanded, and `go` is explored.
TEST(McPor, StaticProvisoExpandsCycleClosingStates) {
  auto C = compile(R"(
channel ping: int
channel pong: int
channel go: int
process a { while (true) { out(ping, 1); in(pong, $x); } }
process b { while (true) { in(ping, $y); out(pong, y); } }
process c { while (true) { in(go, $g); assert(g == 0); } }
process d { while (true) { out(go, 1); } }
)");
  ASSERT_TRUE(C);
  for (unsigned Jobs : {1u, 4u}) {
    McOptions Mc;
    Mc.Por = true;
    Mc.Jobs = Jobs;
    McResult R = checkModel(C->Module, Mc);
    ASSERT_EQ(R.Verdict, McVerdict::Violation)
        << "jobs " << Jobs << "\n" << R.report();
    EXPECT_EQ(R.Violation.Kind, RuntimeErrorKind::AssertFailed);
    EXPECT_GT(R.PorReducedStates, 0u) << R.report();
    EXPECT_GT(R.PorProvisoUpgrades, 0u) << R.report();
    EXPECT_TRUE(replayTrace(C->Module, Mc, R)) << R.report();
  }
}

// The static proviso depends only on the state, so a completed reduced
// search stores, explores and transitions exactly the same at every
// worker count — per-process harnesses of the shipped examples and the
// budgeted VMMC cluster alike.
TEST(McPor, ReducedCountsIdenticalAcrossJobs) {
  static const struct {
    const char *File;
    const char *Process;
    uint64_t Explored, Stored, Transitions;
  } Clean[] = {
      {"pagetable.esp", "translator", 33, 21, 32},
      {"pagetable.esp", "pageTable", 325, 65, 324},
      {"quickstart.esp", "producer", 11, 11, 10},
      {"quickstart.esp", "add5", 9, 5, 8},
      {"sliding_window.esp", "sender", 12, 6, 11},
      {"sliding_window.esp", "wire", 21, 7, 20},
      {"sliding_window.esp", "sink", 7, 3, 6},
  };
  for (const auto &E : Clean) {
    SourceManager SM;
    DiagnosticEngine Diags(SM);
    CompileResult R = compileBuffer(SM, Diags, E.File, readExample(E.File));
    ASSERT_TRUE(R.Success) << Diags.renderAll();
    for (unsigned Jobs : {1u, 2u, 4u}) {
      SafetyOptions Options;
      Options.Mc.Por = true;
      Options.Mc.Jobs = Jobs;
      McResult Result = verifyProcessMemorySafety(*R.Prog, E.Process, Options);
      std::string Label = std::string(E.File) + " --process " + E.Process +
                          " --jobs " + std::to_string(Jobs);
      EXPECT_EQ(Result.Verdict, McVerdict::OK) << Label;
      EXPECT_EQ(Result.StatesExplored, E.Explored) << Label;
      EXPECT_EQ(Result.StatesStored, E.Stored) << Label;
      EXPECT_EQ(Result.Transitions, E.Transitions) << Label;
    }
  }

  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  for (unsigned Jobs : {1u, 2u, 4u}) {
    SafetyOptions Options;
    Options.Mc.EnvSendBudget = 4;
    Options.Mc.Por = true;
    Options.Mc.Jobs = Jobs;
    McResult Result = verifyProcessClusterMemorySafety(
        *R.Prog, {"pageTable", "deliver"}, Options);
    std::string Label = "pageTable,deliver --jobs " + std::to_string(Jobs);
    EXPECT_EQ(Result.Verdict, McVerdict::OK) << Label;
    EXPECT_EQ(Result.StatesExplored, 15353u) << Label;
    EXPECT_EQ(Result.StatesStored, 2353u) << Label;
    EXPECT_EQ(Result.Transitions, 15352u) << Label;
  }
}

// Known limitation of the static proviso, pinned so that a finer one can
// be measured against it. Without an environment budget every case of
// pageTable's and deliver's `while (true)` event loops returns to its own
// stop over a back edge, so every move is cycle-closing and --por stores
// exactly the full search's 1305 states. The former on-stack proviso of
// the sequential engine stored 1085 here (1.2x). A proviso that pairs the
// loops of rendezvous partners could win that back; when one does, lower
// these counts.
TEST(McPor, UnbudgetedLoopingClusterDoesNotReduce) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  for (bool Por : {false, true}) {
    for (unsigned Jobs : {1u, 4u}) {
      SafetyOptions Options;
      Options.Mc.Por = Por;
      Options.Mc.Jobs = Jobs;
      McResult Result = verifyProcessClusterMemorySafety(
          *R.Prog, {"pageTable", "deliver"}, Options);
      std::string Label = std::string(Por ? "--por" : "full") + " --jobs " +
                          std::to_string(Jobs);
      EXPECT_EQ(Result.Verdict, McVerdict::OK) << Label;
      EXPECT_EQ(Result.StatesStored, 1305u) << Label;
      EXPECT_EQ(Result.StatesExplored, 19161u) << Label;
      EXPECT_EQ(Result.Transitions, 19160u) << Label;
      EXPECT_EQ(Result.PorReducedStates, 0u) << Label;
    }
  }
}

} // namespace
