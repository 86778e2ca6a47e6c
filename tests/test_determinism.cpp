//===--- test_determinism.cpp - Fast-path bit-identical search counts ----------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The runtime fast path (precompiled dispatch, blocked bitmasks, pattern
// prefilter, heap free lists) must not change what the model checker
// explores: enumerateMoves stays canonically pure, so every exhaustive
// search reports bit-identical verdict, states explored, states stored,
// and transitions. The counts below are golden values captured from the
// IR-walking interpreter; any drift means the fast path changed
// semantics, not just speed. The MoveOrder goldens pin one level deeper:
// the exact sequence enumerateMoves returns, which fixes the order the
// search visits successors in.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "mc/ModelChecker.h"
#include "mc/SafetyHarness.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "vmmc/EspFirmwareSource.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace esp;

namespace {

std::string readExample(const std::string &Name) {
  std::string Path = std::string(ESP_SOURCE_DIR) + "/examples/esp/" + Name;
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In) << "cannot read " << Path;
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

struct ProcessGolden {
  const char *Process;
  McVerdict Verdict;
  uint64_t Explored;
  uint64_t Stored;
  uint64_t Transitions;
};

void expectCounts(const McResult &R, const ProcessGolden &G,
                  const std::string &Label) {
  EXPECT_EQ(R.Verdict, G.Verdict) << Label;
  EXPECT_EQ(R.StatesExplored, G.Explored) << Label;
  EXPECT_EQ(R.StatesStored, G.Stored) << Label;
  EXPECT_EQ(R.Transitions, G.Transitions) << Label;
}

void checkProcessGoldens(const std::string &Source, const char *SourceName,
                         const ProcessGolden *Goldens, size_t NumGoldens,
                         uint64_t MaxStates = 0) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R = compileBuffer(SM, Diags, SourceName, Source);
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  for (size_t I = 0; I != NumGoldens; ++I) {
    SafetyOptions Options;
    if (MaxStates)
      Options.Mc.MaxStates = MaxStates;
    McResult Result =
        verifyProcessMemorySafety(*R.Prog, Goldens[I].Process, Options);
    expectCounts(Result, Goldens[I],
                 std::string(SourceName) + " --process " +
                     Goldens[I].Process);
  }
}

struct SystemGolden {
  const char *File;
  McVerdict Verdict;
  uint64_t Explored;
  uint64_t Stored;
  uint64_t Transitions;
};

TEST(Determinism, VmmcPerProcessCounts) {
  static const ProcessGolden Goldens[] = {
      {"pageTable", McVerdict::OK, 221, 45, 220},
      {"userReq", McVerdict::OK, 745, 105, 744},
      {"deliver", McVerdict::OK, 285, 29, 284},
  };
  checkProcessGoldens(vmmc::getVmmcEspSource(), "vmmc.esp", Goldens,
                      std::size(Goldens));
}

TEST(Determinism, VmmcBoundedSearchCounts) {
  // Truncated searches exercise the DFS order itself: the same 50000
  // states must be popped in the same order for the counts to agree.
  static const ProcessGolden Goldens[] = {
      {"txWindow", McVerdict::StateLimit, 50000, 7049, 49999},
      {"rxDemux", McVerdict::StateLimit, 50000, 882, 49999},
  };
  checkProcessGoldens(vmmc::getVmmcEspSource(), "vmmc.esp", Goldens,
                      std::size(Goldens), /*MaxStates=*/50000);
}

TEST(Determinism, VmmcParallelSearchMatchesSequential) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  for (unsigned Jobs : {1u, 2u, 4u}) {
    SafetyOptions Options;
    Options.Mc.Jobs = Jobs;
    McResult Result = verifyProcessMemorySafety(*R.Prog, "pageTable", Options);
    ProcessGolden G = {"pageTable", McVerdict::OK, 221, 45, 220};
    expectCounts(Result, G, "pageTable --jobs " + std::to_string(Jobs));
  }
}

TEST(Determinism, ExamplesPerProcessCounts) {
  {
    static const ProcessGolden Goldens[] = {
        {"translator", McVerdict::OK, 33, 21, 32},
        {"pageTable", McVerdict::OK, 325, 65, 324},
    };
    checkProcessGoldens(readExample("pagetable.esp"), "pagetable.esp",
                        Goldens, std::size(Goldens));
  }
  {
    static const ProcessGolden Goldens[] = {
        {"producer", McVerdict::OK, 11, 11, 10},
        {"add5", McVerdict::OK, 9, 5, 8},
        {"consumer", McVerdict::Violation, 2, 1, 1},
    };
    checkProcessGoldens(readExample("quickstart.esp"), "quickstart.esp",
                        Goldens, std::size(Goldens));
  }
  {
    static const ProcessGolden Goldens[] = {
        {"sender", McVerdict::OK, 12, 6, 11},
        {"wire", McVerdict::OK, 21, 7, 20},
        {"receiver", McVerdict::Violation, 5, 3, 4},
        {"sink", McVerdict::OK, 7, 3, 6},
    };
    checkProcessGoldens(readExample("sliding_window.esp"),
                        "sliding_window.esp", Goldens, std::size(Goldens));
  }
}

TEST(Determinism, ExamplesWholeSystemCounts) {
  // Whole-system searches under the default options; all three examples
  // end in an expected terminal violation (deadlock or assertion) with
  // fixed counts.
  static const SystemGolden Goldens[] = {
      {"pagetable.esp", McVerdict::Violation, 1, 1, 0},
      {"quickstart.esp", McVerdict::Violation, 21, 21, 20},
      {"sliding_window.esp", McVerdict::Violation, 19, 16, 18},
  };
  for (const SystemGolden &G : Goldens) {
    SourceManager SM;
    DiagnosticEngine Diags(SM);
    CompileResult R = compileBuffer(SM, Diags, G.File, readExample(G.File));
    ASSERT_TRUE(R.Success) << Diags.renderAll();
    McResult Result = checkModel(R.Module, McOptions());
    EXPECT_EQ(Result.Verdict, G.Verdict) << G.File;
    EXPECT_EQ(Result.StatesExplored, G.Explored) << G.File;
    EXPECT_EQ(Result.StatesStored, G.Stored) << G.File;
    EXPECT_EQ(Result.Transitions, G.Transitions) << G.File;
  }
}

/// Walks a verification-mode machine over \p Module for up to \p Steps
/// states, applying move Step % N in each. Returns, per state, the
/// enumerated moves as Move::str plus [writer case/reader case], and the
/// number of pattern nodes the enumeration tried.
std::vector<std::string> moveOrder(const ModuleIR &Module,
                                   const EnvModel *Env, unsigned Steps) {
  MachineOptions MO;
  MO.MaxObjects = 64;
  MO.DeepCopyTransfers = true;
  Machine M(Module, MO);
  M.setEnvModel(Env);
  M.start();
  std::vector<std::string> States;
  for (unsigned Step = 0; Step != Steps && !M.error(); ++Step) {
    uint64_t Tried = M.stats().PatternMatchesTried;
    std::vector<Move> Moves = M.enumerateMoves();
    std::string Line;
    for (const Move &Mv : Moves)
      Line += Mv.str(Module) + " [" + std::to_string(Mv.WriterCase) + "/" +
              std::to_string(Mv.ReaderCase) + "]; ";
    Line += "tried " +
            std::to_string(M.stats().PatternMatchesTried - Tried);
    States.push_back(Line);
    if (Moves.empty() ||
        M.applyMove(Moves[Step % Moves.size()]) != StepResult::Progress)
      break;
  }
  return States;
}

/// Compiles \p Source and runs moveOrder over the processes in \p Keep
/// (all when empty), with the environment driving \p Driven.
std::vector<std::string> moveOrder(const std::string &Source,
                                   const std::vector<std::string> &Keep,
                                   const std::set<std::string> &Driven,
                                   unsigned Steps = 8) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R = compileBuffer(SM, Diags, "moves.esp", Source);
  EXPECT_TRUE(R.Success) << Diags.renderAll();
  if (!R.Success)
    return {};
  ModuleIR Module;
  Module.Prog = R.Module.Prog;
  for (ProcIR &P : R.Module.Procs)
    if (Keep.empty() ||
        std::find(Keep.begin(), Keep.end(), P.Proc->Name) != Keep.end())
      Module.Procs.push_back(std::move(P));
  BoundedEnvModel Env(Driven);
  return moveOrder(Module, Driven.empty() ? nullptr : &Env, Steps);
}

TEST(MoveOrder, DisjointChannelStopsAtFirstReader) {
  // The constant first fields make `c`'s readers statically disjoint, and
  // a record pattern has no dispatch-table entry: only the stop keeps
  // the first state from dry-running rb's pattern after ra matched.
  const char *Source = R"(
channel c: record of { k: int, v: int }
channel done: int
process ra { in(c, { 1, $x }); out(done, x); }
process rb { in(c, { 2, $y }); out(done, y); }
process w {
  out(c, { 1, 7 });
  out(c, { 2, 3 });
  in(done, $p);
  in(done, $q);
}
)";
  std::vector<std::string> Expected = {
      "w -> ra on c [0/0]; tried 3",
      "w -> rb on c [0/0]; tried 3",
      "ra -> w on done [0/0]; rb -> w on done [0/0]; tried 2",
      "rb -> w on done [0/0]; tried 1",
  };
  EXPECT_EQ(moveOrder(Source, {}, {}), Expected);
}

TEST(MoveOrder, NonDisjointChannelListsEveryMatchingCase) {
  // Sema cannot prove `other`'s pattern disjoint from `r`'s. `{ 1, 5 }`
  // matches both of r's cases (two moves, one process: no ambiguity)
  // and `other` rejects it in the dry run.
  const char *Source = R"(
channel c: record of { k: int, v: int }
channel d: int
process r {
  alt {
    case( in(c, { 1, $x })) { out(d, x); }
    case( in(c, { $k, 5 })) { out(d, k); }
  }
}
process other { $two = 2; in(c, { two, 6 }); out(d, two); }
process w { out(c, { 1, 5 }); in(d, $y); out(c, { 2, 6 }); in(d, $y2); }
)";
  std::vector<std::string> Expected = {
      "w -> r on c [0/0]; w -> r on c [0/1]; tried 8",
      "r -> w on d [0/0]; tried 1",
      "w -> other on c [0/0]; tried 3",
      "other -> w on d [0/0]; tried 1",
  };
  EXPECT_EQ(moveOrder(Source, {}, {}), Expected);
}

TEST(MoveOrder, HarnessEnvironmentSendsAndReceives) {
  // translator alone, as its per-process harness: the environment drives
  // userReqC (the update variants are rejected by the disc table) and
  // ptReplyC; it receives on ptReqC, which no kept process reads, and on
  // resultC, an external-reader channel. translator's patterns read no
  // process state, so its admission tables answer and no pattern node is
  // tried.
  std::vector<std::string> Expected = {
      "env[0] -> translator on userReqC [0/0]; "
      "env[1] -> translator on userReqC [0/0]; tried 0",
      "translator -> env on ptReqC [0/0]; tried 0",
      "env[0] -> translator on ptReplyC [0/0]; "
      "env[2] -> translator on ptReplyC [0/0]; tried 0",
      "translator -> env on resultC [0/0]; tried 0",
      "env[0] -> translator on userReqC [0/0]; "
      "env[1] -> translator on userReqC [0/0]; tried 0",
      "translator -> env on ptReqC [0/0]; tried 0",
      "env[0] -> translator on ptReplyC [0/0]; "
      "env[2] -> translator on ptReplyC [0/0]; tried 0",
      "translator -> env on resultC [0/0]; tried 0",
  };
  EXPECT_EQ(moveOrder(readExample("pagetable.esp"), {"translator"},
                      {"userReqC", "ptReplyC"}),
            Expected);
}

TEST(MoveOrder, StaticAndSlotReadersShareADrivenChannel) {
  // One environment-driven channel with two readers: `fixed` matches a
  // constant, so an admission table answers for it; `follow` matches its
  // slot k, which flips after every receive, so its pattern is dry-run
  // at every state. The moves list the variants in order and, within a
  // variant, the readers in process order. Only the moves are compared:
  // how many pattern nodes are tried depends on which readers the tables
  // answer for.
  const char *Source = R"(
channel c: record of { k: int, v: int }
process fixed { $n = 0; while (true) { in(c, { 1, $x }); n = n + x; } }
process follow {
  $k = 0;
  while (true) { in(c, { k, $y }); k = 1 - k; }
}
)";
  std::vector<std::string> Moves = moveOrder(Source, {}, {"c"});
  for (std::string &Line : Moves)
    Line.erase(Line.rfind("tried "));
  const std::string AtK0 = "env[0] -> follow on c [0/0]; "
                           "env[1] -> fixed on c [0/0]; "
                           "env[2] -> follow on c [0/0]; "
                           "env[3] -> fixed on c [0/0]; ";
  const std::string AtK1 = "env[1] -> fixed on c [0/0]; "
                           "env[1] -> follow on c [0/0]; "
                           "env[3] -> fixed on c [0/0]; "
                           "env[3] -> follow on c [0/0]; ";
  std::vector<std::string> Expected = {AtK0, AtK1, AtK0, AtK1,
                                       AtK0, AtK1, AtK0, AtK1};
  EXPECT_EQ(Moves, Expected);
}

} // namespace
