//===--- bench_mc_modes.cpp - Model checker exploration modes ---------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Reproduces the §5.1 discussion of SPIN's three exploration modes:
// exhaustive search, bit-state hashing (partial search with far less
// memory), and random simulation (the development mode, "more effective
// in discovering bugs" than a faithful simulator because it randomizes
// every choice). Each mode runs over (a) a correct producer/consumer
// system scaled up until exhaustive search is expensive, and (b) the
// same system with a seeded race-dependent assertion bug.
//
// A second table compares the visited-state storage back-ends (exact,
// hash compaction) on the same system and on the VMMC firmware's
// per-process memory-safety harness (§5.3), and the measurements are
// emitted to BENCH_mc_modes.json. Every row runs its search five times
// and reports the run of median wall time.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "driver/Driver.h"
#include "mc/SafetyHarness.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "vmmc/EspFirmwareSource.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace esp;
using namespace esp::bench;

namespace {

/// The measured configurations, accumulated for BENCH_mc_modes.json.
obs::JsonValue Rows = obs::JsonValue::array();

double statesPerSec(const McResult &R) {
  return R.Seconds > 0 ? R.StatesExplored / R.Seconds : 0.0;
}

/// Runs \p Search five times and returns the run of median wall time,
/// so that one slow stretch of the host does not decide a row's speed.
/// Every run must report the same counts and verdict.
template <typename Fn> McResult medianRun(Fn &&Search) {
  constexpr size_t kRuns = 5;
  std::vector<McResult> Runs;
  for (size_t I = 0; I != kRuns; ++I) {
    Runs.push_back(Search());
    const McResult &First = Runs.front(), &Last = Runs.back();
    if (Last.StatesExplored != First.StatesExplored ||
        Last.StatesStored != First.StatesStored ||
        Last.Transitions != First.Transitions ||
        Last.Verdict != First.Verdict) {
      std::fprintf(stderr, "counts differ between runs of one search\n");
      std::exit(1);
    }
  }
  std::sort(Runs.begin(), Runs.end(),
            [](const McResult &A, const McResult &B) {
              return A.Seconds < B.Seconds;
            });
  return Runs[kRuns / 2];
}

double bytesPerState(const McResult &R) {
  return R.StatesStored > 0 ? static_cast<double>(R.MemoryBytes) / R.StatesStored
                            : 0.0;
}

/// \p Reduction is StatesStored(full) / StatesStored(--por) for reduced
/// rows and 1.0 elsewhere; it is only meaningful when both searches ran
/// to completion.
void record(const std::string &System, const std::string &Config,
            const McResult &R, unsigned Jobs = 1, double Reduction = 1.0) {
  using obs::JsonValue;
  JsonValue Row = JsonValue::object();
  Row.set("system", JsonValue::str(System));
  Row.set("config", JsonValue::str(Config));
  Row.set("jobs", jsonCount(Jobs));
  Row.set("states_explored", jsonCount(R.StatesExplored));
  Row.set("states_stored", jsonCount(R.StatesStored));
  Row.set("transitions", jsonCount(R.Transitions));
  Row.set("seconds", jsonFixed(R.Seconds, 6));
  Row.set("states_per_sec", jsonFixed(statesPerSec(R), 1));
  Row.set("bytes_per_state", jsonFixed(bytesPerState(R), 2));
  Row.set("peak_visited_bytes", jsonCount(R.MemoryBytes));
  Row.set("state_vector_bytes", jsonCount(R.StateVectorBytes));
  Row.set("replayed_moves", jsonCount(R.ReplayedMoves));
  Row.set("max_depth", jsonCount(R.MaxDepthReached));
  Row.set("reduction_factor", jsonFixed(Reduction, 2));
  Row.set("verdict", JsonValue::str(R.foundViolation() ? "violation"
                                    : R.Verdict == McVerdict::OK ? "ok"
                                                                 : "partial"));
  Rows.push(std::move(Row));
}

/// N producers, one server, one consumer; the bug variant asserts a
/// property that only fails in one interleaving class.
std::string makeModel(unsigned Messages, bool SeedBug) {
  std::string Source = "const N = " + std::to_string(Messages) + ";\n";
  Source += R"(
channel reqC: record of { ret: int, v: int }
channel repC: record of { ret: int, v: int }
channel doneC: int
process clientA {
  $i = 0;
  while (i < N) {
    out( reqC, { @, i });
    in( repC, { @, $r });
    i = i + 1;
  }
  out( doneC, 1);
}
process clientB {
  $i = 0;
  while (i < N) {
    out( reqC, { @, i + 100 });
    in( repC, { @, $r });
    i = i + 1;
  }
  out( doneC, 2);
}
process server {
  $served = 0;
  $lastA = -1;
  while (true) {
    in( reqC, { $who, $v });
    served = served + 1;
)";
  if (SeedBug)
    // Fails only when B's first request is served before any of A's:
    // a race the depth-first developer run can easily miss.
    Source += "    assert(!(served == 1 && v >= 100));\n";
  Source += R"(
    out( repC, { who, v * 2 });
  }
}
process joiner {
  in( doneC, $a);
  in( doneC, $b);
  assert(a + b == 3);
}
)";
  return Source;
}

/// Owns the whole pipeline: the lowered IR points into the AST, so the
/// Program must stay alive as long as the ModuleIR is used.
struct CompiledModel {
  SourceManager SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<Program> Prog;
  ModuleIR Module;
};

std::unique_ptr<CompiledModel> compileModel(const std::string &Model) {
  auto C = std::make_unique<CompiledModel>();
  C->Diags = std::make_unique<DiagnosticEngine>(C->SM);
  CompileResult R = compileBuffer(C->SM, *C->Diags, "model", Model);
  if (!R.Success) {
    std::fprintf(stderr, "compile error:\n%s", C->Diags->renderAll().c_str());
    std::exit(1);
  }
  C->Prog = std::move(R.Prog);
  C->Module = std::move(R.Module);
  return C;
}

const char *verdictLabel(const McResult &R) {
  return R.foundViolation()
             ? "BUG FOUND"
             : (R.Verdict == McVerdict::OK ? "proved safe" : "no bug seen");
}

void runModeRow(const char *Label, const ModuleIR &Module, SearchMode Mode,
                unsigned BitBits) {
  McOptions Options;
  Options.Mode = Mode;
  Options.BitStateBits = BitBits;
  Options.MaxStates = 4'000'000;
  Options.SimulationRuns = 64;
  Options.CheckDeadlock = false; // server loops forever by design.
  McResult R = medianRun([&] { return checkModel(Module, Options); });
  const char *ModeName = Mode == SearchMode::Exhaustive ? "exhaustive"
                         : Mode == SearchMode::BitState ? "bit-state"
                                                        : "simulation";
  std::printf("%-28s %-11s %10llu %10llu %9.3f %9.2f  %s\n", Label, ModeName,
              static_cast<unsigned long long>(R.StatesExplored),
              static_cast<unsigned long long>(R.StatesStored), R.Seconds,
              R.MemoryBytes / 1024.0 / 1024.0, verdictLabel(R));
  record(Label, ModeName, R);
}

struct VisitedConfig {
  const char *Name;
  VisitedKind Visited;
};

constexpr VisitedConfig VisitedConfigs[] = {
    {"exact", VisitedKind::Exact},
    {"hash64", VisitedKind::Hash64},
};

void runVisitedRow(const char *Label, const ModuleIR &Module,
                   const VisitedConfig &Cfg) {
  McOptions Options;
  Options.Visited = Cfg.Visited;
  Options.MaxStates = 4'000'000;
  Options.CheckDeadlock = false;
  McResult R = medianRun([&] { return checkModel(Module, Options); });
  std::printf("%-28s %-15s %10llu %9.3f %10.0f %8.1f %9.2f  %s\n", Label,
              Cfg.Name, static_cast<unsigned long long>(R.StatesStored),
              R.Seconds, statesPerSec(R), bytesPerState(R),
              R.MemoryBytes / 1024.0 / 1024.0, verdictLabel(R));
  record(Label, Cfg.Name, R);
}

/// One parallel-scaling measurement: same search, N workers. The
/// baseline seconds come from the Jobs=1 row so the speedup column is
/// relative to one worker of the same engine.
double runParallelRow(const char *Label, const ModuleIR &Module,
                      const VisitedConfig &Cfg, unsigned Jobs,
                      double BaselineSec) {
  McOptions Options;
  Options.Visited = Cfg.Visited;
  Options.MaxStates = 4'000'000;
  Options.CheckDeadlock = false;
  Options.Jobs = Jobs;
  McResult R = medianRun([&] { return checkModel(Module, Options); });
  double Speedup = R.Seconds > 0 && BaselineSec > 0 ? BaselineSec / R.Seconds
                                                    : 0.0;
  std::printf("%-28s %-15s %5u %10llu %9.3f %10.0f %8.2fx  %s\n", Label,
              Cfg.Name, Jobs, static_cast<unsigned long long>(R.StatesStored),
              R.Seconds, statesPerSec(R), Speedup, verdictLabel(R));
  record(Label, std::string(Cfg.Name) + "-parallel", R, Jobs);
  return R.Seconds;
}

/// Parallel scaling of the VMMC pageTable safety harness -- the
/// headline states/sec measurement for `--jobs N`.
double runVmmcParallelRow(const Program &Prog, const char *ProcName,
                          const VisitedConfig &Cfg, unsigned Jobs,
                          double BaselineSec) {
  SafetyOptions Options;
  Options.IntDomain = {0, 1};
  Options.Mc.MaxStates = 2'000'000;
  Options.Mc.MaxObjects = 128;
  Options.Mc.Visited = Cfg.Visited;
  Options.Mc.Jobs = Jobs;
  McResult R = medianRun(
      [&] { return verifyProcessMemorySafety(Prog, ProcName, Options); });
  double Speedup = R.Seconds > 0 && BaselineSec > 0 ? BaselineSec / R.Seconds
                                                    : 0.0;
  std::printf("%-28s %-15s %5u %10llu %9.3f %10.0f %8.2fx  %s\n", ProcName,
              Cfg.Name, Jobs, static_cast<unsigned long long>(R.StatesStored),
              R.Seconds, statesPerSec(R), Speedup,
              R.foundViolation() ? "VIOLATION" : "SAFE");
  record(std::string("vmmc:") + ProcName,
         std::string(Cfg.Name) + "-parallel", R, Jobs);
  return R.Seconds;
}

/// Row name of a VMMC process cluster under \p EnvBudget.
std::string clusterName(const std::vector<std::string> &Procs,
                        uint32_t EnvBudget) {
  std::string Name = "vmmc:";
  for (size_t I = 0; I != Procs.size(); ++I)
    Name += (I ? "+" : "") + Procs[I];
  if (EnvBudget)
    Name += "@budget" + std::to_string(EnvBudget);
  return Name;
}

/// One full-vs-`--por` pair over a VMMC process cluster under a finite
/// per-channel environment budget (`--env-budget`). Returns the
/// stored-state reduction factor; both rows land in the JSON, named
/// \p Name or, when it is empty, after the cluster's processes.
double runPorPair(const Program &Prog,
                  const std::vector<std::string> &Procs,
                  uint32_t EnvBudget, unsigned Jobs, uint64_t MaxStates,
                  std::string Name = "") {
  if (Name.empty())
    Name = clusterName(Procs, EnvBudget);

  SafetyOptions Options;
  Options.Mc.MaxStates = MaxStates;
  Options.Mc.EnvSendBudget = EnvBudget;
  Options.Mc.Jobs = Jobs;
  auto Search = [&] {
    return verifyProcessClusterMemorySafety(Prog, Procs, Options);
  };
  McResult Full = medianRun(Search);
  Options.Mc.Por = true;
  McResult Por = medianRun(Search);

  bool BothComplete = Full.Verdict == McVerdict::OK &&
                      Por.Verdict == McVerdict::OK;
  double Reduction = BothComplete && Por.StatesStored
                         ? static_cast<double>(Full.StatesStored) /
                               Por.StatesStored
                         : 1.0;
  auto Print = [&](const char *Cfg, const McResult &R, double Factor) {
    std::printf("%-34s %-6s %5u %10llu %6u %9.3f %8.2fx  %s\n", Name.c_str(),
                Cfg, Jobs, static_cast<unsigned long long>(R.StatesStored),
                R.MaxDepthReached, R.Seconds, Factor, verdictLabel(R));
  };
  Print("full", Full, 1.0);
  Print("--por", Por, Reduction);
  record(Name, "full", Full, Jobs);
  record(Name, "por", Por, Jobs, Reduction);
  return Reduction;
}

/// The full search of a VMMC process cluster with exact visited-state
/// storage on one worker: the memory cost of the certainty reference.
void runClusterExactRow(const Program &Prog,
                        const std::vector<std::string> &Procs,
                        uint32_t EnvBudget, uint64_t MaxStates) {
  std::string Name = clusterName(Procs, EnvBudget);
  SafetyOptions Options;
  Options.Mc.MaxStates = MaxStates;
  Options.Mc.EnvSendBudget = EnvBudget;
  Options.Mc.Visited = VisitedKind::Exact;
  McResult R = medianRun(
      [&] { return verifyProcessClusterMemorySafety(Prog, Procs, Options); });
  std::printf("%-34s %-6s %5u %10llu %6u %9.3f %8.1f  %s\n", Name.c_str(),
              "exact", 1u, static_cast<unsigned long long>(R.StatesStored),
              R.MaxDepthReached, R.Seconds, bytesPerState(R), verdictLabel(R));
  record(Name, "exact", R);
}

void runVmmcRow(const Program &Prog, const char *ProcName,
                const VisitedConfig &Cfg) {
  SafetyOptions Options;
  Options.IntDomain = {0, 1};
  Options.Mc.MaxStates = 2'000'000;
  Options.Mc.MaxObjects = 128;
  Options.Mc.Visited = Cfg.Visited;
  McResult R = medianRun(
      [&] { return verifyProcessMemorySafety(Prog, ProcName, Options); });
  std::printf("%-28s %-15s %10llu %9.3f %10.0f %8.1f %9.2f  %s\n", ProcName,
              Cfg.Name, static_cast<unsigned long long>(R.StatesStored),
              R.Seconds, statesPerSec(R), bytesPerState(R),
              R.MemoryBytes / 1024.0 / 1024.0,
              R.foundViolation() ? "VIOLATION" : "SAFE");
  record(std::string("vmmc:") + ProcName, Cfg.Name, R);
}

} // namespace

int main() {
  printHeader("Table: exploration modes (section 5.1)");
  std::printf("%-28s %-11s %10s %10s %9s %9s  %s\n", "system", "mode",
              "explored", "stored", "sec", "MB", "verdict");

  auto Clean = compileModel(makeModel(6, /*SeedBug=*/false));
  runModeRow("2 clients x 6 msgs, clean", Clean->Module, SearchMode::Exhaustive,
             0);
  runModeRow("2 clients x 6 msgs, clean", Clean->Module, SearchMode::BitState,
             18);
  runModeRow("2 clients x 6 msgs, clean", Clean->Module, SearchMode::Simulation,
             0);

  auto Buggy = compileModel(makeModel(6, /*SeedBug=*/true));
  runModeRow("same + seeded race bug", Buggy->Module, SearchMode::Exhaustive,
             0);
  runModeRow("same + seeded race bug", Buggy->Module, SearchMode::BitState, 18);
  runModeRow("same + seeded race bug", Buggy->Module, SearchMode::Simulation,
             0);

  printHeader("Table: visited-state storage (exact + hash compaction)");
  std::printf("%-28s %-15s %10s %9s %10s %8s %9s  %s\n", "system", "visited",
              "stored", "sec", "states/s", "B/state", "MB", "verdict");
  for (const VisitedConfig &Cfg : VisitedConfigs)
    runVisitedRow("2 clients x 6 msgs, clean", Clean->Module, Cfg);

  std::printf("\nVMMC firmware per-process safety harness (section 5.3):\n");
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult FirmwareResult =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  if (!FirmwareResult.Success) {
    std::fprintf(stderr, "firmware failed to compile:\n%s",
                 Diags.renderAll().c_str());
    return 1;
  }
  std::unique_ptr<Program> Firmware = std::move(FirmwareResult.Prog);
  for (const VisitedConfig &Cfg : VisitedConfigs)
    runVmmcRow(*Firmware, "pageTable", Cfg);
  for (const VisitedConfig &Cfg : VisitedConfigs)
    runVmmcRow(*Firmware, "userReq", Cfg);

  printHeader("Table: parallel search scaling (--jobs N)");
  std::printf("%-28s %-15s %5s %10s %9s %10s %9s  %s\n", "system", "visited",
              "jobs", "stored", "sec", "states/s", "speedup", "verdict");
  // A larger instance than the mode table: parallel speedup needs a
  // state space that takes real time, or thread startup dominates.
  // Jobs=1 is one worker of the same engine (a plain DFS); every row
  // must report the identical stored-state count (the determinism
  // guarantee).
  auto Big = compileModel(makeModel(40, /*SeedBug=*/false));
  for (const VisitedConfig &Cfg : VisitedConfigs) {
    double Base = runParallelRow("2 clients x 40 msgs, clean", Big->Module,
                                 Cfg, 1, 0.0);
    for (unsigned Jobs : {2u, 4u, 8u})
      runParallelRow("2 clients x 40 msgs, clean", Big->Module, Cfg, Jobs,
                     Base);
  }
  {
    const VisitedConfig &Cfg = VisitedConfigs[1]; // hash64
    double Base = runVmmcParallelRow(*Firmware, "pageTable", Cfg, 1, 0.0);
    for (unsigned Jobs : {2u, 4u, 8u})
      runVmmcParallelRow(*Firmware, "pageTable", Cfg, Jobs, Base);
  }

  printHeader("Table: partial-order reduction (--por, ample sets)");
  std::printf("%-34s %-6s %5s %10s %6s %9s %9s  %s\n", "system", "config",
              "jobs", "stored", "depth", "sec", "factor", "verdict");
  // Single-process harnesses: every move shares the one process, so no
  // proper ample subset exists and the factor is honestly 1.0.
  runPorPair(*Firmware, {"pageTable"}, 0, 1, 2'000'000);
  runPorPair(*Firmware, {"userReq"}, 0, 1, 2'000'000);
  // The headline: two channel-disjoint processes under a finite
  // per-channel environment workload (--env-budget). Budgeted
  // environment sends cannot close a cycle, so the static cycle proviso
  // never fires and the reduced search collapses the interleaving
  // product -- with the same counts at every worker count.
  for (unsigned Jobs : {1u, 2u, 4u})
    runPorPair(*Firmware, {"pageTable", "deliver"}, 4, Jobs, 5'000'000);
  // The full search again with exact storage (B/state in the factor
  // column): what certainty costs over the default hash64.
  runClusterExactRow(*Firmware, {"pageTable", "deliver"}, 4, 5'000'000);
  // The same cluster without a budget: every case of the firmware's
  // `while (true)` event loops closes a cycle of its process skeleton,
  // so the static proviso keeps every state fully expanded (factor 1.0).
  runPorPair(*Firmware, {"pageTable", "deliver"}, 0, 1, 5'000'000);
  // Equal-memory depth row: at the same 50000-state cap the reduced
  // search spends its budget pushing the txWindow chain deeper instead
  // of permuting independent rxDemux moves (both runs truncate, so the
  // stored counts are incomparable and the factor stays 1.0).
  runPorPair(*Firmware, {"rxDemux", "txWindow"}, 0, 1, 50'000);
  // The whole firmware, every process at once, under a one-message
  // environment budget: the system-wide check the paper's section 5.3
  // could not run.
  for (unsigned Jobs : {1u, 4u})
    runPorPair(*Firmware,
               {"userReq", "pageTable", "txWindow", "rxDemux", "deliver"}, 1,
               Jobs, 5'000'000, "vmmc:all@budget1");

  std::printf("\npaper: exhaustive explores everything; bit-state covers "
              "large spaces in\nbounded memory; randomized simulation "
              "finds most bugs during development.\nHash compaction is "
              "SPIN's answer to state-vector memory.\n");

  writeBenchJson("BENCH_mc_modes.json", "mc_modes", /*Quick=*/false,
                 std::move(Rows));
  return 0;
}
