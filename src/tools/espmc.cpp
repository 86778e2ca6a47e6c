//===--- espmc.cpp - The ESP model-checking driver ----------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The verification side of Figure 4: combines the program with optional
// test-harness ESP files (the analogue of the paper's test.SPIN files —
// extra processes that generate external events and assert properties),
// then explores the state space. Also runs the §5.3 per-process
// memory-safety harness. Compilation goes through esp::compile
// (src/driver/), which concatenates program and harness files.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "mc/SafetyHarness.h"
#include "obs/Progress.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/StringExtras.h"
#include "support/ToolArgs.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace esp;

namespace {

const char kUsage[] =
    "usage: espmc [options] <file.esp> [harness.esp ...]\n"
    "\n"
    "The ESP verifier (PLDI 2001 reproduction of the SPIN workflow).\n"
    "Harness files are concatenated with the program, as the paper\n"
    "combines pgm.SPIN with test.SPIN.\n"
    "\n"
    "options:\n"
    "  --mode exhaustive|bitstate|sim   exploration mode (default\n"
    "                                   exhaustive, section 5.1)\n"
    "  --process <name[,name...]>\n"
    "                      verify the memory safety of one process (or a\n"
    "                      comma-separated cluster of processes) against\n"
    "                      a nondeterministic environment (section 5.3);\n"
    "                      channels between cluster members rendezvous\n"
    "                      for real, only the rest are driven\n"
    "  --por               ample-set partial-order reduction: expand\n"
    "                      only a provably sufficient subset of moves\n"
    "                      per state, from the static independence\n"
    "                      analysis and a static cycle proviso. Same\n"
    "                      verdicts, fewer states, and the same counts\n"
    "                      at any --jobs N; not compatible with --swarm\n"
    "                      or --mode sim\n"
    "  --env-budget N      bound the environment to N sends per channel\n"
    "                      along any path (default 0 = unbounded): a\n"
    "                      finite 'verify N requests end to end'\n"
    "                      workload. Pairs well with --por, whose\n"
    "                      reduction is largest on the acyclic state\n"
    "                      spaces a finite workload produces\n"
    "  --max-states N      state bound (default 10000000)\n"
    "  --max-depth N       search depth bound; a truncated exhaustive\n"
    "                      search reports 'verified (partial)'\n"
    "  --max-objects N     object-table bound; exhaustion = leak\n"
    "  --visited exact|hash64\n"
    "                      visited-state storage for exhaustive search\n"
    "                      (default hash64: 64-bit hash compaction;\n"
    "                      exact stores full state vectors)\n"
    "  --bits N            bit-state table log2 size (default 24,\n"
    "                      clamped to [10,28])\n"
    "  --runs N            simulation runs (default 256)\n"
    "  --seed N            simulation / swarm base seed\n"
    "  --jobs N            worker threads of the search (default 1;\n"
    "                      0 = one per hardware thread; at most 1024).\n"
    "                      A completed exhaustive search reports the\n"
    "                      same verdict and state counts at any N\n"
    "  --swarm             with --mode bitstate --jobs N: independent\n"
    "                      searches per worker with distinct hash seeds\n"
    "                      and randomized move order; coverage is the\n"
    "                      union of the workers'\n"
    "  --no-deadlock       do not report deadlocks\n"
    "  --no-leaks          do not report unreachable live objects\n"
    "  --int-domain a,b,c  environment int values (default 0,1)\n"
    "  --progress[=secs]   print live search telemetry to stderr every\n"
    "                      secs seconds (default 2; 0 = one final line\n"
    "                      only): states/sec, stored states, frontier\n"
    "                      depth, visited-set memory, per-worker items\n"
    "  --stats-json <file> write the result as JSON to <file>\n"
    "  --quiet, -q         suppress the textual report (verdict still\n"
    "                      drives the exit status)\n";

/// The --progress ticker: samples a SearchProgress on its own thread
/// while the search runs. Observe-only by construction — it holds no
/// lock the engines ever touch.
class ProgressTicker {
public:
  ProgressTicker(const obs::SearchProgress &P, unsigned PeriodSecs)
      : P(P), Period(PeriodSecs) {
    if (Period > 0)
      T = std::thread([this] { run(); });
  }

  /// Joins the ticker and prints the final snapshot line.
  void finish() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Done = true;
    }
    CV.notify_all();
    if (T.joinable())
      T.join();
    line(/*Final=*/true);
  }

private:
  void run() {
    std::unique_lock<std::mutex> Lock(M);
    while (!CV.wait_for(Lock, std::chrono::seconds(Period),
                        [this] { return Done; }))
      line(/*Final=*/false);
  }

  void line(bool Final) {
    using namespace std::chrono;
    uint64_t Explored = P.totalExplored();
    uint64_t Stored = P.totalStored();
    double Secs =
        duration<double>(steady_clock::now() - Start).count();
    double Rate = Secs > 0 ? Explored / Secs : 0;
    std::string Line = "espmc: " + std::to_string(Explored) +
                       " states explored (" +
                       std::to_string(static_cast<uint64_t>(Rate)) +
                       "/sec), " + std::to_string(Stored) + " stored";
    uint64_t Depth = P.FrontierDepth.load(std::memory_order_relaxed);
    Line += Final ? ", frontier drained" : ", frontier depth " +
                                               std::to_string(Depth);
    if (uint64_t Bytes = P.VisitedBytes.load(std::memory_order_relaxed))
      Line += ", visited ~" +
              std::to_string(Bytes / (1024 * 1024)) + " MB";
    unsigned Workers = P.Workers.load(std::memory_order_relaxed);
    if (Workers > 1) {
      Line += ", items/worker";
      for (unsigned I = 0; I != Workers && I != obs::kMaxProgressWorkers;
           ++I)
        Line += (I ? " " : " [") +
                std::to_string(P.PerWorker[I].Items.load(
                    std::memory_order_relaxed));
      Line += "]";
    }
    std::fprintf(stderr, "%s\n", Line.c_str());
  }

  const obs::SearchProgress &P;
  unsigned Period;
  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  std::mutex M;
  std::condition_variable CV;
  bool Done = false;
  std::thread T;
};

} // namespace

int main(int Argc, char **Argv) {
  McOptions Mc;
  std::string ProcessName;
  std::vector<std::string> Inputs;
  std::vector<int64_t> IntDomain = {0, 1};
  bool Progress = false;
  unsigned ProgressSecs = 2;
  std::string StatsJsonPath;

  ToolArgs Args(Argc, Argv, "espmc", kUsage);
  while (Args.next()) {
    std::string Text;
    if (Args.option("--mode", Text)) {
      if (Text == "exhaustive")
        Mc.Mode = SearchMode::Exhaustive;
      else if (Text == "bitstate")
        Mc.Mode = SearchMode::BitState;
      else if (Text == "sim")
        Mc.Mode = SearchMode::Simulation;
      else if (!Args.shouldExit())
        Args.usageError("unknown mode '" + Text + "'");
    } else if (Args.option("--process", ProcessName)) {
      ;
    } else if (Args.optionUInt("--max-states", Mc.MaxStates) ||
               Args.optionUInt("--max-depth", Mc.MaxDepth) ||
               Args.optionUInt("--max-objects", Mc.MaxObjects) ||
               Args.optionUInt("--env-budget", Mc.EnvSendBudget)) {
      ;
    } else if (Args.option("--visited", Text)) {
      if (Text == "exact")
        Mc.Visited = VisitedKind::Exact;
      else if (Text == "hash64")
        Mc.Visited = VisitedKind::Hash64;
      else if (!Args.shouldExit())
        Args.usageError("unknown visited kind '" + Text + "'");
    } else if (Args.optionUInt("--bits", Mc.BitStateBits)) {
      unsigned Bits = Mc.BitStateBits;
      if (clampedBitStateBits(Bits) != Bits)
        std::fprintf(stderr, "espmc: --bits %u out of range, clamping to %u\n",
                     Bits, clampedBitStateBits(Bits));
    } else if (Args.optionUInt("--runs", Mc.SimulationRuns) ||
               Args.optionUInt("--seed", Mc.Seed) ||
               Args.optionUInt("--jobs", Mc.Jobs, 0, MaxToolJobs)) {
      ;
    } else if (Args.flag("--swarm")) {
      Mc.Swarm = true;
    } else if (Args.flag("--por")) {
      Mc.Por = true;
    } else if (Args.flag("--progress")) {
      // Bare flag: default period. Checked before the option so the
      // input filename is never consumed as a value; --progress=N goes
      // through the =value spelling below.
      Progress = true;
    } else if (Args.optionUInt("--progress", ProgressSecs)) {
      Progress = true;
    } else if (Args.option("--stats-json", StatsJsonPath)) {
      ;
    } else if (Args.flag("--no-deadlock")) {
      Mc.CheckDeadlock = false;
    } else if (Args.flag("--no-leaks")) {
      Mc.CheckLeaks = false;
    } else if (Args.optionIntList("--int-domain", IntDomain)) {
      ;
    } else if (Args.positional()) {
      Inputs.push_back(Args.arg());
    } else {
      Args.unknownOrBuiltin();
    }
  }
  // Reject flag combinations that would silently disable each other.
  if (Mc.Por && Mc.Swarm)
    Args.usageError("--por cannot be combined with --swarm: per-worker "
                    "shuffled move order breaks the ample prefix");
  else if (Mc.Por && Mc.Mode == SearchMode::Simulation)
    Args.usageError("--por requires a state-space search; use --mode "
                    "exhaustive or --mode bitstate");
  if (Args.shouldExit())
    return Args.exitCode();
  if (Inputs.empty()) {
    Args.printUsage();
    return 2;
  }

  // Split --process into a cluster and reject duplicates up front.
  std::vector<std::string> ProcessNames;
  if (!ProcessName.empty())
    for (std::string_view Piece : split(ProcessName, ',')) {
      std::string Name(Piece);
      if (Name.empty()) {
        Args.usageError("--process: empty process name in '" + ProcessName +
                        "'");
        return Args.exitCode();
      }
      for (const std::string &Seen : ProcessNames)
        if (Seen == Name) {
          Args.usageError("--process: duplicate process name '" + Name +
                          "'");
          return Args.exitCode();
        }
      ProcessNames.push_back(std::move(Name));
    }

  // The program plus its test harness files compile as one buffer
  // (Figure 4); the driver adds the concatenation banners.
  std::vector<CompileInput> Files;
  for (const std::string &Path : Inputs)
    Files.push_back(CompileInput::file(Path));
  CompileOptions Options;
  Options.Concatenate = true;

  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R = esp::compile(SM, Diags, Files, Options);
  if (!R.IOError.empty()) {
    Args.error(R.IOError);
    return Args.exitCode();
  }
  std::fprintf(stderr, "%s", Diags.renderAll().c_str());
  if (!R.Success)
    return 1;

  // --progress attaches a telemetry sink the engines publish into and a
  // ticker thread that samples it; the search itself is unaffected.
  auto Telemetry = Progress ? std::make_unique<obs::SearchProgress>()
                            : nullptr;
  if (Telemetry)
    Mc.Progress = Telemetry.get();
  std::unique_ptr<ProgressTicker> Ticker;
  if (Telemetry)
    Ticker = std::make_unique<ProgressTicker>(*Telemetry, ProgressSecs);

  // Validate the --process names against the compiled program so a typo
  // fails with a clear error instead of an assert in the harness.
  for (const std::string &Name : ProcessNames) {
    bool Found = false;
    for (const ProcIR &P : R.Module.Procs)
      if (P.Proc->Name == Name) {
        Found = true;
        break;
      }
    if (!Found) {
      Args.error("no process named '" + Name + "' in the program");
      return Args.exitCode();
    }
  }

  McResult Result;
  if (ProcessNames.empty()) {
    // Whole-system verification: the harness must close the program.
    Result = checkModel(R.Module, Mc);
  } else {
    SafetyOptions SafOptions;
    SafOptions.IntDomain = IntDomain;
    SafOptions.Mc = Mc;
    Result = ProcessNames.size() > 1
                 ? verifyProcessClusterMemorySafety(*R.Prog, ProcessNames,
                                                    SafOptions)
                 : verifyProcessMemorySafety(*R.Prog, ProcessNames[0],
                                             SafOptions);
  }
  if (Ticker)
    Ticker->finish();
  if (!StatsJsonPath.empty()) {
    std::ofstream Out(StatsJsonPath);
    if (!Out) {
      std::fprintf(stderr, "espmc: cannot write '%s'\n",
                   StatsJsonPath.c_str());
      return 1;
    }
    Out << Result.json();
  }
  if (!Args.quiet())
    std::printf("%s", Result.report().c_str());
  return Result.foundViolation() ? 3 : 0;
}
