//===--- bench_runtime.cpp - Runtime fast-path states/sec + latency ---------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Quantifies the runtime fast path (precompiled dispatch, per-channel
// blocked bitmasks + pattern prefilter, heap free lists; see
// docs/runtime.md): model-checker throughput in states/sec on the VMMC
// firmware's per-process safety harnesses, and the Figure 5(a) pingpong
// latency over the same Machine. Small searches are looped in-process so
// the states/sec figure is stable; the search counts themselves are the
// determinism goldens (tests/test_determinism.cpp) and must not move.
//
// Results are emitted to BENCH_runtime.json. `--quick` trims repeats and
// the latency sweep for the CI smoke job.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "driver/Driver.h"
#include "mc/SafetyHarness.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "vmmc/EspFirmwareSource.h"
#include "vmmc/Workloads.h"

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

using namespace esp;
using namespace esp::bench;

namespace {

obs::JsonValue Rows = obs::JsonValue::array();

/// One BENCH_runtime.json row. \p Value is states/sec or usec; the
/// search counts are per single search (0 for latency rows).
void addRow(const std::string &Section, const std::string &Name,
            const std::string &Config, double Value, const std::string &Unit,
            uint64_t Explored, uint64_t Stored, uint64_t Transitions,
            unsigned Repeats, const std::string &Verdict) {
  using obs::JsonValue;
  JsonValue Row = JsonValue::object();
  Row.set("section", JsonValue::str(Section));
  Row.set("name", JsonValue::str(Name));
  Row.set("config", JsonValue::str(Config));
  Row.set("value", jsonFixed(Value, 2));
  Row.set("unit", JsonValue::str(Unit));
  Row.set("states_explored", jsonCount(Explored));
  Row.set("states_stored", jsonCount(Stored));
  Row.set("transitions", jsonCount(Transitions));
  Row.set("repeats", jsonCount(Repeats));
  Row.set("verdict", JsonValue::str(Verdict));
  Rows.push(std::move(Row));
}

/// Run one per-process safety search `Repeats` times and report aggregate
/// states/sec. Small searches (pageTable is 221 states) finish in well
/// under a millisecond, so a single run is all timer noise; the counts of
/// every repeat must agree (canonical purity) and are printed once.
void throughputRow(const Program &Prog, const char *ProcName,
                   uint64_t MaxStates, unsigned Repeats) {
  uint64_t Explored = 0, Stored = 0, Transitions = 0;
  double Seconds = 0;
  std::string Verdict = "ok";
  for (unsigned I = 0; I != Repeats; ++I) {
    SafetyOptions Options;
    Options.IntDomain = {0, 1};
    Options.Mc.MaxObjects = 128;
    if (MaxStates)
      Options.Mc.MaxStates = MaxStates;
    McResult R = verifyProcessMemorySafety(Prog, ProcName, Options);
    Seconds += R.Seconds;
    if (I == 0) {
      Explored = R.StatesExplored;
      Stored = R.StatesStored;
      Transitions = R.Transitions;
      Verdict = R.foundViolation()           ? "violation"
                : R.Verdict == McVerdict::OK ? "ok"
                                             : "partial";
    } else if (R.StatesExplored != Explored || R.StatesStored != Stored ||
               R.Transitions != Transitions) {
      std::fprintf(stderr, "%s: counts drifted across repeats\n", ProcName);
      std::exit(1);
    }
  }
  double StatesPerSec =
      Seconds > 0 ? static_cast<double>(Explored) * Repeats / Seconds : 0;
  std::string Config =
      MaxStates ? "bounded@" + std::to_string(MaxStates) : "exhaustive";
  std::printf("%-12s %-16s %10llu %10llu %11llu %4u %12.0f  %s\n", ProcName,
              Config.c_str(), static_cast<unsigned long long>(Explored),
              static_cast<unsigned long long>(Stored),
              static_cast<unsigned long long>(Transitions), Repeats,
              StatesPerSec, Verdict.c_str());
  addRow("mc_throughput", ProcName, Config, StatesPerSec, "states_per_sec",
         Explored, Stored, Transitions, Repeats, Verdict);
}

void latencyRow(uint32_t Size, unsigned Roundtrips) {
  vmmc::WorkloadResult Esp =
      vmmc::runPingpong(vmmc::FirmwareKind::Esp, Size, Roundtrips);
  vmmc::WorkloadResult Orig =
      vmmc::runPingpong(vmmc::FirmwareKind::Orig, Size, Roundtrips);
  if (!Esp.Completed || !Orig.Completed) {
    std::printf("%8s  INCOMPLETE\n", sizeLabel(Size).c_str());
    std::exit(1);
  }
  std::printf("%8s %12.2f %12.2f %10.2f\n", sizeLabel(Size).c_str(),
              Esp.OneWayLatencyUs, Orig.OneWayLatencyUs,
              Esp.OneWayLatencyUs / Orig.OneWayLatencyUs);
  addRow("fig5a_latency", "vmmcESP", sizeLabel(Size), Esp.OneWayLatencyUs,
         "usec", 0, 0, 0, Roundtrips, "completed");
  addRow("fig5a_latency", "vmmcOrig", sizeLabel(Size), Orig.OneWayLatencyUs,
         "usec", 0, 0, 0, Roundtrips, "completed");
}

/// Host-time cost of the fig5a pingpong: wall-clock microseconds per
/// round trip over many iterations, so firmware construction amortizes
/// out and the Machine stepping cost dominates. The simulated latencies
/// above are invariant under the fast path (the simulator's clock is
/// deterministic); this row is where the engine speedup shows.
void hostTimeRow(vmmc::FirmwareKind Kind, uint32_t Size, unsigned Roundtrips) {
  auto Start = std::chrono::steady_clock::now();
  vmmc::WorkloadResult R = vmmc::runPingpong(Kind, Size, Roundtrips);
  auto End = std::chrono::steady_clock::now();
  if (!R.Completed) {
    std::printf("%8s  INCOMPLETE\n", sizeLabel(Size).c_str());
    std::exit(1);
  }
  double TotalUs =
      std::chrono::duration<double, std::micro>(End - Start).count();
  double UsPerRt = TotalUs / Roundtrips;
  std::printf("%-10s %8s %8u %14.2f %16.3f\n", vmmc::firmwareKindName(Kind),
              sizeLabel(Size).c_str(), Roundtrips, TotalUs / 1000.0, UsPerRt);
  addRow("fig5a_host_time", vmmc::firmwareKindName(Kind), sizeLabel(Size),
         UsPerRt, "host_usec_per_roundtrip", 0, 0, 0, Roundtrips, "completed");
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0) {
      Quick = true;
    } else {
      std::fprintf(stderr, "usage: bench_runtime [--quick]\n");
      return 2;
    }
  }

  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  if (!R.Success) {
    std::fprintf(stderr, "firmware failed to compile:\n%s",
                 Diags.renderAll().c_str());
    return 1;
  }

  printHeader("Model-checker throughput (VMMC per-process safety harness)");
  std::printf("%-12s %-16s %10s %10s %11s %4s %12s  %s\n", "process",
              "config", "explored", "stored", "transitions", "reps",
              "states/s", "verdict");
  // pageTable is the acceptance-criterion search: 221 states, so it is
  // looped many times; the larger bounded searches need fewer repeats.
  throughputRow(*R.Prog, "pageTable", 0, Quick ? 50 : 400);
  throughputRow(*R.Prog, "userReq", 0, Quick ? 20 : 150);
  throughputRow(*R.Prog, "deliver", 0, Quick ? 50 : 400);
  throughputRow(*R.Prog, "txWindow", 50'000, Quick ? 2 : 10);
  throughputRow(*R.Prog, "rxDemux", 50'000, Quick ? 2 : 10);

  printHeader("Figure 5(a) pingpong one-way latency (usec) over the same "
              "Machine");
  std::printf("%8s %12s %12s %10s\n", "size", "vmmcESP", "vmmcOrig",
              "ESP/Orig");
  std::vector<uint32_t> Sizes =
      Quick ? std::vector<uint32_t>{4, 4096} : latencySizes();
  for (uint32_t Size : Sizes)
    latencyRow(Size, 24);

  printHeader("Host wall-clock per pingpong round trip (engine cost)");
  std::printf("%-10s %8s %8s %14s %16s\n", "firmware", "size", "reps",
              "total ms", "usec/roundtrip");
  unsigned HostReps = Quick ? 300 : 2000;
  hostTimeRow(vmmc::FirmwareKind::Esp, 4, HostReps);
  hostTimeRow(vmmc::FirmwareKind::Esp, 4096, HostReps);
  hostTimeRow(vmmc::FirmwareKind::Orig, 4, HostReps);

  writeBenchJson("BENCH_runtime.json", "runtime", Quick, std::move(Rows));
  return 0;
}
