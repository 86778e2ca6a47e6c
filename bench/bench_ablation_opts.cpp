//===--- bench_ablation_opts.cpp - Compiler optimization ablations ----------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Ablates the §6.1 compiler optimizations:
//  * allocation sinking (postpone out-value allocation past the
//    rendezvous, so losing alt alternatives never allocate),
//  * record-allocation elision (when every reader destructures),
//  * dead-store elimination + jump threading,
// measuring real allocation counts and interpreted-instruction counts on
// a message-heavy ESP program, and end-to-end VMMC pingpong latency with
// the optimizations on and off.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "driver/Driver.h"
#include "ir/Passes.h"
#include "runtime/Machine.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "vmmc/EspFirmware.h"
#include "vmmc/Workloads.h"

using namespace esp;
using namespace esp::bench;

namespace {

/// A message-heavy program: requests fan out over an alt whose losing
/// branches would allocate eagerly without sinking; every channel record
/// is destructured by its reader (elidable).
const char *MessageHeavy = R"(
const N = 200;
channel fast: record of { a: int, b: int }
channel slow: record of { a: int, b: int }
channel done: int
process producer {
  $i = 0;
  while (i < N) {
    alt {
      case( out( fast, { i, i + 1 })) { }
      case( out( slow, { i, i + 2 })) { }
    }
    i = i + 1;
  }
  out( done, 1);
}
process fastEater {
  while (true) { in( fast, { $a, $b }); assert(b == a + 1); }
}
process slowEater {
  while (true) { in( slow, { $a, $b }); assert(b == a + 2); }
}
process joiner { in( done, $x); }
)";

struct RunNumbers {
  uint64_t Allocations = 0;
  uint64_t Instructions = 0;
  OptStats Opt;
};

RunNumbers runWith(const OptOptions &Options) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileOptions COpts;
  COpts.Optimize = true;
  COpts.Opt = Options;
  CompileResult CR = compileBuffer(SM, Diags, "heavy.esp", MessageHeavy, COpts);
  if (!CR.Success) {
    std::fprintf(stderr, "%s", Diags.renderAll().c_str());
    std::exit(1);
  }
  std::unique_ptr<Program> Prog = std::move(CR.Prog);
  ModuleIR Module = std::move(CR.Optimized);
  RunNumbers Out;
  Out.Opt = CR.Opt;
  Machine M(Module, MachineOptions());
  M.start();
  StepResult R = M.run(1'000'000);
  if (M.error() || R == StepResult::Errored) {
    std::fprintf(stderr, "run failed: %s\n", M.error().Message.c_str());
    std::exit(1);
  }
  Out.Allocations = M.heap().getTotalAllocations();
  Out.Instructions = M.stats().Instructions;
  return Out;
}

void row(const char *Label, const OptOptions &Options) {
  RunNumbers N = runWith(Options);
  std::printf("%-34s %12llu %14llu %6u %6u %6u\n", Label,
              static_cast<unsigned long long>(N.Allocations),
              static_cast<unsigned long long>(N.Instructions),
              N.Opt.CasesLazified, N.Opt.CasesElided,
              N.Opt.DeadStoresRemoved + N.Opt.InstsRemoved);
}

} // namespace

int main() {
  printHeader("Ablation: section 6.1 compiler optimizations "
              "(message-heavy program)");
  std::printf("%-34s %12s %14s %6s %6s %6s\n", "configuration", "allocs",
              "instructions", "lazy", "elide", "dce");

  row("no optimizations", OptOptions::none());

  OptOptions SinkOnly = OptOptions::none();
  SinkOnly.SinkAllocations = true;
  row("allocation sinking only", SinkOnly);

  OptOptions ElideOnly = OptOptions::none();
  ElideOnly.SinkAllocations = true; // Elision implies lazy evaluation.
  ElideOnly.ElideRecordAllocs = true;
  row("+ record-allocation elision", ElideOnly);

  row("all optimizations", OptOptions::all());

  printHeader("Ablation: end-to-end VMMC pingpong latency (usec, 256B)");
  std::printf("%-34s %12s\n", "ESP firmware build", "latency");
  vmmc::WorkloadResult Unopt = vmmc::runPingpongWith(
      [] { return std::make_unique<vmmc::EspFirmware>(OptOptions::none()); },
      256, 16);
  vmmc::WorkloadResult Opt = vmmc::runPingpongWith(
      [] { return std::make_unique<vmmc::EspFirmware>(OptOptions::all()); },
      256, 16);
  std::printf("%-34s %12.2f\n", "unoptimized", Unopt.OneWayLatencyUs);
  std::printf("%-34s %12.2f\n", "optimized (section 6.1)",
              Opt.OneWayLatencyUs);
  std::printf("%-34s %12.2f%%\n", "improvement",
              100.0 * (Unopt.OneWayLatencyUs - Opt.OneWayLatencyUs) /
                  Unopt.OneWayLatencyUs);
  return 0;
}
