//===--- bench_ablation_channels.cpp - Channel runtime microbenchmarks ------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Microbenchmarks of the channel runtime backing the §6.1 design
// discussion: blocking at an alt must be cheap regardless of how many
// alternatives it has (the paper's per-process bitmask scheme vs
// per-pattern wait queues). Uses google-benchmark to time rendezvous
// throughput as the number of alt cases and the number of competing
// writers grows; near-flat per-rendezvous cost supports the bitmask
// design.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "runtime/Machine.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

using namespace esp;

namespace {

/// One consumer blocking on an alt over \p NumChannels channels; one
/// producer cycling over them. Measures rendezvous cost vs alt width.
std::string makeAltWidthProgram(unsigned NumChannels, unsigned Messages) {
  std::string Source = "const N = " + std::to_string(Messages) + ";\n";
  for (unsigned I = 0; I != NumChannels; ++I)
    Source += "channel c" + std::to_string(I) + ": int\n";
  Source += "channel done: int\n";
  Source += "process producer {\n  $i = 0;\n  while (i < N) {\n";
  Source += "    $which = i % " + std::to_string(NumChannels) + ";\n";
  for (unsigned I = 0; I != NumChannels; ++I)
    Source += "    if (which == " + std::to_string(I) + ") { out(c" +
              std::to_string(I) + ", i); }\n";
  Source += "    i = i + 1;\n  }\n  out(done, 1);\n}\n";
  Source += "process consumer {\n  while (true) {\n    alt {\n";
  for (unsigned I = 0; I != NumChannels; ++I)
    Source += "      case( in( c" + std::to_string(I) + ", $v)) { }\n";
  Source += "    }\n  }\n}\n";
  Source += "process joiner { in(done, $x); }\n";
  return Source;
}

/// \p NumWriters producers all write one channel; one reader drains.
std::string makeWriterFanProgram(unsigned NumWriters, unsigned Messages) {
  std::string Source = "const N = " + std::to_string(Messages) + ";\n";
  Source += "channel c: int\nchannel done: int\n";
  for (unsigned W = 0; W != NumWriters; ++W) {
    Source += "process writer" + std::to_string(W) + " {\n";
    Source += "  $i = 0;\n  while (i < N) { out(c, i); i = i + 1; }\n";
    Source += "  out(done, 1);\n}\n";
  }
  Source += "process reader { while (true) { in(c, $v); } }\n";
  Source += "process joiner {\n  $n = 0;\n  while (n < " +
            std::to_string(NumWriters) +
            ") { in(done, $x); n = n + 1; }\n}\n";
  return Source;
}

struct Compiled {
  SourceManager SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<Program> Prog;
  ModuleIR Module;
};

std::unique_ptr<Compiled> compileSource(const std::string &Source) {
  auto C = std::make_unique<Compiled>();
  C->Diags = std::make_unique<DiagnosticEngine>(C->SM);
  CompileResult R = compileBuffer(C->SM, *C->Diags, "bench.esp", Source);
  if (!R.Success) {
    std::fprintf(stderr, "%s", C->Diags->renderAll().c_str());
    std::exit(1);
  }
  C->Prog = std::move(R.Prog);
  C->Module = std::move(R.Module);
  return C;
}

void BM_AltWidth(benchmark::State &State) {
  unsigned Width = static_cast<unsigned>(State.range(0));
  unsigned Messages = 512;
  auto C = compileSource(makeAltWidthProgram(Width, Messages));
  uint64_t Rendezvous = 0;
  for (auto _ : State) {
    Machine M(C->Module, MachineOptions());
    M.start();
    StepResult R = M.run(1'000'000);
    if (R != StepResult::Quiescent &&
        R != StepResult::Halted)
      State.SkipWithError("machine did not finish");
    Rendezvous = M.stats().Rendezvous;
  }
  State.counters["rendezvous"] = static_cast<double>(Rendezvous);
  State.counters["ns_per_rendezvous"] = benchmark::Counter(
      static_cast<double>(Rendezvous) * State.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_AltWidth)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_WriterFan(benchmark::State &State) {
  unsigned Writers = static_cast<unsigned>(State.range(0));
  unsigned Messages = 512 / Writers;
  auto C = compileSource(makeWriterFanProgram(Writers, Messages));
  for (auto _ : State) {
    Machine M(C->Module, MachineOptions());
    M.start();
    StepResult R = M.run(1'000'000);
    if (R != StepResult::Quiescent &&
        R != StepResult::Halted)
      State.SkipWithError("machine did not finish");
  }
}
BENCHMARK(BM_WriterFan)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Rendezvous ping: two processes bouncing a token; the tightest channel
/// loop, dominated by context switch + transfer cost.
void BM_RendezvousPing(benchmark::State &State) {
  auto C = compileSource(R"(
const N = 1024;
channel ping: int
channel pong: int
process a {
  $i = 0;
  while (i < N) { out(ping, i); in(pong, $r); i = i + 1; }
}
process b {
  $i = 0;
  while (i < N) { in(ping, $v); out(pong, v + 1); i = i + 1; }
}
)");
  for (auto _ : State) {
    Machine M(C->Module, MachineOptions());
    M.start();
    if (M.run(1'000'000) != StepResult::Halted)
      State.SkipWithError("machine did not halt");
  }
}
BENCHMARK(BM_RendezvousPing);

} // namespace

BENCHMARK_MAIN();
