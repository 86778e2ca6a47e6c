//===--- quickstart.cpp - esplang quickstart example -------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The smallest end-to-end tour of the public API: compile an ESP program
// (the paper's add5 process, §4.3, made self-checking), execute it on
// the ESP runtime, model-check it, and print the generated C and
// Promela targets' sizes (Figure 4's two outputs).
//
// Build and run:  ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "codegen/CCodeGen.h"
#include "codegen/PromelaGen.h"
#include "driver/Driver.h"
#include "ir/Passes.h"
#include "mc/ModelChecker.h"
#include "runtime/Machine.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cstdio>

using namespace esp;

static const char *Source = R"(
// Three processes connected by two rendezvous channels (§4.2/§4.3).
channel c1: int
channel c2: int

process producer {
  $i = 0;
  while (i < 10) { out(c1, i); i = i + 1; }
}

process add5 {
  while (true) { in(c1, $x); out(c2, x + 5); }
}

process consumer {
  $n = 0;
  while (n < 10) { in(c2, $y); assert(y == n + 5); n = n + 1; }
}
)";

int main() {
  // 1. Compile: parse + semantic checks (types, patterns, channels).
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileOptions COpts;
  COpts.Optimize = true;
  CompileResult CR = compileBuffer(SM, Diags, "quickstart.esp", Source, COpts);
  if (!CR.Success) {
    std::fprintf(stderr, "compilation failed:\n%s",
                 Diags.renderAll().c_str());
    return 1;
  }
  std::unique_ptr<Program> Prog = std::move(CR.Prog);
  std::printf("compiled: %zu processes, %zu channels\n",
              Prog->Processes.size(), Prog->Channels.size());

  // 2. The driver lowered to the state-machine IR and optimized (§6.1).
  ModuleIR Module = std::move(CR.Optimized);
  OptStats Opt = CR.Opt;
  std::printf("optimized: %u dead stores removed, %u jumps threaded\n",
              Opt.DeadStoresRemoved, Opt.JumpsThreaded);

  // 3. Execute on the ESP runtime (stack-based scheduler, §6.1).
  Machine M(Module, MachineOptions());
  M.start();
  StepResult R = M.run(100000);
  if (M.error()) {
    std::fprintf(stderr, "runtime error: %s\n", M.error().Message.c_str());
    return 1;
  }
  std::printf("executed: %s, %llu rendezvous, %llu context switches\n",
              R == StepResult::Quiescent ? "quiescent" : "halted",
              (unsigned long long)M.stats().Rendezvous,
              (unsigned long long)M.stats().ContextSwitches);

  // 4. Verify: explore every interleaving (§5). The add5 server loops
  //    forever, so terminal blocked states are expected; check
  //    assertions and memory safety only.
  ModuleIR Unoptimized = std::move(CR.Module); // §5.2: translate early.
  McOptions Mc;
  Mc.CheckDeadlock = false;
  McResult Verification = checkModel(Unoptimized, Mc);
  std::printf("verified: %s (%llu states)\n",
              Verification.Verdict == McVerdict::OK ? "no violations"
                                                    : "VIOLATION",
              (unsigned long long)Verification.StatesExplored);

  // 5. The two Figure 4 targets.
  std::string CCode = generateC(Module);
  std::string Spin = generatePromela(*Prog);
  std::printf("generated: %zu bytes of C, %zu bytes of Promela\n",
              CCode.size(), Spin.size());
  return Verification.Verdict == McVerdict::OK ? 0 : 1;
}
