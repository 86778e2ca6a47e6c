//===--- espc.cpp - The ESP compiler driver ----------------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The compiler of Figure 4: takes an ESP program and generates the two
// targets — a C file for the firmware build and a SPIN (Promela)
// specification for verification. Additionally supports IR dumps,
// check-only runs, and direct execution of closed programs on the ESP
// runtime. All compilation goes through esp::compile (src/driver/).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "codegen/CCodeGen.h"
#include "codegen/PromelaGen.h"
#include "driver/Driver.h"
#include "frontend/PrettyPrinter.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Profile.h"
#include "obs/TracingObserver.h"
#include "runtime/Machine.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/ToolArgs.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace esp;

namespace {

const char kUsage[] =
    "usage: espc [options] <file.esp>\n"
    "\n"
    "The ESP compiler (PLDI 2001 reproduction). Generates the two\n"
    "targets of the paper's Figure 4.\n"
    "\n"
    "options:\n"
    "  --emit-c          generate C firmware code (default)\n"
    "  --emit-header     generate the C entry-point header\n"
    "  --emit-spin       generate the SPIN (Promela) specification\n"
    "  --dump-ir         dump the state-machine IR\n"
    "  --check           parse and type-check only\n"
    "  --analyze         run the esplint static analyses (deadlock,\n"
    "                    link balance, reachability); analysis errors\n"
    "                    fail the compile\n"
    "  -Wanalysis        like --analyze, but report everything as\n"
    "                    warnings (never fails the compile)\n"
    "  --format          pretty-print the program in canonical form\n"
    "  --run             execute a closed program on the ESP runtime\n"
    "  --safety          compile liveness/bounds assertions into the C\n"
    "                    (debug firmware; freed objects are quarantined)\n"
    "  --max-steps N     step limit for --run (default 1000000)\n"
    "  --instances N     program copies in the SPIN spec (default 1)\n"
    "  --trace <file>    run the program (implies --run) and write a\n"
    "                    Chrome trace_event JSON file: one track per\n"
    "                    process, flow arrows per rendezvous, heap\n"
    "                    counters; load it in chrome://tracing or Perfetto\n"
    "  --profile         run the program (implies --run) and print an\n"
    "                    IR-level hotspot profile (per-instruction step\n"
    "                    counts, blocked time per channel) to stderr\n"
    "  --quiet, -q       suppress the --run summary line and shorten the\n"
    "                    --profile report\n"
    "  -O0               disable the section 6.1 optimizations\n"
    "  -o <file>         write output to <file> instead of stdout\n";

} // namespace

int main(int Argc, char **Argv) {
  enum class Action { EmitC, EmitHeader, EmitSpin, DumpIR, Check, Run, Format };
  Action Act = Action::EmitC;
  bool Optimize = true;
  bool SafetyChecks = false;
  bool Analyze = false;
  bool AnalyzeAsWarnings = false;
  std::string InputPath;
  std::string OutputPath;
  std::string TracePath;
  bool Profile = false;
  unsigned Instances = 1;
  uint64_t MaxSteps = 1'000'000;

  ToolArgs Args(Argc, Argv, "espc", kUsage);
  while (Args.next()) {
    if (Args.flag("--emit-c"))
      Act = Action::EmitC;
    else if (Args.flag("--emit-header"))
      Act = Action::EmitHeader;
    else if (Args.flag("--emit-spin"))
      Act = Action::EmitSpin;
    else if (Args.flag("--dump-ir"))
      Act = Action::DumpIR;
    else if (Args.flag("--check"))
      Act = Action::Check;
    else if (Args.flag("--format"))
      Act = Action::Format;
    else if (Args.flag("--run"))
      Act = Action::Run;
    else if (Args.flag("-O0"))
      Optimize = false;
    else if (Args.flag("--safety"))
      SafetyChecks = true;
    else if (Args.flag("--analyze"))
      Analyze = true;
    else if (Args.flag("-Wanalysis"))
      AnalyzeAsWarnings = true;
    else if (Args.option("-o", OutputPath))
      ;
    else if (Args.option("--trace", TracePath))
      Act = Action::Run;
    else if (Args.flag("--profile")) {
      Profile = true;
      Act = Action::Run;
    } else if (Args.optionUInt("--instances", Instances, 1))
      ;
    else if (Args.optionUInt("--max-steps", MaxSteps))
      ;
    else if (Args.positional()) {
      if (!InputPath.empty())
        Args.usageError("multiple input files");
      else
        InputPath = Args.arg();
    } else
      Args.unknownOrBuiltin();
  }
  if (Args.shouldExit())
    return Args.exitCode();
  if (InputPath.empty()) {
    Args.printUsage();
    return 2;
  }

  const bool Observing = !TracePath.empty() || Profile;
  if (Observing)
    obs::setEnabled(true);

  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileOptions Options;
  Options.Optimize = Optimize;
  CompileResult R =
      esp::compile(SM, Diags, {CompileInput::file(InputPath)}, Options);
  if (!R.IOError.empty()) {
    Args.error(R.IOError);
    return Args.exitCode();
  }
  bool OK = R.Success;
  if (OK && (Analyze || AnalyzeAsWarnings)) {
    // The analyses run on the unoptimized lowering, like the model
    // checker, so findings map directly onto the source.
    AnalysisResult Result = analyzeProgram(*R.Prog, R.Module);
    reportFindings(Result, Diags, /*DemoteErrors=*/!Analyze);
    OK = !Diags.hasErrors();
  }
  std::fprintf(stderr, "%s", Diags.renderAll().c_str());
  if (!OK)
    return 1;
  if (Act == Action::Check) {
    std::fprintf(stderr, "espc: %s: ok (%zu processes, %zu channels)\n",
                 InputPath.c_str(), R.Prog->Processes.size(),
                 R.Prog->Channels.size());
    return 0;
  }

  std::string Output;
  if (Act == Action::Format) {
    Output = printProgram(*R.Prog);
  } else if (Act == Action::EmitSpin) {
    PromelaGenOptions PGOptions;
    PGOptions.Instances = Instances;
    Output = generatePromela(*R.Prog, PGOptions);
  } else {
    const ModuleIR &Module = Optimize ? R.Optimized : R.Module;
    switch (Act) {
    case Action::EmitC: {
      CCodeGenOptions CGOptions;
      CGOptions.EmitSafetyChecks = SafetyChecks;
      Output = generateC(Module, CGOptions);
      break;
    }
    case Action::EmitHeader:
      Output = generateCHeader(Module);
      break;
    case Action::DumpIR:
      Output = Module.dump();
      break;
    case Action::Run: {
      for (const std::unique_ptr<ChannelDecl> &Chan : R.Prog->Channels) {
        if (Chan->Role != ChannelRole::Internal) {
          std::fprintf(stderr,
                       "espc: --run requires a closed program; channel "
                       "'%s' has an external interface\n",
                       Chan->Name.c_str());
          return 1;
        }
      }
      Machine M(Module, MachineOptions());

      // Observability: --trace and/or --profile hook the MachineObserver;
      // a plain --run installs nothing and pays nothing.
      obs::TraceWriter Trace;
      obs::TracingObserver Tracer(Trace);
      obs::IrProfiler Profiler(Module);
      obs::FanoutObserver Fanout;
      if (!TracePath.empty()) {
        Tracer.attach(M, InputPath);
        Fanout.add(&Tracer);
      }
      if (Profile)
        Fanout.add(&Profiler);
      if (Observing)
        M.setObserver(&Fanout);

      M.start();
      StepResult Res = M.run(MaxSteps);
      if (M.error()) {
        std::fprintf(stderr, "espc: runtime error: %s (%s)\n",
                     M.error().Message.c_str(),
                     runtimeErrorKindName(M.error().Kind));
        return 1;
      }
      if (!TracePath.empty()) {
        Tracer.finishTrace(M);
        if (!Trace.writeFile(TracePath)) {
          std::fprintf(stderr, "espc: cannot write '%s'\n",
                       TracePath.c_str());
          return 1;
        }
        if (!Args.quiet())
          std::fprintf(stderr, "espc: wrote %zu trace events to %s\n",
                       Trace.eventCount(), TracePath.c_str());
      }
      if (Profile) {
        std::string Report = Profiler.report(&SM, Args.quiet() ? 5 : 10,
                                             /*Compact=*/Args.quiet());
        std::fputs(Report.c_str(), stderr);
        if (R.Metrics && !Args.quiet())
          std::fputs(R.Metrics->report().c_str(), stderr);
      }
      if (!Args.quiet())
        std::fprintf(stderr,
                     "espc: %s after %llu rendezvous, %llu instructions, "
                     "%llu context switches (%u live objects)\n",
                     Res == StepResult::Halted ? "halted" : "quiescent",
                     (unsigned long long)M.stats().Rendezvous,
                     (unsigned long long)M.stats().Instructions,
                     (unsigned long long)M.stats().ContextSwitches,
                     M.heap().getLiveCount());
      return 0;
    }
    case Action::EmitSpin:
    case Action::Check:
    case Action::Format:
      break;
    }
  }

  if (OutputPath.empty()) {
    std::fwrite(Output.data(), 1, Output.size(), stdout);
  } else {
    std::ofstream Out(OutputPath);
    if (!Out) {
      std::fprintf(stderr, "espc: cannot write '%s'\n", OutputPath.c_str());
      return 1;
    }
    Out << Output;
  }
  return 0;
}
