//===--- esplint.cpp - Whole-program static analyzer for ESP ---------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Runs the esplint analyses (deadlock, link/unlink balance, reachability,
// see src/analysis/) over one or more ESP programs. Each input file is a
// whole program: ESP has no separate compilation (§4), so the analyses
// are whole-program by construction. Compilation goes through
// esp::compile (src/driver/).
//
// The exit code is the total number of analysis (plus frontend) errors,
// capped at 125 so it survives the 8-bit exit status.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "driver/Driver.h"
#include "obs/Json.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/ToolArgs.h"
#include "vmmc/EspFirmwareSource.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace esp;

namespace {

const char kUsage[] =
    "usage: esplint [options] <file.esp>...\n"
    "\n"
    "Whole-program static analysis for ESP: deadlock detection over the\n"
    "communication topology, link/unlink balance (leaks and refcount\n"
    "underflows), and reachability/usefulness checks. Exit code is the\n"
    "number of errors found (capped at 125).\n"
    "\n"
    "options:\n"
    "  --format=text|json  output format (default text)\n"
    "  --no-deadlock       skip the deadlock search\n"
    "  --no-links          skip the link/unlink balance analysis\n"
    "  --no-reachability   skip the reachability checks\n"
    "  --no-interference   skip the interference warnings\n"
    "                      (self-rendezvous channels)\n"
    "  --interference      also print the conflict classes computed by\n"
    "                      the independence analysis: the channel of\n"
    "                      each communication site, a conflict-matrix\n"
    "                      summary, and the share of statically\n"
    "                      commuting move pairs (what espmc --por\n"
    "                      exploits)\n"
    "  --max-configs N     deadlock search state cap (default 1048576)\n"
    "  --builtin-vmmc      also analyze the built-in VMMC firmware\n"
    "                      (the text of src/vmmc/vmmc.esp)\n"
    "  -q, --quiet         print errors only (warnings still counted)\n";

struct LintStats {
  unsigned Errors = 0;
  unsigned Warnings = 0;
  unsigned Files = 0;
};

/// Analyzes one input; renders to stdout, or appends a
/// {"file", "analysis"} object to \p JsonOut when it is non-null.
/// Returns false only when the program does not parse/check (frontend
/// errors).
bool lintInput(SourceManager &SM, const CompileInput &Input,
               const AnalysisOptions &Options, obs::JsonValue *JsonOut,
               bool Quiet, LintStats &Stats) {
  DiagnosticEngine Diags(SM);
  CompileResult R = esp::compile(SM, Diags, {Input});
  if (!R.IOError.empty()) {
    std::fprintf(stderr, "esplint: %s\n", R.IOError.c_str());
    ++Stats.Errors;
    return false;
  }
  ++Stats.Files;
  if (!R.Success) {
    std::fprintf(stderr, "%s", Diags.renderAll().c_str());
    std::fprintf(stderr, "esplint: %s: program does not compile; skipping "
                         "analysis\n",
                 Input.Name.c_str());
    Stats.Errors += Diags.getNumErrors();
    return false;
  }

  // The analyses run on the unoptimized lowering, like the checker.
  AnalysisResult Result = analyzeProgram(*R.Prog, R.Module, Options);
  Stats.Errors += Result.numErrors();
  Stats.Warnings += Result.numWarnings();

  if (JsonOut) {
    obs::JsonValue Entry = obs::JsonValue::object();
    Entry.set("file", obs::JsonValue::str(Input.Name));
    Entry.set("analysis", renderFindingsJson(Result, SM));
    JsonOut->push(std::move(Entry));
    return true;
  }

  if (Quiet) {
    AnalysisResult ErrorsOnly;
    ErrorsOnly.DeadlockSearchIncomplete = Result.DeadlockSearchIncomplete;
    for (const AnalysisFinding &F : Result.Findings)
      if (F.Severity == AnalysisSeverity::Error)
        ErrorsOnly.Findings.push_back(F);
    std::printf("%s", renderFindingsText(ErrorsOnly, SM).c_str());
  } else {
    std::printf("%s", renderFindingsText(Result, SM).c_str());
  }
  std::printf("esplint: %s: %u error(s), %u warning(s)\n", Input.Name.c_str(),
              Result.numErrors(), Result.numWarnings());
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  AnalysisOptions Options;
  bool Json = false;
  bool Quiet = false;
  bool BuiltinVmmc = false;
  std::vector<std::string> Inputs;

  ToolArgs Args(Argc, Argv, "esplint", kUsage);
  while (Args.next()) {
    std::string Format;
    if (Args.option("--format", Format)) {
      if (Format != "text" && Format != "json")
        Args.usageError("unknown --format '" + Format +
                        "' (expected text|json)");
      Json = Format == "json";
    } else if (Args.flag("--no-deadlock"))
      Options.CheckDeadlock = false;
    else if (Args.flag("--no-links"))
      Options.CheckLinkBalance = false;
    else if (Args.flag("--no-reachability"))
      Options.CheckReachability = false;
    else if (Args.flag("--no-interference"))
      Options.CheckInterference = false;
    else if (Args.flag("--interference"))
      Options.ReportInterference = true;
    else if (Args.optionUInt("--max-configs", Options.MaxConfigs, 1))
      ;
    else if (Args.flag("--builtin-vmmc"))
      BuiltinVmmc = true;
    else if (Args.flag("-q"))
      Quiet = true;
    else if (Args.positional())
      Inputs.push_back(Args.arg());
    else
      Args.unknownOrBuiltin();
  }
  Quiet |= Args.quiet(); // The scanner-level --quiet spelling.
  if (Args.shouldExit())
    return Args.exitCode();
  if (Inputs.empty() && !BuiltinVmmc) {
    Args.printUsage();
    return 2;
  }

  SourceManager SM;
  LintStats Stats;
  obs::JsonValue Docs = obs::JsonValue::array();
  obs::JsonValue *JsonOut = Json ? &Docs : nullptr;
  for (const std::string &Path : Inputs)
    lintInput(SM, CompileInput::file(Path), Options, JsonOut, Quiet, Stats);
  if (BuiltinVmmc) {
    lintInput(SM,
              CompileInput::buffer("<builtin-vmmc>", vmmc::getVmmcEspSource()),
              Options, JsonOut, Quiet, Stats);
  }
  if (Json)
    std::printf("%s\n", Docs.dump(2).c_str());
  else if (Stats.Files > 1)
    std::printf("esplint: total: %u file(s), %u error(s), %u warning(s)\n",
                Stats.Files, Stats.Errors, Stats.Warnings);

  return Stats.Errors > 125 ? 125 : static_cast<int>(Stats.Errors);
}
