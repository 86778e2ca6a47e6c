//===--- CompileComponent.cpp - The toolchain a firmware author runs ------===//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// One unit is one pass over the corpus: for every program, esp::compile
// with the §6.1 optimizations, the esplint analyses, the C backend and
// the Promela backend. The corpus is the builtin VMMC firmware, the serve
// firmware, examples/esp/*.esp and one pipeline program generated from
// the seed at about ten times VMMC's size.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Analysis.h"
#include "codegen/CCodeGen.h"
#include "codegen/PromelaGen.h"
#include "driver/Driver.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "vmmc/EspFirmwareSource.h"
#include "vmmc/ServeFirmware.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace esp;
using namespace espbench;

namespace {

struct CorpusProgram {
  std::string Name;
  std::string Source;
  /// In-tree programs must be finding-free; the generated one only has
  /// to compile and get a complete deadlock search.
  bool InTree = true;
};

/// Per-pass layer totals of one traced unit.
struct PassStats {
  double ParseUs = 0, SemaUs = 0, LowerUs = 0, OptimizeUs = 0;
  double AnalyzeUs = 0, EmitCUs = 0, EmitPromelaUs = 0;
  double DeadlockConfigs = 0, CBytes = 0;
};

double counterValue(const obs::JsonValue &Counters, const char *Name) {
  const obs::JsonValue &V = Counters.get(Name);
  return V.isNumber() ? V.asDouble() : 0.0;
}

double usSince(uint64_t T0) { return (nowNs() - T0) / 1000.0; }

class CompileComponent : public Component {
public:
  using Component::Component;

  void setup() override {
    Corpus.clear();
    Corpus.push_back({"vmmc.esp", vmmc::getVmmcEspSource(), true});
    Corpus.push_back({"serve.esp", vmmc::getServeEspSource(), true});
    std::vector<std::filesystem::path> Files;
    for (const auto &Entry :
         std::filesystem::directory_iterator("examples/esp"))
      if (Entry.path().extension() == ".esp")
        Files.push_back(Entry.path());
    std::sort(Files.begin(), Files.end());
    for (const auto &Path : Files) {
      std::ifstream In(Path);
      std::stringstream Text;
      Text << In.rdbuf();
      Corpus.push_back({Path.filename().string(), Text.str(), true});
    }
    checks().check(Files.size() >= 3, "compile: examples/esp corpus found");
    // Full/Probe: ~10x VMMC's source; Smoke: ~1x.
    unsigned Stmts = Ctx.Size == Scale::Smoke ? 24 : 240;
    Corpus.push_back({"generated.esp", generateProgram(Ctx.Seed, 10, Stmts),
                      false});
  }

  void runUnit(bool Traced) override {
    SpanScope Unit(spans(), "compile.unit");
    uint64_t T0 = nowNs();
    PassStats Pass;
    for (const CorpusProgram &P : Corpus)
      compileOne(P, Traced, Pass);
    double Ms = (nowNs() - T0) / 1e6;
    if (Traced) {
      Passes.push_back(Pass);
    } else {
      PassMs.push_back(Ms);
    }
  }

  void endToEnd(MetricSet &Out) const override {
    Out.add("toolchain_ms", fastestTime(PassMs), "ms");
  }

  void perLayer(MetricSet &Out) const override {
    // Times take the fastest pass like the end-to-end metrics; the counts
    // are the same in every pass.
    auto Med = [&](double PassStats::*Field) {
      std::vector<double> V;
      for (const PassStats &P : Passes)
        V.push_back(P.*Field);
      return fastestTime(V);
    };
    Out.add("frontend.parse_us", Med(&PassStats::ParseUs), "us");
    Out.add("frontend.sema_us", Med(&PassStats::SemaUs), "us");
    Out.add("ir.lower_us", Med(&PassStats::LowerUs), "us");
    Out.add("ir.optimize_us", Med(&PassStats::OptimizeUs), "us");
    Out.add("analysis.analyze_us", Med(&PassStats::AnalyzeUs), "us");
    Out.add("analysis.deadlock_configs", Med(&PassStats::DeadlockConfigs),
            "count");
    Out.add("codegen.emit_c_us", Med(&PassStats::EmitCUs), "us");
    Out.add("codegen.emit_promela_us", Med(&PassStats::EmitPromelaUs), "us");
    Out.add("codegen.c_bytes", Med(&PassStats::CBytes), "bytes");
  }

private:
  void compileOne(const CorpusProgram &P, bool Traced, PassStats &Pass) {
    SourceManager SM;
    DiagnosticEngine Diags(SM);
    CompileOptions Options;
    Options.Optimize = true;
    // The driver's stage timers run only while observability is on.
    obs::setEnabled(Traced);
    CompileResult R = [&] {
      SpanScope S(spans(), "driver.compile");
      return compileBuffer(SM, Diags, P.Name, P.Source, Options);
    }();
    obs::setEnabled(false);
    checks().check(R.Success, "compile: " + P.Name + " compiles");
    if (!R.Success)
      return;
    if (Traced && R.Metrics) {
      obs::JsonValue Counters = R.Metrics->json().get("counters");
      Pass.ParseUs += counterValue(Counters, "driver.parse_us");
      Pass.SemaUs += counterValue(Counters, "driver.sema_us");
      Pass.LowerUs += counterValue(Counters, "driver.lower_us");
      Pass.OptimizeUs += counterValue(Counters, "driver.optimize_us");
    }

    uint64_t T0 = nowNs();
    AnalysisResult A = [&] {
      SpanScope S(spans(), "analysis.analyze");
      return analyzeProgram(*R.Prog, R.Module);
    }();
    Pass.AnalyzeUs += usSince(T0);
    Pass.DeadlockConfigs += static_cast<double>(A.ConfigsExplored);
    checks().check(!A.DeadlockSearchIncomplete,
                   "compile: " + P.Name + " deadlock search completes");
    if (P.InTree)
      checks().check(A.numErrors() == 0,
                     "compile: " + P.Name + " has no analysis errors");

    T0 = nowNs();
    std::string C = [&] {
      SpanScope S(spans(), "codegen.emit_c");
      return generateC(R.Optimized);
    }();
    Pass.EmitCUs += usSince(T0);
    Pass.CBytes += static_cast<double>(C.size());

    T0 = nowNs();
    std::string Promela = [&] {
      SpanScope S(spans(), "codegen.emit_promela");
      return generatePromela(*R.Prog);
    }();
    Pass.EmitPromelaUs += usSince(T0);
    checks().check(!C.empty() && !Promela.empty(),
                   "compile: " + P.Name + " emits C and Promela");
  }

  std::vector<CorpusProgram> Corpus;
  std::vector<double> PassMs;
  std::vector<PassStats> Passes;
};

} // namespace

std::unique_ptr<Component>
espbench::makeCompileComponent(const Context &Ctx) {
  return std::make_unique<CompileComponent>(Ctx);
}
