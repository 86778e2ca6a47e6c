//===--- TestHelpers.h - Shared test fixtures -------------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test suite: compile ESP source through the whole
/// frontend and lowering pipeline, with assertions on diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_TESTS_TESTHELPERS_H
#define ESP_TESTS_TESTHELPERS_H

#include "driver/Driver.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/IR.h"
#include "ir/Passes.h"
#include "mc/SafetyHarness.h"
#include "mc/StateStore.h"
#include "runtime/Machine.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/StringExtras.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace esp {
namespace test {

/// Owns the full compilation pipeline state for one ESP source.
struct Compilation {
  SourceManager SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<Program> Prog;
  ModuleIR Module;

  Compilation() { Diags = std::make_unique<DiagnosticEngine>(SM); }
};

/// Parses and checks \p Source; expects success. Lowered IR is in
/// Module (unoptimized unless \p Options given).
inline std::unique_ptr<Compilation>
compile(const std::string &Source,
        const OptOptions *Options = nullptr) {
  auto C = std::make_unique<Compilation>();
  CompileOptions Opts;
  if (Options) {
    Opts.Optimize = true;
    Opts.Opt = *Options;
  }
  CompileResult R =
      compileBuffer(C->SM, *C->Diags, "test.esp", Source, Opts);
  if (!R.Success) {
    ADD_FAILURE() << "compile failed:\n" << C->Diags->renderAll();
    return nullptr;
  }
  C->Prog = std::move(R.Prog);
  C->Module = Options ? std::move(R.Optimized) : std::move(R.Module);
  return C;
}

/// Parses and checks \p Source; expects a semantic or parse error whose
/// message contains \p ExpectedFragment.
inline void expectDiagnostic(const std::string &Source,
                             const std::string &ExpectedFragment) {
  Compilation C;
  C.Prog = Parser::parse(C.SM, *C.Diags, "test.esp", Source);
  if (C.Prog)
    checkProgram(*C.Prog, *C.Diags);
  EXPECT_TRUE(C.Diags->getNumErrors() > 0 || C.Diags->getNumWarnings() > 0)
      << "expected a diagnostic containing '" << ExpectedFragment << "'";
  EXPECT_TRUE(C.Diags->containsMessage(ExpectedFragment))
      << "diagnostics were:\n"
      << C.Diags->renderAll();
}

/// A memory-safety harness opened up, so that tests can hold on to the
/// module and environment and replay counterexamples: the isolated
/// module of the named processes and the environment that drives them,
/// as verifyProcessMemorySafety (one name: every channel the process
/// receives from) and verifyProcessClusterMemorySafety (several names:
/// the channels some kept process reads and none writes) build them.
struct Harness {
  ModuleIR Module;
  std::unique_ptr<BoundedEnvModel> Env;

  McResult check(McOptions Mc) const {
    Mc.Env = Env.get();
    return checkModel(Module, Mc);
  }
  bool replay(McOptions Mc, const McResult &R) const {
    Mc.Env = Env.get();
    return replayTrace(Module, Mc, R);
  }
};

inline Harness makeHarness(const Program &Prog,
                           const std::vector<std::string> &Names) {
  Harness H;
  ModuleIR Full = lowerProgram(Prog);
  H.Module.Prog = Full.Prog;
  for (ProcIR &P : Full.Procs)
    for (const std::string &Name : Names)
      if (P.Proc->Name == Name) {
        H.Module.Procs.push_back(std::move(P));
        break;
      }
  EXPECT_FALSE(H.Module.Procs.empty());
  std::set<std::string> Read, Written, Driven;
  for (const ProcIR &P : H.Module.Procs)
    for (const Inst &I : P.Insts)
      if (I.Kind == InstKind::Block)
        for (const IRCase &Case : I.Cases)
          (Case.IsIn ? Read : Written).insert(Case.Channel->Name);
  for (const std::string &Name : Read)
    if (Names.size() == 1 || !Written.count(Name))
      Driven.insert(Name);
  H.Env = std::make_unique<BoundedEnvModel>(Driven);
  return H;
}

/// Two processes over environment channels (a harness of both):
/// `keeper` allocates one object on its first message on `k` and holds
/// it; `taker` holds one object of its own and allocates (and frees) one
/// more on every message on `t`.
inline const char *const kKeeperTakerSource = R"(
channel k: int
channel t: int
process keeper {
  in(k, $n);
  $a: array of int = { 1 -> n };
  in(k, $m);
  unlink(a);
}
process taker {
  $own: array of int = { 1 -> 5 };
  while (true) {
    in(t, $x);
    $b: array of int = { 1 -> x };
    unlink(b);
  }
}
)";

/// Inserts the stand-in state \p Key into \p V, fingerprinted by its
/// xxHash64 as the search fingerprints a state by its segments.
inline bool insertKey(ConcurrentVisitedSet &V, std::string_view Key) {
  return V.insert(xxHash64(Key.data(), Key.size()), Key);
}

/// The environment send of variant \p Variant on channel \p Chan among
/// \p Moves, the moves \p M enumerated.
inline Move findEnvSend(const Machine &M, const std::vector<Move> &Moves,
                        const std::string &Chan, unsigned Variant) {
  for (const Move &Mv : Moves)
    if (Mv.K == Move::Kind::EnvSend && Mv.EnvVariant == Variant &&
        M.module().Prog->Channels[Mv.Channel]->Name == Chan)
      return Mv;
  ADD_FAILURE() << "no environment send on " << Chan;
  return Move();
}

/// The bytes of \p RelPath, a path under the source tree.
inline std::string readSourceFile(const std::string &RelPath) {
  std::string Path = std::string(ESP_SOURCE_DIR) + "/" + RelPath;
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In) << "cannot read " << Path;
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// The example program examples/esp/\p Name.
inline std::string readExample(const std::string &Name) {
  return readSourceFile("examples/esp/" + Name);
}

} // namespace test
} // namespace esp

#endif // ESP_TESTS_TESTHELPERS_H
