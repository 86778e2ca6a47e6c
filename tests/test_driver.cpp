//===--- test_driver.cpp - esp::compile facade tests ---------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Round-trip tests for the driver facade: every tool, test, and bench
// compiles through esp::compile, so the facade must expose the whole
// pipeline — parse, check, lower, optimize — with the same semantics the
// stages have individually.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "runtime/Machine.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <gtest/gtest.h>

using namespace esp;

namespace {

const char kPingPong[] = R"(
channel c : int;

process ping {
  $n = 0;
  while (n < 3) { out(c, n); n = n + 1; }
}

process pong {
  $seen = 0;
  while (seen < 3) { in(c, $x); seen = seen + 1; }
}
)";

TEST(Driver, CompileBufferRoundTrip) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R = compileBuffer(SM, Diags, "pp.esp", kPingPong);
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  ASSERT_TRUE(R.Prog);
  EXPECT_EQ(R.Prog->Processes.size(), 2u);
  EXPECT_EQ(R.Prog->Channels.size(), 1u);
  EXPECT_EQ(R.Module.Procs.size(), 2u);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(Driver, CompiledModuleRunsOnTheMachine) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R = compileBuffer(SM, Diags, "pp.esp", kPingPong);
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  Machine M(R.Module, MachineOptions());
  M.start();
  StepResult Res = M.run(100000);
  EXPECT_EQ(Res, StepResult::Halted);
  EXPECT_EQ(M.stats().Rendezvous, 3u);
}

TEST(Driver, OptimizeProducesBothLowerings) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileOptions Options;
  Options.Optimize = true;
  CompileResult R = compileBuffer(SM, Diags, "pp.esp", kPingPong, Options);
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  // The unoptimized lowering is what the verifier consumes (§5.2); it
  // must still be populated alongside the optimized one.
  EXPECT_EQ(R.Module.Procs.size(), 2u);
  EXPECT_EQ(R.Optimized.Procs.size(), 2u);
  // The §6.1 passes compact the IR: never more instructions than the
  // unoptimized lowering.
  for (size_t I = 0; I != R.Module.Procs.size(); ++I)
    EXPECT_LE(R.Optimized.Procs[I].Insts.size(),
              R.Module.Procs[I].Insts.size());
}

TEST(Driver, OptOptionsArePassedThrough) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileOptions Options;
  Options.Optimize = true;
  Options.Opt = OptOptions::none();
  CompileResult R = compileBuffer(SM, Diags, "pp.esp", kPingPong, Options);
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  EXPECT_EQ(R.Opt.JumpsThreaded, 0u);
  EXPECT_EQ(R.Opt.DeadStoresRemoved, 0u);
  for (size_t I = 0; I != R.Module.Procs.size(); ++I)
    EXPECT_EQ(R.Optimized.Procs[I].Insts.size(),
              R.Module.Procs[I].Insts.size());
}

TEST(Driver, ConcatenatesHarnessInputs) {
  // The pgm.SPIN + test.SPIN layout: the harness file contributes its
  // processes to the same program.
  const char kProgram[] = "channel c : int;\n"
                          "process p { out(c, 1); }\n";
  const char kHarness[] = "process q { in(c, $x); assert(x == 1); }\n";
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R = esp::compile(
      SM, Diags,
      {CompileInput::buffer("pgm.esp", kProgram),
       CompileInput::buffer("test.esp", kHarness)});
  ASSERT_TRUE(R.Success) << Diags.renderAll();
  EXPECT_EQ(R.Prog->Processes.size(), 2u);
  // The combined buffer is registered under the first input's name and
  // carries the banner comments marking each input's contribution.
  std::string_view Buffer = SM.getBuffer(0);
  EXPECT_NE(Buffer.find("// ---- pgm.esp ----"), std::string_view::npos);
  EXPECT_NE(Buffer.find("// ---- test.esp ----"), std::string_view::npos);
}

TEST(Driver, ParseErrorFailsWithDiagnostics) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R = compileBuffer(SM, Diags, "bad.esp", "process {");
  EXPECT_FALSE(R.Success);
  EXPECT_FALSE(R);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_TRUE(R.IOError.empty());
}

TEST(Driver, UnterminatedBlockBeforeDeclarationTerminates) {
  // Parser recovery used to stop in front of a depth-0 declaration
  // keyword inside an unterminated block and retry there forever. The
  // first input is the minimal reproducer from a token-mutation fuzz run.
  const char *Inputs[] = {
      "process a {\n while (true) { out(c2, 5#\n}\nprocess ",
      "process a {\n while (true) { out(c2, 5#\n}\nchannel c: int\n",
      "process a {\n if (true) { $x = ;\n}\ntype t = int\n",
      "process a {\n { in(c, \ninterface i(out c) { }\n",
  };
  for (const char *Source : Inputs) {
    SourceManager SM;
    DiagnosticEngine Diags(SM);
    CompileResult R =
        esp::compile(SM, Diags, {CompileInput::buffer("fuzz.esp", Source)});
    EXPECT_FALSE(R.Success) << Source;
    EXPECT_TRUE(Diags.hasErrors()) << Source;
  }
}

TEST(Driver, SemaErrorFailsButKeepsTheProgram) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R = compileBuffer(
      SM, Diags, "bad.esp", "channel c : int;\nprocess p { out(c, true); }\n");
  EXPECT_FALSE(R.Success);
  EXPECT_TRUE(Diags.hasErrors());
  // The parsed program survives for tools that inspect it anyway.
  EXPECT_TRUE(R.Prog);
}

TEST(Driver, MissingFileReportsIOErrorWithoutDiagnostics) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R = esp::compile(
      SM, Diags, {CompileInput::file("/nonexistent/definitely-missing.esp")});
  EXPECT_FALSE(R.Success);
  EXPECT_NE(R.IOError.find("definitely-missing.esp"), std::string::npos);
  EXPECT_FALSE(Diags.hasErrors()) << "I/O failures are not diagnostics";
}

TEST(Driver, EmptyInputListIsAnIOError) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R = esp::compile(SM, Diags, {});
  EXPECT_FALSE(R.Success);
  EXPECT_EQ(R.IOError, "no input files");
}

} // namespace
