//===--- test_ir.cpp - IR lowering and optimization tests ----------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

using namespace esp;
using namespace esp::test;

namespace {

const ProcIR *procIR(const Compilation &C, const std::string &Name) {
  for (const ProcIR &P : C.Module.Procs)
    if (P.Proc->Name == Name)
      return &P;
  return nullptr;
}

unsigned countKind(const ProcIR &P, InstKind Kind) {
  unsigned N = 0;
  for (const Inst &I : P.Insts)
    N += I.Kind == Kind;
  return N;
}

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

TEST(IRLowering, BlockPointsAreTheStates) {
  // The paper's add5 has two states: blocked at in and blocked at out
  // (§4.3).
  auto C = compile(R"(
channel c1: int
channel c2: int
process add5 { while (true) { in(c1, $i); out(c2, i + 5); } }
process w { out(c1, 1); }
process r { in(c2, $x); }
)");
  ASSERT_TRUE(C);
  const ProcIR *P = procIR(*C, "add5");
  ASSERT_TRUE(P);
  EXPECT_EQ(P->blockPoints().size(), 2u);
}

TEST(IRLowering, IfElseProducesBranchAndJump) {
  auto C = compile(R"(
channel c: int
process p {
  in(c, $x);
  $y = 0;
  if (x > 0) { y = 1; } else { y = 2; }
  out(d, y);
}
channel d: int
process w { out(c, 5); in(d, $r); }
)");
  ASSERT_TRUE(C);
  const ProcIR *P = procIR(*C, "p");
  ASSERT_TRUE(P);
  EXPECT_EQ(countKind(*P, InstKind::Branch), 1u);
  EXPECT_GE(countKind(*P, InstKind::Jump), 1u);
}

TEST(IRLowering, WhileLowersToBackedge) {
  auto C = compile(R"(
channel c: int
process p { $i = 0; while (i < 3) { i = i + 1; } out(c, i); }
process q { in(c, $x); assert(x == 3); }
)");
  ASSERT_TRUE(C);
  const ProcIR *P = procIR(*C, "p");
  ASSERT_TRUE(P);
  bool HasBackedge = false;
  for (unsigned I = 0; I != P->Insts.size(); ++I)
    if (P->Insts[I].Kind == InstKind::Jump && P->Insts[I].Target <= I)
      HasBackedge = true;
  EXPECT_TRUE(HasBackedge);
}

TEST(IRLowering, AltCasesCarryGuardsAndTargets) {
  auto C = compile(R"(
channel a: int
channel b: int
process p {
  $n = 0;
  while (true) {
    alt {
      case( n < 5, in( a, $x)) { n = n + 1; }
      case( in( b, $y)) { n = 0; }
    }
  }
}
process w { out(a, 1); out(b, 2); }
)");
  ASSERT_TRUE(C);
  const ProcIR *P = procIR(*C, "p");
  ASSERT_TRUE(P);
  const Inst *Block = nullptr;
  for (const Inst &I : P->Insts)
    if (I.Kind == InstKind::Block)
      Block = &I;
  ASSERT_TRUE(Block);
  ASSERT_EQ(Block->Cases.size(), 2u);
  EXPECT_NE(Block->Cases[0].Guard, nullptr);
  EXPECT_EQ(Block->Cases[1].Guard, nullptr);
  EXPECT_NE(Block->Cases[0].Target, Block->Cases[1].Target);
}

TEST(IRLowering, EveryProcessEndsWithHalt) {
  auto C = compile(R"(
channel c: int
process p { out(c, 1); }
process q { in(c, $x); }
)");
  ASSERT_TRUE(C);
  for (const ProcIR &P : C->Module.Procs) {
    ASSERT_FALSE(P.Insts.empty());
    EXPECT_EQ(P.Insts.back().Kind, InstKind::Halt);
  }
}

TEST(IRLowering, DumpIsReadable) {
  auto C = compile(R"(
channel c: int
process p { $i = 0; while (i < 2) { out(c, i); i = i + 1; } }
process q { in(c, $x); in(c, $y); }
)");
  ASSERT_TRUE(C);
  std::string Dump = C->Module.dump();
  EXPECT_NE(Dump.find("process p"), std::string::npos);
  EXPECT_NE(Dump.find("block"), std::string::npos);
  EXPECT_NE(Dump.find("out(c"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Liveness and dead-store elimination
//===----------------------------------------------------------------------===//

TEST(IRPasses, DeadStoreEliminated) {
  const char *Source = R"(
channel c: int
process p {
  $dead = 42;
  $live = 7;
  dead = 99;
  out(c, live);
}
process q { in(c, $x); }
)";
  auto Unopt = compile(Source);
  ASSERT_TRUE(Unopt);
  OptOptions DceOnly = OptOptions::none();
  DceOnly.EliminateDeadStores = true;
  DceOnly.ThreadJumps = true;
  OptStats Stats = optimizeModule(Unopt->Module, DceOnly);
  EXPECT_GE(Stats.DeadStoresRemoved, 2u); // Both stores to `dead`.
  // Still runs correctly.
  Machine M(Unopt->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
}

TEST(IRPasses, LiveStoreKept) {
  auto C = compile(R"(
channel c: int
process p { $x = 1; x = 2; out(c, x); }
process q { in(c, $v); assert(v == 2); }
)");
  ASSERT_TRUE(C);
  OptStats Stats = optimizeModule(C->Module, OptOptions::all());
  // The first store to x is dead (overwritten), the second is live.
  EXPECT_EQ(Stats.DeadStoresRemoved, 1u);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
}

TEST(IRPasses, LoopCarriedVariableNotEliminated) {
  auto C = compile(R"(
channel c: int
process p {
  $i = 0;
  while (i < 4) { i = i + 1; }
  out(c, i);
}
process q { in(c, $v); assert(v == 4); }
)");
  ASSERT_TRUE(C);
  OptStats Stats = optimizeModule(C->Module, OptOptions::all());
  EXPECT_EQ(Stats.DeadStoresRemoved, 0u);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
}

TEST(IRPasses, ComputeLiveOutRespectsBranches) {
  auto C = compile(R"(
channel c: int
process p {
  in(c, $x);
  $y = 1;
  if (x > 0) { out(d, y); } else { out(d, 0); }
}
channel d: int
process w { out(c, 5); in(d, $r); }
)");
  ASSERT_TRUE(C);
  const ProcIR *P = procIR(*C, "p");
  ASSERT_TRUE(P);
  std::vector<std::vector<uint64_t>> LiveOut = computeLiveOut(*P);
  ASSERT_EQ(LiveOut.size(), P->Insts.size());
  // y (slot of the DeclInit) must be live-out of its own definition
  // because one branch uses it.
  for (unsigned I = 0; I != P->Insts.size(); ++I) {
    if (P->Insts[I].Kind == InstKind::DeclInit &&
        P->Insts[I].Var->Name == "y") {
      unsigned Slot = P->Insts[I].Var->Slot;
      EXPECT_TRUE((LiveOut[I][Slot / 64] >> (Slot % 64)) & 1);
    }
  }
}

TEST(IRPasses, JumpThreadingCollapsesChains) {
  auto C = compile(R"(
channel c: int
process p {
  $x = 0;
  if (true) { if (true) { x = 1; } }
  out(c, x);
}
process q { in(c, $v); }
)");
  ASSERT_TRUE(C);
  unsigned Before = static_cast<unsigned>(C->Module.Procs[0].Insts.size());
  OptOptions JumpsOnly = OptOptions::none();
  JumpsOnly.ThreadJumps = true;
  optimizeModule(C->Module, JumpsOnly);
  unsigned After = static_cast<unsigned>(C->Module.Procs[0].Insts.size());
  EXPECT_LE(After, Before);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
}

//===----------------------------------------------------------------------===//
// Channel-level optimizations (§6.1)
//===----------------------------------------------------------------------===//

TEST(IRPasses, AllocationSinkingMarksAllocatingOutCases) {
  auto C = compile(R"(
type rT = record of { a: int }
channel c: rT
channel d: int
process p {
  alt {
    case( out( c, { 1 })) { }
    case( out( d, 2)) { }
  }
}
process q { in(c, $r); }
process s { in(d, $x); }
)");
  ASSERT_TRUE(C);
  OptStats Stats = optimizeModule(C->Module, OptOptions::all());
  EXPECT_EQ(Stats.CasesLazified, 1u); // Only the allocating case.
}

TEST(IRPasses, ElisionRequiresAllReadersToDestructure) {
  // Reader binds the whole record: the shell must exist, no elision.
  auto C = compile(R"(
type rT = record of { a: int, b: int }
channel c: rT
process p { out(c, { 1, 2 }); }
process q { in(c, $whole); assert(whole.a == 1); unlink(whole); }
)");
  ASSERT_TRUE(C);
  OptStats Stats = optimizeModule(C->Module, OptOptions::all());
  EXPECT_EQ(Stats.CasesElided, 0u);
}

TEST(IRPasses, ElisionAppliedWhenAllDestructure) {
  auto C = compile(R"(
type rT = record of { a: int, b: int }
channel c: rT
process p { out(c, { 1, 2 }); }
process q { in(c, { $a, $b }); assert(a + b == 3); }
)");
  ASSERT_TRUE(C);
  OptStats Stats = optimizeModule(C->Module, OptOptions::all());
  EXPECT_EQ(Stats.CasesElided, 1u);
  // The elided program allocates nothing at all.
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
  EXPECT_EQ(M.heap().getTotalAllocations(), 0u);
}

TEST(IRPasses, MatchFreeRequiresCatchAllReaders) {
  auto C = compile(R"(
type rT = record of { tag: int }
channel c: rT
process p { out(c, { 0 }); }
process q { in(c, { 0 }); }
)");
  ASSERT_TRUE(C);
  optimizeModule(C->Module, OptOptions::all());
  const ProcIR *P = procIR(*C, "p");
  for (const Inst &I : P->Insts)
    if (I.Kind == InstKind::Block) {
      EXPECT_FALSE(I.Cases[0].MatchFree); // Reader matches on a value.
    }
}

TEST(IRPasses, OptimizationPreservesSemantics) {
  // Property check: the pipeline computes the same outputs with every
  // optimization configuration.
  const char *Source = R"(
type rT = record of { v: int, w: int }
channel c: rT
channel d: int
process p {
  $i = 0;
  while (i < 8) {
    $tmp = i * 2;
    out(c, { tmp, i });
    i = i + 1;
  }
}
process q {
  $n = 0;
  while (n < 8) {
    in(c, { $v, $w });
    assert(v == w * 2);
    out(d, v + w);
    n = n + 1;
  }
}
process r {
  $n = 0;
  while (n < 8) { in(d, $s); assert(s == 3 * n); n = n + 1; }
}
)";
  for (bool Jumps : {false, true})
    for (bool Dce : {false, true})
      for (bool Sink : {false, true})
        for (bool Elide : {false, true}) {
          OptOptions Options = OptOptions::none();
          Options.ThreadJumps = Jumps;
          Options.EliminateDeadStores = Dce;
          Options.SinkAllocations = Sink;
          Options.ElideRecordAllocs = Elide;
          auto C = compile(Source, &Options);
          ASSERT_TRUE(C);
          Machine M(C->Module, MachineOptions());
          M.start();
          EXPECT_EQ(M.run(10000), StepResult::Halted)
              << "config " << Jumps << Dce << Sink << Elide << ": "
              << M.error().Message;
        }
}

} // namespace
