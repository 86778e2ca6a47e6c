//===--- Passes.cpp - IR optimization passes -------------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Passes.h"

#include "frontend/PatternAnalysis.h"

#include <cassert>
#include <functional>

using namespace esp;

//===----------------------------------------------------------------------===//
// Slot use/def collection
//===----------------------------------------------------------------------===//

namespace {

using SlotSet = std::vector<uint64_t>;

void setSlot(SlotSet &Set, unsigned Slot) {
  Set[Slot / 64] |= uint64_t(1) << (Slot % 64);
}
bool testSlot(const SlotSet &Set, unsigned Slot) {
  return (Set[Slot / 64] >> (Slot % 64)) & 1;
}
bool unionInto(SlotSet &Dest, const SlotSet &Src) {
  bool Changed = false;
  for (size_t I = 0, E = Dest.size(); I != E; ++I) {
    uint64_t Merged = Dest[I] | Src[I];
    Changed |= Merged != Dest[I];
    Dest[I] = Merged;
  }
  return Changed;
}

void collectExprUses(const Expr *E, SlotSet &Uses) {
  if (!E)
    return;
  switch (E->getKind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::SelfId:
    return;
  case ExprKind::VarRef:
    if (const VarInfo *V = ast_cast<VarRefExpr>(E)->getVar())
      setSlot(Uses, V->Slot);
    return;
  case ExprKind::Field:
    collectExprUses(ast_cast<FieldExpr>(E)->getBase(), Uses);
    return;
  case ExprKind::Index: {
    const IndexExpr *I = ast_cast<IndexExpr>(E);
    collectExprUses(I->getBase(), Uses);
    collectExprUses(I->getIndex(), Uses);
    return;
  }
  case ExprKind::Unary:
    collectExprUses(ast_cast<UnaryExpr>(E)->getSub(), Uses);
    return;
  case ExprKind::Binary: {
    const BinaryExpr *B = ast_cast<BinaryExpr>(E);
    collectExprUses(B->getLHS(), Uses);
    collectExprUses(B->getRHS(), Uses);
    return;
  }
  case ExprKind::RecordLit:
    for (const Expr *Elem : ast_cast<RecordLitExpr>(E)->getElems())
      collectExprUses(Elem, Uses);
    return;
  case ExprKind::UnionLit:
    collectExprUses(ast_cast<UnionLitExpr>(E)->getValue(), Uses);
    return;
  case ExprKind::ArrayLit: {
    const ArrayLitExpr *A = ast_cast<ArrayLitExpr>(E);
    collectExprUses(A->getSize(), Uses);
    collectExprUses(A->getInit(), Uses);
    return;
  }
  case ExprKind::Cast:
    collectExprUses(ast_cast<CastExpr>(E)->getSub(), Uses);
    return;
  }
}

void collectPatternUsesDefs(const Pattern *P, SlotSet &Uses, SlotSet &Defs) {
  if (!P)
    return;
  switch (P->getKind()) {
  case PatternKind::Bind:
    if (const VarInfo *V = ast_cast<BindPattern>(P)->getVar())
      setSlot(Defs, V->Slot);
    return;
  case PatternKind::Match:
    collectExprUses(ast_cast<MatchPattern>(P)->getValue(), Uses);
    return;
  case PatternKind::Record:
    for (const Pattern *Child : ast_cast<RecordPattern>(P)->getElems())
      collectPatternUsesDefs(Child, Uses, Defs);
    return;
  case PatternKind::Union:
    collectPatternUsesDefs(ast_cast<UnionPattern>(P)->getSub(), Uses, Defs);
    return;
  }
}

/// Whole-variable definition slot of a plain store, or -1 if the store is
/// through a field/index (then the root is a use, not a def).
int plainStoreWholeSlot(const Inst &I) {
  assert(I.Kind == InstKind::Store && I.PlainStore);
  const MatchPattern *M = ast_cast<MatchPattern>(I.LHS);
  if (const VarRefExpr *V = ast_dyn_cast<VarRefExpr>(M->getValue()))
    if (V->getVar())
      return static_cast<int>(V->getVar()->Slot);
  return -1;
}

void collectInstUsesDefs(const Inst &I, SlotSet &Uses, SlotSet &Defs) {
  switch (I.Kind) {
  case InstKind::DeclInit:
    collectExprUses(I.RHS, Uses);
    setSlot(Defs, I.Var->Slot);
    return;
  case InstKind::Store:
    collectExprUses(I.RHS, Uses);
    if (I.PlainStore) {
      int WholeSlot = plainStoreWholeSlot(I);
      if (WholeSlot >= 0) {
        setSlot(Defs, static_cast<unsigned>(WholeSlot));
      } else {
        // Partial store: root object and any index expressions are used.
        collectExprUses(ast_cast<MatchPattern>(I.LHS)->getValue(), Uses);
      }
    } else {
      collectPatternUsesDefs(I.LHS, Uses, Defs);
    }
    return;
  case InstKind::Branch:
  case InstKind::Assert:
    collectExprUses(I.Cond, Uses);
    return;
  case InstKind::Jump:
  case InstKind::Halt:
    return;
  case InstKind::Link:
  case InstKind::Unlink:
    collectExprUses(I.RHS, Uses);
    return;
  case InstKind::Block:
    for (const IRCase &Case : I.Cases) {
      collectExprUses(Case.Guard, Uses);
      collectExprUses(Case.Out, Uses);
      if (Case.Pat)
        collectPatternUsesDefs(Case.Pat, Uses, Defs);
    }
    return;
  }
}

} // namespace

void esp::collectSuccessors(const Inst &I, unsigned Index,
                            std::vector<unsigned> &Succs) {
  Succs.clear();
  switch (I.Kind) {
  case InstKind::Branch:
    Succs.push_back(Index + 1);
    Succs.push_back(I.Target);
    return;
  case InstKind::Jump:
    Succs.push_back(I.Target);
    return;
  case InstKind::Block:
    for (const IRCase &Case : I.Cases)
      Succs.push_back(Case.Target);
    return;
  case InstKind::Halt:
    return;
  default:
    Succs.push_back(Index + 1);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

std::vector<std::vector<uint64_t>> esp::computeLiveOut(const ProcIR &Proc) {
  unsigned NumInsts = static_cast<unsigned>(Proc.Insts.size());
  unsigned Words = (Proc.Proc->NumSlots + 63) / 64;
  std::vector<SlotSet> LiveOut(NumInsts, SlotSet(Words, 0));
  std::vector<SlotSet> Uses(NumInsts, SlotSet(Words, 0));
  std::vector<SlotSet> Defs(NumInsts, SlotSet(Words, 0));
  for (unsigned I = 0; I != NumInsts; ++I)
    collectInstUsesDefs(Proc.Insts[I], Uses[I], Defs[I]);

  bool Changed = true;
  std::vector<unsigned> Succs;
  while (Changed) {
    Changed = false;
    for (unsigned I = NumInsts; I-- > 0;) {
      collectSuccessors(Proc.Insts[I], I, Succs);
      SlotSet NewOut(Words, 0);
      for (unsigned S : Succs) {
        if (S >= NumInsts)
          continue;
        // live-in(S) = uses(S) | (live-out(S) & ~defs(S)).
        for (unsigned W = 0; W != Words; ++W)
          NewOut[W] |= Uses[S][W] | (LiveOut[S][W] & ~Defs[S][W]);
      }
      Changed |= unionInto(LiveOut[I], NewOut);
    }
  }
  return LiveOut;
}

//===----------------------------------------------------------------------===//
// Jump threading + compaction
//===----------------------------------------------------------------------===//

namespace {

unsigned resolveJumpChain(const std::vector<Inst> &Insts, unsigned Target) {
  unsigned Hops = 0;
  while (Target < Insts.size() && Insts[Target].Kind == InstKind::Jump &&
         Hops++ < Insts.size())
    Target = Insts[Target].Target;
  return Target;
}

unsigned threadJumps(ProcIR &Proc) {
  unsigned Count = 0;
  for (Inst &I : Proc.Insts) {
    switch (I.Kind) {
    case InstKind::Branch:
    case InstKind::Jump: {
      unsigned Resolved = resolveJumpChain(Proc.Insts, I.Target);
      if (Resolved != I.Target) {
        I.Target = Resolved;
        ++Count;
      }
      break;
    }
    case InstKind::Block:
      for (IRCase &Case : I.Cases) {
        unsigned Resolved = resolveJumpChain(Proc.Insts, Case.Target);
        if (Resolved != Case.Target) {
          Case.Target = Resolved;
          ++Count;
        }
      }
      break;
    default:
      break;
    }
  }
  return Count;
}

/// Removes unreachable instructions and jumps-to-next, remapping targets.
unsigned compact(ProcIR &Proc) {
  unsigned NumInsts = static_cast<unsigned>(Proc.Insts.size());
  std::vector<bool> Reachable(NumInsts, false);
  std::vector<unsigned> Worklist = {0};
  std::vector<unsigned> Succs;
  while (!Worklist.empty()) {
    unsigned I = Worklist.back();
    Worklist.pop_back();
    if (I >= NumInsts || Reachable[I])
      continue;
    Reachable[I] = true;
    collectSuccessors(Proc.Insts[I], I, Succs);
    for (unsigned S : Succs)
      Worklist.push_back(S);
  }

  std::vector<bool> Keep(NumInsts, false);
  for (unsigned I = 0; I != NumInsts; ++I) {
    if (!Reachable[I])
      continue;
    // A jump straight to the next kept instruction is a no-op... but we
    // can only know "next kept" after deciding everything; drop only
    // jumps to the textually next instruction (safe and common).
    if (Proc.Insts[I].Kind == InstKind::Jump && Proc.Insts[I].Target == I + 1)
      continue;
    Keep[I] = true;
  }

  // Remap: target T moves to the first kept instruction at or after T.
  std::vector<unsigned> NewIndex(NumInsts + 1, 0);
  unsigned Next = 0;
  for (unsigned I = 0; I != NumInsts; ++I) {
    NewIndex[I] = Next;
    if (Keep[I])
      ++Next;
  }
  NewIndex[NumInsts] = Next;

  unsigned Removed = NumInsts - Next;
  if (Removed == 0)
    return 0;

  std::vector<Inst> NewInsts;
  NewInsts.reserve(Next);
  for (unsigned I = 0; I != NumInsts; ++I) {
    if (!Keep[I])
      continue;
    Inst Ins = std::move(Proc.Insts[I]);
    switch (Ins.Kind) {
    case InstKind::Branch:
    case InstKind::Jump:
      Ins.Target = NewIndex[Ins.Target];
      break;
    case InstKind::Block:
      for (IRCase &Case : Ins.Cases)
        Case.Target = NewIndex[Case.Target];
      break;
    default:
      break;
    }
    NewInsts.push_back(std::move(Ins));
  }
  Proc.Insts = std::move(NewInsts);
  return Removed;
}

bool exprAllocates(const Expr *E) {
  if (!E)
    return false;
  switch (E->getKind()) {
  case ExprKind::RecordLit:
  case ExprKind::UnionLit:
  case ExprKind::ArrayLit:
  case ExprKind::Cast:
    return true;
  case ExprKind::Field:
    return exprAllocates(ast_cast<FieldExpr>(E)->getBase());
  case ExprKind::Index: {
    const IndexExpr *I = ast_cast<IndexExpr>(E);
    return exprAllocates(I->getBase()) || exprAllocates(I->getIndex());
  }
  case ExprKind::Unary:
    return exprAllocates(ast_cast<UnaryExpr>(E)->getSub());
  case ExprKind::Binary: {
    const BinaryExpr *B = ast_cast<BinaryExpr>(E);
    return exprAllocates(B->getLHS()) || exprAllocates(B->getRHS());
  }
  default:
    return false;
  }
}

unsigned eliminateDeadStores(ProcIR &Proc) {
  std::vector<SlotSet> LiveOut = computeLiveOut(Proc);
  unsigned Count = 0;
  for (unsigned I = 0, E = Proc.Insts.size(); I != E; ++I) {
    Inst &Ins = Proc.Insts[I];
    int Slot = -1;
    if (Ins.Kind == InstKind::DeclInit)
      Slot = static_cast<int>(Ins.Var->Slot);
    else if (Ins.Kind == InstKind::Store && Ins.PlainStore)
      Slot = plainStoreWholeSlot(Ins);
    if (Slot < 0)
      continue;
    if (testSlot(LiveOut[I], static_cast<unsigned>(Slot)))
      continue;
    // Removing an allocation that is never used is exactly the dead-code
    // elimination benefit the paper describes; scalar computations are
    // trivially removable too.
    Inst Replacement;
    Replacement.Kind = InstKind::Jump;
    Replacement.Loc = Ins.Loc;
    Replacement.Target = I + 1;
    Ins = std::move(Replacement);
    ++Count;
  }
  return Count;
}

} // namespace

//===----------------------------------------------------------------------===//
// Channel-level optimizations (§6.1)
//===----------------------------------------------------------------------===//

namespace {

/// True when every reader pattern of \p Chan destructures with a record
/// pattern, so the record shell can be elided. External-reader channels
/// are excluded: the C side receives a real object (§4.5).
bool allReadersDestructure(const Program &Prog, const ChannelDecl *Chan) {
  if (Chan->Role != ChannelRole::Internal)
    return false;
  std::vector<ChannelReader> Readers = collectChannelReaders(Prog, Chan);
  if (Readers.empty())
    return false;
  for (const ChannelReader &Reader : Readers)
    if (Reader.Pat->getKind() != PatternKind::Record)
      return false;
  return true;
}

} // namespace

OptStats esp::optimizeModule(ModuleIR &Module, const OptOptions &Options) {
  OptStats Stats;
  for (ProcIR &Proc : Module.Procs) {
    if (Options.EliminateDeadStores)
      Stats.DeadStoresRemoved += eliminateDeadStores(Proc);
    if (Options.ThreadJumps) {
      Stats.JumpsThreaded += threadJumps(Proc);
      Stats.InstsRemoved += compact(Proc);
    }
    for (Inst &I : Proc.Insts) {
      if (I.Kind != InstKind::Block)
        continue;
      for (IRCase &Case : I.Cases) {
        if (Case.IsIn)
          continue;
        if (Options.SinkAllocations && exprAllocates(Case.Out) &&
            !Case.LazyOut) {
          Case.LazyOut = true;
          ++Stats.CasesLazified;
        }
        if (Options.SinkAllocations && !Case.MatchFree) {
          // Pairing needs no value when every reader pattern is a
          // catch-all (pattern disjointness then guarantees at most one
          // reader process, so dispatch is value-free).
          std::vector<ChannelReader> Readers =
              collectChannelReaders(*Module.Prog, Case.Channel);
          bool AllCoverAll = !Readers.empty();
          for (const ChannelReader &Reader : Readers)
            AllCoverAll &= Reader.Abs.coversAll();
          Case.MatchFree = AllCoverAll;
        }
        if (Options.ElideRecordAllocs && !Case.ElideRecordAlloc &&
            ast_dyn_cast<RecordLitExpr>(Case.Out) &&
            allReadersDestructure(*Module.Prog, Case.Channel)) {
          Case.ElideRecordAlloc = true;
          ++Stats.CasesElided;
        }
      }
    }
  }
  return Stats;
}
