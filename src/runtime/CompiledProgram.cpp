//===--- CompiledProgram.cpp - Precompiled runtime fast path ---------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledProgram.h"

#include "frontend/PatternAnalysis.h"
#include "frontend/Sema.h"

#include <cassert>

using namespace esp;

namespace {

/// Compiles expressions and patterns of one process into the flat arrays.
class ProcCompiler {
public:
  ProcCompiler(CompiledProc &Out, const ProcIR &PIR)
      : Out(Out), Proc(PIR.Proc) {}

  XRange expr(const Expr *E) {
    XRange R;
    R.Begin = static_cast<uint32_t>(Out.Code.size());
    emitExpr(E);
    R.End = static_cast<uint32_t>(Out.Code.size());
    return R;
  }

  uint32_t pattern(const Pattern *P) {
    uint32_t Index = static_cast<uint32_t>(Out.Pats.size());
    Out.Pats.emplace_back();
    {
      CPat &N = Out.Pats[Index];
      N.Kind = P->getKind();
      N.Src = P;
    }
    switch (P->getKind()) {
    case PatternKind::Bind:
      Out.Pats[Index].Slot = ast_cast<BindPattern>(P)->getVar()->Slot;
      break;
    case PatternKind::Match: {
      const Expr *V = ast_cast<MatchPattern>(P)->getValue();
      if (std::optional<int64_t> Folded = tryEvalStatic(V, Proc)) {
        Out.Pats[Index].IsStatic = true;
        Out.Pats[Index].Const = *Folded;
      } else {
        XRange Code = expr(V);
        Out.Pats[Index].Code = Code;
      }
      break;
    }
    case PatternKind::Record: {
      const RecordPattern *R = ast_cast<RecordPattern>(P);
      std::vector<uint32_t> Kids;
      Kids.reserve(R->getElems().size());
      for (const Pattern *Elem : R->getElems())
        Kids.push_back(pattern(Elem));
      Out.Pats[Index].ChildBegin =
          static_cast<uint32_t>(Out.PatChildren.size());
      Out.Pats[Index].NumChildren = static_cast<uint32_t>(Kids.size());
      Out.PatChildren.insert(Out.PatChildren.end(), Kids.begin(), Kids.end());
      break;
    }
    case PatternKind::Union: {
      const UnionPattern *U = ast_cast<UnionPattern>(P);
      uint32_t Kid = pattern(U->getSub());
      Out.Pats[Index].Arm = U->getFieldIndex();
      Out.Pats[Index].ChildBegin =
          static_cast<uint32_t>(Out.PatChildren.size());
      Out.Pats[Index].NumChildren = 1;
      Out.PatChildren.push_back(Kid);
      break;
    }
    }
    return Index;
  }

private:
  uint32_t emit(XOp Op) {
    Out.Code.push_back(Op);
    return static_cast<uint32_t>(Out.Code.size() - 1);
  }

  void emitExpr(const Expr *E) {
    switch (E->getKind()) {
    case ExprKind::IntLit: {
      XOp Op;
      Op.Op = XOp::K::PushInt;
      Op.Imm = ast_cast<IntLitExpr>(E)->getValue();
      Op.Origin = E;
      emit(Op);
      return;
    }
    case ExprKind::BoolLit: {
      XOp Op;
      Op.Op = XOp::K::PushBool;
      Op.Imm = ast_cast<BoolLitExpr>(E)->getValue() ? 1 : 0;
      Op.Origin = E;
      emit(Op);
      return;
    }
    case ExprKind::SelfId: {
      XOp Op;
      Op.Op = XOp::K::PushInt;
      Op.Imm = Proc->ProcessId;
      Op.Origin = E;
      emit(Op);
      return;
    }
    case ExprKind::VarRef: {
      const VarRefExpr *V = ast_cast<VarRefExpr>(E);
      XOp Op;
      Op.Origin = E;
      if (const ConstDecl *C = V->getConst()) {
        Op.Op = C->ConstType->isBool() ? XOp::K::PushBool : XOp::K::PushInt;
        Op.Imm = C->ConstType->isBool() ? (C->Value != 0 ? 1 : 0) : C->Value;
      } else {
        Op.Op = XOp::K::LoadSlot;
        Op.A = V->getVar()->Slot;
      }
      emit(Op);
      return;
    }
    case ExprKind::Field: {
      const FieldExpr *F = ast_cast<FieldExpr>(E);
      emitExpr(F->getBase());
      XOp Op;
      Op.Op = F->getBase()->getType()->isUnion() ? XOp::K::LoadUnionField
                                                 : XOp::K::LoadField;
      Op.A = static_cast<uint32_t>(F->getFieldIndex());
      Op.Origin = E;
      emit(Op);
      return;
    }
    case ExprKind::Index: {
      const IndexExpr *I = ast_cast<IndexExpr>(E);
      emitExpr(I->getBase());
      emitExpr(I->getIndex());
      XOp Op;
      Op.Op = XOp::K::LoadIndex;
      Op.Origin = E;
      emit(Op);
      return;
    }
    case ExprKind::Unary: {
      const UnaryExpr *U = ast_cast<UnaryExpr>(E);
      emitExpr(U->getSub());
      XOp Op;
      Op.Op = U->getOp() == UnaryOp::Not ? XOp::K::Not : XOp::K::Neg;
      Op.Origin = E;
      emit(Op);
      return;
    }
    case ExprKind::Binary: {
      const BinaryExpr *B = ast_cast<BinaryExpr>(E);
      if (B->getOp() == BinaryOp::And || B->getOp() == BinaryOp::Or) {
        emitExpr(B->getLHS());
        XOp Jump;
        Jump.Op = B->getOp() == BinaryOp::And ? XOp::K::AndJump
                                              : XOp::K::OrJump;
        Jump.Origin = E;
        uint32_t JumpAt = emit(Jump);
        emitExpr(B->getRHS());
        XOp Cast;
        Cast.Op = XOp::K::Boolify;
        Cast.Origin = E;
        emit(Cast);
        Out.Code[JumpAt].A = static_cast<uint32_t>(Out.Code.size());
        return;
      }
      emitExpr(B->getLHS());
      emitExpr(B->getRHS());
      XOp Op;
      Op.Origin = E;
      switch (B->getOp()) {
      case BinaryOp::Add: Op.Op = XOp::K::Add; break;
      case BinaryOp::Sub: Op.Op = XOp::K::Sub; break;
      case BinaryOp::Mul: Op.Op = XOp::K::Mul; break;
      case BinaryOp::Div: Op.Op = XOp::K::Div; break;
      case BinaryOp::Mod: Op.Op = XOp::K::Mod; break;
      case BinaryOp::Lt: Op.Op = XOp::K::Lt; break;
      case BinaryOp::Le: Op.Op = XOp::K::Le; break;
      case BinaryOp::Gt: Op.Op = XOp::K::Gt; break;
      case BinaryOp::Ge: Op.Op = XOp::K::Ge; break;
      case BinaryOp::Eq: Op.Op = XOp::K::Eq; break;
      case BinaryOp::Ne: Op.Op = XOp::K::Ne; break;
      case BinaryOp::And:
      case BinaryOp::Or:
        assert(false && "handled above");
        break;
      }
      emit(Op);
      return;
    }
    case ExprKind::RecordLit: {
      const RecordLitExpr *R = ast_cast<RecordLitExpr>(E);
      XOp Alloc;
      Alloc.Op = XOp::K::AllocRecord;
      Alloc.A = static_cast<uint32_t>(R->getElems().size());
      Alloc.Ty = E->getType();
      Alloc.Origin = E;
      emit(Alloc);
      for (size_t I = 0, N = R->getElems().size(); I != N; ++I) {
        const Expr *Elem = R->getElems()[I];
        emitExpr(Elem);
        XOp Set;
        Set.Op = XOp::K::SetElem;
        Set.A = static_cast<uint32_t>(I);
        Set.Flag = exprIsAllocation(Elem) ? 0 : 1; // Borrowed child: link.
        Set.Origin = Elem;
        emit(Set);
      }
      return;
    }
    case ExprKind::UnionLit: {
      const UnionLitExpr *U = ast_cast<UnionLitExpr>(E);
      XOp Alloc;
      Alloc.Op = XOp::K::AllocUnion;
      Alloc.Ty = E->getType();
      Alloc.Origin = E;
      emit(Alloc);
      emitExpr(U->getValue());
      XOp Set;
      Set.Op = XOp::K::SetUnionElem;
      Set.A = static_cast<uint32_t>(U->getFieldIndex());
      Set.Flag = exprIsAllocation(U->getValue()) ? 0 : 1;
      Set.Origin = U->getValue();
      emit(Set);
      return;
    }
    case ExprKind::ArrayLit: {
      const ArrayLitExpr *A = ast_cast<ArrayLitExpr>(E);
      emitExpr(A->getSize());
      XOp Alloc;
      Alloc.Op = XOp::K::AllocArray;
      Alloc.Ty = E->getType();
      Alloc.Origin = E;
      emit(Alloc);
      emitExpr(A->getInit());
      XOp Fill;
      Fill.Op = XOp::K::FillArray;
      Fill.Flag = exprIsAllocation(A->getInit()) ? 1 : 0;
      Fill.Origin = A->getInit();
      emit(Fill);
      return;
    }
    case ExprKind::Cast: {
      const CastExpr *C = ast_cast<CastExpr>(E);
      emitExpr(C->getSub());
      XOp Op;
      Op.Op = XOp::K::CastCopy;
      Op.Flag = exprIsAllocation(C->getSub()) ? 1 : 0;
      Op.Origin = E;
      emit(Op);
      return;
    }
    }
    assert(false && "unhandled expression kind");
  }

  CompiledProc &Out;
  const ProcessDecl *Proc;
};

CaseDisc discOfPattern(const CompiledProc &P, uint32_t PatIndex) {
  CaseDisc Disc;
  const CPat &Root = P.Pats[PatIndex];
  if (Root.Kind == PatternKind::Union) {
    Disc.Kind = CaseDisc::K::UnionArm;
    Disc.Arm = Root.Arm;
  } else if (Root.Kind == PatternKind::Match && Root.IsStatic) {
    Disc.Kind = CaseDisc::K::Scalar;
    Disc.Scalar = Root.Const;
  }
  return Disc;
}

void compileInst(ProcCompiler &PC, CompiledProc &Out, const Inst &I) {
  Out.Insts.emplace_back();
  size_t Index = Out.Insts.size() - 1;
  // Note: PC.expr()/PC.pattern() may grow Out vectors; write through the
  // index, never a held reference.
  Out.Insts[Index].Kind = I.Kind;
  Out.Insts[Index].Src = &I;
  switch (I.Kind) {
  case InstKind::DeclInit:
    Out.Insts[Index].Slot = I.Var->Slot;
    Out.Insts[Index].Code = PC.expr(I.RHS);
    return;
  case InstKind::Link:
  case InstKind::Unlink:
    Out.Insts[Index].Code = PC.expr(I.RHS);
    return;
  case InstKind::Branch:
  case InstKind::Assert:
    Out.Insts[Index].Code = PC.expr(I.Cond);
    Out.Insts[Index].Target = I.Target;
    return;
  case InstKind::Jump:
    Out.Insts[Index].Target = I.Target;
    return;
  case InstKind::Halt:
    return;
  case InstKind::Store: {
    XRange Rhs = PC.expr(I.RHS);
    Out.Insts[Index].Code = Rhs;
    if (!I.PlainStore) {
      Out.Insts[Index].Store = CInst::StoreKind::Destructure;
      Out.Insts[Index].Pat = PC.pattern(I.LHS);
      Out.Insts[Index].RhsIsAlloc = exprIsAllocation(I.RHS);
      return;
    }
    const Expr *Target = ast_cast<MatchPattern>(I.LHS)->getValue();
    if (const VarRefExpr *V = ast_dyn_cast<VarRefExpr>(Target)) {
      Out.Insts[Index].Store = CInst::StoreKind::Slot;
      Out.Insts[Index].StoreA = V->getVar()->Slot;
      return;
    }
    if (const FieldExpr *F = ast_dyn_cast<FieldExpr>(Target)) {
      Out.Insts[Index].Store = F->getBase()->getType()->isUnion()
                                   ? CInst::StoreKind::UnionField
                                   : CInst::StoreKind::Field;
      Out.Insts[Index].StoreA = static_cast<uint32_t>(F->getFieldIndex());
      Out.Insts[Index].StoreAddr = PC.expr(F->getBase());
      return;
    }
    const IndexExpr *Ix = ast_cast<IndexExpr>(Target);
    Out.Insts[Index].Store = CInst::StoreKind::Index;
    Out.Insts[Index].StoreAddr = PC.expr(Ix->getBase());
    Out.Insts[Index].StoreIdx = PC.expr(Ix->getIndex());
    return;
  }
  case InstKind::Block: {
    for (const IRCase &Case : I.Cases) {
      CCase C;
      C.Src = &Case;
      C.ChanId = Case.Channel->Id;
      C.Target = Case.Target;
      C.IsIn = Case.IsIn;
      C.LazyOut = Case.LazyOut;
      C.ElideRecordAlloc = Case.ElideRecordAlloc;
      C.MatchFree = Case.MatchFree;
      if (Case.Guard)
        C.Guard = PC.expr(Case.Guard);
      if (Case.IsIn) {
        C.Pat = PC.pattern(Case.Pat);
        // Note: pattern() appends to Out.Pats; safe, C is a local.
      } else if (Case.ElideRecordAlloc) {
        const RecordLitExpr *R = ast_cast<RecordLitExpr>(Case.Out);
        for (const Expr *Elem : R->getElems()) {
          C.ElideFields.push_back(PC.expr(Elem));
          C.ElideFieldIsAlloc.push_back(exprIsAllocation(Elem) ? 1 : 0);
        }
      } else {
        C.Out = PC.expr(Case.Out);
        C.OutIsAlloc = exprIsAllocation(Case.Out);
      }
      Out.Insts[Index].Cases.push_back(std::move(C));
    }
    // Discriminants need the pattern pool to be final for these cases.
    for (CCase &C : Out.Insts[Index].Cases)
      if (C.IsIn)
        C.Disc = discOfPattern(Out, C.Pat);
    return;
  }
  }
}

} // namespace

CompiledProgram CompiledProgram::build(const ModuleIR &Module) {
  CompiledProgram CP;
  unsigned NP = static_cast<unsigned>(Module.Procs.size());
  CP.MaskWords = NP == 0 ? 1 : (NP + 63) / 64;

  CP.Procs.resize(NP);
  for (unsigned P = 0; P != NP; ++P) {
    const ProcIR &PIR = Module.Procs[P];
    CompiledProc &Out = CP.Procs[P];
    ProcCompiler PC(Out, PIR);
    Out.Insts.reserve(PIR.Insts.size());
    for (const Inst &I : PIR.Insts)
      compileInst(PC, Out, I);
  }

  // Per-channel static dispatch data.
  size_t NumChannels = Module.Prog->Channels.size();
  CP.Channels.resize(NumChannels);
  for (ChannelInfo &CI : CP.Channels)
    CI.StaticReaders.assign(CP.MaskWords, 0);
  for (unsigned P = 0; P != NP; ++P)
    for (const Inst &I : Module.Procs[P].Insts) {
      if (I.Kind != InstKind::Block)
        continue;
      for (const IRCase &Case : I.Cases)
        if (Case.IsIn)
          CP.Channels[Case.Channel->Id].StaticReaders[P / 64] |=
              uint64_t(1) << (P % 64);
    }
  for (const std::unique_ptr<ChannelDecl> &Chan : Module.Prog->Channels)
    CP.Channels[Chan->Id].Disjoint =
        channelReadersDisjoint(*Module.Prog, Chan.get());
  return CP;
}
