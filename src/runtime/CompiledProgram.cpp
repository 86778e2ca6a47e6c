//===--- CompiledProgram.cpp - Precompiled runtime fast path ---------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledProgram.h"

#include "frontend/PatternAnalysis.h"
#include "frontend/Sema.h"

#include <algorithm>
#include <cassert>

using namespace esp;

namespace {

/// How many operand-stack entries \p K adds, net. For AndJump/OrJump it
/// is the fall-through path: a taken jump keeps its operand but skips
/// the right-hand side, which would have gone at least as deep.
int stackEffect(XOp::K K) {
  switch (K) {
  case XOp::K::PushInt:
  case XOp::K::PushBool:
  case XOp::K::LoadSlot:
  case XOp::K::AllocRecord:
  case XOp::K::AllocUnion:
  case XOp::K::SlotImm:
  case XOp::K::SlotIndex:
    return 1;
  case XOp::K::LoadField:
  case XOp::K::LoadUnionField:
  case XOp::K::Not:
  case XOp::K::Neg:
  case XOp::K::Boolify:
  case XOp::K::AllocArray:
  case XOp::K::CastCopy:
  case XOp::K::BinImm:
  case XOp::K::BinSlot:
    return 0;
  case XOp::K::LoadIndex:
  case XOp::K::Bin:
  case XOp::K::AndJump:
  case XOp::K::OrJump:
  case XOp::K::SetElem:
  case XOp::K::SetUnionElem:
  case XOp::K::FillArray:
    return -1;
  }
  return 0;
}

/// Compiles expressions and patterns of one process into the flat arrays.
class ProcCompiler {
public:
  ProcCompiler(CompiledProc &Out, const ProcIR &PIR)
      : Out(Out), Proc(PIR.Proc) {}

  /// Compiles \p E into a new range and raises MaxDepth to the deepest
  /// operand stack the range needs.
  XRange expr(const Expr *E) {
    XRange R;
    R.Begin = size();
    emitExpr(E);
    R.End = size();
    int Depth = 0;
    for (uint32_t IP = R.Begin; IP != R.End; ++IP) {
      Depth += stackEffect(Out.Code[IP].Op);
      MaxDepth = std::max(MaxDepth, static_cast<uint32_t>(Depth));
    }
    assert(Depth == 1 && "expression bytecode leaves one value");
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

  /// The deepest operand stack of the ranges compiled so far.
  uint32_t MaxDepth = 0;

private:
  uint32_t size() const { return static_cast<uint32_t>(Out.Code.size()); }

  uint32_t emit(XOp Op) {
    Out.Code.push_back(Op);
    return size() - 1;
  }

  /// Replaces the code from \p Begin on with the superinstruction \p Op.
  /// A fused op takes the place of the first op it stands for, so a jump
  /// that targeted that op (a target is always an op's start) still
  /// lands on it.
  void fuse(uint32_t Begin, XOp Op) {
    Out.Code.resize(Begin);
    emit(Op);
  }

  /// Emits `LHS op RHS`, whose operands were emitted at [LBegin, RBegin)
  /// and [RBegin, end), as one superinstruction when the RHS is a single
  /// constant or slot load. False when the shape does not fuse.
  bool fuseBinary(const BinaryExpr *E, uint32_t LBegin, uint32_t RBegin) {
    if (size() - RBegin != 1)
      return false;
    const XOp &Rhs = Out.Code[RBegin];
    const IntOp Bin = intOpOf(E->getOp());
    const bool Divides = Bin == IntOp::Div || Bin == IntOp::Mod;
    XOp Op;
    Op.Bin = Bin;
    Op.Origin = E;
    if (Rhs.Op == XOp::K::PushInt || Rhs.Op == XOp::K::PushBool) {
      if (Divides && Rhs.Imm == 0)
        return false; // Keeps the DivideByZero fault on the plain op.
      Op.Imm = Rhs.Imm;
      const XOp &Lhs = Out.Code[LBegin];
      if (RBegin - LBegin == 1 && Lhs.Op == XOp::K::LoadSlot) {
        Op.Op = XOp::K::SlotImm;
        Op.A = Lhs.A;
        fuse(LBegin, Op);
      } else {
        Op.Op = XOp::K::BinImm;
        fuse(RBegin, Op);
      }
      return true;
    }
    if (Rhs.Op != XOp::K::LoadSlot || Divides)
      return false;
    Op.Op = XOp::K::BinSlot;
    Op.A = Rhs.A;
    fuse(RBegin, Op);
    return true;
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
      const uint32_t Begin = size();
      emitExpr(I->getBase());
      const uint32_t IndexBegin = size();
      emitExpr(I->getIndex());
      XOp Op;
      Op.Origin = E;
      if (IndexBegin - Begin == 1 && size() - IndexBegin == 1 &&
          Out.Code[Begin].Op == XOp::K::LoadSlot &&
          Out.Code[IndexBegin].Op == XOp::K::LoadSlot) {
        Op.Op = XOp::K::SlotIndex;
        Op.A = Out.Code[Begin].A;
        Op.Imm = Out.Code[IndexBegin].A;
        fuse(Begin, Op);
        return;
      }
      Op.Op = XOp::K::LoadIndex;
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
      const uint32_t LBegin = size();
      emitExpr(B->getLHS());
      const uint32_t RBegin = size();
      emitExpr(B->getRHS());
      if (fuseBinary(B, LBegin, RBegin))
        return;
      XOp Op;
      Op.Op = XOp::K::Bin;
      Op.Bin = intOpOf(B->getOp());
      Op.Origin = E;
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

bool patternIsStatic(const CompiledProc &P, uint32_t PatIndex) {
  const CPat &Pat = P.Pats[PatIndex];
  if (Pat.Kind == PatternKind::Match)
    return Pat.IsStatic;
  for (uint32_t I = 0; I != Pat.NumChildren; ++I)
    if (!patternIsStatic(P, P.PatChildren[Pat.ChildBegin + I]))
      return false;
  return true;
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
        C.PrepCount = static_cast<uint32_t>(C.ElideFields.size());
      } else {
        C.Out = PC.expr(Case.Out);
        C.OutIsAlloc = exprIsAllocation(Case.Out);
        C.PrepCount = 1;
      }
      C.PrepBegin = Out.Insts[Index].PrepSize;
      Out.Insts[Index].PrepSize += C.PrepCount;
      Out.Insts[Index].Cases.push_back(std::move(C));
    }
    // Discriminants need the pattern pool to be final for these cases.
    for (CCase &C : Out.Insts[Index].Cases)
      if (C.IsIn) {
        C.Disc = discOfPattern(Out, C.Pat);
        C.StaticPat = patternIsStatic(Out, C.Pat);
      }
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
    CP.MaxEvalDepth = std::max(CP.MaxEvalDepth, PC.MaxDepth);
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
  for (const std::unique_ptr<ChannelDecl> &Chan : Module.Prog->Channels) {
    CP.Channels[Chan->Id].Disjoint =
        channelReadersDisjoint(*Module.Prog, Chan.get());
    if (Chan->Role == ChannelRole::ExternalWriter)
      CP.ExternalWriterChans.push_back(Chan->Id);
    else if (Chan->Role == ChannelRole::ExternalReader)
      CP.ExternalReaderChans.push_back(Chan->Id);
  }
  return CP;
}
