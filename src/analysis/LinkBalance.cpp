//===--- LinkBalance.cpp - link/unlink balance analysis --------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// A forward dataflow over each process's state-machine IR that tracks,
/// per variable slot, how many references the process holds to the object
/// the slot owns. The abstract value is a four-bit may-set over the
/// reference count: {0}, {1}, {2}, {>=3}; joins are unions.
///
/// Only slots whose ownership is unambiguous are tracked: aggregate-typed
/// slots whose every whole definition is a fresh allocation (record,
/// union, or array literal, a cast — which allocates a deep copy, §4.2 —
/// or a channel receive binder, which owns the incoming message). A slot
/// is abandoned the moment it may alias another (whole-variable copies,
/// destructuring assignments, or appearing inside a stored literal), so a
/// tracked count of {1} really is the last reference. `out` does not give
/// up the sender's reference (messages transfer by value on the wire), so
/// sends are ordinary uses.
///
/// Reported, at reachable instructions only and against the pruned CFG
/// (statically-constant branches contribute one arm, so `if (KEEP == 1)
/// unlink(m);` is not smeared):
///  * unlink with count {0}: refcount underflow (error); with a mix that
///    includes 0: may-underflow (warning),
///  * a redefinition (or receive) into a slot whose count includes >=1:
///    the previous object's references are dropped un-released (error if
///    the count cannot be 0, else warning),
///  * a reachable halt with a slot count including >=1: the object is
///    never unlinked — a static leak (error if definite, else warning),
///    the compile-time analogue of the objectId-exhaustion leak the paper
///    finds with SPIN (§5.2).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/CommGraph.h"

using namespace esp;

namespace {

// May-set over the per-slot reference count: {0}, {1}, {2}, {>=3}. Two is
// tracked exactly so one link and its balancing extra unlink round-trip
// without losing precision.
enum : uint8_t {
  CountZero = 1 << 0,
  CountOne = 1 << 1,
  CountTwo = 1 << 2,
  CountMany = 1 << 3, // >= 3
};

constexpr uint8_t CountPositive = CountOne | CountTwo | CountMany;

uint8_t shiftUp(uint8_t M) {
  uint8_t Out = 0;
  if (M & CountZero)
    Out |= CountOne;
  if (M & CountOne)
    Out |= CountTwo;
  if (M & (CountTwo | CountMany))
    Out |= CountMany;
  return Out;
}

uint8_t shiftDown(uint8_t M) {
  uint8_t Out = static_cast<uint8_t>(M & CountZero); // Underflow sticks at 0.
  if (M & CountOne)
    Out |= CountZero;
  if (M & CountTwo)
    Out |= CountOne;
  if (M & CountMany)
    Out |= CountTwo | CountMany; // >=3 minus one is >=2.
  return Out;
}

/// The slot of a link/unlink operand when it is a whole tracked variable,
/// else -1 (a nested operand adjusts a sub-object's count, not the
/// slot's).
int wholeVarSlot(const Expr *E) {
  if (const VarRefExpr *V = ast_dyn_cast<VarRefExpr>(E))
    if (V->getVar())
      return static_cast<int>(V->getVar()->Slot);
  return -1;
}

/// Marks slots whose value may be captured by reference inside the stored
/// value of \p E: a whole variable at the root or embedded in record,
/// union, or array literals. Field/index projections and casts produce
/// scalar or freshly-copied values and are copy boundaries.
void collectEscapes(const Expr *E, std::vector<bool> &Escaped) {
  if (!E)
    return;
  switch (E->getKind()) {
  case ExprKind::VarRef: {
    const VarRefExpr *V = ast_cast<VarRefExpr>(E);
    if (V->getVar() && V->getVar()->VarType &&
        V->getVar()->VarType->isAggregate())
      Escaped[V->getVar()->Slot] = true;
    return;
  }
  case ExprKind::RecordLit:
    for (const Expr *Elem : ast_cast<RecordLitExpr>(E)->getElems())
      collectEscapes(Elem, Escaped);
    return;
  case ExprKind::UnionLit:
    collectEscapes(ast_cast<UnionLitExpr>(E)->getValue(), Escaped);
    return;
  case ExprKind::ArrayLit:
    collectEscapes(ast_cast<ArrayLitExpr>(E)->getInit(), Escaped);
    return;
  default:
    return;
  }
}

/// Every aggregate variable mentioned anywhere in \p E (used when an
/// expression feeds a destructuring match, which may alias components).
void collectAggregateRefs(const Expr *E, std::vector<bool> &Out) {
  if (!E)
    return;
  switch (E->getKind()) {
  case ExprKind::VarRef: {
    const VarRefExpr *V = ast_cast<VarRefExpr>(E);
    if (V->getVar() && V->getVar()->VarType &&
        V->getVar()->VarType->isAggregate())
      Out[V->getVar()->Slot] = true;
    return;
  }
  case ExprKind::Unary:
    collectAggregateRefs(ast_cast<UnaryExpr>(E)->getSub(), Out);
    return;
  case ExprKind::Binary:
    collectAggregateRefs(ast_cast<BinaryExpr>(E)->getLHS(), Out);
    collectAggregateRefs(ast_cast<BinaryExpr>(E)->getRHS(), Out);
    return;
  case ExprKind::Field:
    collectAggregateRefs(ast_cast<FieldExpr>(E)->getBase(), Out);
    return;
  case ExprKind::Index:
    collectAggregateRefs(ast_cast<IndexExpr>(E)->getBase(), Out);
    collectAggregateRefs(ast_cast<IndexExpr>(E)->getIndex(), Out);
    return;
  case ExprKind::RecordLit:
    for (const Expr *Elem : ast_cast<RecordLitExpr>(E)->getElems())
      collectAggregateRefs(Elem, Out);
    return;
  case ExprKind::UnionLit:
    collectAggregateRefs(ast_cast<UnionLitExpr>(E)->getValue(), Out);
    return;
  case ExprKind::ArrayLit:
    collectAggregateRefs(ast_cast<ArrayLitExpr>(E)->getSize(), Out);
    collectAggregateRefs(ast_cast<ArrayLitExpr>(E)->getInit(), Out);
    return;
  case ExprKind::Cast:
    collectAggregateRefs(ast_cast<CastExpr>(E)->getSub(), Out);
    return;
  default:
    return;
  }
}

void collectAggregateBinders(const Pattern *P,
                             std::vector<const VarInfo *> &Out) {
  if (!P)
    return;
  switch (P->getKind()) {
  case PatternKind::Bind: {
    const VarInfo *V = ast_cast<BindPattern>(P)->getVar();
    if (V && V->VarType && V->VarType->isAggregate())
      Out.push_back(V);
    return;
  }
  case PatternKind::Record:
    for (const Pattern *Elem : ast_cast<RecordPattern>(P)->getElems())
      collectAggregateBinders(Elem, Out);
    return;
  case PatternKind::Union:
    collectAggregateBinders(ast_cast<UnionPattern>(P)->getSub(), Out);
    return;
  case PatternKind::Match:
    return;
  }
}

struct ProcLinkAnalysis {
  const ProcIR &Proc;
  /// Instruction reachability over the pruned CFG (ProcComm).
  const std::vector<bool> &Reachable;
  AnalysisResult &Result;

  std::vector<bool> Tracked;
  /// IN state per instruction: one count mask per slot; all-zero means
  /// "not yet reached".
  std::vector<std::vector<uint8_t>> In;

  ProcLinkAnalysis(const ProcComm &Comm, AnalysisResult &Result)
      : Proc(*Comm.IR), Reachable(Comm.ReachableInsts), Result(Result) {}

  void run() {
    computeTracked();
    bool AnyTracked = false;
    for (bool T : Tracked)
      AnyTracked |= T;
    if (!AnyTracked)
      return;
    solve();
    report();
  }

  void computeTracked() {
    unsigned NumSlots = Proc.Proc->NumSlots;
    Tracked.assign(NumSlots, false);
    for (const auto &Var : Proc.Proc->Vars)
      if (Var->VarType && Var->VarType->isAggregate())
        Tracked[Var->Slot] = true;

    std::vector<bool> Escaped(NumSlots, false);
    std::vector<const VarInfo *> Binders;
    for (const Inst &I : Proc.Insts) {
      switch (I.Kind) {
      case InstKind::DeclInit:
        if (!exprIsAllocation(I.RHS))
          Tracked[I.Var->Slot] = false;
        collectEscapes(I.RHS, Escaped);
        break;
      case InstKind::Store:
        if (I.PlainStore) {
          int Slot = wholeDefSlot(I);
          if (Slot >= 0 && !exprIsAllocation(I.RHS))
            Tracked[Slot] = false;
          collectEscapes(I.RHS, Escaped);
        } else {
          // Destructuring may alias components of the source into the
          // binders; give up on both sides.
          Binders.clear();
          collectAggregateBinders(I.LHS, Binders);
          for (const VarInfo *V : Binders)
            Tracked[V->Slot] = false;
          collectAggregateRefs(I.RHS, Escaped);
        }
        break;
      default:
        break;
      }
    }
    for (unsigned S = 0; S != NumSlots; ++S)
      if (Escaped[S])
        Tracked[S] = false;
  }

  /// Transfer through the non-communication effect of Insts[Index].
  void transfer(unsigned Index, std::vector<uint8_t> &S) const {
    const Inst &I = Proc.Insts[Index];
    switch (I.Kind) {
    case InstKind::DeclInit:
    case InstKind::Store: {
      int Slot = wholeDefSlot(I);
      if (Slot >= 0 && Tracked[Slot])
        S[Slot] = CountOne; // Fresh allocation: the slot owns one ref.
      return;
    }
    case InstKind::Link: {
      int Slot = wholeVarSlot(I.RHS);
      if (Slot >= 0 && Tracked[Slot])
        S[Slot] = shiftUp(S[Slot]);
      return;
    }
    case InstKind::Unlink: {
      int Slot = wholeVarSlot(I.RHS);
      if (Slot >= 0 && Tracked[Slot])
        S[Slot] = shiftDown(S[Slot]);
      return;
    }
    default:
      return;
    }
  }

  bool joinInto(std::vector<uint8_t> &Dst, const std::vector<uint8_t> &Src) {
    bool Changed = false;
    for (unsigned S = 0, N = Dst.size(); S != N; ++S) {
      uint8_t Merged = Dst[S] | Src[S];
      Changed |= Merged != Dst[S];
      Dst[S] = Merged;
    }
    return Changed;
  }

  void solve() {
    unsigned NumSlots = Proc.Proc->NumSlots;
    In.assign(Proc.Insts.size(), std::vector<uint8_t>(NumSlots, 0));
    if (Proc.Insts.empty())
      return;
    In[0].assign(NumSlots, CountZero);

    std::vector<unsigned> Succs;
    std::vector<const VarInfo *> Binders;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned Index = 0, E = Proc.Insts.size(); Index != E; ++Index) {
        if (!Reachable[Index])
          continue;
        bool Seen = false;
        for (uint8_t M : In[Index])
          Seen |= M != 0;
        if (!Seen)
          continue;
        const Inst &I = Proc.Insts[Index];
        if (I.Kind == InstKind::Block) {
          for (const IRCase &Case : I.Cases) {
            std::vector<uint8_t> S = In[Index];
            if (Case.IsIn) {
              // The receive binders own the incoming message's objects.
              Binders.clear();
              collectAggregateBinders(Case.Pat, Binders);
              for (const VarInfo *V : Binders)
                if (Tracked[V->Slot])
                  S[V->Slot] = CountOne;
            }
            if (Case.Target < In.size())
              Changed |= joinInto(In[Case.Target], S);
          }
          continue;
        }
        std::vector<uint8_t> S = In[Index];
        transfer(Index, S);
        prunedSuccessors(Proc, Index, Succs);
        for (unsigned Succ : Succs)
          if (Succ < In.size())
            Changed |= joinInto(In[Succ], S);
      }
    }
  }

  void addFinding(AnalysisSeverity Severity, SourceLoc Loc,
                  std::string Message,
                  std::vector<AnalysisFinding::Note> Notes = {}) {
    AnalysisFinding F;
    F.Kind = AnalysisKind::LinkBalance;
    F.Severity = Severity;
    F.Loc = Loc;
    F.Message = std::move(Message);
    F.Notes = std::move(Notes);
    Result.Findings.push_back(std::move(F));
  }

  const std::string &slotName(unsigned Slot) const {
    for (const auto &Var : Proc.Proc->Vars)
      if (Var->Slot == Slot)
        return Var->Name;
    static const std::string Unknown = "?";
    return Unknown;
  }

  SourceLoc slotLoc(unsigned Slot) const {
    for (const auto &Var : Proc.Proc->Vars)
      if (Var->Slot == Slot)
        return Var->Loc;
    return SourceLoc();
  }

  void reportDrop(unsigned Slot, uint8_t Mask, SourceLoc Loc,
                  const char *What) {
    if (!(Mask & CountPositive))
      return;
    std::string Name = slotName(Slot);
    if (!(Mask & CountZero))
      addFinding(AnalysisSeverity::Error, Loc,
                 std::string(What) + " '" + Name +
                     "' drops the last reference to its previous object, "
                     "which is never unlinked (leak)");
    else
      addFinding(AnalysisSeverity::Warning, Loc,
                 std::string(What) + " '" + Name +
                     "' may drop a still-linked object on some paths");
  }

  void report() {
    std::vector<const VarInfo *> Binders;
    std::vector<bool> LeakReported(Proc.Proc->NumSlots, false);
    for (unsigned Index = 0, E = Proc.Insts.size(); Index != E; ++Index) {
      if (!Reachable[Index])
        continue;
      const Inst &I = Proc.Insts[Index];
      bool Seen = false;
      for (uint8_t M : In[Index])
        Seen |= M != 0;
      if (!Seen)
        continue;
      switch (I.Kind) {
      case InstKind::DeclInit:
      case InstKind::Store: {
        int Slot = wholeDefSlot(I);
        if (Slot >= 0 && Tracked[Slot])
          reportDrop(static_cast<unsigned>(Slot), In[Index][Slot], I.Loc,
                     "reassignment of");
        break;
      }
      case InstKind::Block:
        for (const IRCase &Case : I.Cases) {
          if (!Case.IsIn)
            continue;
          Binders.clear();
          collectAggregateBinders(Case.Pat, Binders);
          for (const VarInfo *V : Binders)
            if (Tracked[V->Slot])
              reportDrop(V->Slot, In[Index][V->Slot], Case.Loc,
                         "receiving into");
        }
        break;
      case InstKind::Unlink: {
        int Slot = wholeVarSlot(I.RHS);
        if (Slot < 0 || !Tracked[Slot])
          break;
        uint8_t Mask = In[Index][Slot];
        if (Mask == CountZero)
          addFinding(AnalysisSeverity::Error, I.Loc,
                     "'" + slotName(Slot) +
                         "' is unlinked here but no longer holds a "
                         "reference (refcount underflow)");
        else if (Mask & CountZero)
          addFinding(AnalysisSeverity::Warning, I.Loc,
                     "'" + slotName(Slot) +
                         "' may already have been unlinked on some paths "
                         "(possible refcount underflow)");
        break;
      }
      case InstKind::Halt:
        for (unsigned Slot = 0, NS = Proc.Proc->NumSlots; Slot != NS;
             ++Slot) {
          if (!Tracked[Slot] || LeakReported[Slot])
            continue;
          uint8_t Mask = In[Index][Slot];
          if (!(Mask & CountPositive))
            continue;
          LeakReported[Slot] = true;
          std::vector<AnalysisFinding::Note> Notes;
          if (I.Loc.isValid())
            Notes.push_back({I.Loc, "process ends here"});
          if (!(Mask & CountZero))
            addFinding(AnalysisSeverity::Error, slotLoc(Slot),
                       "object held by '" + slotName(Slot) +
                           "' in process '" + Proc.Proc->Name +
                           "' is never unlinked (leak)",
                       std::move(Notes));
          else
            addFinding(AnalysisSeverity::Warning, slotLoc(Slot),
                       "object held by '" + slotName(Slot) +
                           "' in process '" + Proc.Proc->Name +
                           "' may not be unlinked on some paths "
                           "(possible leak)",
                       std::move(Notes));
        }
        break;
      default:
        break;
      }
    }
  }
};

} // namespace

void esp::detail::checkLinkBalance(const CommGraph &Graph,
                                   AnalysisResult &Result) {
  for (const ProcComm &Comm : Graph.Procs)
    ProcLinkAnalysis(Comm, Result).run();
}
