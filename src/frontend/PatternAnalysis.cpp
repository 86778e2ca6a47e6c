//===--- PatternAnalysis.cpp - Channel pattern dispatch checks -------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/PatternAnalysis.h"

#include "frontend/Sema.h"
#include "support/Diagnostics.h"

#include <functional>

using namespace esp;

//===----------------------------------------------------------------------===//
// Abstract patterns
//===----------------------------------------------------------------------===//

AbsPattern AbsPattern::fromPattern(const Pattern *P,
                                   const ProcessDecl *Proc) {
  AbsPattern Out;
  switch (P->getKind()) {
  case PatternKind::Bind:
    Out.K = Any;
    return Out;
  case PatternKind::Match: {
    const MatchPattern *M = ast_cast<MatchPattern>(P);
    if (std::optional<int64_t> V = tryEvalStatic(M->getValue(), Proc)) {
      Out.K = Const;
      Out.Value = *V;
    } else {
      Out.K = Unknown;
    }
    return Out;
  }
  case PatternKind::Record: {
    Out.K = Record;
    for (const Pattern *Child : ast_cast<RecordPattern>(P)->getElems())
      Out.Kids.push_back(fromPattern(Child, Proc));
    return Out;
  }
  case PatternKind::Union: {
    const UnionPattern *U = ast_cast<UnionPattern>(P);
    Out.K = Union;
    Out.Arm = U->getFieldIndex();
    Out.Kids.push_back(fromPattern(U->getSub(), Proc));
    return Out;
  }
  }
  return Out;
}

AbsPattern::Overlap AbsPattern::overlap(const AbsPattern &A,
                                        const AbsPattern &B) {
  // Any overlaps everything.
  if (A.K == Any || B.K == Any)
    return Overlap::Overlapping;
  if (A.K == Unknown || B.K == Unknown)
    return Overlap::Unknown;
  if (A.K == Const && B.K == Const)
    return A.Value == B.Value ? Overlap::Overlapping : Overlap::Disjoint;
  if (A.K == Union && B.K == Union) {
    if (A.Arm != B.Arm)
      return Overlap::Disjoint;
    return overlap(A.Kids[0], B.Kids[0]);
  }
  if (A.K == Record && B.K == Record) {
    // Records overlap iff every component pair overlaps; a single
    // disjoint component makes the records disjoint.
    size_t N = std::min(A.Kids.size(), B.Kids.size());
    Overlap Result = Overlap::Overlapping;
    for (size_t I = 0; I != N; ++I) {
      Overlap Component = overlap(A.Kids[I], B.Kids[I]);
      if (Component == Overlap::Disjoint)
        return Overlap::Disjoint;
      if (Component == Overlap::Unknown)
        Result = Overlap::Unknown;
    }
    return Result;
  }
  // Mixed kinds (e.g. Const vs Record) cannot arise on well-typed
  // channels; be conservative.
  return Overlap::Unknown;
}

bool AbsPattern::coversAll() const {
  switch (K) {
  case Any:
    return true;
  case Const:
  case Unknown:
    return false;
  case Record:
    for (const AbsPattern &Kid : Kids)
      if (!Kid.coversAll())
        return false;
    return true;
  case Union:
    return false; // A single arm never covers the whole union.
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Reader collection
//===----------------------------------------------------------------------===//

namespace {

/// Invokes \p Fn on every AltStmt reachable in \p S.
void forEachAlt(Stmt *S, const std::function<void(AltStmt *)> &Fn) {
  if (!S)
    return;
  switch (S->getKind()) {
  case StmtKind::Block:
    for (Stmt *Child : ast_cast<BlockStmt>(S)->getBody())
      forEachAlt(Child, Fn);
    return;
  case StmtKind::If: {
    IfStmt *I = ast_cast<IfStmt>(S);
    forEachAlt(I->getThen(), Fn);
    forEachAlt(I->getElse(), Fn);
    return;
  }
  case StmtKind::While:
    forEachAlt(ast_cast<WhileStmt>(S)->getBody(), Fn);
    return;
  case StmtKind::Alt: {
    AltStmt *A = ast_cast<AltStmt>(S);
    Fn(A);
    for (AltCase &Case : A->getCases())
      forEachAlt(Case.Body, Fn);
    return;
  }
  default:
    return;
  }
}

} // namespace

std::vector<ChannelReader>
esp::collectChannelReaders(const Program &Prog, const ChannelDecl *Chan) {
  std::vector<ChannelReader> Readers;
  for (const std::unique_ptr<ProcessDecl> &Proc : Prog.Processes) {
    forEachAlt(Proc->Body, [&](AltStmt *A) {
      for (const AltCase &Case : A->getCases()) {
        if (!Case.Action.IsIn || Case.Action.Channel != Chan)
          continue;
        ChannelReader Reader;
        Reader.Pat = Case.Action.Pat;
        Reader.Abs = AbsPattern::fromPattern(Case.Action.Pat, Proc.get());
        Reader.Owner = Proc->ProcessId;
        Reader.OwnerName = Proc->Name;
        Reader.Loc = Case.Action.Loc;
        Readers.push_back(std::move(Reader));
      }
    });
  }
  if (Chan->Role == ChannelRole::ExternalReader && Chan->Interface) {
    unsigned CaseIndex = 0;
    for (const InterfaceCase &Case : Chan->Interface->Cases) {
      ChannelReader Reader;
      Reader.Pat = Case.Pat;
      Reader.Abs = AbsPattern::fromPattern(Case.Pat, nullptr);
      Reader.Owner = (1u << 16) + CaseIndex++;
      Reader.OwnerName = Chan->Interface->Name + "." + Case.Name;
      Reader.Loc = Case.Loc;
      Readers.push_back(std::move(Reader));
    }
  }
  return Readers;
}

bool esp::channelReadersDisjoint(const Program &Prog,
                                 const ChannelDecl *Chan) {
  std::vector<ChannelReader> Readers = collectChannelReaders(Prog, Chan);
  for (size_t I = 0; I != Readers.size(); ++I)
    for (size_t J = I + 1; J != Readers.size(); ++J)
      if (AbsPattern::overlap(Readers[I].Abs, Readers[J].Abs) !=
          AbsPattern::Overlap::Disjoint)
        return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Whole-program check
//===----------------------------------------------------------------------===//

static bool hasProcessWriter(const Program &Prog, const ChannelDecl *Chan) {
  for (const std::unique_ptr<ProcessDecl> &Proc : Prog.Processes) {
    bool Found = false;
    forEachAlt(Proc->Body, [&](AltStmt *A) {
      for (const AltCase &Case : A->getCases())
        if (!Case.Action.IsIn && Case.Action.Channel == Chan)
          Found = true;
    });
    if (Found)
      return true;
  }
  return false;
}

/// Approximate exhaustiveness of \p Readers over channel type \p T.
static bool isExhaustive(const std::vector<const AbsPattern *> &Pats,
                         const Type *T) {
  for (const AbsPattern *P : Pats)
    if (P->coversAll())
      return true;
  if (T->isUnion()) {
    const std::vector<TypeField> &Fields = T->getFields();
    for (size_t Arm = 0, N = Fields.size(); Arm != N; ++Arm) {
      std::vector<const AbsPattern *> ArmPats;
      for (const AbsPattern *P : Pats)
        if (P->K == AbsPattern::Union &&
            P->Arm == static_cast<int>(Arm))
          ArmPats.push_back(&P->Kids[0]);
      if (ArmPats.empty() || !isExhaustive(ArmPats, Fields[Arm].FieldType))
        return false;
    }
    return true;
  }
  return false;
}

bool esp::checkChannelPatterns(Program &Prog, DiagnosticEngine &Diags) {
  unsigned ErrorsBefore = Diags.getNumErrors();
  for (const std::unique_ptr<ChannelDecl> &Chan : Prog.Channels) {
    std::vector<ChannelReader> Readers =
        collectChannelReaders(Prog, Chan.get());

    bool HasWriter = Chan->Role == ChannelRole::ExternalWriter ||
                     hasProcessWriter(Prog, Chan.get());
    if (Readers.empty() && HasWriter)
      Diags.warning(Chan->Loc, "channel '" + Chan->Name +
                                   "' is written but never read; writers "
                                   "will block forever");
    if (!Readers.empty() && !HasWriter)
      Diags.warning(Chan->Loc, "channel '" + Chan->Name +
                                   "' is read but never written; readers "
                                   "will block forever");

    // Pairwise disjointness across different owners (§4.2: a channel plus
    // a pattern is a port with a single reader).
    for (size_t I = 0; I != Readers.size(); ++I) {
      for (size_t J = I + 1; J != Readers.size(); ++J) {
        if (Readers[I].Owner == Readers[J].Owner)
          continue;
        AbsPattern::Overlap O =
            AbsPattern::overlap(Readers[I].Abs, Readers[J].Abs);
        if (O == AbsPattern::Overlap::Overlapping) {
          Diags.error(Readers[J].Loc,
                      "receive pattern on channel '" + Chan->Name +
                          "' in '" + Readers[J].OwnerName +
                          "' overlaps a pattern used by '" +
                          Readers[I].OwnerName +
                          "'; patterns on a channel must be disjoint and "
                          "each pattern may be used by one process only");
          Diags.note(Readers[I].Loc, "conflicting pattern is here");
        } else if (O == AbsPattern::Overlap::Unknown) {
          Diags.warning(Readers[J].Loc,
                        "cannot statically prove this pattern disjoint "
                        "from the one used by '" + Readers[I].OwnerName +
                            "' on channel '" + Chan->Name +
                            "'; dispatch ambiguity will be detected at "
                            "run time");
        }
      }
    }

    // Exhaustiveness (approximate: value-level matches such as `{ @, .. }`
    // are inherently not statically exhaustive; a message matching no
    // pattern is reported at run time and by the verifier).
    if (!Readers.empty()) {
      std::vector<const AbsPattern *> Pats;
      Pats.reserve(Readers.size());
      for (const ChannelReader &Reader : Readers)
        Pats.push_back(&Reader.Abs);
      if (!isExhaustive(Pats, Chan->ElemType))
        Diags.warning(Chan->Loc,
                      "receive patterns on channel '" + Chan->Name +
                          "' may not be exhaustive; a message matching no "
                          "pattern is a runtime error");
    }
  }
  return Diags.getNumErrors() == ErrorsBefore;
}
