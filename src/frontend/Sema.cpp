//===--- Sema.cpp - ESP semantic checker -----------------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Sema.h"

#include "frontend/PatternAnalysis.h"
#include "support/Diagnostics.h"

#include <cassert>

using namespace esp;
using namespace esp::detail;

//===----------------------------------------------------------------------===//
// Static constant evaluation
//===----------------------------------------------------------------------===//

std::optional<int64_t> esp::tryEvalStatic(const Expr *E,
                                          const ProcessDecl *Proc) {
  switch (E->getKind()) {
  case ExprKind::IntLit:
    return ast_cast<IntLitExpr>(E)->getValue();
  case ExprKind::BoolLit:
    return ast_cast<BoolLitExpr>(E)->getValue() ? 1 : 0;
  case ExprKind::SelfId:
    if (!Proc)
      return std::nullopt;
    return static_cast<int64_t>(Proc->ProcessId);
  case ExprKind::VarRef: {
    const VarRefExpr *V = ast_cast<VarRefExpr>(E);
    if (const ConstDecl *C = V->getConst())
      return C->Value;
    return std::nullopt;
  }
  case ExprKind::Unary: {
    const UnaryExpr *U = ast_cast<UnaryExpr>(E);
    std::optional<int64_t> Sub = tryEvalStatic(U->getSub(), Proc);
    if (!Sub)
      return std::nullopt;
    return U->getOp() == UnaryOp::Not ? (*Sub == 0 ? 1 : 0) : wrapNeg(*Sub);
  }
  case ExprKind::Binary: {
    const BinaryExpr *B = ast_cast<BinaryExpr>(E);
    std::optional<int64_t> L = tryEvalStatic(B->getLHS(), Proc);
    std::optional<int64_t> R = tryEvalStatic(B->getRHS(), Proc);
    if (!L || !R)
      return std::nullopt;
    switch (B->getOp()) {
    case BinaryOp::And:
      return (*L != 0 && *R != 0) ? 1 : 0;
    case BinaryOp::Or:
      return (*L != 0 || *R != 0) ? 1 : 0;
    case BinaryOp::Div:
    case BinaryOp::Mod:
      if (*R == 0)
        return std::nullopt;
      break;
    default:
      break;
    }
    return intOp(intOpOf(B->getOp()), *L, *R);
  }
  default:
    return std::nullopt;
  }
}

//===----------------------------------------------------------------------===//
// Top-level driver
//===----------------------------------------------------------------------===//

bool esp::checkProgram(Program &Prog, DiagnosticEngine &Diags) {
  Sema S(Prog, Diags);
  if (!S.run())
    return false;
  return checkChannelPatterns(Prog, Diags);
}

bool Sema::run() {
  unsigned ErrorsBefore = Diags.getNumErrors();
  checkConstDecls();
  checkChannels();
  checkInterfaces();
  for (std::unique_ptr<ProcessDecl> &Proc : Prog.Processes)
    checkProcess(*Proc);
  if (Prog.Processes.empty())
    Diags.error(SourceLoc(), "program declares no processes");
  return Diags.getNumErrors() == ErrorsBefore;
}

void Sema::checkConstDecls() {
  for (std::unique_ptr<ConstDecl> &C : Prog.ConstDecls) {
    // Resolve const-to-const references first so nested consts work.
    const Type *T = checkExpr(C->Init, nullptr);
    if (!T)
      continue;
    if (!T->isScalar()) {
      Diags.error(C->Loc, "constant '" + C->Name + "' must be int or bool");
      continue;
    }
    std::optional<int64_t> Value = tryEvalStatic(C->Init, nullptr);
    if (!Value) {
      Diags.error(C->Loc, "initializer of constant '" + C->Name +
                              "' is not a compile-time constant");
      continue;
    }
    C->ConstType = T;
    C->Value = *Value;
  }
}

void Sema::checkChannels() {
  for (std::unique_ptr<ChannelDecl> &C : Prog.Channels) {
    if (!C->ElemType->isSendable())
      Diags.error(C->Loc,
                  "channel '" + C->Name +
                      "' carries a mutable type; only immutable objects "
                      "can be sent over channels");
  }
}

void Sema::checkInterfaces() {
  for (std::unique_ptr<InterfaceDecl> &I : Prog.Interfaces) {
    ChannelDecl *Chan = Prog.findChannel(I->ChannelName);
    if (!Chan) {
      Diags.error(I->Loc, "interface '" + I->Name +
                              "' references unknown channel '" +
                              I->ChannelName + "'");
      continue;
    }
    if (Chan->Role != ChannelRole::Internal) {
      Diags.error(I->Loc, "channel '" + Chan->Name +
                              "' already has an external interface; a "
                              "channel can have an external reader or "
                              "writer but not both");
      continue;
    }
    Chan->Role = I->ExternalWrites ? ChannelRole::ExternalWriter
                                   : ChannelRole::ExternalReader;
    Chan->Interface = I.get();
    I->Channel = Chan;
    if (I->Cases.empty()) {
      Diags.error(I->Loc,
                  "interface '" + I->Name + "' declares no cases");
      continue;
    }
    for (InterfaceCase &Case : I->Cases)
      checkInterfacePattern(Case.Pat, Chan->ElemType);
  }
}

//===----------------------------------------------------------------------===//
// Processes
//===----------------------------------------------------------------------===//

VarInfo *Sema::lookupVar(const std::string &Name) const {
  auto It = ProcessVars.find(Name);
  return It == ProcessVars.end() ? nullptr : It->second;
}

VarInfo *Sema::lookupOrCreateVar(const std::string &Name, const Type *T,
                                 SourceLoc Loc) {
  assert(CurrentProcess && "variable outside a process");
  if (VarInfo *Existing = lookupVar(Name)) {
    if (Existing->VarType != T) {
      Diags.error(Loc, "variable '" + Name + "' was previously used with "
                           "type '" + Existing->VarType->str() +
                           "'; all uses of a name within a process must "
                           "agree (it names one storage slot)");
      Diags.note(Existing->Loc, "previous use is here");
    }
    return Existing;
  }
  VarInfo *V = CurrentProcess->createVar(Name, Loc);
  V->VarType = T;
  ProcessVars[Name] = V;
  return V;
}

void Sema::checkProcess(ProcessDecl &Proc) {
  CurrentProcess = &Proc;
  ProcessVars.clear();
  checkStmt(Proc.Body);
  CurrentProcess = nullptr;
}

void Sema::checkStmt(Stmt *S) {
  if (!S)
    return;
  switch (S->getKind()) {
  case StmtKind::Block:
    for (Stmt *Child : ast_cast<BlockStmt>(S)->getBody())
      checkStmt(Child);
    return;
  case StmtKind::Decl: {
    DeclStmt *D = ast_cast<DeclStmt>(S);
    const Type *T = checkExpr(D->getInit(), D->getAnnotation());
    if (!T)
      return;
    if (D->getAnnotation() && T != D->getAnnotation()) {
      Diags.error(D->getInit()->getLoc(),
                  "initializer of type '" + T->str() +
                      "' does not match the declared type '" +
                      D->getAnnotation()->str() + "'");
      return;
    }
    D->setVar(lookupOrCreateVar(D->getName(), T, D->getLoc()));
    return;
  }
  case StmtKind::Assign:
    checkAssign(ast_cast<AssignStmt>(S));
    return;
  case StmtKind::If: {
    IfStmt *I = ast_cast<IfStmt>(S);
    const Type *T = checkExpr(I->getCond(), Types.getBoolType());
    if (T && !T->isBool())
      Diags.error(I->getCond()->getLoc(), "'if' condition must be bool");
    checkStmt(I->getThen());
    checkStmt(I->getElse());
    return;
  }
  case StmtKind::While: {
    WhileStmt *W = ast_cast<WhileStmt>(S);
    if (W->getCond()) {
      const Type *T = checkExpr(W->getCond(), Types.getBoolType());
      if (T && !T->isBool())
        Diags.error(W->getCond()->getLoc(),
                    "'while' condition must be bool");
    }
    checkStmt(W->getBody());
    return;
  }
  case StmtKind::Alt:
    checkAlt(ast_cast<AltStmt>(S));
    return;
  case StmtKind::Link:
  case StmtKind::Unlink: {
    Expr *Obj = S->getKind() == StmtKind::Link
                    ? ast_cast<LinkStmt>(S)->getObj()
                    : ast_cast<UnlinkStmt>(S)->getObj();
    const Type *T = checkExpr(Obj, nullptr);
    if (T && !T->isAggregate())
      Diags.error(Obj->getLoc(),
                  "link/unlink operates on heap objects (record, union, "
                  "or array), not scalars");
    return;
  }
  case StmtKind::Assert: {
    AssertStmt *A = ast_cast<AssertStmt>(S);
    const Type *T = checkExpr(A->getCond(), Types.getBoolType());
    if (T && !T->isBool())
      Diags.error(A->getCond()->getLoc(), "'assert' condition must be bool");
    return;
  }
  }
}

bool Sema::isLValue(const Expr *E) const {
  switch (E->getKind()) {
  case ExprKind::VarRef:
    return ast_cast<VarRefExpr>(E)->getVar() != nullptr;
  case ExprKind::Field:
    return isLValue(ast_cast<FieldExpr>(E)->getBase());
  case ExprKind::Index:
    return isLValue(ast_cast<IndexExpr>(E)->getBase());
  default:
    return false;
  }
}

void Sema::checkAssign(AssignStmt *S) {
  Pattern *LHS = S->getLHS();

  // Case 1: plain store `lvalue = expr;`.
  if (MatchPattern *M = ast_dyn_cast<MatchPattern>(LHS)) {
    Expr *Target = M->getValue();
    const Type *TargetType = checkExpr(Target, nullptr);
    if (!TargetType)
      return;
    if (!isLValue(Target)) {
      Diags.error(Target->getLoc(),
                  "left-hand side of assignment is not assignable");
      return;
    }
    // Stores through a field or index require the containing aggregate to
    // be mutable; re-binding a whole variable is always allowed.
    if (Target->getKind() == ExprKind::Field) {
      const Type *BaseType = ast_cast<FieldExpr>(Target)->getBase()->getType();
      if (BaseType && !BaseType->isMutable()) {
        Diags.error(Target->getLoc(),
                    "cannot store into a field of an immutable object");
        return;
      }
    } else if (Target->getKind() == ExprKind::Index) {
      const Type *BaseType = ast_cast<IndexExpr>(Target)->getBase()->getType();
      if (BaseType && !BaseType->isMutable()) {
        Diags.error(Target->getLoc(),
                    "cannot store into an element of an immutable array");
        return;
      }
    }
    const Type *RHSType = checkExpr(S->getRHS(), TargetType);
    if (RHSType && RHSType != TargetType)
      Diags.error(S->getRHS()->getLoc(),
                  "assigning '" + RHSType->str() + "' to location of type '" +
                      TargetType->str() + "'");
    S->setPlainStore(true);
    M->setType(TargetType);
    return;
  }

  // Case 2: destructuring match `pattern = expr;`.
  const Type *RHSType = checkExpr(S->getRHS(), S->getAnnotation());
  if (!RHSType)
    return;
  if (S->getAnnotation() && RHSType != S->getAnnotation()) {
    Diags.error(S->getRHS()->getLoc(),
                "expression type '" + RHSType->str() +
                    "' does not match annotation '" +
                    S->getAnnotation()->str() + "'");
    return;
  }
  checkPattern(LHS, RHSType);
}

void Sema::requireAllocationFree(const Expr *E, const char *What) {
  switch (E->getKind()) {
  case ExprKind::RecordLit:
  case ExprKind::UnionLit:
  case ExprKind::ArrayLit:
  case ExprKind::Cast:
    Diags.error(E->getLoc(), std::string(What) +
                                 " must not allocate (it may be evaluated "
                                 "repeatedly while the process is blocked)");
    return;
  case ExprKind::Field:
    requireAllocationFree(ast_cast<FieldExpr>(E)->getBase(), What);
    return;
  case ExprKind::Index: {
    const IndexExpr *I = ast_cast<IndexExpr>(E);
    requireAllocationFree(I->getBase(), What);
    requireAllocationFree(I->getIndex(), What);
    return;
  }
  case ExprKind::Unary:
    requireAllocationFree(ast_cast<UnaryExpr>(E)->getSub(), What);
    return;
  case ExprKind::Binary: {
    const BinaryExpr *B = ast_cast<BinaryExpr>(E);
    requireAllocationFree(B->getLHS(), What);
    requireAllocationFree(B->getRHS(), What);
    return;
  }
  default:
    return;
  }
}

void Sema::checkAlt(AltStmt *S) {
  for (AltCase &Case : S->getCases()) {
    if (Case.Guard) {
      const Type *T = checkExpr(Case.Guard, Types.getBoolType());
      if (T && !T->isBool())
        Diags.error(Case.Guard->getLoc(), "case guard must be bool");
      requireAllocationFree(Case.Guard, "case guard");
    }
    CommAction &Action = Case.Action;
    ChannelDecl *Chan = Prog.findChannel(Action.ChannelName);
    if (!Chan) {
      Diags.error(Action.Loc,
                  "unknown channel '" + Action.ChannelName + "'");
      continue;
    }
    Action.Channel = Chan;
    if (Action.IsIn) {
      if (Chan->Role == ChannelRole::ExternalReader) {
        Diags.error(Action.Loc,
                    "channel '" + Chan->Name +
                        "' has an external reader; processes may only "
                        "write it");
        continue;
      }
      checkPattern(Action.Pat, Chan->ElemType);
    } else {
      if (Chan->Role == ChannelRole::ExternalWriter) {
        Diags.error(Action.Loc,
                    "channel '" + Chan->Name +
                        "' has an external writer; processes may only "
                        "read it");
        continue;
      }
      const Type *T = checkExpr(Action.Out, Chan->ElemType);
      if (T && T != Chan->ElemType)
        Diags.error(Action.Out->getLoc(),
                    "sending '" + T->str() + "' on channel of type '" +
                        Chan->ElemType->str() + "'");
    }
    checkStmt(Case.Body);
  }
}

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

bool Sema::checkPattern(Pattern *P, const Type *Component) {
  P->setType(Component);
  switch (P->getKind()) {
  case PatternKind::Bind: {
    BindPattern *B = ast_cast<BindPattern>(P);
    B->setVar(lookupOrCreateVar(B->getName(), Component, B->getLoc()));
    return true;
  }
  case PatternKind::Match: {
    MatchPattern *M = ast_cast<MatchPattern>(P);
    const Type *T = checkExpr(M->getValue(), Component);
    if (!T)
      return false;
    if (!T->isScalar()) {
      Diags.error(M->getLoc(),
                  "equality-match pattern components must be scalar");
      return false;
    }
    if (T != Component) {
      Diags.error(M->getLoc(), "pattern component of type '" + T->str() +
                                   "' does not match '" + Component->str() +
                                   "'");
      return false;
    }
    return true;
  }
  case PatternKind::Record: {
    RecordPattern *R = ast_cast<RecordPattern>(P);
    if (!Component->isRecord()) {
      Diags.error(P->getLoc(), "record pattern applied to non-record type '" +
                                   Component->str() + "'");
      return false;
    }
    const std::vector<TypeField> &Fields = Component->getFields();
    if (R->getElems().size() != Fields.size()) {
      Diags.error(P->getLoc(),
                  "record pattern has " +
                      std::to_string(R->getElems().size()) +
                      " components but type has " +
                      std::to_string(Fields.size()) + " fields");
      return false;
    }
    bool OK = true;
    for (size_t I = 0, E = Fields.size(); I != E; ++I)
      OK &= checkPattern(R->getElems()[I], Fields[I].FieldType);
    return OK;
  }
  case PatternKind::Union: {
    UnionPattern *U = ast_cast<UnionPattern>(P);
    if (!Component->isUnion()) {
      Diags.error(P->getLoc(), "union pattern applied to non-union type '" +
                                   Component->str() + "'");
      return false;
    }
    int Index = Component->getFieldIndex(U->getFieldName());
    if (Index < 0) {
      Diags.error(P->getLoc(), "union type has no field named '" +
                                   U->getFieldName() + "'");
      return false;
    }
    U->setFieldIndex(Index);
    return checkPattern(U->getSub(),
                        Component->getFields()[Index].FieldType);
  }
  }
  return false;
}

bool Sema::checkInterfacePattern(Pattern *P, const Type *Component) {
  P->setType(Component);
  switch (P->getKind()) {
  case PatternKind::Bind: {
    // Interface binders are the parameters the external C function fills
    // in or receives; they do not create process variables.
    if (!Component->isScalar() && !Component->isSendable()) {
      Diags.error(P->getLoc(),
                  "interface parameter must be a sendable type");
      return false;
    }
    return true;
  }
  case PatternKind::Match: {
    MatchPattern *M = ast_cast<MatchPattern>(P);
    if (!tryEvalStatic(M->getValue(), nullptr)) {
      Diags.error(M->getLoc(),
                  "interface pattern components must be compile-time "
                  "constants");
      return false;
    }
    if (!Component->isScalar()) {
      Diags.error(M->getLoc(),
                  "interface constant components must be scalar");
      return false;
    }
    // Type the constant expression for the backends.
    checkExpr(M->getValue(), Component);
    return true;
  }
  case PatternKind::Record: {
    RecordPattern *R = ast_cast<RecordPattern>(P);
    if (!Component->isRecord()) {
      Diags.error(P->getLoc(), "record pattern applied to non-record type '" +
                                   Component->str() + "'");
      return false;
    }
    const std::vector<TypeField> &Fields = Component->getFields();
    if (R->getElems().size() != Fields.size()) {
      Diags.error(P->getLoc(), "record pattern arity mismatch");
      return false;
    }
    bool OK = true;
    for (size_t I = 0, E = Fields.size(); I != E; ++I)
      OK &= checkInterfacePattern(R->getElems()[I], Fields[I].FieldType);
    return OK;
  }
  case PatternKind::Union: {
    UnionPattern *U = ast_cast<UnionPattern>(P);
    if (!Component->isUnion()) {
      Diags.error(P->getLoc(), "union pattern applied to non-union type '" +
                                   Component->str() + "'");
      return false;
    }
    int Index = Component->getFieldIndex(U->getFieldName());
    if (Index < 0) {
      Diags.error(P->getLoc(), "union type has no field named '" +
                                   U->getFieldName() + "'");
      return false;
    }
    U->setFieldIndex(Index);
    return checkInterfacePattern(U->getSub(),
                                 Component->getFields()[Index].FieldType);
  }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

const Type *Sema::checkExpr(Expr *E, const Type *Expected) {
  const Type *Result = nullptr;
  switch (E->getKind()) {
  case ExprKind::IntLit:
    Result = Types.getIntType();
    break;
  case ExprKind::BoolLit:
    Result = Types.getBoolType();
    break;
  case ExprKind::SelfId:
    if (!CurrentProcess) {
      Diags.error(E->getLoc(), "'@' may only appear inside a process");
      return nullptr;
    }
    Result = Types.getIntType();
    break;
  case ExprKind::VarRef: {
    VarRefExpr *V = ast_cast<VarRefExpr>(E);
    if (VarInfo *Var = lookupVar(V->getName())) {
      V->setVar(Var);
      Result = Var->VarType;
      break;
    }
    if (const ConstDecl *C = Prog.findConst(V->getName())) {
      if (!C->ConstType) {
        Diags.error(E->getLoc(), "constant '" + V->getName() +
                                     "' used before its value is known");
        return nullptr;
      }
      V->setConst(C);
      Result = C->ConstType;
      break;
    }
    Diags.error(E->getLoc(),
                "use of undeclared name '" + V->getName() + "'");
    return nullptr;
  }
  case ExprKind::Field: {
    FieldExpr *F = ast_cast<FieldExpr>(E);
    const Type *BaseType = checkExpr(F->getBase(), nullptr);
    if (!BaseType)
      return nullptr;
    if (!BaseType->isRecord() && !BaseType->isUnion()) {
      Diags.error(E->getLoc(), "field access on non-aggregate type '" +
                                   BaseType->str() + "'");
      return nullptr;
    }
    int Index = BaseType->getFieldIndex(F->getFieldName());
    if (Index < 0) {
      Diags.error(E->getLoc(), "type '" + BaseType->str() +
                                   "' has no field named '" +
                                   F->getFieldName() + "'");
      return nullptr;
    }
    F->setFieldIndex(Index);
    Result = BaseType->getFields()[Index].FieldType;
    break;
  }
  case ExprKind::Index: {
    IndexExpr *I = ast_cast<IndexExpr>(E);
    const Type *BaseType = checkExpr(I->getBase(), nullptr);
    const Type *IndexType = checkExpr(I->getIndex(), Types.getIntType());
    if (!BaseType || !IndexType)
      return nullptr;
    if (!BaseType->isArray()) {
      Diags.error(E->getLoc(),
                  "indexing non-array type '" + BaseType->str() + "'");
      return nullptr;
    }
    if (!IndexType->isInt()) {
      Diags.error(I->getIndex()->getLoc(), "array index must be int");
      return nullptr;
    }
    Result = BaseType->getElementType();
    break;
  }
  case ExprKind::Unary: {
    UnaryExpr *U = ast_cast<UnaryExpr>(E);
    const Type *SubType = checkExpr(
        U->getSub(),
        U->getOp() == UnaryOp::Not ? Types.getBoolType() : Types.getIntType());
    if (!SubType)
      return nullptr;
    if (U->getOp() == UnaryOp::Not && !SubType->isBool()) {
      Diags.error(E->getLoc(), "'!' requires a bool operand");
      return nullptr;
    }
    if (U->getOp() == UnaryOp::Neg && !SubType->isInt()) {
      Diags.error(E->getLoc(), "unary '-' requires an int operand");
      return nullptr;
    }
    Result = SubType;
    break;
  }
  case ExprKind::Binary: {
    BinaryExpr *B = ast_cast<BinaryExpr>(E);
    BinaryOp Op = B->getOp();
    const Type *L = nullptr;
    const Type *R = nullptr;
    switch (Op) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Mod:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      L = checkExpr(B->getLHS(), Types.getIntType());
      R = checkExpr(B->getRHS(), Types.getIntType());
      if (!L || !R)
        return nullptr;
      if (!L->isInt() || !R->isInt()) {
        Diags.error(E->getLoc(), std::string("operator '") +
                                     binaryOpSpelling(Op) +
                                     "' requires int operands");
        return nullptr;
      }
      Result = (Op == BinaryOp::Lt || Op == BinaryOp::Le ||
                Op == BinaryOp::Gt || Op == BinaryOp::Ge)
                   ? Types.getBoolType()
                   : Types.getIntType();
      break;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      L = checkExpr(B->getLHS(), nullptr);
      if (!L)
        return nullptr;
      R = checkExpr(B->getRHS(), L);
      if (!R)
        return nullptr;
      if (!L->isScalar() || L != R) {
        Diags.error(E->getLoc(),
                    "equality comparison requires matching scalar operands");
        return nullptr;
      }
      Result = Types.getBoolType();
      break;
    case BinaryOp::And:
    case BinaryOp::Or:
      L = checkExpr(B->getLHS(), Types.getBoolType());
      R = checkExpr(B->getRHS(), Types.getBoolType());
      if (!L || !R)
        return nullptr;
      if (!L->isBool() || !R->isBool()) {
        Diags.error(E->getLoc(), std::string("operator '") +
                                     binaryOpSpelling(Op) +
                                     "' requires bool operands");
        return nullptr;
      }
      Result = Types.getBoolType();
      break;
    }
    break;
  }
  case ExprKind::RecordLit: {
    RecordLitExpr *R = ast_cast<RecordLitExpr>(E);
    if (!Expected || !Expected->isRecord()) {
      Diags.error(E->getLoc(),
                  Expected ? "record literal used where type '" +
                                 Expected->str() + "' is expected"
                           : "cannot infer the type of this record literal; "
                             "add a type annotation");
      return nullptr;
    }
    if (Expected->isMutable() != R->isMutableLit()) {
      Diags.error(E->getLoc(),
                  R->isMutableLit()
                      ? "mutable literal ('#') used where an immutable "
                        "record is expected"
                      : "immutable literal used where a mutable record is "
                        "expected (add '#')");
      return nullptr;
    }
    const std::vector<TypeField> &Fields = Expected->getFields();
    if (R->getElems().size() != Fields.size()) {
      Diags.error(E->getLoc(),
                  "record literal has " +
                      std::to_string(R->getElems().size()) +
                      " values but type has " +
                      std::to_string(Fields.size()) + " fields");
      return nullptr;
    }
    bool OK = true;
    for (size_t I = 0, N = Fields.size(); I != N; ++I) {
      const Type *T = checkExpr(R->getElems()[I], Fields[I].FieldType);
      if (!T) {
        OK = false;
        continue;
      }
      if (T != Fields[I].FieldType) {
        Diags.error(R->getElems()[I]->getLoc(),
                    "field '" + Fields[I].Name + "' expects type '" +
                        Fields[I].FieldType->str() + "', found '" + T->str() +
                        "'");
        OK = false;
      }
    }
    if (!OK)
      return nullptr;
    Result = Expected;
    break;
  }
  case ExprKind::UnionLit: {
    UnionLitExpr *U = ast_cast<UnionLitExpr>(E);
    if (!Expected || !Expected->isUnion()) {
      Diags.error(E->getLoc(),
                  Expected ? "union literal used where type '" +
                                 Expected->str() + "' is expected"
                           : "cannot infer the type of this union literal; "
                             "add a type annotation");
      return nullptr;
    }
    if (Expected->isMutable() != U->isMutableLit()) {
      Diags.error(E->getLoc(), "literal mutability does not match the "
                               "expected union type");
      return nullptr;
    }
    int Index = Expected->getFieldIndex(U->getFieldName());
    if (Index < 0) {
      Diags.error(E->getLoc(), "union type '" + Expected->str() +
                                   "' has no field named '" +
                                   U->getFieldName() + "'");
      return nullptr;
    }
    U->setFieldIndex(Index);
    const Type *FieldType = Expected->getFields()[Index].FieldType;
    const Type *T = checkExpr(U->getValue(), FieldType);
    if (!T)
      return nullptr;
    if (T != FieldType) {
      Diags.error(U->getValue()->getLoc(),
                  "union field '" + U->getFieldName() + "' expects type '" +
                      FieldType->str() + "', found '" + T->str() + "'");
      return nullptr;
    }
    Result = Expected;
    break;
  }
  case ExprKind::ArrayLit: {
    ArrayLitExpr *A = ast_cast<ArrayLitExpr>(E);
    const Type *SizeType = checkExpr(A->getSize(), Types.getIntType());
    if (!SizeType)
      return nullptr;
    if (!SizeType->isInt()) {
      Diags.error(A->getSize()->getLoc(), "array size must be int");
      return nullptr;
    }
    const Type *ElemExpected = nullptr;
    if (Expected && Expected->isArray()) {
      if (Expected->isMutable() != A->isMutableLit()) {
        Diags.error(E->getLoc(), "literal mutability does not match the "
                                 "expected array type");
        return nullptr;
      }
      ElemExpected = Expected->getElementType();
    }
    const Type *ElemType = checkExpr(A->getInit(), ElemExpected);
    if (!ElemType)
      return nullptr;
    if (ElemExpected && ElemType != ElemExpected) {
      Diags.error(A->getInit()->getLoc(),
                  "array element expects type '" + ElemExpected->str() +
                      "', found '" + ElemType->str() + "'");
      return nullptr;
    }
    Result = Types.getArrayType(ElemType, A->isMutableLit());
    break;
  }
  case ExprKind::Cast: {
    CastExpr *C = ast_cast<CastExpr>(E);
    const Type *SubType = checkExpr(C->getSub(), nullptr);
    if (!SubType)
      return nullptr;
    if (!SubType->isAggregate()) {
      Diags.error(E->getLoc(),
                  "'cast' converts between mutable and immutable "
                  "aggregates; scalar casts are meaningless");
      return nullptr;
    }
    Result = Types.withDeepMutability(SubType, !SubType->isMutable());
    break;
  }
  }
  if (Result)
    E->setType(Result);
  return Result;
}
