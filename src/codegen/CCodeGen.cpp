//===--- CCodeGen.cpp - ESP to C compiler backend ---------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/CCodeGen.h"

#include "frontend/Sema.h"

#include <cassert>
#include <limits>
#include <map>
#include <sstream>

using namespace esp;

namespace {

/// Collects every distinct aggregate type used by the program and emits
/// one static descriptor per type.
class TypeTable {
public:
  unsigned idFor(const Type *T) {
    auto It = Ids.find(T);
    if (It != Ids.end())
      return It->second;
    unsigned Id = static_cast<unsigned>(Order.size());
    Ids.emplace(T, Id);
    Order.push_back(T);
    // Visit children so their descriptors exist too.
    if (T->isRecord() || T->isUnion()) {
      for (const TypeField &F : T->getFields())
        if (F.FieldType->isAggregate())
          idFor(F.FieldType);
    } else if (T->isArray() && T->getElementType()->isAggregate()) {
      idFor(T->getElementType());
    }
    return Id;
  }

  std::string emit() const {
    std::ostringstream OS;
    // Two passes so field descriptors can reference each other by index.
    for (size_t I = 0; I != Order.size(); ++I) {
      const Type *T = Order[I];
      if (T->isRecord() || T->isUnion()) {
        OS << "static const unsigned char esp_ty" << I << "_refs[] = {";
        for (size_t F = 0; F != T->getFields().size(); ++F) {
          if (F)
            OS << ", ";
          OS << (T->getFields()[F].FieldType->isAggregate() ? 1 : 0);
        }
        OS << "};\n";
      }
    }
    for (size_t I = 0; I != Order.size(); ++I) {
      const Type *T = Order[I];
      OS << "/* " << T->str() << " */\n";
      OS << "static const esp_type esp_ty" << I << " = { ";
      if (T->isRecord())
        OS << "0, " << T->getFields().size() << ", esp_ty" << I
           << "_refs, 0 };\n";
      else if (T->isUnion())
        OS << "1, " << T->getFields().size() << ", esp_ty" << I
           << "_refs, 0 };\n";
      else
        OS << "2, 0, 0, "
           << (T->getElementType()->isAggregate() ? 1 : 0) << " };\n";
    }
    return OS.str();
  }

private:
  std::map<const Type *, unsigned> Ids;
  std::vector<const Type *> Order;
};

/// One channel-side endpoint: a (process, block instruction, case) triple.
struct Endpoint {
  unsigned Proc;
  unsigned InstIndex;
  unsigned CaseIndex;
  const IRCase *Case;
};

std::string cType(const Type *T) {
  return T->isAggregate() ? "esp_obj *" : "long long ";
}

const char *valField(const Type *T) { return T->isAggregate() ? "o" : "i"; }

/// Element \p I of object \p V, read as a value of type \p T.
std::string elemAccess(const std::string &V, const std::string &I,
                       const Type *T) {
  return "(" + V + ")->elems[" + I + "]." + valField(T);
}

/// Calls \p F(Binder, Access) for each binder of \p Pat, left to
/// right, where Access is the C expression of the binder's value inside
/// \p ValueExpr (of the pattern's type).
template <typename Fn>
void forEachBinder(const Pattern *Pat, const std::string &ValueExpr, Fn &&F) {
  switch (Pat->getKind()) {
  case PatternKind::Bind:
    F(ast_cast<BindPattern>(Pat), ValueExpr);
    return;
  case PatternKind::Match:
    return;
  case PatternKind::Record: {
    const RecordPattern *R = ast_cast<RecordPattern>(Pat);
    for (size_t I = 0; I != R->getElems().size(); ++I)
      forEachBinder(R->getElems()[I],
                    elemAccess(ValueExpr, std::to_string(I),
                               R->getElems()[I]->getType()),
                    F);
    return;
  }
  case PatternKind::Union: {
    const Pattern *Sub = ast_cast<UnionPattern>(Pat)->getSub();
    forEachBinder(Sub, elemAccess(ValueExpr, "0", Sub->getType()), F);
    return;
  }
  }
}

std::string ifaceFnName(const InterfaceDecl *Iface,
                        const InterfaceCase &Case) {
  return Iface->Name + Case.Name;
}

/// Declares the functions the user supplies for the external interfaces
/// (§4.5): `<Iface>IsReady()` and one function per case, whose parameters
/// are the case pattern's binders (out-parameters when external code
/// writes the channel).
void emitExternDecls(const ModuleIR &Module, std::ostream &Out) {
  Out << "/* External interfaces (§4.5): supplied by the user. */\n";
  for (const std::unique_ptr<InterfaceDecl> &Iface : Module.Prog->Interfaces) {
    Out << "extern int " << Iface->Name << "IsReady(void);\n";
    for (const InterfaceCase &Case : Iface->Cases) {
      Out << "extern void " << ifaceFnName(Iface.get(), Case) << "(";
      const char *Sep = "";
      forEachBinder(Case.Pat, "",
                    [&](const BindPattern *B, const std::string &) {
                      Out << Sep << cType(B->getType())
                          << (Iface->ExternalWrites ? "*" : "")
                          << B->getName();
                      Sep = ", ";
                    });
      Out << (*Sep ? ");\n" : "void);\n");
    }
  }
  Out << "\n";
}

class CGenerator {
public:
  CGenerator(const ModuleIR &Module, const CCodeGenOptions &Options)
      : Module(Module), Options(Options) {}

  std::string run() {
    collectEndpoints();
    // Generate all code into buffers first: code generation registers
    // type descriptors on the fly, and the descriptor table must be
    // emitted before any code that references it.
    std::ostringstream Decls;
    std::ostringstream Code;
    for (unsigned P = 0; P != Module.Procs.size(); ++P)
      emitProcess(P, Decls, Code);
    Code << "\n";
    emitPairFunctions(Code);
    Code << "\n";
    emitScheduler(Code);
    std::ostringstream Out;
    emitPrelude(Out);
    Out << Types.emit() << "\n";
    Out << Decls.str() << "\n";
    emitPreparedDecls(Out);
    emitExternDecls(Module, Out);
    Out << Code.str();
    return Out.str();
  }

private:
  //===--- Names ------------------------------------------------------------===//

  std::string varName(unsigned Proc, const VarInfo *V) const {
    std::string Name = "v";
    Name += std::to_string(Proc);
    Name += "_";
    Name += V->Name;
    return Name;
  }
  std::string prepName(unsigned Proc, unsigned Inst, unsigned Case,
                       int Field = -1) const {
    std::string Name = "prep_p" + std::to_string(Proc) + "_i" +
                       std::to_string(Inst) + "_c" + std::to_string(Case);
    if (Field >= 0)
      Name += "_f" + std::to_string(Field);
    return Name;
  }
  std::string prepValidName(unsigned Proc, unsigned Inst,
                            unsigned Case) const {
    return "prepv_p" + std::to_string(Proc) + "_i" + std::to_string(Inst) +
           "_c" + std::to_string(Case);
  }
  /// A C literal of \p V. INT64_MIN has no literal of its own in C: the
  /// digits of its magnitude overflow long long.
  static std::string intLit(int64_t V) {
    if (V == std::numeric_limits<int64_t>::min())
      return "(-9223372036854775807LL - 1)";
    return std::to_string(V) + "LL";
  }
  /// The prelude helper that computes \p Op with ESP's integer
  /// semantics, or null for an operator C already gets right.
  static const char *arithHelper(BinaryOp Op) {
    switch (Op) {
    case BinaryOp::Add:
      return "esp_add";
    case BinaryOp::Sub:
      return "esp_sub";
    case BinaryOp::Mul:
      return "esp_mul";
    case BinaryOp::Div:
      return "esp_div";
    case BinaryOp::Mod:
      return "esp_mod";
    default:
      return nullptr;
    }
  }

  //===--- Expression compilation -------------------------------------------===//

  /// Compiles \p E in the context of process \p Proc. Statements that the
  /// expression needs (allocations) are appended to \p Body; the returned
  /// string is a C expression.
  std::string emitExpr(unsigned Proc, const Expr *E, std::ostream &Body) {
    switch (E->getKind()) {
    case ExprKind::IntLit:
      return intLit(ast_cast<IntLitExpr>(E)->getValue());
    case ExprKind::BoolLit:
      return ast_cast<BoolLitExpr>(E)->getValue() ? "1LL" : "0LL";
    case ExprKind::SelfId:
      return std::to_string(Module.Procs[Proc].Proc->ProcessId) + "LL";
    case ExprKind::VarRef: {
      const VarRefExpr *V = ast_cast<VarRefExpr>(E);
      if (const ConstDecl *C = V->getConst())
        return intLit(C->Value);
      return varName(Proc, V->getVar());
    }
    case ExprKind::Field: {
      const FieldExpr *F = ast_cast<FieldExpr>(E);
      std::string Base = emitExpr(Proc, F->getBase(), Body);
      const Type *BaseType = F->getBase()->getType();
      if (Options.EmitSafetyChecks) {
        if (BaseType->isUnion())
          Base = "esp_chk_arm(" + Base + ", " +
                 std::to_string(F->getFieldIndex()) + ")";
        else
          Base = "esp_chk(" + Base + ")";
      }
      unsigned Index =
          BaseType->isUnion() ? 0 : static_cast<unsigned>(F->getFieldIndex());
      return elemAccess(Base, std::to_string(Index), E->getType());
    }
    case ExprKind::Index: {
      const IndexExpr *I = ast_cast<IndexExpr>(E);
      std::string Base = emitExpr(Proc, I->getBase(), Body);
      std::string Index = emitExpr(Proc, I->getIndex(), Body);
      if (Options.EmitSafetyChecks) {
        std::string T = newTemp();
        Body << "  " << T << " = esp_chk(" << Base << ");\n";
        return elemAccess(T, "esp_chk_idx(" + T + ", " + Index + ")",
                          E->getType());
      }
      return elemAccess(Base, Index, E->getType());
    }
    case ExprKind::Unary: {
      const UnaryExpr *U = ast_cast<UnaryExpr>(E);
      std::string Sub = emitExpr(Proc, U->getSub(), Body);
      return std::string(U->getOp() == UnaryOp::Not ? "(!" : "esp_neg(") +
             Sub + ")";
    }
    case ExprKind::Binary: {
      const BinaryExpr *B = ast_cast<BinaryExpr>(E);
      std::string L = emitExpr(Proc, B->getLHS(), Body);
      std::string R = emitExpr(Proc, B->getRHS(), Body);
      if (const char *Helper = arithHelper(B->getOp()))
        return std::string(Helper) + "(" + L + ", " + R + ")";
      return "(" + L + " " + binaryOpSpelling(B->getOp()) + " " + R + ")";
    }
    case ExprKind::RecordLit: {
      const RecordLitExpr *R = ast_cast<RecordLitExpr>(E);
      std::string T = newTemp();
      Body << "  " << T << " = esp_alloc(&esp_ty"
           << Types.idFor(E->getType()) << ", " << R->getElems().size()
           << ");\n";
      for (size_t I = 0; I != R->getElems().size(); ++I) {
        const Expr *Elem = R->getElems()[I];
        std::string V = emitExpr(Proc, Elem, Body);
        Body << "  " << T << "->elems[" << I << "]."
             << valField(Elem->getType()) << " = " << V << ";\n";
        if (Elem->getType()->isAggregate() && !exprIsAllocation(Elem))
          Body << "  esp_link(" << T << "->elems[" << I << "].o);\n";
      }
      return T;
    }
    case ExprKind::UnionLit: {
      const UnionLitExpr *U = ast_cast<UnionLitExpr>(E);
      std::string T = newTemp();
      Body << "  " << T << " = esp_alloc(&esp_ty"
           << Types.idFor(E->getType()) << ", 1);\n";
      Body << "  " << T << "->arm = " << U->getFieldIndex() << ";\n";
      std::string V = emitExpr(Proc, U->getValue(), Body);
      Body << "  " << T << "->elems[0]."
           << valField(U->getValue()->getType()) << " = " << V << ";\n";
      if (U->getValue()->getType()->isAggregate() &&
          !exprIsAllocation(U->getValue()))
        Body << "  esp_link(" << T << "->elems[0].o);\n";
      return T;
    }
    case ExprKind::ArrayLit: {
      const ArrayLitExpr *A = ast_cast<ArrayLitExpr>(E);
      std::string Size = emitExpr(Proc, A->getSize(), Body);
      std::string T = newTemp();
      Body << "  " << T << " = esp_alloc(&esp_ty"
           << Types.idFor(E->getType()) << ", (unsigned)(" << Size
           << "));\n";
      std::string Init = emitExpr(Proc, A->getInit(), Body);
      const Type *ElemType = A->getInit()->getType();
      Body << "  { unsigned esp_i; for (esp_i = 0; esp_i < " << T
           << "->n; esp_i++) { " << T << "->elems[esp_i]."
           << valField(ElemType) << " = " << Init << ";";
      if (ElemType->isAggregate())
        Body << " esp_link(" << T << "->elems[esp_i].o);";
      Body << " } }\n";
      if (ElemType->isAggregate())
        // One creation reference is donated when the init was fresh;
        // otherwise the element links above already account for all N.
        Body << "  "
             << (exprIsAllocation(A->getInit())
                     ? "esp_unlink(" + Init + ");\n"
                     : std::string());
      return T;
    }
    case ExprKind::Cast: {
      const CastExpr *C = ast_cast<CastExpr>(E);
      std::string Sub = emitExpr(Proc, C->getSub(), Body);
      std::string T = newTemp();
      Body << "  " << T << " = esp_copy(" << Sub << ");\n";
      if (exprIsAllocation(C->getSub()))
        Body << "  esp_unlink(" << Sub << ");\n";
      return T;
    }
    }
    return "0";
  }

  std::string newTemp() {
    std::string Name = "t";
    Name += std::to_string(TempCounter++);
    TempDecls << "  esp_obj *" << Name << ";\n";
    return Name;
  }

  //===--- Pattern compilation ----------------------------------------------===//

  /// Emits a C condition that is true when \p ValueExpr (of the pattern's
  /// component type) matches \p Pat. Match-expression leaves are compiled
  /// in \p ReaderProc's context.
  std::string matchCond(unsigned ReaderProc, const Pattern *Pat,
                        const std::string &ValueExpr, std::ostream &Body) {
    switch (Pat->getKind()) {
    case PatternKind::Bind:
      return "1";
    case PatternKind::Match: {
      std::string Expected = emitExpr(
          ReaderProc, ast_cast<MatchPattern>(Pat)->getValue(), Body);
      return "(" + ValueExpr + " == " + Expected + ")";
    }
    case PatternKind::Record: {
      const RecordPattern *R = ast_cast<RecordPattern>(Pat);
      std::string Cond = "1";
      for (size_t I = 0; I != R->getElems().size(); ++I) {
        const Pattern *Sub = R->getElems()[I];
        Cond += " && " + matchCond(ReaderProc, Sub,
                                   elemAccess(ValueExpr, std::to_string(I),
                                              Sub->getType()),
                                   Body);
      }
      return "(" + Cond + ")";
    }
    case PatternKind::Union: {
      const UnionPattern *U = ast_cast<UnionPattern>(Pat);
      return "((" + ValueExpr +
             ")->arm == " + std::to_string(U->getFieldIndex()) + " && " +
             matchCond(ReaderProc, U->getSub(),
                       elemAccess(ValueExpr, "0", U->getSub()->getType()),
                       Body) +
             ")";
    }
    }
    return "0";
  }

  /// Emits the statements binding \p Pat's binders from \p ValueExpr into
  /// \p Proc's locals. A receive acquires the receiver's reference to each
  /// bound aggregate (rc++, §6.1); a local destructure, like every
  /// assignment, manages no counts.
  void emitBinds(unsigned Proc, const Pattern *Pat,
                 const std::string &ValueExpr, bool Receive,
                 std::ostream &Body) {
    const char *Indent = Receive ? "      " : "  ";
    forEachBinder(Pat, ValueExpr,
                  [&](const BindPattern *B, const std::string &Access) {
                    std::string Var = varName(Proc, B->getVar());
                    Body << Indent << Var << " = " << Access << ";\n";
                    if (Receive && B->getType()->isAggregate())
                      Body << Indent << "esp_link(" << Var << ");\n";
                  });
  }

  //===--- Process bodies ----------------------------------------------------===//

  void emitProcess(unsigned P, std::ostream &Decls, std::ostream &Out) {
    const ProcIR &PIR = Module.Procs[P];
    // Locals in the static region (§4.3: processes need no stack).
    for (const std::unique_ptr<VarInfo> &V : PIR.Proc->Vars)
      Decls << "static " << cType(V->VarType) << varName(P, V.get())
            << "; /* " << PIR.Proc->Name << "." << V->Name << " */\n";

    std::ostringstream Body;
    TempDecls.str("");
    TempCounter = 0;
    for (unsigned I = 0; I != PIR.Insts.size(); ++I) {
      const Inst &Ins = PIR.Insts[I];
      Body << "P" << P << "_I" << I << ":\n";
      switch (Ins.Kind) {
      case InstKind::DeclInit: {
        std::string V = emitExpr(P, Ins.RHS, Body);
        Body << "  " << varName(P, Ins.Var) << " = " << V << ";\n";
        break;
      }
      case InstKind::Store:
        emitStore(P, Ins, Body);
        break;
      case InstKind::Branch: {
        std::string Cond = emitExpr(P, Ins.Cond, Body);
        Body << "  if (!(" << Cond << ")) goto P" << P << "_I" << Ins.Target
             << ";\n";
        break;
      }
      case InstKind::Jump:
        Body << "  goto P" << P << "_I" << Ins.Target << ";\n";
        break;
      case InstKind::Link: {
        std::string V = emitExpr(P, Ins.RHS, Body);
        Body << "  esp_link(" << V << ");\n";
        break;
      }
      case InstKind::Unlink: {
        std::string V = emitExpr(P, Ins.RHS, Body);
        Body << "  esp_unlink(" << V << ");\n";
        break;
      }
      case InstKind::Assert: {
        std::string Cond = emitExpr(P, Ins.Cond, Body);
        Body << "  if (!(" << Cond << ")) esp_panic(\"assertion failed in "
             << PIR.Proc->Name << "\");\n";
        break;
      }
      case InstKind::Block: {
        Body << "  esp_pc[" << P << "] = " << I << ";\n";
        Body << "  esp_enabled[" << P << "] = 0;\n";
        for (size_t C = 0; C != Ins.Cases.size(); ++C) {
          const IRCase &Case = Ins.Cases[C];
          if (Case.Guard) {
            std::string G = emitExpr(P, Case.Guard, Body);
            Body << "  if (" << G << ") esp_enabled[" << P << "] |= "
                 << (1u << C) << "u;\n";
          } else {
            Body << "  esp_enabled[" << P << "] |= " << (1u << C) << "u;\n";
          }
          if (!Case.IsIn)
            Body << "  " << prepValidName(P, I, C) << " = 0;\n";
          if (!Case.IsIn && !Case.LazyOut) {
            Body << "  if (esp_enabled[" << P << "] & " << (1u << C)
                 << "u) {\n";
            emitPrepare(P, I, static_cast<unsigned>(C), Case, Body);
            Body << "  }\n";
          }
        }
        Body << "  esp_status[" << P << "] = ESP_BLOCKED;\n";
        Body << "  return;\n";
        break;
      }
      case InstKind::Halt:
        Body << "  esp_status[" << P << "] = ESP_DONE;\n";
        Body << "  return;\n";
        break;
      }
    }

    Out << "static void esp_run_P" << P << "(void) { /* process "
        << PIR.Proc->Name << " */\n";
    Out << TempDecls.str();
    Out << "  switch (esp_pc[" << P << "]) {\n";
    for (unsigned I = 0; I != PIR.Insts.size(); ++I)
      Out << "  case " << I << ": goto P" << P << "_I" << I << ";\n";
    Out << "  }\n";
    Out << Body.str();
    Out << "}\n\n";
  }

  void emitPrepare(unsigned P, unsigned I, unsigned C, const IRCase &Case,
                   std::ostream &Body) {
    if (Case.ElideRecordAlloc) {
      const RecordLitExpr *R = ast_cast<RecordLitExpr>(Case.Out);
      for (size_t F = 0; F != R->getElems().size(); ++F) {
        std::string V = emitExpr(P, R->getElems()[F], Body);
        Body << "    " << prepName(P, I, C, static_cast<int>(F)) << " = "
             << V << ";\n";
      }
    } else {
      std::string V = emitExpr(P, Case.Out, Body);
      Body << "    " << prepName(P, I, C) << " = " << V << ";\n";
    }
    Body << "    " << prepValidName(P, I, C) << " = 1;\n";
  }

  void emitStore(unsigned P, const Inst &Ins, std::ostream &Body) {
    std::string RHS = emitExpr(P, Ins.RHS, Body);
    if (Ins.PlainStore) {
      const Expr *Target = ast_cast<MatchPattern>(Ins.LHS)->getValue();
      if (const VarRefExpr *V = ast_dyn_cast<VarRefExpr>(Target)) {
        Body << "  " << varName(P, V->getVar()) << " = " << RHS << ";\n";
        return;
      }
      if (const FieldExpr *F = ast_dyn_cast<FieldExpr>(Target)) {
        std::string Base = emitExpr(P, F->getBase(), Body);
        if (Options.EmitSafetyChecks)
          Base = "esp_chk(" + Base + ")";
        std::string Index = std::to_string(F->getFieldIndex());
        if (F->getBase()->getType()->isUnion()) {
          Body << "  (" << Base << ")->arm = " << Index << ";\n";
          Index = "0";
        }
        Body << "  " << elemAccess(Base, Index, Target->getType()) << " = "
             << RHS << ";\n";
        return;
      }
      const IndexExpr *Ix = ast_cast<IndexExpr>(Target);
      std::string Base = emitExpr(P, Ix->getBase(), Body);
      std::string Index = emitExpr(P, Ix->getIndex(), Body);
      if (Options.EmitSafetyChecks) {
        std::string T = newTemp();
        Body << "  " << T << " = esp_chk(" << Base << ");\n";
        Body << "  " << T << "->elems[esp_chk_idx(" << T << ", " << Index
             << ")]." << valField(Target->getType()) << " = " << RHS
             << ";\n";
        return;
      }
      Body << "  " << elemAccess(Base, Index, Target->getType()) << " = "
           << RHS << ";\n";
      return;
    }
    // Destructuring match.
    std::string Cond = matchCond(P, Ins.LHS, RHS, Body);
    Body << "  if (!" << Cond << ") esp_panic(\"match failed in "
         << Module.Procs[P].Proc->Name << "\");\n";
    emitBinds(P, Ins.LHS, RHS, /*Receive=*/false, Body);
    if (exprIsAllocation(Ins.RHS))
      Body << "  esp_unlink(" << RHS << ");\n";
  }

  //===--- Channel endpoints -------------------------------------------------===//

  void collectEndpoints() {
    InEndpoints.clear();
    OutEndpoints.clear();
    for (unsigned P = 0; P != Module.Procs.size(); ++P) {
      const ProcIR &PIR = Module.Procs[P];
      for (unsigned I = 0; I != PIR.Insts.size(); ++I) {
        if (PIR.Insts[I].Kind != InstKind::Block)
          continue;
        for (unsigned C = 0; C != PIR.Insts[I].Cases.size(); ++C) {
          const IRCase &Case = PIR.Insts[I].Cases[C];
          Endpoint Ep{P, I, C, &Case};
          if (Case.IsIn)
            InEndpoints[Case.Channel].push_back(Ep);
          else
            OutEndpoints[Case.Channel].push_back(Ep);
        }
      }
    }
  }

  void emitPreparedDecls(std::ostream &Out) {
    for (auto &Entry : OutEndpoints) {
      for (const Endpoint &Ep : Entry.second) {
        Out << "static int "
            << prepValidName(Ep.Proc, Ep.InstIndex, Ep.CaseIndex) << ";\n";
        if (Ep.Case->ElideRecordAlloc) {
          const RecordLitExpr *R = ast_cast<RecordLitExpr>(Ep.Case->Out);
          for (size_t F = 0; F != R->getElems().size(); ++F)
            Out << "static " << cType(R->getElems()[F]->getType())
                << prepName(Ep.Proc, Ep.InstIndex, Ep.CaseIndex,
                            static_cast<int>(F))
                << ";\n";
        } else {
          Out << "static " << cType(Entry.first->ElemType)
              << prepName(Ep.Proc, Ep.InstIndex, Ep.CaseIndex) << ";\n";
        }
      }
    }
    Out << "\n";
  }

  /// Emits `if (!prepv) { prep = ...; prepv = 1; }` for lazy out cases.
  void emitEnsurePrepared(const Endpoint &Ep, std::ostream &Body) {
    Body << "    if (!" << prepValidName(Ep.Proc, Ep.InstIndex, Ep.CaseIndex)
         << ") {\n";
    emitPrepare(Ep.Proc, Ep.InstIndex, Ep.CaseIndex, *Ep.Case, Body);
    Body << "    }\n";
  }

  /// Emits the drop of writer endpoint \p W's prepared value(s): the
  /// unlink of each fresh allocation (its creation reference), then the
  /// clear of the valid flag.
  void emitDropOut(const Endpoint &W, const char *Indent, std::ostream &Body) {
    if (W.Case->ElideRecordAlloc) {
      const RecordLitExpr *R = ast_cast<RecordLitExpr>(W.Case->Out);
      for (size_t F = 0; F != R->getElems().size(); ++F)
        if (exprIsAllocation(R->getElems()[F]))
          Body << Indent << "esp_unlink("
               << prepName(W.Proc, W.InstIndex, W.CaseIndex,
                           static_cast<int>(F))
               << ");\n";
    } else if (exprIsAllocation(W.Case->Out)) {
      Body << Indent << "esp_unlink("
           << prepName(W.Proc, W.InstIndex, W.CaseIndex) << ");\n";
    }
    Body << Indent << prepValidName(W.Proc, W.InstIndex, W.CaseIndex)
         << " = 0;\n";
  }

  /// Emits the drop of the prepared out values of (Proc, Inst) except
  /// \p WinnerCase's.
  void emitReleaseLosing(unsigned Proc, unsigned InstIndex, int WinnerCase,
                         std::ostream &Body) {
    const Inst &I = Module.Procs[Proc].Insts[InstIndex];
    for (unsigned C = 0; C != I.Cases.size(); ++C) {
      if (static_cast<int>(C) == WinnerCase || I.Cases[C].IsIn)
        continue;
      Body << "      if (" << prepValidName(Proc, InstIndex, C) << ") {\n";
      emitDropOut({Proc, InstIndex, C, &I.Cases[C]}, "        ", Body);
      Body << "      }\n";
    }
  }

  /// Emits the resumption of endpoint \p Ep's process at its case's
  /// target.
  void emitResume(const Endpoint &Ep, std::ostream &Body) {
    Body << "      esp_pc[" << Ep.Proc << "] = " << Ep.Case->Target << ";\n";
    Body << "      esp_status[" << Ep.Proc << "] = ESP_READY;\n";
  }

  /// The C condition that \p Ep's process is blocked at Ep's block point
  /// with Ep's case enabled.
  static std::string waitingAt(const Endpoint &Ep) {
    std::string P = std::to_string(Ep.Proc);
    return "esp_status[" + P + "] == ESP_BLOCKED && esp_pc[" + P +
           "] == " + std::to_string(Ep.InstIndex) + " && (esp_enabled[" + P +
           "] & " + std::to_string(1u << Ep.CaseIndex) + "u)";
  }

  /// The committed transfer from writer endpoint \p W to reader endpoint
  /// \p R. Assumes the writer's prepared values are valid.
  void emitCommit(const Endpoint &W, const Endpoint &R, std::ostream &Body) {
    // Bind the reader's pattern from the prepared value(s).
    if (W.Case->ElideRecordAlloc) {
      const RecordPattern *RP = ast_cast<RecordPattern>(R.Case->Pat);
      for (size_t F = 0; F != RP->getElems().size(); ++F)
        emitBinds(R.Proc, RP->getElems()[F],
                  prepName(W.Proc, W.InstIndex, W.CaseIndex,
                           static_cast<int>(F)),
                  /*Receive=*/true, Body);
    } else {
      emitBinds(R.Proc, R.Case->Pat,
                prepName(W.Proc, W.InstIndex, W.CaseIndex), /*Receive=*/true,
                Body);
    }
    emitDropOut(W, "      ", Body);
    emitReleaseLosing(W.Proc, W.InstIndex, static_cast<int>(W.CaseIndex),
                      Body);
    emitReleaseLosing(R.Proc, R.InstIndex, -1, Body);
    emitResume(W, Body);
    emitResume(R, Body);
    Body << "      esp_rendezvous++;\n";
  }

  /// Generates esp_try_pair_p<P>_i<I>() for one block point.
  void emitPairFunction(unsigned P, unsigned InstIndex, const Inst &I,
                        std::ostream &Out) {
    Out << "static int esp_try_pair_p" << P << "_i" << InstIndex
        << "(void) {\n";
    TempDecls.str("");
    std::ostringstream Body;
    for (unsigned C = 0; C != I.Cases.size(); ++C) {
      const IRCase &Case = I.Cases[C];
      Endpoint Self{P, InstIndex, C, &Case};
      Body << "  if (esp_enabled[" << P << "] & " << (1u << C)
           << "u) { /* case " << C << " on " << Case.Channel->Name
           << " */\n";
      // One loop over the partners of either direction: the writer's
      // value is prepared and matched against the reader's pattern.
      for (const Endpoint &Other :
           (Case.IsIn ? OutEndpoints : InEndpoints)[Case.Channel]) {
        if (Other.Proc == P)
          continue;
        const Endpoint &W = Case.IsIn ? Other : Self;
        const Endpoint &R = Case.IsIn ? Self : Other;
        Body << "    if (" << waitingAt(Other) << ") {\n";
        bool CommitTimePrep = W.Case->LazyOut && W.Case->MatchFree;
        std::string Cond = "1";
        if (!CommitTimePrep) {
          emitEnsurePrepared(W, Body);
          Cond = matchValueAgainst(R, W, Body);
        }
        Body << "    if (" << Cond << ") {\n";
        if (CommitTimePrep)
          emitEnsurePrepared(W, Body);
        emitCommit(W, R, Body);
        Body << "      esp_push_ready(" << Other.Proc << ");\n";
        Body << "      esp_push_ready(" << P << ");\n";
        Body << "      return 1;\n";
        Body << "    }\n";
        Body << "    }\n";
      }
      if (!Case.IsIn && Case.Channel->Role == ChannelRole::ExternalReader)
        emitExternalOut(Self, Body);
      Body << "  }\n";
    }
    Body << "  return 0;\n";
    Out << TempDecls.str();
    Out << Body.str();
    Out << "}\n\n";
  }

  /// Emits the condition matching reader endpoint \p R's pattern against
  /// writer endpoint \p W's prepared value(s).
  std::string matchValueAgainst(const Endpoint &R, const Endpoint &W,
                                std::ostream &Setup) {
    if (W.Case->ElideRecordAlloc) {
      const RecordPattern *RP = ast_cast<RecordPattern>(R.Case->Pat);
      std::string Cond = "1";
      for (size_t F = 0; F != RP->getElems().size(); ++F)
        Cond += " && " + matchCond(R.Proc, RP->getElems()[F],
                                   prepName(W.Proc, W.InstIndex,
                                            W.CaseIndex,
                                            static_cast<int>(F)),
                                   Setup);
      return "(" + Cond + ")";
    }
    return matchCond(R.Proc, R.Case->Pat,
                     prepName(W.Proc, W.InstIndex, W.CaseIndex), Setup);
  }

  //===--- External interfaces ------------------------------------------------===//

  /// Emits the build of a channel value from an external-writer interface
  /// case pattern, calling the user's fill function.
  std::string emitBuildFromInterface(const InterfaceDecl *Iface,
                                     const InterfaceCase &Case,
                                     std::ostream &Body) {
    // Declare parameter slots and call the user function.
    std::string ArgList;
    size_t NumArgs = 0;
    forEachBinder(Case.Pat, "", [&](const BindPattern *B, const std::string &) {
      std::string Name = "arg" + std::to_string(NumArgs++);
      Body << "    " << cType(B->getType()) << Name << " = 0;\n";
      if (!ArgList.empty())
        ArgList += ", ";
      ArgList += "&" + Name;
    });
    Body << "    " << ifaceFnName(Iface, Case) << "(" << ArgList << ");\n";
    size_t Next = 0;
    return buildPatternValue(Case.Pat, Next, Body);
  }

  std::string buildPatternValue(const Pattern *Pat, size_t &Next,
                                std::ostream &Body) {
    switch (Pat->getKind()) {
    case PatternKind::Bind:
      return "arg" + std::to_string(Next++);
    case PatternKind::Match: {
      std::optional<int64_t> V =
          tryEvalStatic(ast_cast<MatchPattern>(Pat)->getValue(), nullptr);
      return intLit(V ? *V : 0);
    }
    case PatternKind::Record: {
      const RecordPattern *R = ast_cast<RecordPattern>(Pat);
      std::string T = "b" + std::to_string(BuildCounter++);
      Body << "    esp_obj *" << T << " = esp_alloc(&esp_ty"
           << Types.idFor(Pat->getType()) << ", " << R->getElems().size()
           << ");\n";
      for (size_t I = 0; I != R->getElems().size(); ++I) {
        std::string V = buildPatternValue(R->getElems()[I], Next, Body);
        Body << "    " << T << "->elems[" << I << "]."
             << valField(R->getElems()[I]->getType()) << " = " << V
             << ";\n";
      }
      return T;
    }
    case PatternKind::Union: {
      const UnionPattern *U = ast_cast<UnionPattern>(Pat);
      std::string T = "b" + std::to_string(BuildCounter++);
      Body << "    esp_obj *" << T << " = esp_alloc(&esp_ty"
           << Types.idFor(Pat->getType()) << ", 1);\n";
      Body << "    " << T << "->arm = " << U->getFieldIndex() << ";\n";
      std::string V = buildPatternValue(U->getSub(), Next, Body);
      Body << "    " << T << "->elems[0]."
           << valField(U->getSub()->getType()) << " = " << V << ";\n";
      return T;
    }
    }
    return "0";
  }

  /// Out-case to an external reader: dispatch over interface cases.
  void emitExternalOut(const Endpoint &Self, std::ostream &Body) {
    const InterfaceDecl *Iface = Self.Case->Channel->Interface;
    Body << "    if (" << Iface->Name << "IsReady()) {\n";
    emitEnsurePrepared(Self, Body);
    std::string V = prepName(Self.Proc, Self.InstIndex, Self.CaseIndex);
    for (const InterfaceCase &Case : Iface->Cases) {
      std::string Cond = matchCond(Self.Proc, Case.Pat, V, Body);
      Body << "    if (" << Cond << ") {\n";
      // Pass the binder values to the user's consume function.
      std::string Args;
      forEachBinder(Case.Pat, V,
                    [&](const BindPattern *, const std::string &Access) {
                      if (!Args.empty())
                        Args += ", ";
                      Args += Access;
                    });
      Body << "      " << ifaceFnName(Iface, Case) << "(" << Args << ");\n";
      emitDropOut(Self, "      ", Body);
      emitReleaseLosing(Self.Proc, Self.InstIndex,
                        static_cast<int>(Self.CaseIndex), Body);
      emitResume(Self, Body);
      Body << "      esp_push_ready(" << Self.Proc << ");\n";
      Body << "      return 1;\n";
      Body << "    }\n";
    }
    Body << "    }\n";
  }

  /// Polls all external-writer channels, building and delivering one
  /// message if possible.
  void emitPollExternals(std::ostream &Out) {
    TempDecls.str("");
    std::ostringstream Body;
    for (const std::unique_ptr<InterfaceDecl> &Iface :
         Module.Prog->Interfaces) {
      if (!Iface->ExternalWrites)
        continue;
      const ChannelDecl *Chan = Iface->Channel;
      // A case function consumes the message, so it is called only when
      // some reader waits on the channel; otherwise the message stays
      // with the external side for a later poll, as on the machine.
      const std::vector<Endpoint> &Readers = InEndpoints[Chan];
      if (Readers.empty())
        continue;
      // A built message that no waiting reader admitted: its case number
      // (0 for none) and value. It is offered again, before the external
      // side is asked for another, as the machine re-offers what its
      // writer produced until a reader accepts it.
      const std::string Pend = "esp_pend_" + Iface->Name;
      Out << "static int " << Pend << " = 0;\n";
      Out << "static esp_val " << Pend << "_v;\n";
      Body << "  if (";
      for (size_t R = 0; R != Readers.size(); ++R)
        Body << (R ? " ||\n      " : "") << "(" << waitingAt(Readers[R])
             << ")";
      Body << ") { int c = " << Pend << " ? " << Pend << " : "
           << Iface->Name << "IsReady();\n";
      for (size_t C = 0; C != Iface->Cases.size(); ++C) {
        const Type *MsgType = Iface->Cases[C].Pat->getType();
        const std::string V = std::string("m.") + valField(MsgType);
        Body << "  if (c == " << (C + 1) << ") {\n";
        Body << "    esp_val m;\n";
        Body << "    if (" << Pend << ") { m = " << Pend << "_v; " << Pend
             << " = 0; } else {\n";
        const std::string Built =
            emitBuildFromInterface(Iface.get(), Iface->Cases[C], Body);
        Body << "    " << V << " = " << Built << ";\n";
        Body << "    }\n";
        // The built message's creation reference; a scalar has none.
        bool Fresh = MsgType->isAggregate();
        // Try every reader endpoint on this channel.
        for (const Endpoint &R : Readers) {
          Body << "    if (" << waitingAt(R) << ") {\n";
          std::string Cond = matchCond(R.Proc, R.Case->Pat, V, Body);
          Body << "    if (" << Cond << ") {\n";
          emitBinds(R.Proc, R.Case->Pat, V, /*Receive=*/true, Body);
          if (Fresh)
            Body << "      esp_unlink(" << V << ");\n";
          emitReleaseLosing(R.Proc, R.InstIndex, -1, Body);
          emitResume(R, Body);
          Body << "      esp_push_ready(" << R.Proc << ");\n";
          Body << "      esp_rendezvous++;\n";
          Body << "      return 1;\n";
          Body << "    }\n";
          Body << "    }\n";
        }
        Body << "    " << Pend << " = " << (C + 1) << "; " << Pend
             << "_v = m; /* no waiting reader admits it */\n";
        Body << "  }\n";
      }
      Body << "  }\n";
    }
    Body << "  return 0;\n";
    Out << "static int esp_poll_externals(void) {\n";
    Out << TempDecls.str();
    Out << Body.str();
    Out << "}\n\n";
  }

  //===--- Top-level structure -------------------------------------------------===//

  void emitPrelude(std::ostream &Out) {
    Out << "/* Generated by espc (esplang, PLDI 2001 ESP reproduction). */\n"
        << "#include <stdint.h>\n#include <stdio.h>\n#include <stdlib.h>\n"
        << "#include <string.h>\n\n"
        << "#define ESP_SAFETY " << (Options.EmitSafetyChecks ? 1 : 0)
        << "\n\n"
        << "typedef struct esp_obj esp_obj;\n"
        << "typedef union esp_val { long long i; esp_obj *o; } esp_val;\n"
        << "typedef struct esp_type { int kind; unsigned nfields; const "
           "unsigned char *is_ref; int elem_is_ref; } esp_type;\n"
        << "struct esp_obj { const esp_type *ty; unsigned rc; int arm; "
           "unsigned n; int freed; esp_val *elems; };\n\n"
        << "static unsigned long long esp_alloc_count = 0;\n"
        << "static long long esp_live = 0;\n"
        << "static unsigned long long esp_rendezvous = 0;\n"
        << "static unsigned long long esp_ctx_switches = 0;\n\n"
        << "void esp_panic(const char *msg) {\n"
        << "  fprintf(stderr, \"esp_panic: %s\\n\", msg);\n"
        << "  exit(2);\n}\n\n"
        << "/* ESP integer semantics (support/IntArith.h): 64-bit two's\n"
           "   complement that wraps, INT64_MIN / -1 = INT64_MIN and\n"
           "   INT64_MIN % -1 = 0; division by zero is an error. */\n"
        << "static long long esp_add(long long a, long long b) {\n"
        << "  return (long long)((unsigned long long)a + "
           "(unsigned long long)b);\n}\n"
        << "static long long esp_sub(long long a, long long b) {\n"
        << "  return (long long)((unsigned long long)a - "
           "(unsigned long long)b);\n}\n"
        << "static long long esp_mul(long long a, long long b) {\n"
        << "  return (long long)((unsigned long long)a * "
           "(unsigned long long)b);\n}\n"
        << "static long long esp_neg(long long a) {\n"
        << "  return (long long)(0ULL - (unsigned long long)a);\n}\n"
        << "static long long esp_div(long long a, long long b) {\n"
        << "  if (b == 0) esp_panic(\"division by zero\");\n"
        << "  return b == -1 ? esp_neg(a) : a / b;\n}\n"
        << "static long long esp_mod(long long a, long long b) {\n"
        << "  if (b == 0) esp_panic(\"division by zero\");\n"
        << "  return b == -1 ? 0 : a % b;\n}\n\n"
        << "static esp_obj *esp_alloc(const esp_type *ty, unsigned n) {\n"
        << "  esp_obj *o = (esp_obj *)malloc(sizeof(esp_obj));\n"
        << "  o->ty = ty; o->rc = 1; o->arm = -1; o->n = n; o->freed = 0;\n"
        << "  o->elems = n ? (esp_val *)calloc(n, sizeof(esp_val)) : 0;\n"
        << "  esp_alloc_count++; esp_live++;\n"
        << "  return o;\n}\n\n"
        << "static void esp_unlink(esp_obj *o);\n"
        << "static void esp_free_obj(esp_obj *o) {\n"
        << "  unsigned i; esp_live--;\n"
        << "  for (i = 0; i < o->n; i++) {\n"
        << "    int isref = o->ty->kind == 2 ? o->ty->elem_is_ref\n"
        << "              : o->ty->kind == 1 ? (o->arm >= 0 && "
           "o->ty->is_ref[o->arm])\n"
        << "              : o->ty->is_ref[i];\n"
        << "    if (isref && o->elems[i].o) esp_unlink(o->elems[i].o);\n"
        << "  }\n"
        << "#if ESP_SAFETY\n"
        << "  /* Safety builds quarantine freed objects so stale uses trap\n"
        << "     (the assertions the verifier relies on, section 5.2). */\n"
        << "  o->freed = 1;\n"
        << "#else\n"
        << "  free(o->elems); free(o);\n"
        << "#endif\n}\n\n"
        << "#if ESP_SAFETY\n"
        << "static void esp_unlink(esp_obj *o) {\n"
        << "  if (!o || o->freed || o->rc == 0) esp_panic(\"unlink of freed "
           "object\");\n"
        << "  if (--o->rc == 0) esp_free_obj(o);\n}\n"
        << "static void esp_link(esp_obj *o) {\n"
        << "  if (!o || o->freed) esp_panic(\"link of freed object\");\n"
        << "  o->rc++;\n}\n"
        << "static esp_obj *esp_chk(esp_obj *o) {\n"
        << "  if (!o || o->freed) esp_panic(\"use after free\");\n"
        << "  return o;\n}\n"
        << "static esp_obj *esp_chk_arm(esp_obj *o, int arm) {\n"
        << "  o = esp_chk(o);\n"
        << "  if (o->arm != arm) esp_panic(\"invalid union field "
           "access\");\n"
        << "  return o;\n}\n"
        << "static unsigned esp_chk_idx(esp_obj *o, long long i) {\n"
        << "  if (i < 0 || i >= (long long)o->n) esp_panic(\"array index "
           "out of bounds\");\n"
        << "  return (unsigned)i;\n}\n"
        << "#else\n"
        << "static void esp_unlink(esp_obj *o) { if (--o->rc == 0) "
           "esp_free_obj(o); }\n"
        << "static void esp_link(esp_obj *o) { o->rc++; }\n"
        << "#endif\n\n"
        << "static esp_obj *esp_copy(esp_obj *o) {\n"
        << "  unsigned i;\n"
        << "  esp_obj *c = esp_alloc(o->ty, o->n);\n"
        << "  c->arm = o->arm;\n"
        << "  for (i = 0; i < o->n; i++) {\n"
        << "    int isref = o->ty->kind == 2 ? o->ty->elem_is_ref\n"
        << "              : o->ty->kind == 1 ? (o->arm >= 0 && "
           "o->ty->is_ref[o->arm])\n"
        << "              : o->ty->is_ref[i];\n"
        << "    if (isref && o->elems[i].o) c->elems[i].o = "
           "esp_copy(o->elems[i].o);\n"
        << "    else c->elems[i] = o->elems[i];\n"
        << "  }\n"
        << "  return c;\n}\n\n"
        << "enum { ESP_READY = 0, ESP_BLOCKED = 1, ESP_DONE = 2 };\n"
        << "enum { ESP_RES_PROGRESS = 0, ESP_RES_QUIESCENT = 1, "
           "ESP_RES_HALTED = 2 };\n"
        << "#define ESP_NPROCS " << Module.Procs.size() << "\n"
        << "static int esp_status[ESP_NPROCS];\n"
        << "static int esp_pc[ESP_NPROCS];\n"
        << "static unsigned esp_enabled[ESP_NPROCS];\n"
        << "/* FIFO ready ring: prevents starvation (section 4.2 requires\n"
        << "   the runtime to avoid starving ready processes). */\n"
        << "#define ESP_QCAP (8 * ESP_NPROCS + 8)\n"
        << "static int esp_ready_q[ESP_QCAP];\n"
        << "static unsigned esp_q_head = 0, esp_q_tail = 0;\n"
        << "static int esp_last_run = -1;\n"
        << "static void esp_push_ready(int p) {\n"
        << "  if (esp_q_tail - esp_q_head < ESP_QCAP)\n"
        << "    esp_ready_q[esp_q_tail++ % ESP_QCAP] = p;\n}\n"
        << "static int esp_pop_ready(void) {\n"
        << "  while (esp_q_head != esp_q_tail) {\n"
        << "    int p = esp_ready_q[esp_q_head++ % ESP_QCAP];\n"
        << "    if (esp_status[p] == ESP_READY) return p;\n"
        << "  }\n  return -1;\n}\n\n"
        << "unsigned long long esp_stat_allocs(void) { return "
           "esp_alloc_count; }\n"
        << "long long esp_stat_live(void) { return esp_live; }\n"
        << "unsigned long long esp_stat_rendezvous(void) { return "
           "esp_rendezvous; }\n"
        << "unsigned long long esp_stat_ctx_switches(void) { return "
           "esp_ctx_switches; }\n\n";
  }

  void emitPairFunctions(std::ostream &Out) {
    for (unsigned P = 0; P != Module.Procs.size(); ++P) {
      const ProcIR &PIR = Module.Procs[P];
      for (unsigned I = 0; I != PIR.Insts.size(); ++I)
        if (PIR.Insts[I].Kind == InstKind::Block)
          emitPairFunction(P, I, PIR.Insts[I], Out);
    }
  }

  void emitScheduler(std::ostream &Out) {
    emitPollExternals(Out);

    Out << "static void esp_run_proc(int p) {\n  switch (p) {\n";
    for (unsigned P = 0; P != Module.Procs.size(); ++P)
      Out << "  case " << P << ": esp_run_P" << P << "(); break;\n";
    Out << "  }\n}\n\n";

    Out << "static int esp_try_pair(int p) {\n  switch (p) {\n";
    for (unsigned P = 0; P != Module.Procs.size(); ++P) {
      Out << "  case " << P << ": switch (esp_pc[" << P << "]) {\n";
      const ProcIR &PIR = Module.Procs[P];
      for (unsigned I = 0; I != PIR.Insts.size(); ++I)
        if (PIR.Insts[I].Kind == InstKind::Block)
          Out << "    case " << I << ": return esp_try_pair_p" << P << "_i"
              << I << "();\n";
      Out << "    }\n    return 0;\n";
    }
    Out << "  }\n  return 0;\n}\n\n";

    Out << "void esp_start(void) {\n"
        << "  int i;\n"
        << "  for (i = 0; i < ESP_NPROCS; i++) {\n"
        << "    esp_status[i] = ESP_READY; esp_pc[i] = 0;\n"
        << "  }\n"
        << "  for (i = 0; i < ESP_NPROCS; i++) esp_run_proc(i);\n"
        << "}\n\n";

    Out << "int esp_sched_step(void) {\n"
        << "  int p = esp_pop_ready();\n"
        << "  if (p < 0) {\n"
        << "    int i, all_done = 1, paired = 0;\n"
        << "    for (i = 0; i < ESP_NPROCS; i++)\n"
        << "      if (esp_status[i] != ESP_DONE) all_done = 0;\n"
        << "    if (all_done) return ESP_RES_HALTED;\n"
        << "    for (i = 0; i < ESP_NPROCS && !paired; i++)\n"
        << "      if (esp_status[i] == ESP_BLOCKED) paired = "
           "esp_try_pair(i);\n"
        << "    if (!paired && !esp_poll_externals()) return "
           "ESP_RES_QUIESCENT;\n"
        << "    p = esp_pop_ready();\n"
        << "    if (p < 0) return ESP_RES_PROGRESS;\n"
        << "  }\n"
        << "  if (p != esp_last_run) { esp_ctx_switches++; esp_last_run = "
           "p; }\n"
        << "  esp_run_proc(p);\n"
        << "  if (esp_status[p] == ESP_BLOCKED) esp_try_pair(p);\n"
        << "  return ESP_RES_PROGRESS;\n"
        << "}\n\n";

    Out << "int esp_main_loop(long max_steps) {\n"
        << "  while (max_steps-- > 0) {\n"
        << "    int r = esp_sched_step();\n"
        << "    if (r != ESP_RES_PROGRESS) return r;\n"
        << "  }\n"
        << "  return ESP_RES_PROGRESS;\n"
        << "}\n";
  }

  const ModuleIR &Module;
  const CCodeGenOptions &Options;
  TypeTable Types;
  std::ostringstream TempDecls;
  unsigned TempCounter = 0;
  unsigned BuildCounter = 0;
  std::map<const ChannelDecl *, std::vector<Endpoint>> InEndpoints;
  std::map<const ChannelDecl *, std::vector<Endpoint>> OutEndpoints;
};

} // namespace

std::string esp::generateC(const ModuleIR &Module,
                           const CCodeGenOptions &Options) {
  CGenerator G(Module, Options);
  return G.run();
}

std::string esp::generateCHeader(const ModuleIR &Module) {
  std::ostringstream Out;
  Out << "/* Generated by espc: public entry points. */\n"
      << "#ifndef ESP_GENERATED_H\n#define ESP_GENERATED_H\n\n"
      << "void esp_start(void);\n"
      << "int esp_sched_step(void);\n"
      << "int esp_main_loop(long max_steps);\n"
      << "unsigned long long esp_stat_allocs(void);\n"
      << "long long esp_stat_live(void);\n"
      << "unsigned long long esp_stat_rendezvous(void);\n"
      << "unsigned long long esp_stat_ctx_switches(void);\n\n"
      << "typedef struct esp_obj esp_obj;\n";
  emitExternDecls(Module, Out);
  Out << "#endif /* ESP_GENERATED_H */\n";
  return Out.str();
}
