//===--- PromelaGen.cpp - ESP to Promela (SPIN) backend ---------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/PromelaGen.h"

#include "frontend/Sema.h"

#include <cassert>
#include <map>
#include <sstream>

using namespace esp;

namespace {

/// The length bound of every array pool (the MAXARR define). §5.2
/// specifies the bound per type; this generator uses one for all.
constexpr unsigned MaxArrayLen = 4;

class PromelaGenerator {
public:
  PromelaGenerator(const Program &Prog, const PromelaGenOptions &Options)
      : Prog(Prog), Options(Options) {}

  std::string run() {
    collectTypes();
    std::ostringstream Out;
    emitHeader(Out);
    emitPools(Out);
    emitChannels(Out);
    for (const std::unique_ptr<ProcessDecl> &Proc : Prog.Processes)
      emitProcess(*Proc, Out);
    emitInit(Out);
    return Out.str();
  }

private:
  //===--- Type pools ---------------------------------------------------------===//

  std::string poolName(const Type *T) {
    auto It = PoolNames.find(T);
    if (It != PoolNames.end())
      return It->second;
    // Prefer the user's type name when one resolves to this type.
    std::string Name;
    for (const TypeDecl &TD : Prog.TypeDecls)
      if (TD.Resolved == T)
        Name = TD.Name;
    if (Name.empty())
      Name = "ty" + std::to_string(PoolNames.size());
    PoolNames.emplace(T, Name);
    PoolOrder.push_back(T);
    return Name;
  }

  void collectType(const Type *T) {
    if (T->isScalar())
      return;
    poolName(T);
    if (T->isRecord() || T->isUnion()) {
      for (const TypeField &F : T->getFields())
        collectType(F.FieldType);
    } else {
      collectType(T->getElementType());
    }
  }

  void collectExprTypes(const Expr *E) {
    if (!E)
      return;
    if (E->getType())
      collectType(E->getType());
    switch (E->getKind()) {
    case ExprKind::Field:
      collectExprTypes(ast_cast<FieldExpr>(E)->getBase());
      break;
    case ExprKind::Index:
      collectExprTypes(ast_cast<IndexExpr>(E)->getBase());
      collectExprTypes(ast_cast<IndexExpr>(E)->getIndex());
      break;
    case ExprKind::Unary:
      collectExprTypes(ast_cast<UnaryExpr>(E)->getSub());
      break;
    case ExprKind::Binary:
      collectExprTypes(ast_cast<BinaryExpr>(E)->getLHS());
      collectExprTypes(ast_cast<BinaryExpr>(E)->getRHS());
      break;
    case ExprKind::RecordLit:
      for (const Expr *Elem : ast_cast<RecordLitExpr>(E)->getElems())
        collectExprTypes(Elem);
      break;
    case ExprKind::UnionLit:
      collectExprTypes(ast_cast<UnionLitExpr>(E)->getValue());
      break;
    case ExprKind::ArrayLit:
      collectExprTypes(ast_cast<ArrayLitExpr>(E)->getSize());
      collectExprTypes(ast_cast<ArrayLitExpr>(E)->getInit());
      break;
    case ExprKind::Cast:
      collectExprTypes(ast_cast<CastExpr>(E)->getSub());
      break;
    default:
      break;
    }
  }

  void collectStmtTypes(const Stmt *S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case StmtKind::Block:
      for (const Stmt *Child : ast_cast<BlockStmt>(S)->getBody())
        collectStmtTypes(Child);
      break;
    case StmtKind::Decl:
      collectExprTypes(ast_cast<DeclStmt>(S)->getInit());
      break;
    case StmtKind::Assign:
      collectExprTypes(ast_cast<AssignStmt>(S)->getRHS());
      break;
    case StmtKind::If:
      collectExprTypes(ast_cast<IfStmt>(S)->getCond());
      collectStmtTypes(ast_cast<IfStmt>(S)->getThen());
      collectStmtTypes(ast_cast<IfStmt>(S)->getElse());
      break;
    case StmtKind::While:
      collectExprTypes(ast_cast<WhileStmt>(S)->getCond());
      collectStmtTypes(ast_cast<WhileStmt>(S)->getBody());
      break;
    case StmtKind::Alt:
      for (const AltCase &Case : ast_cast<AltStmt>(S)->getCases()) {
        collectExprTypes(Case.Guard);
        collectExprTypes(Case.Action.Out);
        collectStmtTypes(Case.Body);
      }
      break;
    case StmtKind::Link:
      collectExprTypes(ast_cast<LinkStmt>(S)->getObj());
      break;
    case StmtKind::Unlink:
      collectExprTypes(ast_cast<UnlinkStmt>(S)->getObj());
      break;
    case StmtKind::Assert:
      collectExprTypes(ast_cast<AssertStmt>(S)->getCond());
      break;
    }
  }

  void collectTypes() {
    for (const std::unique_ptr<ChannelDecl> &Chan : Prog.Channels)
      collectType(Chan->ElemType);
    for (const std::unique_ptr<ProcessDecl> &Proc : Prog.Processes) {
      for (const std::unique_ptr<VarInfo> &V : Proc->Vars)
        if (V->VarType)
          collectType(V->VarType);
      collectStmtTypes(Proc->Body);
    }
  }

  //===--- Flattened channel layout --------------------------------------------===//

  /// Number of scalar message fields for a value of type \p T: scalars
  /// are 1; records are the sum of their fields; unions are 1 (tag) plus
  /// the widest arm; arrays are 1 (an objectId into the pool).
  unsigned flatWidth(const Type *T) {
    switch (T->getKind()) {
    case TypeKind::Int:
    case TypeKind::Bool:
      return 1;
    case TypeKind::Record: {
      unsigned W = 0;
      for (const TypeField &F : T->getFields())
        W += flatWidth(F.FieldType);
      return W;
    }
    case TypeKind::Union: {
      unsigned W = 0;
      for (const TypeField &F : T->getFields())
        W = std::max(W, flatWidth(F.FieldType));
      return 1 + W;
    }
    case TypeKind::Array:
      return 1;
    }
    return 1;
  }

  //===--- Emission -------------------------------------------------------------===//

  void emitHeader(std::ostream &Out) {
    Out << "/* Generated by espc --spin (esplang, PLDI 2001 ESP "
           "reproduction).\n"
        << " * Translation per the paper, section 5.2: objects become\n"
        << " * fixed-size pools indexed by objectId; link/unlink are\n"
        << " * macros with embedded liveness assertions; a leak exhausts\n"
        << " * the pool and trips the allocation assertion.\n"
        << " */\n\n"
        << "#define NINST " << Options.Instances << "\n"
        << "#define MAXOBJ " << Options.MaxObjects << "\n"
        << "#define MAXARR " << MaxArrayLen << "\n\n";
  }

  void emitPools(std::ostream &Out) {
    for (const Type *T : PoolOrder) {
      const std::string &Name = PoolNames[T];
      Out << "/* " << T->str() << " */\n";
      Out << "typedef " << Name << "_cell {\n";
      if (T->isRecord() || T->isUnion()) {
        if (T->isUnion())
          Out << "  int arm;\n";
        for (const TypeField &F : T->getFields())
          Out << "  int " << F.Name << "; /* "
              << (F.FieldType->isAggregate() ? "objectId" : "scalar")
              << " */\n";
      } else {
        Out << "  int elem[MAXARR];\n  int len;\n";
      }
      Out << "}\n";
      Out << Name << "_cell " << Name << "_pool[NINST * MAXOBJ];\n";
      Out << "byte " << Name << "_rc[NINST * MAXOBJ];\n\n";
    }
    Out << "/* Reference counting (section 4.4): the only unsafe\n"
        << " * operations; every use asserts liveness. */\n"
        << "#define ESP_LINK(rc, id)   d_step { assert(rc[id] > 0); "
           "rc[id]++ }\n"
        << "#define ESP_UNLINK(rc, id) d_step { assert(rc[id] > 0); "
           "rc[id]-- }\n"
        << "#define ESP_ALLOC(rc, id)  d_step { id = _inst * MAXOBJ; do :: "
           "rc[id] == 0 -> break :: else -> id++; assert(id < (_inst + 1) "
           "* MAXOBJ) od; rc[id] = 1 }\n\n";
  }

  void emitChannels(std::ostream &Out) {
    for (const std::unique_ptr<ChannelDecl> &Chan : Prog.Channels) {
      unsigned W = flatWidth(Chan->ElemType);
      Out << "chan " << Chan->Name << "[NINST] = [0] of { ";
      for (unsigned I = 0; I != W; ++I)
        Out << (I ? ", int" : "int");
      Out << " }; /* " << Chan->ElemType->str();
      if (Chan->Role == ChannelRole::ExternalWriter)
        Out << "; external writer: driven by test code";
      else if (Chan->Role == ChannelRole::ExternalReader)
        Out << "; external reader: consumed by test code";
      Out << " */\n";
    }
    Out << "\n";
  }

  //===--- Expressions -----------------------------------------------------------===//

  std::string expr(const Expr *E, const ProcessDecl &Proc) {
    switch (E->getKind()) {
    case ExprKind::IntLit:
      return std::to_string(ast_cast<IntLitExpr>(E)->getValue());
    case ExprKind::BoolLit:
      return ast_cast<BoolLitExpr>(E)->getValue() ? "1" : "0";
    case ExprKind::SelfId:
      return std::to_string(Proc.ProcessId);
    case ExprKind::VarRef: {
      const VarRefExpr *V = ast_cast<VarRefExpr>(E);
      if (const ConstDecl *C = V->getConst())
        return std::to_string(C->Value);
      return V->getName();
    }
    case ExprKind::Field: {
      const FieldExpr *F = ast_cast<FieldExpr>(E);
      const Type *BaseType = F->getBase()->getType();
      return poolName(BaseType) + "_pool[" + expr(F->getBase(), Proc) +
             "]." + F->getFieldName();
    }
    case ExprKind::Index: {
      const IndexExpr *I = ast_cast<IndexExpr>(E);
      const Type *BaseType = I->getBase()->getType();
      return poolName(BaseType) + "_pool[" + expr(I->getBase(), Proc) +
             "].elem[" + expr(I->getIndex(), Proc) + "]";
    }
    case ExprKind::Unary: {
      const UnaryExpr *U = ast_cast<UnaryExpr>(E);
      std::string Out = U->getOp() == UnaryOp::Not ? "!(" : "-(";
      Out += expr(U->getSub(), Proc);
      Out += ")";
      return Out;
    }
    case ExprKind::Binary: {
      const BinaryExpr *B = ast_cast<BinaryExpr>(E);
      std::string Out = "(";
      Out += expr(B->getLHS(), Proc);
      Out += " ";
      Out += binaryOpSpelling(B->getOp());
      Out += " ";
      Out += expr(B->getRHS(), Proc);
      Out += ")";
      return Out;
    }
    default:
      // Allocation expressions are emitted as statements feeding a
      // temporary; the statement emitters handle them.
      return "/*alloc*/0";
    }
  }

  /// Emits statements materializing allocation expression \p E into a
  /// fresh temp; returns the temp's name (or a plain expression when no
  /// allocation is needed).
  std::string materialize(const Expr *E, const ProcessDecl &Proc,
                          std::ostream &Out, const std::string &Indent) {
    switch (E->getKind()) {
    case ExprKind::RecordLit: {
      const RecordLitExpr *R = ast_cast<RecordLitExpr>(E);
      std::string Pool = poolName(E->getType());
      std::string T = temp();
      Out << Indent << "ESP_ALLOC(" << Pool << "_rc, " << T << ");\n";
      const std::vector<TypeField> &Fields = E->getType()->getFields();
      for (size_t I = 0; I != Fields.size(); ++I) {
        std::string V = materialize(R->getElems()[I], Proc, Out, Indent);
        Out << Indent << Pool << "_pool[" << T << "]." << Fields[I].Name
            << " = " << V << ";\n";
      }
      return T;
    }
    case ExprKind::UnionLit: {
      const UnionLitExpr *U = ast_cast<UnionLitExpr>(E);
      std::string Pool = poolName(E->getType());
      std::string T = temp();
      Out << Indent << "ESP_ALLOC(" << Pool << "_rc, " << T << ");\n";
      Out << Indent << Pool << "_pool[" << T
          << "].arm = " << U->getFieldIndex() << ";\n";
      std::string V = materialize(U->getValue(), Proc, Out, Indent);
      Out << Indent << Pool << "_pool[" << T << "]."
          << U->getFieldName() << " = " << V << ";\n";
      return T;
    }
    case ExprKind::ArrayLit: {
      const ArrayLitExpr *A = ast_cast<ArrayLitExpr>(E);
      std::string Pool = poolName(E->getType());
      std::string T = temp();
      std::string Size = expr(A->getSize(), Proc);
      std::string Init = materialize(A->getInit(), Proc, Out, Indent);
      Out << Indent << "ESP_ALLOC(" << Pool << "_rc, " << T << ");\n";
      Out << Indent << Pool << "_pool[" << T << "].len = " << Size
          << "; assert(" << Size << " <= MAXARR);\n";
      Out << Indent << "esp_i = 0;\n";
      Out << Indent << "do :: esp_i < " << Size << " -> " << Pool
          << "_pool[" << T << "].elem[esp_i] = " << Init
          << "; esp_i++ :: else -> break od;\n";
      return T;
    }
    case ExprKind::Cast: {
      // The SPIN model keeps the objectId: a cast is a fresh object with
      // copied contents; for verification the id-copy abstraction is
      // noted in a comment (contents equality is what matters).
      const CastExpr *C = ast_cast<CastExpr>(E);
      return materialize(C->getSub(), Proc, Out, Indent) + " /* cast */";
    }
    default:
      return expr(E, Proc);
    }
  }

  std::string temp() { return "esp_t" + std::to_string(TempCounter++); }

  //===--- Patterns --------------------------------------------------------------===//

  /// Flattened receive argument list for a pattern: constants use
  /// eval(), binders use variable names, aggregates bind objectIds.
  void receiveArgs(const Pattern *Pat, const ProcessDecl &Proc,
                   std::vector<std::string> &Args) {
    switch (Pat->getKind()) {
    case PatternKind::Bind: {
      const BindPattern *B = ast_cast<BindPattern>(Pat);
      if (Pat->getType()->isRecord()) {
        // Destructure implicitly: one slot per flattened field, bound to
        // synthesized components of the variable (stored back below).
        for (unsigned I = 0, W = flatWidth(Pat->getType()); I != W; ++I)
          Args.push_back(B->getName() + "_f" + std::to_string(I));
        return;
      }
      if (Pat->getType()->isUnion()) {
        Args.push_back(B->getName() + "_arm");
        for (unsigned I = 1, W = flatWidth(Pat->getType()); I != W; ++I)
          Args.push_back(B->getName() + "_f" + std::to_string(I));
        return;
      }
      Args.push_back(B->getName());
      return;
    }
    case PatternKind::Match:
      Args.push_back("eval(" +
                     expr(ast_cast<MatchPattern>(Pat)->getValue(), Proc) +
                     ")");
      return;
    case PatternKind::Record:
      for (const Pattern *Sub : ast_cast<RecordPattern>(Pat)->getElems())
        receiveArgs(Sub, Proc, Args);
      return;
    case PatternKind::Union: {
      const UnionPattern *U = ast_cast<UnionPattern>(Pat);
      Args.push_back("eval(" + std::to_string(U->getFieldIndex()) +
                     ") /* arm " + U->getFieldName() + " */");
      unsigned Before = static_cast<unsigned>(Args.size());
      receiveArgs(U->getSub(), Proc, Args);
      unsigned Written = static_cast<unsigned>(Args.size()) - Before;
      // Pad to the union's widest arm.
      for (unsigned I = Written + 1, W = flatWidth(Pat->getType()); I != W;
           ++I)
        Args.push_back("_");
      return;
    }
    }
  }

  /// Flattened send argument list for an out expression.
  void sendArgs(const Expr *E, const ProcessDecl &Proc,
                std::vector<std::string> &Args, std::ostream &Out,
                const std::string &Indent) {
    const Type *T = E->getType();
    if (T->isScalar() || T->isArray()) {
      Args.push_back(materialize(E, Proc, Out, Indent));
      return;
    }
    if (const RecordLitExpr *R = ast_dyn_cast<RecordLitExpr>(E)) {
      // Pattern-allocation elision (§6.1): field values go straight into
      // the message; the record is never allocated.
      for (const Expr *Elem : R->getElems())
        sendArgs(Elem, Proc, Args, Out, Indent);
      return;
    }
    if (const UnionLitExpr *U = ast_dyn_cast<UnionLitExpr>(E)) {
      Args.push_back(std::to_string(U->getFieldIndex()));
      unsigned Before = static_cast<unsigned>(Args.size());
      sendArgs(U->getValue(), Proc, Args, Out, Indent);
      unsigned Written = static_cast<unsigned>(Args.size()) - Before;
      for (unsigned I = Written + 1, W = flatWidth(T); I != W; ++I)
        Args.push_back("0");
      return;
    }
    // A record/union-typed variable or field: flatten through the pool.
    std::string Id = materialize(E, Proc, Out, Indent);
    flattenValue(T, Id, Args);
  }

  void flattenValue(const Type *T, const std::string &Id,
                    std::vector<std::string> &Args) {
    if (T->isScalar() || T->isArray()) {
      Args.push_back(Id);
      return;
    }
    std::string Pool = poolName(T);
    if (T->isUnion()) {
      Args.push_back(Pool + "_pool[" + Id + "].arm");
      unsigned MaxW = flatWidth(T);
      // Emit the first arm's payload slots; a faithful per-arm flatten
      // needs runtime dispatch, which SPIN models with the tag field.
      const TypeField &F = T->getFields()[0];
      unsigned Before = static_cast<unsigned>(Args.size());
      flattenValue(F.FieldType, Pool + "_pool[" + Id + "]." + F.Name, Args);
      for (unsigned I = static_cast<unsigned>(Args.size()) - Before + 1;
           I != MaxW; ++I)
        Args.push_back("0");
      return;
    }
    for (const TypeField &F : T->getFields())
      flattenValue(F.FieldType, Pool + "_pool[" + Id + "]." + F.Name, Args);
  }

  //===--- Statements -------------------------------------------------------------===//

  void emitStmt(const Stmt *S, const ProcessDecl &Proc, std::ostream &Out,
                std::string Indent) {
    if (!S)
      return;
    switch (S->getKind()) {
    case StmtKind::Block:
      for (const Stmt *Child : ast_cast<BlockStmt>(S)->getBody())
        emitStmt(Child, Proc, Out, Indent);
      return;
    case StmtKind::Decl: {
      const DeclStmt *D = ast_cast<DeclStmt>(S);
      std::string V = materialize(D->getInit(), Proc, Out, Indent);
      Out << Indent << D->getName() << " = " << V << ";\n";
      return;
    }
    case StmtKind::Assign: {
      const AssignStmt *A = ast_cast<AssignStmt>(S);
      std::string V = materialize(A->getRHS(), Proc, Out, Indent);
      if (A->isPlainStore()) {
        const Expr *Target =
            ast_cast<MatchPattern>(A->getLHS())->getValue();
        Out << Indent << expr(Target, Proc) << " = " << V << ";\n";
      } else {
        Out << Indent << "/* destructuring match */\n";
        emitDestructure(A->getLHS(), V, Proc, Out, Indent);
      }
      return;
    }
    case StmtKind::If: {
      const IfStmt *I = ast_cast<IfStmt>(S);
      Out << Indent << "if\n";
      Out << Indent << ":: (" << expr(I->getCond(), Proc) << ") ->\n";
      emitStmt(I->getThen(), Proc, Out, Indent + "  ");
      Out << Indent << ":: else ->";
      if (I->getElse()) {
        Out << "\n";
        emitStmt(I->getElse(), Proc, Out, Indent + "  ");
      } else {
        Out << " skip;\n";
      }
      Out << Indent << "fi;\n";
      return;
    }
    case StmtKind::While: {
      const WhileStmt *W = ast_cast<WhileStmt>(S);
      Out << Indent << "do\n";
      if (W->getCond()) {
        Out << Indent << ":: (" << expr(W->getCond(), Proc) << ") ->\n";
        emitStmt(W->getBody(), Proc, Out, Indent + "  ");
        Out << Indent << ":: else -> break;\n";
      } else {
        Out << Indent << ":: true ->\n";
        emitStmt(W->getBody(), Proc, Out, Indent + "  ");
      }
      Out << Indent << "od;\n";
      return;
    }
    case StmtKind::Alt: {
      const AltStmt *A = ast_cast<AltStmt>(S);
      Out << Indent << "if /* alt */\n";
      for (const AltCase &Case : A->getCases()) {
        Out << Indent << "::";
        if (Case.Guard)
          Out << " (" << expr(Case.Guard, Proc) << ") &&";
        const CommAction &Act = Case.Action;
        std::string Chan = Act.ChannelName + "[_inst]";
        if (Act.IsIn) {
          std::vector<std::string> Args;
          receiveArgs(Act.Pat, Proc, Args);
          Out << " " << Chan << "?";
          for (size_t I = 0; I != Args.size(); ++I)
            Out << (I ? "," : "") << Args[I];
          Out << " ->\n";
        } else {
          std::ostringstream Pre;
          std::vector<std::string> Args;
          sendArgs(Act.Out, Proc, Args, Pre, Indent + "  ");
          // Sends with allocation pre-statements are wrapped atomically.
          if (!Pre.str().empty())
            Out << " atomic {\n" << Pre.str() << Indent << "  ";
          else
            Out << " ";
          Out << Chan << "!";
          for (size_t I = 0; I != Args.size(); ++I)
            Out << (I ? "," : "") << Args[I];
          if (!Pre.str().empty())
            Out << ";\n" << Indent << "} ->\n";
          else
            Out << " ->\n";
        }
        if (Case.Body)
          emitStmt(Case.Body, Proc, Out, Indent + "  ");
        else
          Out << Indent << "  skip;\n";
      }
      Out << Indent << "fi;\n";
      return;
    }
    case StmtKind::Link: {
      const Expr *Obj = ast_cast<LinkStmt>(S)->getObj();
      Out << Indent << "ESP_LINK(" << poolName(Obj->getType()) << "_rc, "
          << expr(Obj, Proc) << ");\n";
      return;
    }
    case StmtKind::Unlink: {
      const Expr *Obj = ast_cast<UnlinkStmt>(S)->getObj();
      Out << Indent << "ESP_UNLINK(" << poolName(Obj->getType()) << "_rc, "
          << expr(Obj, Proc) << ");\n";
      return;
    }
    case StmtKind::Assert:
      Out << Indent << "assert("
          << expr(ast_cast<AssertStmt>(S)->getCond(), Proc) << ");\n";
      return;
    }
  }

  void emitDestructure(const Pattern *Pat, const std::string &ValueExpr,
                       const ProcessDecl &Proc, std::ostream &Out,
                       const std::string &Indent) {
    switch (Pat->getKind()) {
    case PatternKind::Bind:
      Out << Indent << ast_cast<BindPattern>(Pat)->getName() << " = "
          << ValueExpr << ";\n";
      return;
    case PatternKind::Match:
      Out << Indent << "assert(" << ValueExpr << " == "
          << expr(ast_cast<MatchPattern>(Pat)->getValue(), Proc) << ");\n";
      return;
    case PatternKind::Record: {
      const RecordPattern *R = ast_cast<RecordPattern>(Pat);
      const std::vector<TypeField> &Fields = Pat->getType()->getFields();
      std::string Pool = poolName(Pat->getType());
      for (size_t I = 0; I != R->getElems().size(); ++I)
        emitDestructure(R->getElems()[I],
                        Pool + "_pool[" + ValueExpr + "]." + Fields[I].Name,
                        Proc, Out, Indent);
      return;
    }
    case PatternKind::Union: {
      const UnionPattern *U = ast_cast<UnionPattern>(Pat);
      std::string Pool = poolName(Pat->getType());
      Out << Indent << "assert(" << Pool << "_pool[" << ValueExpr
          << "].arm == " << U->getFieldIndex() << ");\n";
      emitDestructure(U->getSub(),
                      Pool + "_pool[" + ValueExpr + "]." +
                          U->getFieldName(),
                      Proc, Out, Indent);
      return;
    }
    }
  }

  //===--- Processes ---------------------------------------------------------------===//

  void emitProcess(const ProcessDecl &Proc, std::ostream &Out) {
    Out << "proctype " << Proc.Name << "(int _inst) {\n";
    Out << "  int esp_i;\n";
    for (unsigned I = 0; I != 4; ++I)
      Out << "  int esp_t" << I << ";\n";
    TempCounter = 0;
    // Declare every slot (including the synthesized flattened-bind
    // components for record/union binders).
    for (const std::unique_ptr<VarInfo> &V : Proc.Vars) {
      Out << "  int " << V->Name << ";\n";
      if (V->VarType && V->VarType->isRecord())
        for (unsigned F = 0, W = flatWidth(V->VarType); F != W; ++F)
          Out << "  int " << V->Name << "_f" << F << ";\n";
      if (V->VarType && V->VarType->isUnion()) {
        Out << "  int " << V->Name << "_arm;\n";
        for (unsigned F = 1, W = flatWidth(V->VarType); F != W; ++F)
          Out << "  int " << V->Name << "_f" << F << ";\n";
      }
    }
    emitStmt(Proc.Body, Proc, Out, "  ");
    Out << "}\n\n";
  }

  void emitInit(std::ostream &Out) {
    Out << "init {\n  int i = 0;\n  atomic {\n"
        << "    do\n    :: i < NINST ->\n";
    for (const std::unique_ptr<ProcessDecl> &Proc : Prog.Processes)
      Out << "      run " << Proc->Name << "(i);\n";
    Out << "      i++\n    :: else -> break\n    od\n  }\n}\n";
  }

  const Program &Prog;
  const PromelaGenOptions &Options;
  std::map<const Type *, std::string> PoolNames;
  std::vector<const Type *> PoolOrder;
  unsigned TempCounter = 0;
};

} // namespace

std::string esp::generatePromela(const Program &Prog,
                                 const PromelaGenOptions &Options) {
  PromelaGenerator G(Prog, Options);
  return G.run();
}
