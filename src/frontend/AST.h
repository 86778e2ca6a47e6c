//===--- AST.h - ESP abstract syntax tree -----------------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ESP AST. A Program owns every node. Expressions, statements, and
/// patterns use an LLVM-style kind discriminator with hand-rolled
/// isa/dyn_cast helpers (no RTTI). The parser resolves named types while
/// parsing (types must be declared before use, which the paper's examples
/// follow); the semantic checker (Sema) fills in the analysis fields:
/// expression types, variable slots, field indices, and constant values.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_FRONTEND_AST_H
#define ESP_FRONTEND_AST_H

#include "frontend/Type.h"
#include "support/SourceLoc.h"

#include <cassert>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace esp {

class ChannelDecl;
class Expr;
class Pattern;
class Stmt;

/// Hand-rolled dyn_cast for AST nodes (esplang builds without RTTI).
template <typename To, typename From> To *ast_dyn_cast(From *Node) {
  return Node && To::classof(Node) ? static_cast<To *>(Node) : nullptr;
}
template <typename To, typename From>
const To *ast_dyn_cast(const From *Node) {
  return Node && To::classof(Node) ? static_cast<const To *>(Node) : nullptr;
}
template <typename To, typename From> To *ast_cast(From *Node) {
  assert(Node && To::classof(Node) && "ast_cast to wrong node kind");
  return static_cast<To *>(Node);
}
template <typename To, typename From> const To *ast_cast(const From *Node) {
  assert(Node && To::classof(Node) && "ast_cast to wrong node kind");
  return static_cast<const To *>(Node);
}

/// One variable of a process: either a `$name` declaration or a pattern
/// binder. Sema assigns each a dense slot index within its process.
struct VarInfo {
  std::string Name;
  const Type *VarType = nullptr;
  unsigned Slot = 0;
  SourceLoc Loc;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntLit,
  BoolLit,
  SelfId,
  VarRef,
  Field,
  Index,
  Unary,
  Binary,
  RecordLit,
  UnionLit,
  ArrayLit,
  Cast,
};

enum class UnaryOp : uint8_t { Not, Neg };
enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,
  Or,
};

/// Returns the ESP spelling of \p Op ("+", "&&", ...).
const char *binaryOpSpelling(BinaryOp Op);

/// Base class of all ESP expressions.
class Expr {
public:
  ExprKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }

  /// The type computed by Sema; null before checking.
  const Type *getType() const { return ExprType; }
  void setType(const Type *T) { ExprType = T; }

protected:
  Expr(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  ExprKind Kind;
  SourceLoc Loc;
  const Type *ExprType = nullptr;
};

/// Does evaluating \p E allocate a fresh heap object (a record, union or
/// array literal, or a cast)? Such a value starts with the one reference
/// its consumer takes over; any other aggregate value is borrowed.
inline bool exprIsAllocation(const Expr *E) {
  switch (E->getKind()) {
  case ExprKind::RecordLit:
  case ExprKind::UnionLit:
  case ExprKind::ArrayLit:
  case ExprKind::Cast:
    return true;
  default:
    return false;
  }
}

class IntLitExpr : public Expr {
public:
  IntLitExpr(SourceLoc Loc, int64_t Value)
      : Expr(ExprKind::IntLit, Loc), Value(Value) {}
  int64_t getValue() const { return Value; }
  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::IntLit;
  }

private:
  int64_t Value;
};

class BoolLitExpr : public Expr {
public:
  BoolLitExpr(SourceLoc Loc, bool Value)
      : Expr(ExprKind::BoolLit, Loc), Value(Value) {}
  bool getValue() const { return Value; }
  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::BoolLit;
  }

private:
  bool Value;
};

/// `@`: the instantiation id of the enclosing process (§4.3 footnote: a
/// constant different for each process).
class SelfIdExpr : public Expr {
public:
  explicit SelfIdExpr(SourceLoc Loc) : Expr(ExprKind::SelfId, Loc) {}
  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::SelfId;
  }
};

class ConstDecl;

/// A reference to a process variable or a top-level constant.
class VarRefExpr : public Expr {
public:
  VarRefExpr(SourceLoc Loc, std::string Name)
      : Expr(ExprKind::VarRef, Loc), Name(std::move(Name)) {}
  const std::string &getName() const { return Name; }

  VarInfo *getVar() const { return Var; }
  void setVar(VarInfo *V) { Var = V; }
  const ConstDecl *getConst() const { return Constant; }
  void setConst(const ConstDecl *C) { Constant = C; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::VarRef;
  }

private:
  std::string Name;
  VarInfo *Var = nullptr;          ///< Set by Sema when a variable.
  const ConstDecl *Constant = nullptr; ///< Set by Sema when a constant.
};

class FieldExpr : public Expr {
public:
  FieldExpr(SourceLoc Loc, Expr *Base, std::string FieldName)
      : Expr(ExprKind::Field, Loc), Base(Base),
        FieldName(std::move(FieldName)) {}
  Expr *getBase() const { return Base; }
  const std::string &getFieldName() const { return FieldName; }
  int getFieldIndex() const { return FieldIndex; }
  void setFieldIndex(int I) { FieldIndex = I; }
  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Field;
  }

private:
  Expr *Base;
  std::string FieldName;
  int FieldIndex = -1; ///< Set by Sema.
};

class IndexExpr : public Expr {
public:
  IndexExpr(SourceLoc Loc, Expr *Base, Expr *Index)
      : Expr(ExprKind::Index, Loc), Base(Base), Index(Index) {}
  Expr *getBase() const { return Base; }
  Expr *getIndex() const { return Index; }
  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Index;
  }

private:
  Expr *Base;
  Expr *Index;
};

class UnaryExpr : public Expr {
public:
  UnaryExpr(SourceLoc Loc, UnaryOp Op, Expr *Sub)
      : Expr(ExprKind::Unary, Loc), Op(Op), Sub(Sub) {}
  UnaryOp getOp() const { return Op; }
  Expr *getSub() const { return Sub; }
  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Unary;
  }

private:
  UnaryOp Op;
  Expr *Sub;
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(SourceLoc Loc, BinaryOp Op, Expr *LHS, Expr *RHS)
      : Expr(ExprKind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}
  BinaryOp getOp() const { return Op; }
  Expr *getLHS() const { return LHS; }
  Expr *getRHS() const { return RHS; }
  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Binary;
  }

private:
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
};

/// `{ e1, e2, ... }` or `#{ ... }`: allocates a record.
class RecordLitExpr : public Expr {
public:
  RecordLitExpr(SourceLoc Loc, bool Mutable, std::vector<Expr *> Elems)
      : Expr(ExprKind::RecordLit, Loc), Mutable(Mutable),
        Elems(std::move(Elems)) {}
  bool isMutableLit() const { return Mutable; }
  const std::vector<Expr *> &getElems() const { return Elems; }
  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::RecordLit;
  }

private:
  bool Mutable;
  std::vector<Expr *> Elems;
};

/// `{ field |> e }` or `#{ field |> e }`: allocates a union with the given
/// valid field (§4.1: exactly one field of a union is valid).
class UnionLitExpr : public Expr {
public:
  UnionLitExpr(SourceLoc Loc, bool Mutable, std::string FieldName,
               Expr *Value)
      : Expr(ExprKind::UnionLit, Loc), Mutable(Mutable),
        FieldName(std::move(FieldName)), Value(Value) {}
  bool isMutableLit() const { return Mutable; }
  const std::string &getFieldName() const { return FieldName; }
  Expr *getValue() const { return Value; }
  int getFieldIndex() const { return FieldIndex; }
  void setFieldIndex(int I) { FieldIndex = I; }
  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::UnionLit;
  }

private:
  bool Mutable;
  std::string FieldName;
  Expr *Value;
  int FieldIndex = -1; ///< Set by Sema.
};

/// `{ size -> init }` or `#{ size -> init, ... }`: allocates an array of
/// `size` elements, each initialized to `init` (the trailing `...` of the
/// paper's syntax is accepted and means "fill the rest the same way").
class ArrayLitExpr : public Expr {
public:
  ArrayLitExpr(SourceLoc Loc, bool Mutable, Expr *Size, Expr *Init)
      : Expr(ExprKind::ArrayLit, Loc), Mutable(Mutable), Size(Size),
        Init(Init) {}
  bool isMutableLit() const { return Mutable; }
  Expr *getSize() const { return Size; }
  Expr *getInit() const { return Init; }
  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::ArrayLit;
  }

private:
  bool Mutable;
  Expr *Size;
  Expr *Init;
};

/// `cast(e)`: converts between the mutable and immutable versions of a
/// type. Semantically allocates a deep copy (§4.2); the implementation may
/// reuse the object when it can prove the source is dead.
class CastExpr : public Expr {
public:
  CastExpr(SourceLoc Loc, Expr *Sub) : Expr(ExprKind::Cast, Loc), Sub(Sub) {}
  Expr *getSub() const { return Sub; }
  static bool classof(const Expr *E) { return E->getKind() == ExprKind::Cast; }

private:
  Expr *Sub;
};

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

enum class PatternKind : uint8_t { Bind, Match, Record, Union };

/// Base class of patterns. Patterns appear as the target of `in`
/// operations, on the left-hand side of `=`, and in interface cases.
/// Pattern leaves either bind a fresh variable (`$x`) or contain an
/// expression whose value must equal the matched component (this is how a
/// process receives only its own replies: `in(ptReplyC, { @, $pAddr })`).
class Pattern {
public:
  PatternKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }

  /// The component type established by Sema.
  const Type *getType() const { return PatType; }
  void setType(const Type *T) { PatType = T; }

  /// True if this pattern or any sub-pattern binds a variable.
  bool containsBinder() const;

protected:
  Pattern(PatternKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  PatternKind Kind;
  SourceLoc Loc;
  const Type *PatType = nullptr;
};

/// `$name`: binds the matched component to a fresh variable.
class BindPattern : public Pattern {
public:
  BindPattern(SourceLoc Loc, std::string Name)
      : Pattern(PatternKind::Bind, Loc), Name(std::move(Name)) {}
  const std::string &getName() const { return Name; }
  VarInfo *getVar() const { return Var; }
  void setVar(VarInfo *V) { Var = V; }
  static bool classof(const Pattern *P) {
    return P->getKind() == PatternKind::Bind;
  }

private:
  std::string Name;
  VarInfo *Var = nullptr; ///< Set by Sema.
};

/// An expression in pattern position: matches when the component equals
/// the expression's value. When an assignment LHS is a single Match
/// pattern whose expression is an lvalue, the statement is a plain store.
class MatchPattern : public Pattern {
public:
  MatchPattern(SourceLoc Loc, Expr *Value)
      : Pattern(PatternKind::Match, Loc), Value(Value) {}
  Expr *getValue() const { return Value; }
  static bool classof(const Pattern *P) {
    return P->getKind() == PatternKind::Match;
  }

private:
  Expr *Value;
};

/// `{ p1, p2, ... }` destructures a record positionally.
class RecordPattern : public Pattern {
public:
  RecordPattern(SourceLoc Loc, std::vector<Pattern *> Elems)
      : Pattern(PatternKind::Record, Loc), Elems(std::move(Elems)) {}
  const std::vector<Pattern *> &getElems() const { return Elems; }
  static bool classof(const Pattern *P) {
    return P->getKind() == PatternKind::Record;
  }

private:
  std::vector<Pattern *> Elems;
};

/// `{ field |> p }` matches a union whose valid field is `field`.
class UnionPattern : public Pattern {
public:
  UnionPattern(SourceLoc Loc, std::string FieldName, Pattern *Sub)
      : Pattern(PatternKind::Union, Loc), FieldName(std::move(FieldName)),
        Sub(Sub) {}
  const std::string &getFieldName() const { return FieldName; }
  Pattern *getSub() const { return Sub; }
  int getFieldIndex() const { return FieldIndex; }
  void setFieldIndex(int I) { FieldIndex = I; }
  static bool classof(const Pattern *P) {
    return P->getKind() == PatternKind::Union;
  }

private:
  std::string FieldName;
  Pattern *Sub;
  int FieldIndex = -1; ///< Set by Sema.
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Decl,
  Assign,
  If,
  While,
  Block,
  Alt,
  Link,
  Unlink,
  Assert,
};

class Stmt {
public:
  StmtKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }

protected:
  Stmt(StmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  StmtKind Kind;
  SourceLoc Loc;
};

/// `$name (: type)? = init;`
class DeclStmt : public Stmt {
public:
  DeclStmt(SourceLoc Loc, std::string Name, const Type *Annotation,
           Expr *Init)
      : Stmt(StmtKind::Decl, Loc), Name(std::move(Name)),
        Annotation(Annotation), Init(Init) {}
  const std::string &getName() const { return Name; }
  const Type *getAnnotation() const { return Annotation; }
  Expr *getInit() const { return Init; }
  VarInfo *getVar() const { return Var; }
  void setVar(VarInfo *V) { Var = V; }
  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Decl;
  }

private:
  std::string Name;
  const Type *Annotation; ///< Null when the type is inferred (§4.1).
  Expr *Init;
  VarInfo *Var = nullptr; ///< Set by Sema.
};

/// `pattern (: type)? = expr;` — a plain store when the LHS is an lvalue
/// expression, otherwise a destructuring match (binding `$` leaves and
/// checking equality leaves; a failed match is a runtime error that the
/// verifier can catch).
class AssignStmt : public Stmt {
public:
  AssignStmt(SourceLoc Loc, Pattern *LHS, const Type *Annotation, Expr *RHS)
      : Stmt(StmtKind::Assign, Loc), LHS(LHS), Annotation(Annotation),
        RHS(RHS) {}
  Pattern *getLHS() const { return LHS; }
  const Type *getAnnotation() const { return Annotation; }
  Expr *getRHS() const { return RHS; }
  bool isPlainStore() const { return PlainStore; }
  void setPlainStore(bool V) { PlainStore = V; }
  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Assign;
  }

private:
  Pattern *LHS;
  const Type *Annotation;
  Expr *RHS;
  bool PlainStore = false; ///< Set by Sema.
};

class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, Expr *Cond, Stmt *Then, Stmt *Else)
      : Stmt(StmtKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  Expr *getCond() const { return Cond; }
  Stmt *getThen() const { return Then; }
  Stmt *getElse() const { return Else; }
  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else; ///< May be null.
};

/// `while (cond) stmt` — `while { ... }` (no condition) loops forever.
class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, Expr *Cond, Stmt *Body)
      : Stmt(StmtKind::While, Loc), Cond(Cond), Body(Body) {}
  Expr *getCond() const { return Cond; } ///< Null means `while (true)`.
  Stmt *getBody() const { return Body; }
  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::While;
  }

private:
  Expr *Cond;
  Stmt *Body;
};

class BlockStmt : public Stmt {
public:
  BlockStmt(SourceLoc Loc, std::vector<Stmt *> Body)
      : Stmt(StmtKind::Block, Loc), Body(std::move(Body)) {}
  const std::vector<Stmt *> &getBody() const { return Body; }
  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Block;
  }

private:
  std::vector<Stmt *> Body;
};

/// A communication action: `in(chan, pattern)` or `out(chan, expr)`.
struct CommAction {
  bool IsIn = true;
  std::string ChannelName;
  ChannelDecl *Channel = nullptr; ///< Set by Sema.
  Pattern *Pat = nullptr;         ///< For `in`.
  Expr *Out = nullptr;            ///< For `out`.
  SourceLoc Loc;
};

/// One `case( [guard,] action ) { body }` of an alt statement.
struct AltCase {
  Expr *Guard = nullptr; ///< Null means always enabled.
  CommAction Action;
  Stmt *Body = nullptr; ///< Null for a bare `in`/`out` statement.
  SourceLoc Loc;
};

/// `alt { case(...) {...} ... }`. Standalone `in`/`out` statements are
/// parsed as a single-case alt. Channel selection must prevent starvation
/// but need not be fair (§4.2).
class AltStmt : public Stmt {
public:
  AltStmt(SourceLoc Loc, std::vector<AltCase> Cases)
      : Stmt(StmtKind::Alt, Loc), Cases(std::move(Cases)) {}
  const std::vector<AltCase> &getCases() const { return Cases; }
  std::vector<AltCase> &getCases() { return Cases; }
  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Alt; }

private:
  std::vector<AltCase> Cases;
};

/// `link(e);` / `unlink(e);` — the reference-counting primitives (§4.4),
/// the only source of unsafety in the language.
class LinkStmt : public Stmt {
public:
  LinkStmt(SourceLoc Loc, Expr *Obj) : Stmt(StmtKind::Link, Loc), Obj(Obj) {}
  Expr *getObj() const { return Obj; }
  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Link;
  }

private:
  Expr *Obj;
};

class UnlinkStmt : public Stmt {
public:
  UnlinkStmt(SourceLoc Loc, Expr *Obj)
      : Stmt(StmtKind::Unlink, Loc), Obj(Obj) {}
  Expr *getObj() const { return Obj; }
  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Unlink;
  }

private:
  Expr *Obj;
};

/// `assert(e);` — checked during execution and by the model checker. This
/// is the ESP-level analogue of the assertions the paper writes in the
/// user-supplied SPIN test code.
class AssertStmt : public Stmt {
public:
  AssertStmt(SourceLoc Loc, Expr *Cond)
      : Stmt(StmtKind::Assert, Loc), Cond(Cond) {}
  Expr *getCond() const { return Cond; }
  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Assert;
  }

private:
  Expr *Cond;
};

//===----------------------------------------------------------------------===//
// Top-level declarations
//===----------------------------------------------------------------------===//

/// `type name = type-expr` — resolved to a structural Type at parse time.
struct TypeDecl {
  std::string Name;
  const Type *Resolved = nullptr;
  SourceLoc Loc;
};

/// `const name = expr;` — evaluated at compile time by Sema.
struct ConstDecl {
  std::string Name;
  Expr *Init = nullptr;
  const Type *ConstType = nullptr; ///< Set by Sema (int or bool).
  int64_t Value = 0;               ///< Set by Sema.
  SourceLoc Loc;
};

/// Whether a channel is internal or one end is implemented externally
/// (§4.5: a channel can have an external reader or writer, but not both).
enum class ChannelRole : uint8_t { Internal, ExternalWriter, ExternalReader };

class InterfaceDecl;

/// `channel name: type`
class ChannelDecl {
public:
  std::string Name;
  const Type *ElemType = nullptr;
  unsigned Id = 0; ///< Dense index assigned by the parser.
  ChannelRole Role = ChannelRole::Internal;
  InterfaceDecl *Interface = nullptr; ///< Set when Role != Internal.
  SourceLoc Loc;
};

/// One named case of an external interface, e.g.
/// `Send( { send |> { $dest, $vAddr, $size } } )`. The binders are the
/// parameters the external function produces (external writer) or
/// receives (external reader).
struct InterfaceCase {
  std::string Name;
  Pattern *Pat = nullptr;
  SourceLoc Loc;
};

/// `interface name(out chan) { Case(pattern), ... }` — `out chan` means
/// the external code writes the channel; `in chan` means it reads (§4.5).
class InterfaceDecl {
public:
  std::string Name;
  bool ExternalWrites = false;
  std::string ChannelName;
  ChannelDecl *Channel = nullptr; ///< Set by Sema.
  std::vector<InterfaceCase> Cases;
  SourceLoc Loc;
};

/// `process name { ... }`
class ProcessDecl {
public:
  std::string Name;
  BlockStmt *Body = nullptr;
  unsigned ProcessId = 0; ///< Dense index; the value of `@`.
  SourceLoc Loc;

  /// All variables of the process (declarations and pattern binders),
  /// owned here; Slot indices are dense in [0, NumSlots).
  std::vector<std::unique_ptr<VarInfo>> Vars;
  unsigned NumSlots = 0;

  VarInfo *createVar(std::string Name, SourceLoc Loc) {
    Vars.push_back(std::make_unique<VarInfo>());
    VarInfo *V = Vars.back().get();
    V->Name = std::move(Name);
    V->Slot = NumSlots++;
    V->Loc = Loc;
    return V;
  }
};

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

/// A whole ESP program: owns the TypeContext, every AST node, and the
/// top-level declarations. All processes and channels are static and known
/// at compile time (§4).
class Program {
public:
  Program() = default;
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  TypeContext &getTypeContext() { return Types; }
  const TypeContext &getTypeContext() const { return Types; }

  /// Allocates an AST node owned by this program.
  template <typename T, typename... Args> T *create(Args &&...As) {
    auto Node = std::make_unique<T>(std::forward<Args>(As)...);
    T *Raw = Node.get();
    NodePool.push_back(
        std::unique_ptr<void, void (*)(void *)>(Node.release(), [](void *P) {
          delete static_cast<T *>(P);
        }));
    return Raw;
  }

  std::vector<TypeDecl> TypeDecls;
  std::vector<std::unique_ptr<ConstDecl>> ConstDecls;
  std::vector<std::unique_ptr<ChannelDecl>> Channels;
  std::vector<std::unique_ptr<InterfaceDecl>> Interfaces;
  std::vector<std::unique_ptr<ProcessDecl>> Processes;

  ChannelDecl *findChannel(const std::string &Name) const;
  ProcessDecl *findProcess(const std::string &Name) const;
  const ConstDecl *findConst(const std::string &Name) const;
  InterfaceDecl *findInterface(const std::string &Name) const;
  const TypeDecl *findTypeDecl(const std::string &Name) const;

private:
  TypeContext Types;
  std::vector<std::unique_ptr<void, void (*)(void *)>> NodePool;
};

} // namespace esp

#endif // ESP_FRONTEND_AST_H
