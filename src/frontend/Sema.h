//===--- Sema.h - ESP semantic checker --------------------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for ESP. Sema performs:
///  * compile-time evaluation of `const` declarations,
///  * binding of interfaces to channels and channel-role assignment
///    (external reader xor writer, §4.5),
///  * per-statement bidirectional type checking with the paper's "simple
///    type inferencing on a per statement basis" (§4.1),
///  * variable resolution: all declarations and pattern binders of one
///    name within a process share a slot and must agree on type (this is
///    exactly the storage model of the generated C, where process locals
///    live in the static region, §4.3),
///  * mutability checking: only immutable objects can be sent over
///    channels; stores require mutable aggregates (§4.1/§4.2),
///  * channel direction legality and guard purity.
///
/// Pattern disjointness/exhaustiveness is checked afterwards by
/// PatternAnalysis (see PatternAnalysis.h).
///
//===----------------------------------------------------------------------===//

#ifndef ESP_FRONTEND_SEMA_H
#define ESP_FRONTEND_SEMA_H

#include "frontend/AST.h"
#include "support/IntArith.h"

#include <optional>
#include <string>
#include <unordered_map>

namespace esp {

class DiagnosticEngine;

/// Runs semantic analysis over \p Prog, reporting problems to \p Diags.
/// Returns true when no errors were found.
bool checkProgram(Program &Prog, DiagnosticEngine &Diags);

/// Attempts to evaluate \p E as a compile-time constant in the context of
/// process \p Proc (may be null for interface patterns). Supports integer
/// and boolean literals, `const` references, `@` (when \p Proc is given),
/// and arithmetic/logic over those. Used by the pattern-dispatch analysis
/// and by backends.
std::optional<int64_t> tryEvalStatic(const Expr *E, const ProcessDecl *Proc);

/// The integer operator of \p Op, which must not be And or Or. IntOp
/// lists the other binary operators in BinaryOp's order.
inline IntOp intOpOf(BinaryOp Op) {
  static_assert(static_cast<int>(IntOp::Mod) ==
                        static_cast<int>(BinaryOp::Mod) &&
                    static_cast<int>(IntOp::Ne) ==
                        static_cast<int>(BinaryOp::Ne),
                "IntOp and BinaryOp disagree");
  assert(Op != BinaryOp::And && Op != BinaryOp::Or && "not an integer op");
  return static_cast<IntOp>(Op);
}

namespace detail {

/// Implementation of checkProgram; exposed for unit tests that want to
/// poke at intermediate state.
class Sema {
public:
  Sema(Program &Prog, DiagnosticEngine &Diags)
      : Prog(Prog), Diags(Diags), Types(Prog.getTypeContext()) {}

  bool run();

private:
  void checkConstDecls();
  void checkChannels();
  void checkInterfaces();
  void checkProcess(ProcessDecl &Proc);

  void checkStmt(Stmt *S);
  void checkAssign(AssignStmt *S);
  void checkAlt(AltStmt *S);

  /// Bidirectional expression checking. \p Expected may be null (infer).
  /// Returns the expression's type, or null after reporting an error.
  const Type *checkExpr(Expr *E, const Type *Expected);

  /// Checks \p P against component type \p Component, creating binder
  /// variables. \p AllowBinders is false for guard-position patterns.
  bool checkPattern(Pattern *P, const Type *Component);

  /// Checks an interface case pattern: only binders, constants, records
  /// and unions are allowed (no process context exists).
  bool checkInterfacePattern(Pattern *P, const Type *Component);

  /// True if \p E is an lvalue chain (variable, field, or index rooted at
  /// a variable).
  bool isLValue(const Expr *E) const;

  /// Reports an error if \p E contains an allocation or cast; used for
  /// alt guards, which may be re-evaluated many times while blocked.
  void requireAllocationFree(const Expr *E, const char *What);

  VarInfo *lookupOrCreateVar(const std::string &Name, const Type *T,
                             SourceLoc Loc);
  VarInfo *lookupVar(const std::string &Name) const;

  Program &Prog;
  DiagnosticEngine &Diags;
  TypeContext &Types;
  ProcessDecl *CurrentProcess = nullptr;
  std::unordered_map<std::string, VarInfo *> ProcessVars;
};

} // namespace detail
} // namespace esp

#endif // ESP_FRONTEND_SEMA_H
