//===--- IR.h - ESP state-machine IR ----------------------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowered form of an ESP program: one flat instruction list per
/// process. Control flow is explicit (Branch/Jump); every communication
/// point becomes a Block instruction whose cases correspond to the alt
/// alternatives. The Block instructions are exactly the *states* of the
/// process's state machine (§4.3: "each location in the process where it
/// can block implicitly represents a state in the state machine").
///
/// Instructions reference type-checked AST expressions and patterns
/// directly; the IR adds control-flow structure and per-case optimization
/// flags (§6.1: postponing allocation until after the rendezvous, and
/// eliding the record allocation when every reader destructures).
///
//===----------------------------------------------------------------------===//

#ifndef ESP_IR_IR_H
#define ESP_IR_IR_H

#include "frontend/AST.h"

#include <string>
#include <vector>

namespace esp {

class DiagnosticEngine;

enum class InstKind : uint8_t {
  DeclInit, ///< Initialize variable Var with RHS.
  Store,    ///< Match/assign LHS pattern from RHS (plain store or destructure).
  Branch,   ///< If Cond is false, jump to Target; otherwise fall through.
  Jump,     ///< Unconditional jump to Target.
  Block,    ///< Communication point with one or more cases.
  Link,     ///< rc++ of the object RHS evaluates to.
  Unlink,   ///< rc-- (free at zero) of the object RHS evaluates to.
  Assert,   ///< Runtime/verifier-checked assertion on Cond.
  Halt,     ///< Process finished.
};

/// One alternative of a Block instruction.
struct IRCase {
  const Expr *Guard = nullptr; ///< Null means always enabled.
  const ChannelDecl *Channel = nullptr;
  bool IsIn = true;
  const Pattern *Pat = nullptr; ///< For in.
  const Expr *Out = nullptr;    ///< For out.
  unsigned Target = 0;          ///< Instruction index of the case body.
  SourceLoc Loc;

  /// §6.1 optimization: evaluate the out expression only when this case
  /// commits, so no allocation happens if another alternative succeeds.
  bool LazyOut = false;

  /// §6.1 optimization: the out expression is a record literal and every
  /// reader pattern on the channel destructures it, so the record shell
  /// need not be allocated at all; field values transfer directly.
  bool ElideRecordAlloc = false;

  /// Every reader pattern on the channel matches any value, so pairing
  /// never needs the out value; combined with LazyOut, the value is
  /// materialized only when this case commits (the full strength of the
  /// §6.1 allocation postponement).
  bool MatchFree = false;
};

/// One lowered instruction.
struct Inst {
  InstKind Kind = InstKind::Halt;
  SourceLoc Loc;

  // DeclInit.
  const VarInfo *Var = nullptr;
  // Store.
  const Pattern *LHS = nullptr;
  bool PlainStore = false;
  // DeclInit / Store / Link / Unlink.
  const Expr *RHS = nullptr;
  // Branch / Assert.
  const Expr *Cond = nullptr;
  // Branch / Jump.
  unsigned Target = 0;
  // Block.
  std::vector<IRCase> Cases;
};

/// Replaces \p Succs with the CFG successors of \p I, the instruction at
/// \p Index. An index one past the last instruction means the process
/// falls off its end.
void collectSuccessors(const Inst &I, unsigned Index,
                       std::vector<unsigned> &Succs);

/// The lowered form of one process.
struct ProcIR {
  const ProcessDecl *Proc = nullptr;
  std::vector<Inst> Insts;

  /// Indices of Block instructions; the states of the state machine.
  std::vector<unsigned> blockPoints() const {
    std::vector<unsigned> Points;
    for (unsigned I = 0, E = Insts.size(); I != E; ++I)
      if (Insts[I].Kind == InstKind::Block)
        Points.push_back(I);
    return Points;
  }

  /// Renders a readable listing for tests and debugging.
  std::string dump() const;
};

/// The lowered form of a whole program.
struct ModuleIR {
  const Program *Prog = nullptr;
  std::vector<ProcIR> Procs;

  std::string dump() const;
};

/// Lowers a checked program. Never fails on checked input.
ModuleIR lowerProgram(const Program &Prog);

} // namespace esp

#endif // ESP_IR_IR_H
