//===--- CommGraph.h - Whole-program communication topology -----*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The may-block communication topology of a lowered ESP program: the one
/// stop-point skeleton shared by the static analyzers (esplint) and the
/// model checker's partial-order reduction (src/mc/Por.h). Every process
/// is abstracted to its *stop points* — the Block instructions of the
/// state-machine IR (§4.3) plus a synthetic terminal stop — and every alt
/// case carries the abstract pattern (receive side) or abstract value
/// (send side) used for static pairing, honoring the pattern ports of
/// PatternAnalysis (§4.2).
///
/// The skeleton also carries the static independence facts: whether a
/// commit body has heap-visible effects, per-stop transitive channel
/// endpoint reachability, and dispatch visibility cliques. Two moves
/// commute unless they share a channel endpoint, a participating
/// process, or a global-visibility effect. ESP's rendezvous-only
/// communication makes that relation unusually sparse: a commit between
/// two processes transfers deep-copied values and touches no other
/// process, so moves with disjoint participant sets commute exactly.
///
/// Control flow between stops follows the per-process CFG with
/// statically-constant branches pruned (a `const`-guarded `if` only
/// contributes its live arm), so guards like `if (KEEP == 1)` do not
/// smear infeasible paths into the analyses.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_ANALYSIS_COMMGRAPH_H
#define ESP_ANALYSIS_COMMGRAPH_H

#include "frontend/PatternAnalysis.h"
#include "ir/IR.h"

#include <vector>

namespace esp {

/// One alternative of a stop point, with its static pairing abstraction.
struct CommCase {
  const IRCase *IR = nullptr;
  /// Receive pattern abstraction (in) or sent-value abstraction (out).
  AbsPattern Abs;
  /// The guard is statically false: the case can never be selected.
  bool GuardFalse = false;
  /// The channel's opposite end is an external interface (§4.5).
  bool External = false;
  /// External and at least one interface case may pair with this case;
  /// the environment is assumed always willing, so the case can fire.
  bool ExternalFireable = false;
  /// The commit body may free heap objects (Unlink) or halt the process
  /// before reaching the next stop point. Freeing is visible to the
  /// object-table bound and the leak sweep, and halting changes the
  /// deadlock predicate, so such a move is never ample-eligible.
  bool HeapUnsafe = false;
  /// Stop indices this process may block at next after the case commits
  /// (ProcComm::TerminalStop when the process may halt instead).
  std::vector<unsigned> Succs;
};

/// One may-block state of a process: a Block instruction.
struct CommState {
  unsigned InstIndex = 0;
  std::vector<CommCase> Cases;
  /// Channel ids with a receive / send end reachable at or after this
  /// stop, transitively over the stop graph. Guard-false cases contribute
  /// nothing (they can never commit).
  std::vector<bool> ReachIn;
  std::vector<bool> ReachOut;
};

/// The communication skeleton of one process.
struct ProcComm {
  /// Synthetic stop index meaning "the process has halted".
  static constexpr unsigned TerminalStop = ~0u;

  const ProcIR *IR = nullptr;
  std::vector<CommState> States;
  /// Stops the process may first block at (or TerminalStop).
  std::vector<unsigned> InitialStops;
  /// Instruction reachability from entry over the pruned CFG.
  std::vector<bool> ReachableInsts;
  /// Instruction index -> stop index, or -1 when not a Block instruction.
  std::vector<int> StopOfInst;
  /// Member of a visibility clique: some channel without pairwise-disjoint
  /// reader patterns has an internal writer end that may pair with reader
  /// ends in two or more distinct processes, so an AmbiguousDispatch
  /// error can observe the joint configuration of all clique members.
  bool InClique = false;

  bool isReachableState(unsigned StateIndex) const {
    return ReachableInsts[States[StateIndex].InstIndex];
  }
};

/// One end of a channel: a specific case of a specific stop point.
struct ChannelEnd {
  unsigned Proc = 0;
  unsigned State = 0;
  unsigned Case = 0;
};

/// The whole-program communication topology.
struct CommGraph {
  const ModuleIR *Module = nullptr;
  std::vector<ProcComm> Procs;
  /// Per channel id: all process-side writer / reader ends, in
  /// (proc, stop, case) order.
  std::vector<std::vector<ChannelEnd>> Writers;
  std::vector<std::vector<ChannelEnd>> Readers;

  /// Builds the skeleton of a lowered module; Module.Prog must be set.
  /// The model checker needs an unoptimized lowering, whose instruction
  /// indices match the compiled program's.
  static CommGraph build(const ModuleIR &Module);

  const CommCase &caseAt(const ChannelEnd &End) const {
    return Procs[End.Proc].States[End.State].Cases[End.Case];
  }

  /// Is \p End a communication site: a case at a reachable stop whose
  /// guard is not statically false?
  bool isSite(const ChannelEnd &End) const {
    return Procs[End.Proc].isReachableState(End.State) &&
           !caseAt(End).GuardFalse;
  }
};

/// Abstracts an out expression into the pattern domain: statically
/// evaluable scalars become Const, record/union literals destructure, and
/// everything else is Unknown.
AbsPattern absFromOutExpr(const Expr *E, const ProcessDecl *Proc);

/// May a receive pattern pair with a sent value? True unless the overlap
/// is provably Disjoint (the bias keeps every analysis built on top of
/// this an under-approximation of "stuck": an uncertain pair is assumed
/// to fire, so esplint never reports a rendezvous that could happen).
bool mayPair(const AbsPattern &In, const AbsPattern &Out);

/// collectSuccessors with statically-constant branch conditions pruned to
/// their live arm.
void prunedSuccessors(const ProcIR &Proc, unsigned Index,
                      std::vector<unsigned> &Succs);

} // namespace esp

#endif // ESP_ANALYSIS_COMMGRAPH_H
