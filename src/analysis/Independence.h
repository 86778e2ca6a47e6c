//===--- Independence.h - Static move-independence analysis -----*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-program static independence analysis over the state-machine IR,
/// built on CommGraph's stop-point skeleton. For every alt case of every
/// stop point it records the channel the case may commit on, whether the
/// commit body has heap-visible effects, and per-stop transitive
/// reachability of channel endpoints over the pruned CFG. From those
/// facts it derives a conservative conflict relation between moves: two
/// moves commute unless they share a channel endpoint, a participating
/// process, or a global-visibility effect (an AmbiguousDispatch clique or
/// a heap-mutating commit body).
///
/// ESP's rendezvous-only communication makes the relation unusually
/// sparse: a commit between two processes transfers deep-copied values
/// and touches no other process, so moves with disjoint participant sets
/// commute exactly (the canonical state serialization is first-visit
/// ordered, so commuting move sequences reach bit-identical state keys).
///
/// Consumers: the model checker's ample-set partial-order reduction
/// (src/mc/Por.h, `espmc --por`) and the esplint interference report
/// (`esplint --interference`).
///
//===----------------------------------------------------------------------===//

#ifndef ESP_ANALYSIS_INDEPENDENCE_H
#define ESP_ANALYSIS_INDEPENDENCE_H

#include "ir/IR.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <vector>

namespace esp {

/// Static facts about one alt case of a stop point.
struct IndepCase {
  uint32_t Channel = 0; ///< ChannelDecl::Id (dense).
  bool IsIn = true;
  /// Statically-false guard: the case can never be selected.
  bool GuardFalse = false;
  /// The commit body may free heap objects (Unlink) or halt the process
  /// before reaching the next stop point. Freeing is visible to the
  /// object-table bound and the leak sweep, and halting changes the
  /// deadlock predicate, so such a move is never ample-eligible.
  bool HeapUnsafe = false;
  /// Stop indices the process may block at next after the case commits
  /// (CommGraph's successors; halting is left out, since a halted
  /// process never moves again).
  std::vector<unsigned> Succs;
  SourceLoc Loc;
};

/// Static facts about one stop point (Block instruction) of a process.
struct IndepStop {
  unsigned InstIndex = 0;
  std::vector<IndepCase> Cases;
  /// Channel ids (indexed densely) with a receive / send end reachable at
  /// or after this stop, transitively over the pruned CFG. Guard-false
  /// cases contribute nothing (they can never commit).
  std::vector<bool> ReachIn;
  std::vector<bool> ReachOut;
};

/// Static facts about one process of the module.
struct IndepProc {
  const ProcIR *IR = nullptr;
  std::vector<IndepStop> Stops;
  /// Stops the process may first block at (halting left out).
  std::vector<unsigned> InitialStops;
  /// Instruction index -> stop index, or -1 when not a Block instruction.
  std::vector<int> StopOfInst;
  /// Member of a visibility clique: some channel without pairwise-disjoint
  /// reader patterns has an internal writer end that may pair with reader
  /// ends in two or more distinct processes, so an AmbiguousDispatch
  /// error can observe the joint configuration of all clique members.
  bool InClique = false;
};

/// One communication site (a reachable, non-guard-false case), used by
/// the interference report.
struct IndepSite {
  unsigned Proc = 0;
  unsigned Stop = 0;
  unsigned Case = 0;
};

/// The whole-program independence summary.
struct IndependenceInfo {
  const ModuleIR *Module = nullptr;
  /// One past the largest ChannelDecl::Id in the program.
  unsigned NumChannels = 0;
  std::vector<IndepProc> Procs;

  /// All reachable, non-guard-false sites, in (proc, stop, case) order.
  std::vector<IndepSite> Sites;
  /// Unordered site pairs and how many of them conflict.
  uint64_t SitePairs = 0;
  uint64_t ConflictingPairs = 0;

  const IndepCase &caseAt(const IndepSite &S) const {
    return Procs[S.Proc].Stops[S.Stop].Cases[S.Case];
  }

  /// Stop index of the Block instruction at \p InstIndex in process
  /// \p Proc, or -1 when the instruction is not a stop point.
  int stopIndex(unsigned Proc, unsigned InstIndex) const {
    const std::vector<int> &Map = Procs[Proc].StopOfInst;
    if (InstIndex >= Map.size())
      return -1;
    return Map[InstIndex];
  }

  /// The conservative conflict relation: moves at the two sites commute
  /// unless they share a process, share a channel, or both processes
  /// belong to a visibility clique.
  bool conflicts(const IndepSite &A, const IndepSite &B) const {
    if (A.Proc == B.Proc)
      return true;
    if (caseAt(A).Channel == caseAt(B).Channel)
      return true;
    return Procs[A.Proc].InClique && Procs[B.Proc].InClique;
  }

  /// Percentage of unordered site pairs that statically commute.
  double commutingPercent() const {
    if (SitePairs == 0)
      return 100.0;
    return 100.0 * static_cast<double>(SitePairs - ConflictingPairs) /
           static_cast<double>(SitePairs);
  }
};

/// Builds the independence summary for a lowered module. \p Module must
/// be an unoptimized lowering whose instruction indices match the
/// compiled program's (the convention the model checker already relies
/// on), and Module.Prog must be set.
IndependenceInfo buildIndependence(const ModuleIR &Module);

} // namespace esp

#endif // ESP_ANALYSIS_INDEPENDENCE_H
