//===--- Por.h - Ample-set partial-order reduction --------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ample-set selector behind `espmc --por`. Built once per search
/// from the static independence analysis (src/analysis/Independence.h),
/// then consulted at every expanded state to pick a subset of the
/// enabled moves that provably suffices for the checked properties.
///
/// The selection discharges the classic ample-set side conditions:
///
///  * C0 (nonempty): only nonempty proper subsets are returned; a
///    deadlocked state has no moves and is always "fully" expanded, so
///    deadlock detection is unaffected.
///  * C1 (dependency closure): starting from one seed process, the
///    closure pulls in every process that could reach the opposite end
///    of a channel one of the closed processes has a dynamically-enabled
///    case on (guards are frozen while a process is blocked, and
///    endpoint reachability is the analysis's transitive per-stop fact).
///    The ample set is then every enabled move whose participants lie
///    inside the closure — a persistent set: the first move touching a
///    closed process on any path of the full graph is an ample move.
///  * C2 (invisibility): moves of visibility-clique members (channels
///    that can raise AmbiguousDispatch) and moves whose commit bodies
///    free heap objects or halt are never placed in an ample set, so
///    the error predicates those moves feed stay observable. Leak and
///    assertion checks are evaluated on every visited state as before.
///  * C3 (cycle proviso): static, computed once per search from the
///    same skeleton (Kurshan et al., "Static Partial Order Reduction").
///    Each process's stop graph (stop -> case -> successor stops) is
///    walked depth-first from its initial stops, then from any stop not
///    yet visited, and a case is *cycle-closing* when one of its edges
///    is a back edge of that walk. Guard-false cases are left out of the
///    graph, and so are receives on environment-driven channels (no
///    writer end in the module) under an environment budget: those bump
///    a per-channel counter that never goes down, so they cannot lie on
///    a cycle. An ample set may not contain a move that takes a
///    cycle-closing case for either participant. Every cycle of the
///    state graph moves each participant around a closed walk of its
///    skeleton, every closed walk contains a back edge, so the state
///    taking that move on the cycle is fully expanded. The proviso
///    depends only on the state, so the reduced graph, and with it the
///    counts of a completed search, are the same at every `--jobs N`.
///
/// Whenever a condition cannot be discharged the selector falls back to
/// full expansion, so `--por` can never weaken a verdict. Counts can
/// shrink (goldens gain `--por` variants); all counterexamples remain
/// replayTrace-valid because ample moves are real enabled moves.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_MC_POR_H
#define ESP_MC_POR_H

#include "analysis/Independence.h"
#include "runtime/Machine.h"

#include <cstddef>
#include <vector>

namespace esp {
namespace mc_detail {

/// The per-search ample-set selector. Const after construction and
/// thread-safe: ParallelSearch shares one instance across all workers.
class PorContext {
public:
  /// \p EnvBudgeted must be true when the search runs under a finite
  /// per-channel environment budget (McOptions::EnvSendBudget != 0):
  /// sends on one channel then share that channel's counter, so two
  /// processes receiving from the same channel become dependent through
  /// it — the closure additionally pulls same-direction endpoints.
  explicit PorContext(const ModuleIR &Module, bool EnvBudgeted = false);

  /// Reorders \p Moves so a valid ample subset forms a prefix and
  /// returns the subset's size; returns Moves.size() when no eligible
  /// proper subset exists (full expansion). The partition is stable, so
  /// the result is deterministic for a deterministic move enumeration.
  /// \p ProvisoRejected is set when C3 rejected a candidate that met
  /// C0-C2.
  size_t selectAmple(const Machine &M, std::vector<Move> &Moves,
                     bool &ProvisoRejected) const;

private:
  /// Dependency closure seeded at process \p Seed over the current stop
  /// configuration; returns the closed process-set bitmask.
  uint64_t closure(const Machine &M, const int *Stop, unsigned Seed) const;

  /// C2 check: may applying \p Mv free heap objects or halt a process
  /// before its next stop?
  bool moveHeapUnsafe(const Move &Mv, const int *Stop) const;

  /// C3 check: does \p Mv take a cycle-closing case for a participant?
  bool moveClosesCycle(const Move &Mv, const int *Stop) const;

  /// Fills Closing from each process's stop skeleton.
  void markCycleClosingCases();

  IndependenceInfo Info;
  /// Closing[P][S][K]: case K of stop S of process P is cycle-closing.
  std::vector<std::vector<std::vector<bool>>> Closing;
  uint64_t CliqueMask = 0;
  bool EnvBudgeted = false;
};

} // namespace mc_detail
} // namespace esp

#endif // ESP_MC_POR_H
