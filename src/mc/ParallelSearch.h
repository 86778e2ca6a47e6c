//===--- ParallelSearch.h - The model checker's search engine ---*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one search engine behind `espmc`, at every `--jobs N` (SPIN's
/// multicore and swarm modes; N = 1 included). N workers each own a
/// private Machine built from the shared read-only ModuleIR and explore
/// disjoint subtrees handed out as (checkpoint snapshot, move-prefix)
/// work items, with work-stealing when a worker's local stack drains. A
/// lone worker never offloads, so `--jobs 1` is a plain DFS. Visited-state
/// storage is the concurrent sharded backends of StateStore.h. Each
/// stored state is expanded exactly once, so a completed exhaustive
/// search reports the identical verdict and identical StatesStored /
/// StatesExplored / Transitions at every N.
///
/// Three modes:
///  * exhaustive/bit-state: one cooperative search over a shared
///    visited set; the first violation wins, ties broken
///    deterministically by DFS order (lexicographically smallest
///    move-index path among the candidates found before the stop
///    propagates);
///  * swarm (bit-state only): independent full searches per worker with
///    distinct hash seeds and randomized move order; coverage is the
///    union of the workers';
///  * simulation: runs partitioned across workers, per-run seeds
///    derived from McOptions::Seed.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_MC_PARALLELSEARCH_H
#define ESP_MC_PARALLELSEARCH_H

#include "mc/ModelChecker.h"

namespace esp {

/// Runs the search with \p Jobs >= 1 workers. Called by checkModel().
McResult runParallelSearch(const ModuleIR &Module, const McOptions &Options,
                           unsigned Jobs);

/// Machine configuration for verification mode: deep-copy transfers
/// (the paper's semantic model) over a bounded object table, under the
/// search's environment budget. The search and replayTrace() share it.
MachineOptions verifyMachineOptions(const McOptions &Options);

/// The one deadlock rule, shared by the search and replayTrace(): true
/// when \p M, whose enabled moves are \p Moves, has no error, no enabled
/// move and a process still blocked, and lifting a spent environment
/// budget would not enable a move either (a spent `--env-budget` is
/// quiescence, not deadlock).
bool isDeadlocked(Machine &M, const std::vector<Move> &Moves);

} // namespace esp

#endif // ESP_MC_PARALLELSEARCH_H
