//===--- ModelChecker.h - Explicit-state model checker ----------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An explicit-state model checker for ESP programs, standing in for SPIN
/// (§5). It explores the interleavings of the Machine in verification
/// mode (deep-copy transfers — the semantic model the paper's SPIN
/// translation uses) and supports SPIN's three exploration modes (§5.1):
///
///  * exhaustive: depth-first search with exact visited-state storage,
///  * bit-state hashing: partial search storing one bit per hashed state,
///  * simulation: random walks (the mode the paper used for development).
///
/// Properties checked: runtime errors (assertions, memory safety, match
/// failures), deadlock, and memory leaks (directly via a reachability
/// sweep, and indirectly via bounded-object-table exhaustion, §5.2).
/// Violations come with a counterexample trace of moves.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_MC_MODELCHECKER_H
#define ESP_MC_MODELCHECKER_H

#include "obs/Progress.h"
#include "runtime/Machine.h"

#include <string>
#include <vector>

namespace esp {

enum class SearchMode : uint8_t { Exhaustive, BitState, Simulation };

/// How the exhaustive search stores visited states (SPIN's storage
/// trade-offs). Hash compaction stores one 64-bit fingerprint per state:
/// a collision can prune an unvisited state, but the miss probability
/// (~n^2/2^64) is negligible, so a completed search still reports OK.
/// Exact mode stores the full state vector and is the certainty
/// reference.
enum class VisitedKind : uint8_t { Exact, Hash64 };

/// Valid range for McOptions::BitStateBits; values outside are clamped
/// (a tiny table would index out of bounds, 1<<64 is UB).
inline constexpr unsigned MinBitStateBits = 10;
inline constexpr unsigned MaxBitStateBits = 28;
unsigned clampedBitStateBits(unsigned Bits);

struct McOptions {
  SearchMode Mode = SearchMode::Exhaustive;
  uint64_t MaxStates = 10'000'000;
  unsigned MaxDepth = 100'000;
  /// Object-table bound; exhaustion flags a leak (§5.2). 0 = unbounded.
  uint32_t MaxObjects = 256;
  /// Report live-but-unreachable objects as violations.
  bool CheckLeaks = true;
  bool CheckDeadlock = true;
  /// Visited-state storage for exhaustive search (default: 64-bit hash
  /// compaction; Exact keeps full state vectors).
  VisitedKind Visited = VisitedKind::Hash64;
  /// log2 of the bit-state table size (BitState mode); clamped to
  /// [MinBitStateBits, MaxBitStateBits].
  unsigned BitStateBits = 24;
  /// Number of random walks (Simulation mode), each at most 4096 moves.
  uint64_t SimulationRuns = 256;
  uint64_t Seed = 0x9e3779b97f4a7c15ULL;
  /// Worker threads of the search engine (src/mc/ParallelSearch.h);
  /// 0 = hardware concurrency. N Machines over the shared read-only
  /// ModuleIR explore disjoint subtrees handed out as (snapshot,
  /// move-prefix) work items with work-stealing, over a concurrent
  /// visited set; one worker runs a plain DFS. For completed exhaustive
  /// searches, with or without Por, the verdict and StatesStored/
  /// StatesExplored/Transitions are the same at every N.
  unsigned Jobs = 1;
  /// Swarm verification (BitState mode with Jobs > 1 only): instead of
  /// one cooperative search, each worker runs an independent full
  /// search with its own hash seed and randomized move order; coverage
  /// is the union of the workers' (SPIN's swarm). StatesStored then
  /// reports the union estimate from a shared seed-0 bit table.
  bool Swarm = false;
  /// Ample-set partial-order reduction (`espmc --por`, src/mc/Por.h):
  /// expand only an ample subset of the enabled moves wherever the
  /// static independence analysis can discharge the C0-C3 conditions,
  /// with full expansion as the fallback. Verdicts are preserved;
  /// explored/stored counts usually shrink, so reduced runs have their
  /// own goldens. Ignored in Simulation mode and incompatible with
  /// Swarm (shuffled move order would break the ample prefix).
  bool Por = false;
  /// Finite environment workload (`espmc --env-budget N`): the machine
  /// enumerates at most N environment sends per channel along any path
  /// (0 = unbounded; per channel, not a global pool, so sends on
  /// unrelated channels stay independent for --por). Bounds an open
  /// harness to "verify N requests end to end", which makes the state
  /// space finite — and largely acyclic, which is where --por pays off:
  /// environment sends cannot close a cycle, so the cycle proviso
  /// rarely forces full expansion and delivery interleavings collapse to
  /// representatives.
  uint32_t EnvSendBudget = 0;
  /// Environment model for open programs (not owned). Shared read-only
  /// across worker Machines when Jobs > 1, so implementations must be
  /// thread-safe for const calls (BoundedEnvModel is).
  const EnvModel *Env = nullptr;
  /// Optional live progress sink (not owned). The engines publish
  /// explored/stored/transition counts and frontier depth into it while
  /// searching, so a ticker thread can report states/sec. Observe-only:
  /// never affects verdicts, counts, or exploration order.
  obs::SearchProgress *Progress = nullptr;
};

enum class McVerdict : uint8_t {
  OK,             ///< Full search completed with no violation.
  Violation,      ///< A violation was found (see Violation/Deadlock/Leaked).
  StateLimit,     ///< Search stopped at MaxStates (partial result).
  PartialOK,      ///< Partial search (bit-state/simulation/depth-truncated)
                  ///< saw no violation.
};

struct McResult {
  McVerdict Verdict = McVerdict::OK;
  uint64_t StatesExplored = 0;
  uint64_t StatesStored = 0;
  uint64_t Transitions = 0;
  unsigned MaxDepthReached = 0;
  /// True when the DFS pruned at MaxDepth: the search is partial and an
  /// OK verdict is downgraded to PartialOK (SPIN: "max search depth too
  /// small").
  bool DepthTruncated = false;
  size_t StateVectorBytes = 0;   ///< Size of the serialized root state.
  size_t MemoryBytes = 0;        ///< Visited-set memory.
  uint64_t ReplayedMoves = 0;    ///< Moves re-applied restoring checkpoints.
  /// Peak live bytes of DFS checkpoint snapshots (summed over workers'
  /// peaks for the parallel engine): the memory side of ReplayedMoves.
  size_t CheckpointBytes = 0;
  /// Transitions whose successor the transition cache served
  /// (src/mc/TransitionCache.h) instead of applying the move.
  uint64_t TransitionCacheHits = 0;
  /// Peak bytes of the cache's interned segments and of its entry table
  /// (summed over workers' peaks).
  size_t SegmentPoolBytes = 0;
  size_t TransitionCacheBytes = 0;
  double Seconds = 0.0;

  // Worker accounting.
  unsigned JobsUsed = 1;
  /// States explored per worker (the root state is counted by none).
  std::vector<uint64_t> WorkerExplored;
  /// Work items each worker popped from a queue (its own plus steals).
  std::vector<uint64_t> WorkerItems;
  /// Work items handed off between workers (work-stealing traffic).
  uint64_t SharedWorkItems = 0;

  // Partial-order reduction accounting (all zero unless McOptions::Por).
  /// States expanded with a proper ample subset of their moves.
  uint64_t PorReducedStates = 0;
  /// States expanded fully (no eligible ample subset).
  uint64_t PorFullStates = 0;
  /// States where the static cycle proviso (C3) rejected a candidate
  /// ample set that met C0-C2 (`por_proviso_upgrades` in json()).
  uint64_t PorProvisoUpgrades = 0;

  // Violation details.
  RuntimeError Violation;
  bool Deadlock = false;
  unsigned LeakedObjects = 0;
  std::vector<std::string> Trace;
  /// The same counterexample as Trace, as replayable moves.
  std::vector<Move> TraceMoves;

  bool foundViolation() const { return Verdict == McVerdict::Violation; }

  /// SPIN-like textual report for tools and benches.
  std::string report() const;

  /// Machine-readable result (espmc --stats-json).
  std::string json() const;
};

/// Runs the model checker over \p Module (which should be lowered
/// *without* optimizations, matching the paper's early translation,
/// §5.2).
McResult checkModel(const ModuleIR &Module, const McOptions &Options);

/// Re-executes \p Result's counterexample (TraceMoves) on a fresh
/// machine built with the same \p Options and checks that it actually
/// ends in the reported violation: every move must be enabled when it is
/// applied, and the final state must exhibit the reported error kind,
/// deadlock, or leak. Returns false for a trace that does not replay.
bool replayTrace(const ModuleIR &Module, const McOptions &Options,
                 const McResult &Result);

} // namespace esp

#endif // ESP_MC_MODELCHECKER_H
