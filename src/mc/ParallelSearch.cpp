//===--- ParallelSearch.cpp - The model checker's search engine ------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mc/ParallelSearch.h"

#include "mc/Por.h"
#include "mc/StateStore.h"
#include "mc/TransitionCache.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

using namespace esp;
using namespace esp::mc_detail;

MachineOptions esp::verifyMachineOptions(const McOptions &Options) {
  MachineOptions MO;
  MO.MaxObjects = Options.MaxObjects;
  MO.ReuseObjectIds = true;
  MO.DeepCopyTransfers = true;
  MO.EnvSendBudget = Options.EnvSendBudget;
  return MO;
}

bool esp::isDeadlocked(Machine &M, const std::vector<Move> &Moves) {
  if (!Moves.empty() || M.error())
    return false;
  bool AnyBlocked = false;
  for (unsigned I = 0, E = M.numProcesses(); I != E; ++I)
    AnyBlocked |= M.proc(I).St == ProcState::Status::Blocked;
  // None blocked: every process finished, a normal termination.
  return AnyBlocked && !M.stuckOnEnvBudget();
}

namespace {

//===----------------------------------------------------------------------===//
// State checks and DFS checkpoints
//===----------------------------------------------------------------------===//

/// Checks the machine's current state for violations (runtime error or
/// leaked objects); fills \p Result's violation fields and returns true
/// when one is found. \p Reached, when given, is the object count the
/// serialization of this very state returned: the leak check then folds
/// into that walk (Machine::countLeakedObjects(size_t)) instead of
/// sweeping the heap again.
bool checkStateViolation(Machine &M, const McOptions &Options,
                         McResult &Result,
                         std::optional<size_t> Reached = std::nullopt) {
  if (M.error()) {
    Result.Verdict = McVerdict::Violation;
    Result.Violation = M.error();
    return true;
  }
  if (Options.CheckLeaks) {
    unsigned Leaked =
        Reached ? M.countLeakedObjects(*Reached) : M.countLeakedObjects();
    if (Leaked > 0) {
      Result.Verdict = McVerdict::Violation;
      Result.LeakedObjects = Leaked;
      Result.Violation.Kind = RuntimeErrorKind::OutOfObjects;
      Result.Violation.Message =
          std::to_string(Leaked) + " object(s) leaked (live but "
                                   "unreachable from any process)";
      return true;
    }
  }
  return false;
}

/// Checks a state's freshly enumerated \p Moves. Enumeration itself can
/// fault (ambiguous dispatch, object-table exhaustion while probing), and
/// an empty list may be a deadlock; leaks cannot appear here.
bool checkExpansion(Machine &M, const std::vector<Move> &Moves,
                    const McOptions &Options, McResult &Result) {
  if (M.error())
    return checkStateViolation(M, Options, Result);
  if (!Options.CheckDeadlock || !isDeadlocked(M, Moves))
    return false;
  Result.Verdict = McVerdict::Violation;
  Result.Deadlock = true;
  Result.Violation.Kind = RuntimeErrorKind::None;
  Result.Violation.Message = "deadlock: blocked processes with no "
                             "enabled move";
  return true;
}

/// The checkpoints of one DFS stack. A frame's state is re-derived from
/// the nearest checkpoint at or below it by replaying the Taken moves of
/// the frames in between, so checkpoints trade memory for replay time.
///
/// Every frame the DFS will return to, i.e. every frame with more than
/// one move, gets a checkpoint, which makes backtracking a plain restore.
/// Dense checkpoints stop once the live checkpoint bytes would exceed a
/// budget (the visited set's own bytes, so a deep, narrow search cannot
/// spend more on snapshots than on its state store); past that point a
/// checkpoint every FallbackStride-th level bounds every replay.
class CheckpointStack {
public:
  static constexpr unsigned FallbackStride = 16;

  /// Frame \p Depth was pushed with \p NumMoves moves while \p M holds
  /// its state; \p BudgetBytes caps the live bytes of dense checkpoints.
  void framePushed(const Machine &M, size_t Depth, size_t NumMoves,
                   size_t BudgetBytes) {
    if (Depth % FallbackStride == 0) {
      push(M, Depth, M.snapshotBytes());
      return;
    }
    if (NumMoves <= 1 || Live >= BudgetBytes)
      return;
    size_t Bytes = M.snapshotBytes();
    if (Live + Bytes <= BudgetBytes)
      push(M, Depth, Bytes);
  }

  /// Drops the checkpoints of frames that were popped (depth >= \p Size).
  /// Their slots stay allocated for reuse.
  void popTo(size_t Size) {
    while (Count != 0 && Slots[Count - 1].Depth >= Size) {
      Live -= Slots[Count - 1].Bytes;
      --Count;
    }
  }

  /// Restores \p M to the state of \p Frames[Target] (a vector of frames
  /// with a `Taken` move): the nearest checkpoint, then a replay of the
  /// moves above it. Returns the number of moves replayed.
  template <typename FrameT>
  uint64_t restore(Machine &M, const std::vector<FrameT> &Frames,
                   size_t Target) const {
    assert(Count != 0 && "no checkpoint below the target frame");
    const Checkpoint &C = Slots[Count - 1];
    assert(C.Depth <= Target && "checkpoint deeper than target frame");
    M.restore(C.Snap);
    for (size_t I = C.Depth + 1; I <= Target; ++I) {
      assert(!M.error() && "replayed a previously clean path into error");
      M.applyMove(Frames[I].Taken);
    }
    return Target - C.Depth;
  }

  /// Peak live checkpoint bytes so far.
  size_t peakBytes() const { return Peak; }

private:
  struct Checkpoint {
    size_t Depth = 0; ///< Frame index the snapshot corresponds to.
    size_t Bytes = 0; ///< Machine::snapshotBytes() when taken.
    Machine::Snapshot Snap;
  };

  void push(const Machine &M, size_t Depth, size_t Bytes) {
    if (Count == Slots.size())
      Slots.emplace_back();
    Checkpoint &C = Slots[Count++];
    C.Depth = Depth;
    C.Bytes = Bytes;
    M.snapshot(C.Snap);
    Live += Bytes;
    Peak = std::max(Peak, Live);
  }

  /// Slots[0..Count) are the live checkpoints, bottom to top; the rest
  /// keep their buffers from earlier, deeper descents.
  std::vector<Checkpoint> Slots;
  size_t Count = 0;
  size_t Live = 0;
  size_t Peak = 0;
};

//===----------------------------------------------------------------------===//
// Work items and the shared queue
//===----------------------------------------------------------------------===//

/// One unexplored subtree: a full machine snapshot of its root state
/// (already counted and inserted into the visited set by whoever
/// discovered it) plus the move path from the search root, kept for
/// counterexample traces, and the per-level move indices, kept for the
/// deterministic violation tie-break.
struct WorkItem {
  Machine::Snapshot Snap;
  std::vector<Move> Path;
  std::vector<uint32_t> Index;
};

/// MPMC queue of work items with completion tracking: Outstanding
/// counts items queued plus items being processed, so pop() can return
/// "all done" exactly when the whole tree is explored.
class WorkQueue {
public:
  explicit WorkQueue(size_t LowWaterMark) : LowWater(LowWaterMark) {}

  void push(WorkItem Item) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Items.push_back(std::move(Item));
      ++Outstanding;
      ++Pushes;
      Approx.store(Items.size(), std::memory_order_relaxed);
    }
    CV.notify_one();
  }

  /// Blocks until an item is available, every item is done, or the
  /// search was stopped. Returns false in the latter two cases.
  bool pop(WorkItem &Out) {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock,
            [&] { return Stopped || !Items.empty() || Outstanding == 0; });
    if (Stopped || Items.empty())
      return false;
    Out = std::move(Items.front());
    Items.pop_front();
    Approx.store(Items.size(), std::memory_order_relaxed);
    return true;
  }

  /// The subtree of a popped item is fully explored.
  void taskDone() {
    std::lock_guard<std::mutex> Lock(M);
    if (--Outstanding == 0)
      CV.notify_all();
  }

  /// Violation or state limit: wake every blocked worker to exit.
  void stopAll() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stopped = true;
    }
    CV.notify_all();
  }

  /// Cheap hint for the offload heuristic (racy by design).
  bool hungry() const {
    return Approx.load(std::memory_order_relaxed) < LowWater;
  }

  /// Racy queue-length snapshot for progress reporting.
  size_t approxSize() const {
    return Approx.load(std::memory_order_relaxed);
  }

  /// Total items ever pushed; read after the workers joined.
  uint64_t pushes() const { return Pushes; }

private:
  mutable std::mutex M;
  std::condition_variable CV;
  std::deque<WorkItem> Items;
  size_t Outstanding = 0;
  uint64_t Pushes = 0;
  bool Stopped = false;
  std::atomic<size_t> Approx{0};
  size_t LowWater;
};

//===----------------------------------------------------------------------===//
// First-violation slot
//===----------------------------------------------------------------------===//

/// Collects violation candidates from the workers; the winner is the
/// lexicographically smallest move-index path (an ancestor beats its
/// descendants, a left sibling beats a right one) — i.e. the candidate
/// a one-worker DFS would have reported first, among those found before
/// the stop flag propagated.
class ViolationSlot {
public:
  void offer(const McResult &V, std::vector<Move> Moves,
             std::vector<uint32_t> Index, const ModuleIR &Module) {
    std::lock_guard<std::mutex> Lock(M);
    if (Found &&
        !std::lexicographical_compare(Index.begin(), Index.end(),
                                      BestIndex.begin(), BestIndex.end()))
      return;
    Found = true;
    BestIndex = std::move(Index);
    Best = V;
    Best.TraceMoves = std::move(Moves);
    Best.Trace.clear();
    for (const Move &Mv : Best.TraceMoves)
      Best.Trace.push_back(Mv.str(Module));
  }

  bool found() const {
    std::lock_guard<std::mutex> Lock(M);
    return Found;
  }

  /// Merges the winning violation into \p Result; call after join.
  void mergeInto(McResult &Result) const {
    Result.Verdict = McVerdict::Violation;
    Result.Violation = Best.Violation;
    Result.Deadlock = Best.Deadlock;
    Result.LeakedObjects = Best.LeakedObjects;
    Result.Trace = Best.Trace;
    Result.TraceMoves = Best.TraceMoves;
  }

private:
  mutable std::mutex M;
  bool Found = false;
  std::vector<uint32_t> BestIndex;
  McResult Best;
};

//===----------------------------------------------------------------------===//
// Worker state
//===----------------------------------------------------------------------===//

struct WorkerStats {
  uint64_t Explored = 0;
  uint64_t Stored = 0;
  uint64_t Transitions = 0;
  uint64_t Replayed = 0;
  size_t CheckpointBytes = 0; ///< Peak live checkpoint bytes.
  uint64_t Items = 0; ///< Work items popped (own pushes + steals).
  size_t MaxDepthReached = 0;
  bool DepthTruncated = false;
  // Partial-order reduction accounting (--por).
  uint64_t PorReduced = 0;
  uint64_t PorFull = 0;
  uint64_t PorProvisoRejected = 0;
  // Transition cache (one per worker).
  uint64_t CacheHits = 0;
  size_t PoolBytes = 0;  ///< Peak segment-pool bytes.
  size_t CacheBytes = 0; ///< Peak entry-table bytes.
};

/// Everything a worker thread owns: its Machine over the shared
/// read-only module and compiled program, the scratch buffer of its
/// state vectors, its transition cache, counters.
struct WorkerCtx {
  Machine M;
  WorkerStats Stats;
  unsigned Wid = 0;    // Progress-slot index.
  std::mt19937_64 Rng; // Swarm move-order shuffling only.
  std::string Raw;
  /// The current work item's DFS checkpoints.
  CheckpointStack Checkpoints;
  /// This worker's share of the visited set's bytes, the budget for its
  /// dense checkpoints and for its transition cache; refreshed as the
  /// set grows.
  size_t CheckpointBudget = 0;
  TransitionCache Cache;
  /// The parts (TransitionCache) of each DFS frame's state, Cache.
  /// partsWords() words a frame, and a slot for the successor past the
  /// top.
  std::vector<uint32_t> Parts;

  WorkerCtx(const ModuleIR &Module, const McOptions &Options,
            const MachineOptions &MO,
            std::shared_ptr<const CompiledProgram> Compiled)
      : M(Module, MO, std::move(Compiled)), Cache(withEnv(M, Options.Env)) {}

  /// \p M with its environment model set, which the cache reads.
  static const Machine &withEnv(Machine &M, const EnvModel *Env) {
    M.setEnvModel(Env);
    return M;
  }

  /// Frame \p Depth's parts, with room for \p Depth + 1's.
  uint32_t *parts(size_t Depth) {
    const size_t Words = Cache.partsWords();
    if (Parts.size() < (Depth + 2) * Words)
      Parts.resize(2 * (Depth + 2) * Words);
    return Parts.data() + Depth * Words;
  }

  /// Final counters of this worker.
  WorkerStats stats() {
    Stats.CheckpointBytes = Checkpoints.peakBytes();
    Stats.CacheHits = Cache.hits();
    Stats.PoolBytes = Cache.peakPoolBytes();
    Stats.CacheBytes = Cache.peakTableBytes();
    return Stats;
  }
};

/// The transition cache's memory floor, for a worker whose share of the
/// visited set is still small.
constexpr size_t kCacheFloorBytes = size_t(1) << 20;

/// Sums the joined workers' counters into \p Result.
void aggregate(McResult &Result, const std::vector<WorkerStats> &Stats) {
  Result.JobsUsed = static_cast<unsigned>(Stats.size());
  for (const WorkerStats &S : Stats) {
    Result.StatesExplored += S.Explored;
    Result.StatesStored += S.Stored;
    Result.Transitions += S.Transitions;
    Result.ReplayedMoves += S.Replayed;
    Result.CheckpointBytes += S.CheckpointBytes;
    Result.TransitionCacheHits += S.CacheHits;
    Result.SegmentPoolBytes += S.PoolBytes;
    Result.TransitionCacheBytes += S.CacheBytes;
    Result.DepthTruncated |= S.DepthTruncated;
    Result.MaxDepthReached = std::max(
        Result.MaxDepthReached, static_cast<unsigned>(S.MaxDepthReached));
    Result.WorkerExplored.push_back(S.Explored);
    Result.WorkerItems.push_back(S.Items);
    Result.PorReducedStates += S.PorReduced;
    Result.PorFullStates += S.PorFull;
    Result.PorProvisoUpgrades += S.PorProvisoRejected;
  }
}

/// Runs \p Body(Wid) for each of \p Jobs workers and joins them; a lone
/// worker runs on the calling thread.
template <typename Fn> void runWorkers(unsigned Jobs, Fn Body) {
  if (Jobs == 1) {
    Body(0u);
    return;
  }
  std::vector<std::thread> Threads;
  Threads.reserve(Jobs);
  for (unsigned Wid = 0; Wid != Jobs; ++Wid)
    Threads.emplace_back([&Body, Wid] { Body(Wid); });
  for (std::thread &T : Threads)
    T.join();
}

//===----------------------------------------------------------------------===//
// The cooperative DFS
//===----------------------------------------------------------------------===//

class ParallelDfs {
public:
  ParallelDfs(const ModuleIR &Module, const McOptions &Options, unsigned Jobs)
      : Module(Module), Options(Options), Jobs(Jobs),
        MO(verifyMachineOptions(Options)),
        Compiled(Machine::compileProgram(Module)),
        Queue(/*LowWaterMark=*/2 * Jobs) {
    // --por: one shared selector (const and thread-safe after
    // construction). Swarm shuffles move order per worker, which would
    // scatter the ample prefix, so it never reduces (espmc rejects the
    // combination up front).
    if (Options.Por && !Options.Swarm)
      Por = std::make_unique<PorContext>(Module, Options.EnvSendBudget != 0);
  }

  McResult run();
  McResult runSwarm();

private:
  /// Lock stripes for the shared visited set: one for a lone worker,
  /// which has nobody to contend with.
  static unsigned log2Shards(unsigned Jobs) { return Jobs == 1 ? 0 : 6; }

  ConcurrentVisitedSet makeVisited(uint64_t BitSeed) const {
    if (Options.Mode == SearchMode::BitState)
      return ConcurrentVisitedSet::bitState(
          clampedBitStateBits(Options.BitStateBits), BitSeed);
    if (Options.Visited == VisitedKind::Exact)
      return ConcurrentVisitedSet::exact(log2Shards(Jobs));
    return ConcurrentVisitedSet::hashCompact(log2Shards(Jobs));
  }

  bool startRoot(WorkerCtx &Root, ConcurrentVisitedSet &Table,
                 McResult &Result);
  void processItem(WorkerCtx &W, const WorkItem &Item,
                   ConcurrentVisitedSet &Visited, bool AllowOffload,
                   bool Shuffle, ConcurrentVisitedSet *UnionTable);
  void workerMain(unsigned Wid, ConcurrentVisitedSet &Visited);
  void finish(McResult &Result);

  const ModuleIR &Module;
  const McOptions &Options;
  const unsigned Jobs;
  const MachineOptions MO;
  /// Compiled once per search; every worker's Machine shares it.
  const std::shared_ptr<const CompiledProgram> Compiled;

  WorkQueue Queue;
  ViolationSlot Slot;
  std::unique_ptr<PorContext> Por;
  std::vector<WorkerStats> Done;
  std::atomic<uint64_t> GlobalExplored{0};
  std::atomic<bool> Stop{false};
  std::atomic<bool> LimitHit{false};
  /// The root state's fingerprint, set by startRoot.
  uint64_t RootFp = 0;
};

/// One DFS level. Frames do not carry machine snapshots: the state of
/// a frame is re-derived on demand from the nearest checkpoint
/// (CheckpointStack). TakenIndex feeds the deterministic tie-break.
struct Frame {
  Move Taken; ///< Move that produced this frame's state (root: unused).
  uint32_t TakenIndex = 0;
  std::vector<Move> Moves;
  size_t NextMove = 0;
  /// Moves[0..AmpleCount) is the ample prefix; equals Moves.size()
  /// without --por or when no eligible ample subset exists.
  size_t AmpleCount = 0;
  /// The cache generation this frame's parts were captured in.
  uint32_t CacheGen = 0;
};

void ParallelDfs::processItem(WorkerCtx &W, const WorkItem &Item,
                              ConcurrentVisitedSet &Visited,
                              bool AllowOffload, bool Shuffle,
                              ConcurrentVisitedSet *UnionTable) {
  Machine &M = W.M;
  M.restore(Item.Snap);
  const size_t BaseDepth = Item.Path.size();

  std::vector<Frame> Stack;
  CheckpointStack &Checkpoints = W.Checkpoints;
  Checkpoints.popTo(0); // A stopped item may have left checkpoints behind.
  constexpr size_t Dirty = SIZE_MAX;
  size_t MachineAt = Dirty;
  // Cooperative workers share one visited set, so each budgets its
  // checkpoints against its share of it; a swarm worker owns its set.
  const size_t Sharers = AllowOffload ? Jobs : 1;
  const bool KeepsBytes = Visited.keepsBytes();

  // Builds the move path / index path from the item prefix plus the
  // local stack (and optionally the final move).
  auto fullPath = [&](const Move *Final, uint32_t FinalIndex,
                      std::vector<Move> &Moves, std::vector<uint32_t> &Idx) {
    Moves = Item.Path;
    Idx = Item.Index;
    for (size_t I = 1; I < Stack.size(); ++I) {
      Moves.push_back(Stack[I].Taken);
      Idx.push_back(Stack[I].TakenIndex);
    }
    if (Final) {
      Moves.push_back(*Final);
      Idx.push_back(FinalIndex);
    }
  };

  auto reportViolation = [&](const McResult &V, const Move *Final,
                             uint32_t FinalIndex) {
    std::vector<Move> Moves;
    std::vector<uint32_t> Idx;
    fullPath(Final, FinalIndex, Moves, Idx);
    Slot.offer(V, std::move(Moves), std::move(Idx), Module);
    Stop.store(true, std::memory_order_release);
    Queue.stopAll();
  };

  // Pushes the frame of the state the machine holds, reached by Taken
  // (unused for the item's root). The state's violation/leak check was
  // done by whoever inserted it; the enumeration-fault and deadlock
  // checks belong to expansion, so they happen here. False when they
  // found a violation. --por: the ample prefix, cycle proviso included,
  // is a deterministic function of the state (stable partition over the
  // canonical move enumeration), so the reduced state graph does not
  // depend on which worker expands a state.
  auto expand = [&](const Move &Taken, uint32_t TakenIndex) {
    Stack.emplace_back();
    Frame &F = Stack.back();
    F.Taken = Taken;
    F.TakenIndex = TakenIndex;
    F.Moves = M.enumerateMoves();
    if (Shuffle)
      std::shuffle(F.Moves.begin(), F.Moves.end(), W.Rng);
    McResult V;
    if (checkExpansion(M, F.Moves, Options, V)) {
      reportViolation(V, nullptr, 0); // The path ends at this frame.
      return false;
    }
    F.AmpleCount = F.Moves.size();
    if (Por) {
      bool ProvisoRejected = false;
      F.AmpleCount = Por->selectAmple(M, F.Moves, ProvisoRejected);
      if (F.AmpleCount < F.Moves.size())
        ++W.Stats.PorReduced;
      else
        ++W.Stats.PorFull;
      W.Stats.PorProvisoRejected += ProvisoRejected;
    }
    F.CacheGen = W.Cache.generation();
    MachineAt = Stack.size() - 1;
    Checkpoints.framePushed(M, MachineAt, F.Moves.size(),
                            W.CheckpointBudget);
    W.Stats.MaxDepthReached =
        std::max(W.Stats.MaxDepthReached, BaseDepth + Stack.size());
    return true;
  };

  // A new state's frame gets its parts from the transition that reached
  // it; the item's root captures them.
  W.Cache.capture(M, W.parts(0));
  if (!expand(Move(), 0))
    return;

  auto restoreToTop = [&]() {
    size_t Target = Stack.size() - 1;
    if (MachineAt == Target)
      return;
    W.Stats.Replayed += Checkpoints.restore(M, Stack, Target);
    MachineAt = Target;
  };

#ifndef NDEBUG
  // Debug builds check every cache hit against the machine: the served
  // parts must splice into the vector applying the move gives, carry the
  // heap's live count, and their fingerprint must be the one a fresh
  // cache takes of that state. The check leaves MachineAt's meaning and
  // the replay count as they were.
  auto checkHit = [&](const Move &Mv, const uint32_t *Served) {
    const size_t TopIndex = Stack.size() - 1;
    Checkpoints.restore(M, Stack, TopIndex);
    M.applyMove(Mv);
    std::string Spliced;
    W.Cache.splice(Served, Spliced);
    assert(M.serializeState() == Spliced &&
           "the transition cache served a wrong vector");
    TransitionCache Fresh(M);
    std::vector<uint32_t> Captured(Fresh.partsWords());
    Fresh.capture(M, Captured.data());
    assert(Captured.back() == Served[Captured.size() - 1] &&
           "the transition cache served a wrong live count");
    assert(Fresh.fingerprint(Captured.data()) == W.Cache.fingerprint(Served) &&
           "the transition cache served a wrong fingerprint");
    if (MachineAt == TopIndex)
      Checkpoints.restore(M, Stack, TopIndex);
  };
#endif

  // Inserts the state \p Parts into the visited set by its fingerprint,
  // with its spliced vector when the set keeps bytes; a new state also
  // enters a swarm's union table.
  auto insertVisited = [&](const uint32_t *Parts) {
    const uint64_t Fp = W.Cache.fingerprint(Parts);
    if (KeepsBytes)
      W.Cache.splice(Parts, W.Raw);
    if (!Visited.insert(Fp, W.Raw))
      return false;
    if (UnionTable)
      UnionTable->insert(Fp);
    return true;
  };

  // Offload heuristic: hand a fresh subtree to the shared queue only
  // when other workers are hungry AND this worker keeps enough local
  // reserve — a narrow tree should run at pure local-DFS speed.
  auto haveLocalReserve = [&]() {
    size_t Reserve = 0;
    for (size_t I = Stack.size(); I-- > 0;) {
      Reserve += Stack[I].Moves.size() - Stack[I].NextMove;
      if (Reserve > 4)
        return true;
    }
    return false;
  };

  while (!Stack.empty()) {
    if (Stop.load(std::memory_order_relaxed))
      return;
    Frame &Top = Stack.back();
    if (Top.NextMove >= Top.AmpleCount) {
      Stack.pop_back();
      Checkpoints.popTo(Stack.size());
      if (MachineAt != Dirty && MachineAt >= Stack.size())
        MachineAt = Dirty;
      continue;
    }
    if (GlobalExplored.load(std::memory_order_relaxed) >=
        Options.MaxStates) {
      LimitHit.store(true, std::memory_order_relaxed);
      Stop.store(true, std::memory_order_release);
      Queue.stopAll();
      return;
    }
    Move Chosen = Top.Moves[Top.NextMove];
    uint32_t ChosenIndex = static_cast<uint32_t>(Top.NextMove);
    ++Top.NextMove;
    ++W.Stats.Transitions;
    ++W.Stats.Explored;
    GlobalExplored.fetch_add(1, std::memory_order_relaxed);
    // Publish to this worker's private progress slot (relaxed stores of
    // counters this thread alone writes — observe-only, tsan-clean).
    if (obs::SearchProgress *Prog = Options.Progress;
        Prog && W.Wid < obs::kMaxProgressWorkers) {
      obs::WorkerProgress &Slot = Prog->PerWorker[W.Wid];
      Slot.Explored.store(W.Stats.Explored, std::memory_order_relaxed);
      Slot.Transitions.store(W.Stats.Transitions,
                             std::memory_order_relaxed);
      // A lone worker never fills the queue; its frontier is its stack.
      Prog->FrontierDepth.store(Jobs == 1 ? BaseDepth + Stack.size()
                                          : Queue.approxSize(),
                                std::memory_order_relaxed);
    }
    // The successor's parts: from the transition cache, or by applying
    // the move, which then gets cached if the successor is clean.
    W.Cache.enforceBudget(std::max(W.CheckpointBudget, kCacheFloorBytes));
    if (Top.CacheGen != W.Cache.generation()) {
      restoreToTop();
      W.Cache.capture(M, W.parts(Stack.size() - 1));
      Top.CacheGen = W.Cache.generation();
    }
    uint32_t *ParentParts = W.parts(Stack.size() - 1);
    uint32_t *ChildParts = ParentParts + W.Cache.partsWords();
    const bool Hit = W.Cache.lookup(ParentParts, Chosen, ChildParts);
#ifndef NDEBUG
    if (Hit)
      checkHit(Chosen, ChildParts);
#endif
    if (!Hit) {
      restoreToTop();
      M.applyMove(Chosen);
      MachineAt = Dirty;
      McResult V;
      size_t Reached =
          M.error() ? 0 : W.Cache.successor(M, ParentParts, Chosen, ChildParts);
      if (checkStateViolation(M, Options, V, Reached)) {
        reportViolation(V, &Chosen, ChosenIndex);
        return;
      }
      W.Cache.record(ParentParts, Chosen, ChildParts);
    }
    if (!insertVisited(ChildParts))
      continue;
    ++W.Stats.Stored;
    if (W.Stats.Stored % 256 == 0)
      W.CheckpointBudget = Visited.bytes() / Sharers;
    if (obs::SearchProgress *Prog = Options.Progress;
        Prog && W.Wid < obs::kMaxProgressWorkers) {
      Prog->PerWorker[W.Wid].Stored.store(W.Stats.Stored,
                                          std::memory_order_relaxed);
      // bytes() locks every shard, so sample it sparsely.
      if (W.Stats.Stored % 32768 == 0)
        Prog->VisitedBytes.store(Visited.bytes(), std::memory_order_relaxed);
    }
    if (BaseDepth + Stack.size() >= Options.MaxDepth) {
      // Depth-bounded prune: the subtree below this state is not
      // explored, so an error-free search is only PartialOK.
      W.Stats.DepthTruncated = true;
      continue;
    }
    if (Hit) {
      // A new state reached through the cache: its parts are complete,
      // but the machine must hold it to expand it or hand it off.
      restoreToTop();
      M.applyMove(Chosen);
      MachineAt = Dirty;
    }
    if (AllowOffload && Queue.hungry() && haveLocalReserve()) {
      WorkItem Child;
      Child.Snap = M.snapshot();
      std::vector<Move> Moves;
      std::vector<uint32_t> Idx;
      fullPath(&Chosen, ChosenIndex, Moves, Idx);
      Child.Path = std::move(Moves);
      Child.Index = std::move(Idx);
      Queue.push(std::move(Child));
      continue;
    }
    if (!expand(Chosen, ChosenIndex))
      return;
  }
}

void ParallelDfs::workerMain(unsigned Wid, ConcurrentVisitedSet &Visited) {
  WorkerCtx W(Module, Options, MO, Compiled);
  W.Wid = Wid;
  // A lone worker never offloads: nobody else would take the item.
  const bool AllowOffload = Jobs > 1;
  WorkItem Item;
  while (Queue.pop(Item)) {
    ++W.Stats.Items;
    if (obs::SearchProgress *Prog = Options.Progress;
        Prog && Wid < obs::kMaxProgressWorkers)
      Prog->PerWorker[Wid].Items.store(W.Stats.Items,
                                       std::memory_order_relaxed);
    processItem(W, Item, Visited, AllowOffload, /*Shuffle=*/false,
                /*UnionTable=*/nullptr);
    Queue.taskDone();
  }
  Done[Wid] = W.stats();
}

/// Starts \p Root's machine at the search root, counts the root state and
/// checks it. A clean root is inserted into \p Table like any state, and
/// its fingerprint is left in RootFp; false when the root itself violates
/// (\p Result then holds the violation).
bool ParallelDfs::startRoot(WorkerCtx &Root, ConcurrentVisitedSet &Table,
                            McResult &Result) {
  Machine &M = Root.M;
  M.start();
  ++Result.StatesExplored;
  GlobalExplored.store(1, std::memory_order_relaxed);
  uint32_t *Parts = Root.parts(0);
  size_t Reached = 0;
  if (!M.error()) { // A faulted root has no segments to take.
    Reached = Root.Cache.capture(M, Parts);
    Root.Cache.splice(Parts, Root.Raw);
    Result.StateVectorBytes = Root.Raw.size();
  }
  if (checkStateViolation(M, Options, Result, Reached)) {
    Result.MemoryBytes = Table.bytes();
    return false;
  }
  RootFp = Root.Cache.fingerprint(Parts);
  Table.insert(RootFp, Root.Raw);
  ++Result.StatesStored;
  if (obs::SearchProgress *Prog = Options.Progress) {
    // Root-state counts live in the scalar fields; workers add deltas in
    // their private slots, so totals never double-count.
    Prog->Workers.store(std::min<unsigned>(Jobs, obs::kMaxProgressWorkers),
                        std::memory_order_relaxed);
    Prog->Explored.store(Result.StatesExplored, std::memory_order_relaxed);
    Prog->Stored.store(Result.StatesStored, std::memory_order_relaxed);
  }
  return true;
}

/// Sums the joined workers into \p Result and settles its verdict.
void ParallelDfs::finish(McResult &Result) {
  aggregate(Result, Done);
  if (Slot.found())
    Slot.mergeInto(Result);
  else if (LimitHit.load(std::memory_order_relaxed))
    Result.Verdict = McVerdict::StateLimit;
  else
    Result.Verdict = Options.Mode == SearchMode::Exhaustive &&
                             !Result.DepthTruncated
                         ? McVerdict::OK
                         : McVerdict::PartialOK;
}

McResult ParallelDfs::run() {
  McResult Result;
  ConcurrentVisitedSet Visited = makeVisited(/*BitSeed=*/0);
  // The root is checked and inserted on the calling thread, then handed
  // to the workers as the first item.
  WorkerCtx Root(Module, Options, MO, Compiled);
  if (!startRoot(Root, Visited, Result))
    return Result;
  WorkItem RootItem;
  RootItem.Snap = Root.M.snapshot();
  Queue.push(std::move(RootItem));

  Done.assign(Jobs, WorkerStats());
  runWorkers(Jobs,
             [this, &Visited](unsigned Wid) { workerMain(Wid, Visited); });
  finish(Result);
  Result.SharedWorkItems = Queue.pushes() - 1; // Minus the root item.
  Result.MemoryBytes = Visited.bytes();
  return Result;
}

//===----------------------------------------------------------------------===//
// Swarm bit-state: independent seeded searches, union coverage
//===----------------------------------------------------------------------===//

McResult ParallelDfs::runSwarm() {
  McResult Result;
  assert(Options.Mode == SearchMode::BitState && "swarm is bit-state only");
  const unsigned Bits = clampedBitStateBits(Options.BitStateBits);

  // The shared seed-0 table estimates the union of the workers'
  // coverage (and matches the table a cooperative search would use).
  ConcurrentVisitedSet UnionTable = ConcurrentVisitedSet::bitState(Bits, 0);
  WorkerCtx Root(Module, Options, MO, Compiled);
  if (!startRoot(Root, UnionTable, Result))
    return Result;
  WorkItem RootItem;
  RootItem.Snap = Root.M.snapshot();

  Done.assign(Jobs, WorkerStats());
  runWorkers(Jobs, [&](unsigned Wid) {
    // Worker 0 reproduces the one-worker search (seed 0, canonical
    // move order); the rest randomize both the hash slice and the
    // traversal order, SPIN-swarm style.
    uint64_t BitSeed =
        Wid == 0 ? 0 : mix64(Options.Seed ^ (0x9e3779b97f4a7c15ULL * Wid));
    ConcurrentVisitedSet Own = ConcurrentVisitedSet::bitState(Bits, BitSeed);
    WorkerCtx W(Module, Options, MO, Compiled);
    W.Wid = Wid;
    W.Stats.Items = 1; // Each swarm worker runs exactly the root item.
    W.Rng.seed(mix64(Options.Seed + Wid));
    // Insert the root into the private table so the collision
    // behavior matches a standalone search with this seed.
    Own.insert(RootFp);
    processItem(W, RootItem, Own, /*AllowOffload=*/false,
                /*Shuffle=*/Wid != 0, &UnionTable);
    Done[Wid] = W.stats();
  });

  finish(Result);
  // For swarm, StatesStored reports the union coverage estimate: the
  // per-worker stored counts overlap heavily and are kept in
  // WorkerExplored/report() instead.
  Result.StatesStored = UnionTable.size();
  Result.MemoryBytes = UnionTable.bytes() * (1 + Jobs);
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// Simulation
//===----------------------------------------------------------------------===//

namespace {

/// The length bound of one random walk.
constexpr unsigned kSimulationDepth = 4096;

McResult runParallelSimulation(const ModuleIR &Module,
                               const McOptions &Options, unsigned Jobs) {
  McResult Result;
  const MachineOptions MO = verifyMachineOptions(Options);
  const std::shared_ptr<const CompiledProgram> Compiled =
      Machine::compileProgram(Module);
  ViolationSlot Slot;
  std::atomic<bool> Stop{false};
  std::vector<WorkerStats> Stats(Jobs);
  std::atomic<size_t> RootVectorBytes{0};
  obs::SearchProgress *Prog = Options.Progress;
  if (Prog)
    Prog->Workers.store(std::min<unsigned>(Jobs, obs::kMaxProgressWorkers),
                        std::memory_order_relaxed);

  runWorkers(Jobs, [&](unsigned Wid) {
    WorkerStats &S = Stats[Wid];
    // Runs are partitioned round-robin; each run's seed is derived
    // from McOptions::Seed and the run index, so the walk a given run
    // takes does not depend on which worker executes it.
    for (uint64_t Run = Wid; Run < Options.SimulationRuns; Run += Jobs) {
      if (Stop.load(std::memory_order_relaxed))
        return;
      ++S.Items; // One item per simulation run.
      if (Prog && Wid < obs::kMaxProgressWorkers) {
        obs::WorkerProgress &PSlot = Prog->PerWorker[Wid];
        PSlot.Explored.store(S.Explored, std::memory_order_relaxed);
        PSlot.Transitions.store(S.Transitions,
                                std::memory_order_relaxed);
        PSlot.Items.store(S.Items, std::memory_order_relaxed);
      }
      std::mt19937_64 Rng(
          mix64(Options.Seed ^ (0x9e3779b97f4a7c15ULL * (Run + 1))));
      Machine M(Module, MO, Compiled);
      M.setEnvModel(Options.Env);
      M.start();
      if (Run == 0)
        RootVectorBytes.store(M.serializeState().size(),
                              std::memory_order_relaxed);
      std::vector<Move> TraceMoves;
      auto reportViolation = [&](const McResult &V) {
        Slot.offer(V, TraceMoves,
                   {static_cast<uint32_t>(Run)}, Module);
        Stop.store(true, std::memory_order_release);
      };
      for (unsigned Depth = 0; Depth != kSimulationDepth; ++Depth) {
        ++S.Explored;
        McResult V;
        if (checkStateViolation(M, Options, V)) {
          reportViolation(V);
          return;
        }
        std::vector<Move> Moves = M.enumerateMoves();
        if (checkExpansion(M, Moves, Options, V)) {
          reportViolation(V);
          return;
        }
        if (Moves.empty())
          break; // Normal termination.
        const Move &Chosen =
            Moves[std::uniform_int_distribution<size_t>(
                0, Moves.size() - 1)(Rng)];
        TraceMoves.push_back(Chosen);
        M.applyMove(Chosen);
        ++S.Transitions;
        S.MaxDepthReached = std::max<size_t>(S.MaxDepthReached, Depth + 1);
      }
    }
  });

  aggregate(Result, Stats);
  Result.StateVectorBytes = RootVectorBytes.load(std::memory_order_relaxed);
  if (Slot.found())
    Slot.mergeInto(Result);
  else
    Result.Verdict = McVerdict::PartialOK;
  return Result;
}

} // namespace

McResult esp::runParallelSearch(const ModuleIR &Module,
                                const McOptions &Options, unsigned Jobs) {
  auto Start = std::chrono::steady_clock::now();
  McResult Result;
  switch (Options.Mode) {
  case SearchMode::Simulation:
    Result = runParallelSimulation(Module, Options, Jobs);
    break;
  case SearchMode::BitState:
    if (Options.Swarm) {
      ParallelDfs Engine(Module, Options, Jobs);
      Result = Engine.runSwarm();
      break;
    }
    [[fallthrough]];
  case SearchMode::Exhaustive: {
    ParallelDfs Engine(Module, Options, Jobs);
    Result = Engine.run();
    break;
  }
  }
  Result.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Result;
}
