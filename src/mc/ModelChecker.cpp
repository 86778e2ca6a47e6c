//===--- ModelChecker.cpp - Explicit-state model checker --------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mc/ModelChecker.h"

#include "mc/ParallelSearch.h"
#include "mc/Por.h"
#include "mc/SearchCommon.h"
#include "mc/StateStore.h"
#include "obs/Json.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>

using namespace esp;

unsigned esp::clampedBitStateBits(unsigned Bits) {
  return std::clamp(Bits, MinBitStateBits, MaxBitStateBits);
}

namespace {

/// Shared search harness for the three modes.
class Search {
public:
  Search(const ModuleIR &Module, const McOptions &Options)
      : Module(Module), Options(Options) {}

  McResult run() {
    auto Start = std::chrono::steady_clock::now();
    McResult Result;
    switch (Options.Mode) {
    case SearchMode::Exhaustive:
    case SearchMode::BitState:
      Result = dfs();
      break;
    case SearchMode::Simulation:
      Result = simulate();
      break;
    }
    Result.Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    return Result;
  }

private:
  // The state checks are shared with the parallel engine
  // (SearchCommon.h): the determinism guarantee between --jobs 1 and
  // --jobs N rests on both agreeing exactly on what a violation is.
  MachineOptions machineOptions() const {
    return mc_detail::verifyMachineOptions(Options);
  }

  bool checkState(Machine &M, McResult &Result,
                  std::optional<size_t> Reached = std::nullopt) {
    return mc_detail::checkStateViolation(M, Options, Result, Reached);
  }

  bool checkDeadlock(Machine &M, const std::vector<Move> &Moves,
                     McResult &Result) {
    return mc_detail::checkDeadlockViolation(M, Moves, Options, Result);
  }

  //===--- Exhaustive / bit-state DFS --------------------------------------===//

  /// One DFS level. Frames do not carry machine snapshots: the state of
  /// a frame is re-derived on demand from the nearest checkpoint
  /// (mc_detail::CheckpointStack).
  struct Frame {
    Move Taken; ///< Move that produced this frame's state (root: unused).
    std::vector<Move> Moves;
    size_t NextMove = 0;
    /// Moves[0..AmpleCount) is the ample prefix; equals Moves.size()
    /// without --por or when no eligible ample subset exists.
    size_t AmpleCount = 0;
    /// Cycle proviso (C3): an ample edge closed a cycle back into the
    /// DFS stack, so the frame expands its full move list after the
    /// ample prefix.
    bool Upgraded = false;
    /// Visited-set key of this frame's state; only populated under
    /// --por, where it backs the on-stack set for the cycle proviso.
    std::string StateKey;
  };

  /// Emits each move of the counterexample exactly once: the Taken move
  /// of every non-root frame, then \p Final (the move that produced the
  /// violating state) when it has not been pushed as a frame.
  void buildTrace(const std::vector<Frame> &Stack, const Move *Final,
                  McResult &Result) {
    for (size_t I = 1; I < Stack.size(); ++I) {
      Result.TraceMoves.push_back(Stack[I].Taken);
      Result.Trace.push_back(Stack[I].Taken.str(Module));
    }
    if (Final) {
      Result.TraceMoves.push_back(*Final);
      Result.Trace.push_back(Final->str(Module));
    }
  }

  McResult dfs() {
    McResult Result;
    // Live progress publishing is observe-only: relaxed stores of the
    // same counters the result reports, so --progress cannot perturb the
    // search.
    obs::SearchProgress *Prog = Options.Progress;
    VisitedSet Visited =
        Options.Mode == SearchMode::BitState
            ? VisitedSet::bitState(clampedBitStateBits(Options.BitStateBits))
            : Options.Visited == VisitedKind::Exact
                  ? VisitedSet::exact()
                  : VisitedSet::hashCompact(Options.Visited ==
                                            VisitedKind::Hash128);
    // COLLAPSE pays off only when full vectors are stored; fingerprint
    // and bit-state backends hash the flat canonical vector directly.
    const bool UseCollapse = Options.Collapse &&
                             Options.Mode != SearchMode::BitState &&
                             Options.Visited == VisitedKind::Exact;
    StateCompressor Compressor;

    // Scratch buffers reused across every state.
    std::string Raw;
    std::string Control;
    std::string Key;
    std::vector<std::string> Blobs;
    size_t NumObjects = 0;

    // Serializes the current machine state into the scratch buffers: the
    // flat canonical vector, or control bytes + object blobs. Returns the
    // number of heap objects reached, which the leak check reuses.
    auto serialize = [&](Machine &M) -> size_t {
      NumObjects = UseCollapse ? M.serializeComponents(Control, Blobs)
                               : M.serializeState(Raw);
      return NumObjects;
    };
    // The visited-set key of the last serialized state (COLLAPSE: control
    // bytes + interned component indices).
    auto key = [&]() -> const std::string & {
      if (!UseCollapse)
        return Raw;
      Key = Control;
      for (size_t I = 0; I != NumObjects; ++I)
        appendVarint(Key, Compressor.intern(Blobs[I]));
      return Key;
    };

    mc_detail::CheckpointStack Checkpoints(Options.SnapshotStride);
    auto finalize = [&](McResult &R) {
      R.ComponentTableBytes = Compressor.tableBytes();
      R.MemoryBytes = Visited.bytes() + Compressor.tableBytes();
      R.CheckpointBytes = Checkpoints.peakBytes();
    };

    // --por: ample-set selection from the static independence analysis.
    // Built once per search; selection mutates only move order, so the
    // non-POR path stays bit-identical.
    std::unique_ptr<mc_detail::PorContext> Por;
    if (Options.Por)
      Por = std::make_unique<mc_detail::PorContext>(
          Module, Options.EnvSendBudget != 0);
    // States currently on the DFS stack (key -> frame index), maintained
    // only under --por. The cycle proviso (C3) needs to distinguish an
    // edge that closes a cycle (some state on the cycle must expand its
    // full move list, or the deferred moves could be ignored forever
    // around it) from one that merely rejoins an already finished region
    // (safe: that state discharged its own proviso when it was
    // expanded). On a back edge we upgrade the *target* frame: every
    // cycle through the edge passes through the target, so the classic
    // C3 argument goes through, and upgrades concentrate on the few loop
    // head states instead of every predecessor that re-enters a loop.
    std::unordered_map<std::string, size_t> OnStack;
    auto selectAmple = [&](Machine &M, Frame &F) {
      F.AmpleCount = F.Moves.size();
      if (!Por)
        return;
      F.AmpleCount = Por->selectAmple(M, F.Moves);
      if (F.AmpleCount < F.Moves.size())
        ++Result.PorReducedStates;
      else
        ++Result.PorFullStates;
    };

    Machine M(Module, machineOptions());
    M.setEnvModel(Options.Env);
    M.start();
    Result.StateVectorBytes = M.serializeState().size();
    ++Result.StatesExplored;
    if (checkState(M, Result, serialize(M))) {
      finalize(Result);
      return Result;
    }
    std::string RootKeyCopy;
    {
      const std::string &RootKey = key();
      Result.CompressedStateBytes = RootKey.size();
      Visited.insert(RootKey);
      if (Por)
        RootKeyCopy = RootKey;
    }
    ++Result.StatesStored;

    std::vector<Frame> Stack;
    // Frame index whose state the machine currently holds; SIZE_MAX when
    // the machine sits in a state that is not on the stack.
    constexpr size_t Dirty = SIZE_MAX;
    size_t MachineAt = Dirty;

    {
      Frame Root;
      Root.Moves = M.enumerateMoves();
      if (M.error() ? checkState(M, Result)
                    : checkDeadlock(M, Root.Moves, Result)) {
        finalize(Result);
        return Result;
      }
      selectAmple(M, Root);
      if (Por) {
        Root.StateKey = std::move(RootKeyCopy);
        OnStack.emplace(Root.StateKey, 0);
      }
      Stack.push_back(std::move(Root));
      // The root checkpoint is taken after enumerateMoves so that every
      // restore resumes from exactly the state the first child departed
      // from (enumeration probes perturb generation counters, which is
      // canonically invisible but must be replayed consistently).
      Checkpoints.framePushed(M, 0, Stack.back().Moves.size(),
                              Visited.bytes());
      MachineAt = 0;
      Result.MaxDepthReached = 1;
    }

    // Restores the machine to the state of the top frame.
    auto restoreToTop = [&]() {
      size_t Target = Stack.size() - 1;
      if (MachineAt == Target)
        return;
      Result.ReplayedMoves += Checkpoints.restore(M, Stack, Target);
      MachineAt = Target;
    };

    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      if (Top.NextMove >= (Top.Upgraded ? Top.Moves.size() : Top.AmpleCount)) {
        if (Por)
          OnStack.erase(Top.StateKey);
        Stack.pop_back();
        Checkpoints.popTo(Stack.size());
        if (MachineAt != Dirty && MachineAt >= Stack.size())
          MachineAt = Dirty;
        continue;
      }
      if (Result.StatesExplored >= Options.MaxStates) {
        Result.Verdict = McVerdict::StateLimit;
        finalize(Result);
        return Result;
      }
      Move Chosen = Top.Moves[Top.NextMove++];
      restoreToTop();
      M.applyMove(Chosen);
      MachineAt = Dirty;
      ++Result.Transitions;
      ++Result.StatesExplored;
      if (Prog) {
        Prog->Explored.store(Result.StatesExplored,
                             std::memory_order_relaxed);
        Prog->Transitions.store(Result.Transitions,
                                std::memory_order_relaxed);
        Prog->FrontierDepth.store(Stack.size(), std::memory_order_relaxed);
      }
      if (checkState(M, Result, serialize(M))) {
        buildTrace(Stack, &Chosen, Result);
        finalize(Result);
        return Result;
      }
      std::string ChildKeyCopy;
      {
        const std::string &ChildKey = key();
        if (Por)
          ChildKeyCopy = ChildKey;
        if (!Visited.insert(ChildKey)) {
          // Cycle proviso (C3): an edge back onto the DFS stack closes a
          // cycle along which the deferred moves could be ignored
          // forever, so some state on the cycle must expand its full
          // move list. Every such cycle passes through the back edge's
          // target, so upgrading the target frame discharges C3 for all
          // cycles through this edge at once. When the source frame is
          // already fully expanded it lies on the cycle itself and
          // nothing more is needed. Rejoining a finished region is
          // harmless: that state discharged its own proviso when it was
          // expanded.
          if (Por && !Top.Upgraded && Top.AmpleCount < Top.Moves.size()) {
            auto It = OnStack.find(ChildKey);
            if (It != OnStack.end()) {
              Frame &Target = Stack[It->second];
              if (!Target.Upgraded &&
                  Target.AmpleCount < Target.Moves.size()) {
                Target.Upgraded = true;
                ++Result.PorProvisoUpgrades;
              }
            }
          }
          continue;
        }
      }
      ++Result.StatesStored;
      if (Prog) {
        Prog->Stored.store(Result.StatesStored, std::memory_order_relaxed);
        if (Result.StatesStored % 4096 == 0)
          Prog->VisitedBytes.store(Visited.bytes() + Compressor.tableBytes(),
                                   std::memory_order_relaxed);
      }
      if (Stack.size() >= Options.MaxDepth) {
        // Depth-bounded prune: the subtree below this state is not
        // explored, so an error-free search is only PartialOK.
        Result.DepthTruncated = true;
        continue;
      }
      Frame Next;
      Next.Taken = Chosen;
      Next.Moves = M.enumerateMoves();
      // Enumeration itself can fault (ambiguous dispatch, object-table
      // exhaustion while probing); leaks cannot appear here, so only the
      // error needs rechecking.
      if (M.error() ? checkState(M, Result)
                    : checkDeadlock(M, Next.Moves, Result)) {
        buildTrace(Stack, &Chosen, Result);
        finalize(Result);
        return Result;
      }
      selectAmple(M, Next);
      if (Por) {
        Next.StateKey = std::move(ChildKeyCopy);
        OnStack.emplace(Next.StateKey, Stack.size());
      }
      Stack.push_back(std::move(Next));
      MachineAt = Stack.size() - 1;
      Checkpoints.framePushed(M, MachineAt, Stack.back().Moves.size(),
                              Visited.bytes());
      Result.MaxDepthReached = std::max(
          Result.MaxDepthReached, static_cast<unsigned>(Stack.size()));
    }
    Result.Verdict =
        Options.Mode == SearchMode::Exhaustive && !Result.DepthTruncated
            ? McVerdict::OK
            : McVerdict::PartialOK;
    finalize(Result);
    return Result;
  }

  //===--- Random simulation ------------------------------------------------===//

  McResult simulate() {
    McResult Result;
    obs::SearchProgress *Prog = Options.Progress;
    std::mt19937_64 Rng(Options.Seed);
    for (uint64_t Run = 0; Run != Options.SimulationRuns; ++Run) {
      Machine M(Module, machineOptions());
      M.setEnvModel(Options.Env);
      M.start();
      if (Run == 0)
        Result.StateVectorBytes = M.serializeState().size();
      std::vector<std::string> Trace;
      std::vector<Move> TraceMoves;
      for (unsigned Depth = 0; Depth != Options.SimulationDepth; ++Depth) {
        ++Result.StatesExplored;
        if (Prog) {
          Prog->Explored.store(Result.StatesExplored,
                               std::memory_order_relaxed);
          Prog->Transitions.store(Result.Transitions,
                                  std::memory_order_relaxed);
        }
        if (checkState(M, Result)) {
          Result.Trace = Trace;
          Result.TraceMoves = TraceMoves;
          return Result;
        }
        std::vector<Move> Moves = M.enumerateMoves();
        if (checkState(M, Result) || checkDeadlock(M, Moves, Result)) {
          Result.Trace = Trace;
          Result.TraceMoves = TraceMoves;
          return Result;
        }
        if (Moves.empty())
          break; // Normal termination.
        const Move &Chosen =
            Moves[std::uniform_int_distribution<size_t>(0, Moves.size() -
                                                               1)(Rng)];
        Trace.push_back(Chosen.str(Module));
        TraceMoves.push_back(Chosen);
        M.applyMove(Chosen);
        ++Result.Transitions;
        if (Depth + 1 > Result.MaxDepthReached)
          Result.MaxDepthReached = Depth + 1;
      }
    }
    Result.Verdict = McVerdict::PartialOK;
    return Result;
  }

  const ModuleIR &Module;
  const McOptions &Options;
};

} // namespace

McResult esp::checkModel(const ModuleIR &Module, const McOptions &Options) {
  unsigned Jobs = Options.Jobs != 0
                      ? Options.Jobs
                      : std::max(1u, std::thread::hardware_concurrency());
  if (Jobs <= 1) {
    // --jobs 1: the sequential engine, untouched — zero regression risk.
    Search S(Module, Options);
    return S.run();
  }
  return runParallelSearch(Module, Options, Jobs);
}

bool esp::replayTrace(const ModuleIR &Module, const McOptions &Options,
                      const McResult &Result) {
  if (!Result.foundViolation())
    return false;
  MachineOptions MO;
  MO.MaxObjects = Options.MaxObjects;
  MO.ReuseObjectIds = true;
  MO.DeepCopyTransfers = true;
  Machine M(Module, MO);
  M.setEnvModel(Options.Env);
  M.start();
  for (const Move &Step : Result.TraceMoves) {
    if (M.error())
      return false; // Violated before the trace ended.
    std::vector<Move> Moves = M.enumerateMoves();
    if (M.error())
      return false;
    if (std::find(Moves.begin(), Moves.end(), Step) == Moves.end())
      return false; // The reported move is not enabled here.
    M.applyMove(Step);
  }
  if (Result.Deadlock)
    return M.isDeadlocked();
  if (Result.LeakedObjects > 0 && !M.error())
    return M.countLeakedObjects() == Result.LeakedObjects;
  if (!M.error())
    M.enumerateMoves(); // Errors that only surface during enumeration.
  return M.error().Kind == Result.Violation.Kind;
}

std::string McResult::report() const {
  std::ostringstream OS;
  switch (Verdict) {
  case McVerdict::OK:
    OS << "verification completed: no errors found\n";
    break;
  case McVerdict::PartialOK:
    OS << "partial search completed: no errors found\n";
    if (DepthTruncated)
      OS << "  warning: max search depth too small (search truncated at "
            "the depth bound)\n";
    break;
  case McVerdict::StateLimit:
    OS << "search truncated at state limit\n";
    break;
  case McVerdict::Violation:
    if (Deadlock)
      OS << "violation: deadlock\n";
    else
      OS << "violation: " << runtimeErrorKindName(Violation.Kind) << "\n";
    if (!Violation.Message.empty())
      OS << "  " << Violation.Message << "\n";
    break;
  }
  OS << "state-vector " << StateVectorBytes << " byte";
  if (CompressedStateBytes && CompressedStateBytes != StateVectorBytes)
    OS << " (stored " << CompressedStateBytes << " byte)";
  OS << ", depth reached " << MaxDepthReached << "\n";
  OS << StatesExplored << " states, explored\n";
  OS << StatesStored << " states, stored\n";
  OS << Transitions << " transitions\n";
  if (PorReducedStates || PorFullStates || PorProvisoUpgrades)
    OS << "partial-order reduction: " << PorReducedStates
       << " state(s) expanded with an ample subset, " << PorFullStates
       << " fully, " << PorProvisoUpgrades << " proviso upgrade(s)\n";
  if (ReplayedMoves || CheckpointBytes)
    OS << ReplayedMoves << " moves replayed (checkpoint restore), "
       << (CheckpointBytes / 1024.0 / 1024.0)
       << " Mbyte peak checkpoint snapshots\n";
  if (JobsUsed > 1) {
    OS << JobsUsed << " workers (";
    for (size_t I = 0; I != WorkerExplored.size(); ++I)
      OS << (I ? " " : "") << WorkerExplored[I];
    OS << " states each), " << SharedWorkItems
       << " work item(s) shared\n";
  }
  OS << "memory usage (visited set): " << (MemoryBytes / 1024.0 / 1024.0)
     << " Mbyte";
  if (ComponentTableBytes)
    OS << " (component table " << (ComponentTableBytes / 1024.0 / 1024.0)
       << " Mbyte)";
  OS << "\n";
  OS << "elapsed " << Seconds << " s\n";
  if (!Trace.empty()) {
    OS << "counterexample (" << Trace.size() << " moves):\n";
    for (const std::string &Step : Trace)
      OS << "  " << Step << "\n";
  }
  return OS.str();
}

std::string McResult::json() const {
  using obs::JsonValue;
  const char *V = "ok";
  switch (Verdict) {
  case McVerdict::OK:
    V = "ok";
    break;
  case McVerdict::PartialOK:
    V = "partial_ok";
    break;
  case McVerdict::StateLimit:
    V = "state_limit";
    break;
  case McVerdict::Violation:
    V = "violation";
    break;
  }
  JsonValue Root = JsonValue::object();
  Root.set("verdict", JsonValue::str(V));
  Root.set("states_explored", JsonValue::integer(StatesExplored));
  Root.set("states_stored", JsonValue::integer(StatesStored));
  Root.set("transitions", JsonValue::integer(Transitions));
  Root.set("max_depth_reached", JsonValue::integer(MaxDepthReached));
  Root.set("depth_truncated", JsonValue::boolean(DepthTruncated));
  Root.set("state_vector_bytes", JsonValue::integer(StateVectorBytes));
  Root.set("compressed_state_bytes",
           JsonValue::integer(CompressedStateBytes));
  Root.set("memory_bytes", JsonValue::integer(MemoryBytes));
  Root.set("replayed_moves", JsonValue::integer(ReplayedMoves));
  Root.set("checkpoint_bytes", JsonValue::integer(CheckpointBytes));
  Root.set("seconds", JsonValue::number(Seconds));
  Root.set("jobs", JsonValue::integer(JobsUsed));
  if (PorReducedStates || PorFullStates || PorProvisoUpgrades) {
    Root.set("por_reduced_states", JsonValue::integer(PorReducedStates));
    Root.set("por_full_states", JsonValue::integer(PorFullStates));
    Root.set("por_proviso_upgrades",
             JsonValue::integer(PorProvisoUpgrades));
  }
  if (JobsUsed > 1) {
    JsonValue Explored = JsonValue::array();
    for (uint64_t N : WorkerExplored)
      Explored.push(JsonValue::integer(N));
    Root.set("worker_explored", std::move(Explored));
    JsonValue Items = JsonValue::array();
    for (uint64_t N : WorkerItems)
      Items.push(JsonValue::integer(N));
    Root.set("worker_items", std::move(Items));
    Root.set("shared_work_items", JsonValue::integer(SharedWorkItems));
  }
  if (foundViolation()) {
    Root.set("deadlock", JsonValue::boolean(Deadlock));
    Root.set("leaked_objects", JsonValue::integer(LeakedObjects));
    if (!Deadlock)
      Root.set("violation_kind",
               JsonValue::str(runtimeErrorKindName(Violation.Kind)));
    Root.set("trace_moves", JsonValue::integer(Trace.size()));
  }
  return Root.dump(1) + "\n";
}
