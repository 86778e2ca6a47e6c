//===--- ModelChecker.cpp - Explicit-state model checker --------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mc/ModelChecker.h"

#include "mc/ParallelSearch.h"
#include "obs/Json.h"

#include <algorithm>
#include <sstream>
#include <thread>

using namespace esp;

unsigned esp::clampedBitStateBits(unsigned Bits) {
  return std::clamp(Bits, MinBitStateBits, MaxBitStateBits);
}

McResult esp::checkModel(const ModuleIR &Module, const McOptions &Options) {
  unsigned Jobs = Options.Jobs != 0
                      ? Options.Jobs
                      : std::max(1u, std::thread::hardware_concurrency());
  return runParallelSearch(Module, Options, Jobs);
}

bool esp::replayTrace(const ModuleIR &Module, const McOptions &Options,
                      const McResult &Result) {
  if (!Result.foundViolation())
    return false;
  Machine M(Module, verifyMachineOptions(Options));
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
    return !M.error() && isDeadlocked(M, M.enumerateMoves());
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
  OS << "state-vector " << StateVectorBytes << " byte, depth reached "
     << MaxDepthReached << "\n";
  OS << StatesExplored << " states, explored\n";
  OS << StatesStored << " states, stored\n";
  OS << Transitions << " transitions\n";
  if (PorReducedStates || PorFullStates || PorProvisoUpgrades)
    OS << "partial-order reduction: " << PorReducedStates
       << " state(s) expanded with an ample subset, " << PorFullStates
       << " fully, " << PorProvisoUpgrades
       << " state(s) where the cycle proviso rejected an ample subset\n";
  if (ReplayedMoves || CheckpointBytes)
    OS << ReplayedMoves << " moves replayed (checkpoint restore), "
       << (CheckpointBytes / 1024.0 / 1024.0)
       << " Mbyte peak checkpoint snapshots\n";
  if (TransitionCacheHits || SegmentPoolBytes || TransitionCacheBytes)
    OS << TransitionCacheHits << " transitions served by the transition "
       << "cache, " << ((SegmentPoolBytes + TransitionCacheBytes) / 1024.0)
       << " Kbyte peak cache\n";
  if (JobsUsed > 1) {
    OS << JobsUsed << " workers (";
    for (size_t I = 0; I != WorkerExplored.size(); ++I)
      OS << (I ? " " : "") << WorkerExplored[I];
    OS << " states each), " << SharedWorkItems
       << " work item(s) shared\n";
  }
  OS << "memory usage (visited set): " << (MemoryBytes / 1024.0 / 1024.0)
     << " Mbyte\n";
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
  Root.set("memory_bytes", JsonValue::integer(MemoryBytes));
  Root.set("replayed_moves", JsonValue::integer(ReplayedMoves));
  Root.set("checkpoint_bytes", JsonValue::integer(CheckpointBytes));
  Root.set("transition_cache_hits", JsonValue::integer(TransitionCacheHits));
  Root.set("segment_pool_bytes", JsonValue::integer(SegmentPoolBytes));
  Root.set("transition_cache_bytes",
           JsonValue::integer(TransitionCacheBytes));
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
