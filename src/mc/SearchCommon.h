//===--- SearchCommon.h - Shared search-engine helpers ----------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal helpers shared by the sequential (ModelChecker.cpp) and
/// parallel (ParallelSearch.cpp) search engines. The two engines must
/// agree exactly on what counts as a violation for the determinism
/// guarantee (--jobs N reports the --jobs 1 verdict on completed
/// searches), so the state checks live here, once. So does the DFS
/// checkpoint policy (CheckpointStack).
///
//===----------------------------------------------------------------------===//

#ifndef ESP_MC_SEARCHCOMMON_H
#define ESP_MC_SEARCHCOMMON_H

#include "mc/ModelChecker.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>
#include <vector>

namespace esp {
namespace mc_detail {

/// Machine configuration for verification mode: deep-copy transfers
/// (the paper's semantic model) over a bounded object table.
inline MachineOptions verifyMachineOptions(const McOptions &Options) {
  MachineOptions MO;
  MO.MaxObjects = Options.MaxObjects;
  MO.ReuseObjectIds = true;
  MO.DeepCopyTransfers = true;
  MO.EnvSendBudget = Options.EnvSendBudget;
  return MO;
}

/// Checks the machine's current state for violations (runtime error or
/// leaked objects); fills \p Result's violation fields and returns true
/// when one is found. \p Reached, when given, is the object count the
/// serialization of this very state returned: the leak check then folds
/// into that walk (Machine::countLeakedObjects(size_t)) instead of
/// sweeping the heap again.
inline bool checkStateViolation(Machine &M, const McOptions &Options,
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

/// Deadlock check over an already-enumerated move list: no enabled move
/// while some process is still blocked.
inline bool checkDeadlockViolation(Machine &M, const std::vector<Move> &Moves,
                                   const McOptions &Options,
                                   McResult &Result) {
  if (!Options.CheckDeadlock || !Moves.empty() || M.error())
    return false;
  bool AnyBlocked = false;
  for (unsigned I = 0, E = M.numProcesses(); I != E; ++I)
    AnyBlocked |= M.proc(I).St == ProcState::Status::Blocked;
  if (!AnyBlocked)
    return false; // All processes finished: normal termination.
  if (M.stuckOnEnvBudget())
    return false; // Finite workload consumed: quiescence, not deadlock.
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
/// An explicit McOptions::SnapshotStride N checkpoints every N-th level.
/// The default (0, auto) checkpoints every frame the DFS will return to,
/// i.e. every frame with more than one move, which makes backtracking a
/// plain restore. Dense checkpoints stop once the live checkpoint bytes
/// would exceed a budget (the visited set's own bytes, so a deep, narrow
/// search cannot spend more on snapshots than on its state store); past
/// that point the fixed FallbackStride bounds every replay.
class CheckpointStack {
public:
  static constexpr unsigned FallbackStride = 16;

  explicit CheckpointStack(unsigned SnapshotStride)
      : Auto(SnapshotStride == 0),
        Stride(Auto ? FallbackStride : SnapshotStride) {}

  /// Frame \p Depth was pushed with \p NumMoves moves while \p M holds
  /// its state; \p BudgetBytes caps the live bytes of dense checkpoints.
  void framePushed(const Machine &M, size_t Depth, size_t NumMoves,
                   size_t BudgetBytes) {
    if (Depth % Stride == 0) {
      push(M, Depth, M.snapshotBytes());
      return;
    }
    if (!Auto || NumMoves <= 1 || Live >= BudgetBytes)
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

  const bool Auto;
  const unsigned Stride;
  /// Slots[0..Count) are the live checkpoints, bottom to top; the rest
  /// keep their buffers from earlier, deeper descents.
  std::vector<Checkpoint> Slots;
  size_t Count = 0;
  size_t Live = 0;
  size_t Peak = 0;
};

} // namespace mc_detail
} // namespace esp

#endif // ESP_MC_SEARCHCOMMON_H
