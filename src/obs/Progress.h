//===--- Progress.h - Model-checker search telemetry ------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live counters a running search publishes for `espmc --progress`: a
/// background ticker thread reads them while the search writes with
/// relaxed stores. Every worker has its own padded slot (no shared-line
/// traffic on the hot path); totals are the sum of the slots plus the
/// root-state contribution. All telemetry is
/// observe-only — attaching a SearchProgress changes no verdict and no
/// stored-state count.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_OBS_PROGRESS_H
#define ESP_OBS_PROGRESS_H

#include <array>
#include <atomic>
#include <cstdint>

namespace esp {
namespace obs {

inline constexpr unsigned kMaxProgressWorkers = 64;

struct alignas(64) WorkerProgress {
  std::atomic<uint64_t> Explored{0};
  std::atomic<uint64_t> Stored{0};
  std::atomic<uint64_t> Transitions{0};
  /// Work items this worker popped from the shared queue (its share of
  /// the work-stealing traffic).
  std::atomic<uint64_t> Items{0};
};

class SearchProgress {
public:
  /// The root-state contribution, counted before the workers start;
  /// everything else is published per worker.
  std::atomic<uint64_t> Explored{0};
  std::atomic<uint64_t> Stored{0};
  std::atomic<uint64_t> Transitions{0};
  /// DFS stack depth of a one-worker search; the shared work-queue
  /// length otherwise.
  std::atomic<uint64_t> FrontierDepth{0};
  /// Visited-set memory, refreshed at a coarse stride (0 until the
  /// first refresh).
  std::atomic<uint64_t> VisitedBytes{0};
  /// Number of per-worker slots in use.
  std::atomic<unsigned> Workers{0};
  std::array<WorkerProgress, kMaxProgressWorkers> PerWorker;

  uint64_t totalExplored() const {
    return Explored.load(std::memory_order_relaxed) + sumWorkers(0);
  }
  uint64_t totalStored() const {
    return Stored.load(std::memory_order_relaxed) + sumWorkers(1);
  }
  uint64_t totalTransitions() const {
    return Transitions.load(std::memory_order_relaxed) + sumWorkers(2);
  }

private:
  uint64_t sumWorkers(int Field) const {
    uint64_t Sum = 0;
    unsigned N = Workers.load(std::memory_order_relaxed);
    if (N > kMaxProgressWorkers)
      N = kMaxProgressWorkers;
    for (unsigned I = 0; I != N; ++I) {
      const WorkerProgress &W = PerWorker[I];
      Sum += (Field == 0   ? W.Explored
              : Field == 1 ? W.Stored
                           : W.Transitions)
                 .load(std::memory_order_relaxed);
    }
    return Sum;
  }
};

} // namespace obs
} // namespace esp

#endif // ESP_OBS_PROGRESS_H
