//===--- EventSim.h - Discrete-event simulation core ------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal discrete-event simulator: a time-ordered event queue with
/// stable FIFO ordering for simultaneous events. Times are in
/// nanoseconds. This is the substrate under the Myrinet NIC model used
/// by the VMMC evaluation (§6.2).
///
//===----------------------------------------------------------------------===//

#ifndef ESP_SIM_EVENTSIM_H
#define ESP_SIM_EVENTSIM_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace esp {
namespace sim {

using SimTime = uint64_t; ///< Nanoseconds.

/// A time-ordered event queue. Events at equal times fire in scheduling
/// order (stable), which keeps simulations deterministic.
class EventQueue {
public:
  using Callback = std::function<void()>;

  SimTime now() const { return Now; }

  /// Schedules \p Fn at absolute time \p At (clamped to now()).
  void scheduleAt(SimTime At, Callback Fn) {
    if (At < Now)
      At = Now;
    Heap.push_back(Event{At, NextSeq++, std::move(Fn)});
    std::push_heap(Heap.begin(), Heap.end(), Later());
  }

  /// Schedules \p Fn \p Delay nanoseconds from now.
  void scheduleAfter(SimTime Delay, Callback Fn) {
    scheduleAt(Now + Delay, std::move(Fn));
  }

  bool empty() const { return Heap.empty(); }
  size_t pending() const { return Heap.size(); }

  /// Fires the next event; returns false when the queue is empty. The
  /// event is moved out of the heap, so its callback is never copied.
  bool step() {
    if (Heap.empty())
      return false;
    std::pop_heap(Heap.begin(), Heap.end(), Later());
    Event E = std::move(Heap.back());
    Heap.pop_back();
    Now = E.At;
    E.Fn();
    return true;
  }

  /// Runs until the queue drains or simulated time exceeds \p Until.
  void runUntil(SimTime Until) {
    while (!Heap.empty() && Heap.front().At <= Until)
      step();
    if (Now < Until)
      Now = Until;
  }

  /// Runs until the queue drains completely.
  void runAll(uint64_t MaxEvents = UINT64_MAX) {
    while (MaxEvents-- && step())
      ;
  }

private:
  struct Event {
    SimTime At;
    uint64_t Seq;
    Callback Fn;
  };
  struct Later {
    bool operator()(const Event &A, const Event &B) const {
      if (A.At != B.At)
        return A.At > B.At;
      return A.Seq > B.Seq;
    }
  };

  SimTime Now = 0;
  uint64_t NextSeq = 0;
  /// A binary heap under Later: front() is the earliest event.
  std::vector<Event> Heap;
};

} // namespace sim
} // namespace esp

#endif // ESP_SIM_EVENTSIM_H
