//===--- ExternalPort.h - Per-machine bounded event inbox -------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The epoll-style readiness boundary between the load generator and one
/// ESP machine instance: a bounded FIFO of request events. Producers
/// (the load generator) push batches; the single consumer — whichever
/// worker currently runs the machine — peeks/pops through the machine's
/// `Req` ExternalWriter binding.
///
/// The contract the serve scheduler builds on:
///
///  * bounded: pushBatch accepts at most capacity() - depth() events and
///    reports how many it took; the producer handles the remainder
///    (backpressure — the inbox never exceeds its cap, pinned by
///    tests/test_serve.cpp);
///  * FIFO: events leave in push order, so per-connection request order
///    is generation order and the latency bookkeeping can pair
///    completions positionally;
///  * multi-producer / single-consumer: any thread may push; only the
///    worker that owns the slot's Running state consumes. A mutex keeps
///    it simple and tsan-clean — pushes are batched precisely so the
///    lock (and the wakeup that follows) amortizes over the batch.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_SERVE_EXTERNALPORT_H
#define ESP_SERVE_EXTERNALPORT_H

#include "support/RingQueue.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace esp {
namespace serve {

/// One request event: what the load generator knows when it fires a VMMC
/// request at a connection. T0Ns is the enqueue timestamp the latency
/// measurement starts from (steady-clock nanoseconds).
struct ServeEvent {
  uint64_t Seq = 0;
  uint32_t VAddr = 0;
  uint32_t Size = 0;
  uint64_t T0Ns = 0;
};

class ExternalPort {
public:
  explicit ExternalPort(unsigned Cap) : Cap(Cap) {}

  /// Pushes up to \p N events; returns how many fit under the cap (a
  /// prefix of \p Events — order is preserved). 0 means the producer
  /// must back off and retry after the consumer drains.
  size_t pushBatch(const ServeEvent *Events, size_t N) {
    std::lock_guard<std::mutex> Lock(M);
    size_t Take = Q.size() >= Cap ? 0 : std::min(N, Cap - Q.size());
    for (size_t I = 0; I != Take; ++I)
      Q.push_back(Events[I]);
    if (Q.size() > HighWater)
      HighWater = Q.size();
    return Take;
  }

  /// Copies the front event without consuming it. The ExternalWriter
  /// contract requires peek-then-accept: the machine may probe readiness
  /// several times before a reader commits.
  bool peek(ServeEvent &Out) const {
    std::lock_guard<std::mutex> Lock(M);
    if (Q.empty())
      return false;
    Out = Q.front();
    return true;
  }

  /// Consumes the front event (after a successful delivery).
  void popFront() {
    std::lock_guard<std::mutex> Lock(M);
    if (!Q.empty())
      Q.pop_front();
  }

  bool empty() const {
    std::lock_guard<std::mutex> Lock(M);
    return Q.empty();
  }

  size_t depth() const {
    std::lock_guard<std::mutex> Lock(M);
    return Q.size();
  }

  /// Deepest the inbox ever got; never exceeds capacity().
  size_t highWater() const {
    std::lock_guard<std::mutex> Lock(M);
    return HighWater;
  }

  unsigned capacity() const { return Cap; }

private:
  mutable std::mutex M;
  /// Allocates on the first push and grows to at most the cap's power
  /// of two, so an idle connection's inbox costs no buffer.
  RingQueue<ServeEvent> Q;
  size_t HighWater = 0;
  unsigned Cap;
};

} // namespace serve
} // namespace esp

#endif // ESP_SERVE_EXTERNALPORT_H
