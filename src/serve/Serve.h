//===--- Serve.h - Fleet-scale ESP serving runtime --------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet serving runtime: thousands of independent ESP machine
/// instances — one per simulated client connection, all sharing one
/// immutable CompiledProgram of the VMMC serve firmware — multiplexed
/// onto an N-worker work-stealing thread pool.
///
/// Each connection slot owns a bounded ExternalPort inbox (the
/// epoll-style readiness boundary) and a three-state readiness word:
///
///   Parked --CAS by producer--> Queued --dequeue--> Running --park-->
///   Parked (recheck inbox; self-requeue if events raced in)
///
/// A producer that lands events in a Parked slot's inbox wins the CAS
/// and enqueues the slot on its home worker's deque; idle workers steal
/// from the back of other deques. The runner drains the machine to
/// quiescence, parks, and rechecks the inbox — the recheck closes the
/// park/push race, so no event is ever stranded (lost-wakeup freedom;
/// the tsan CI job runs this path). Because a slot is Running on exactly
/// one worker at a time and every handoff goes through the state word
/// plus a queue mutex, machine state needs no locks of its own.
///
/// Determinism: the firmware's response is a pure function of the
/// request, so the aggregate totals (responses/frags/bytes/checksum)
/// are identical at any worker count and match LoadGen::expectedTotals
/// exactly — runServe() verifies this. See docs/serving.md.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_SERVE_SERVE_H
#define ESP_SERVE_SERVE_H

#include "serve/LoadGen.h"

#include <cstdint>
#include <string>

namespace esp {

namespace obs {
class TraceWriter;
} // namespace obs

namespace serve {

struct ServeOptions {
  /// Connection slots (machine instances) in the simulated cluster.
  uint32_t Machines = 256;
  /// Total requests the load generator drives across the fleet.
  uint64_t Requests = 10'000;
  /// Worker threads. 1 = fully deterministic scheduling order (the
  /// golden-totals tests run this way).
  unsigned Workers = 1;
  /// Per-slot inbox bound; producers stall (and count it) when full.
  unsigned InboxCap = 64;
  /// Max burst length: consecutive requests to one machine, and the
  /// event-delivery batch size at the readiness boundary.
  uint32_t Batch = 16;
  /// Recycle (reset + restart) a machine after this many responses, at
  /// the next quiescent point with an empty inbox; 0 = never. Exercises
  /// Machine::reset() arena reuse under load.
  uint64_t ConnRequests = 0;
  uint64_t Seed = 1;
  /// Optional per-machine execution tracing; honored only when
  /// Workers == 1 (one TraceWriter is not a concurrent structure, and a
  /// deterministic schedule is the only one worth diffing).
  obs::TraceWriter *Trace = nullptr;
  /// How many machines (slots 0..N-1) get trace tracks.
  uint32_t TraceMachines = 1;
};

/// Everything a fleet run measured: the one report of a run.
struct ServeResult {
  bool Ok = false;
  std::string Error; ///< First machine/runtime error, empty when Ok.

  ServeTotals Totals;   ///< What the fleet actually produced.
  ServeTotals Expected; ///< LoadGen::expectedTotals for the same options.

  uint64_t ElapsedNs = 0;
  double RequestsPerSec = 0;
  uint64_t P50Ns = 0;
  uint64_t P99Ns = 0;
  uint64_t P999Ns = 0;

  uint64_t Steals = 0;             ///< Slot activations run off-home.
  uint64_t Parks = 0;              ///< Slot transitions to Parked.
  uint64_t Wakes = 0;              ///< Producer/runner CAS Parked->Queued.
  uint64_t BackpressureStalls = 0; ///< Producer retries on a full inbox.
  uint64_t Resets = 0;             ///< Machine recycles (ConnRequests).
  uint64_t InboxHighWater = 0;     ///< Max inbox depth over all slots.
  uint64_t QueueHighWater = 0;     ///< Max queued slots after a burst.
  uint64_t HeapHighWaterMax = 0;   ///< Max per-machine live-heap watermark.
  /// Live-heap watermarks: one sample per recycle plus one per machine
  /// at shutdown (Resets + Machines), and their quantiles.
  uint64_t HeapHighWaterSamples = 0;
  uint64_t HeapHighWaterP50 = 0;
  uint64_t HeapHighWaterP99 = 0;
  uint64_t InstrTotal = 0;         ///< ESP instructions over all machines.
};

/// Runs the load described by \p Options to completion and verifies the
/// aggregate totals against the load generator's prediction. Returns
/// with Ok=false (and Error set) on a machine runtime error or a totals
/// mismatch.
ServeResult runServe(const ServeOptions &Options);

} // namespace serve
} // namespace esp

#endif // ESP_SERVE_SERVE_H
