//===--- Serve.cpp - Fleet-scale ESP serving runtime ------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TracingObserver.h"
#include "runtime/Machine.h"
#include "serve/ExternalPort.h"
#include "support/RingQueue.h"
#include "vmmc/ServeFirmware.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

using namespace esp;
using namespace esp::serve;

namespace {

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Slot readiness states. The word is the synchronization hinge between
// producers and workers: a slot is enqueued exactly once per Parked ->
// Queued transition, and only its current runner may move it back to
// Parked, so no slot is ever on two deques or run by two workers.
constexpr uint32_t kParked = 0;
constexpr uint32_t kQueued = 1;
constexpr uint32_t kRunning = 2;

struct Slot {
  explicit Slot(unsigned InboxCap) : Inbox(InboxCap) {}

  std::atomic<uint32_t> State{kParked};
  ExternalPort Inbox;
  std::unique_ptr<Machine> M;
  unsigned Home = 0;

  // Everything below is touched only by the worker currently Running the
  // slot; the Parked handoff (release store -> CAS -> queue mutex)
  // publishes it to the next runner.
  RingQueue<uint64_t> PendingT0; ///< T0 of delivered, unanswered requests.
  uint64_t ConnResponses = 0;    ///< Responses since the last recycle.
  uint64_t Frags = 0;
  uint64_t Bytes = 0;
  uint64_t Checksum = 0;
  uint64_t Responses = 0;
  uint64_t HeapHighWater = 0; ///< Max live-heap watermark over recycles.
  uint64_t InstrAccum = 0;    ///< Instructions retired before recycles
                              ///< (reset() zeroes the machine's stats).
  std::unique_ptr<obs::TracingObserver> Tracer;
};

struct WorkerQueue {
  std::mutex M;
  std::deque<uint32_t> Q;
};

struct Fleet; // below

/// The machine side of a slot's inbox: ESP's external-writer protocol
/// (peek in produce, consume in accepted) over the bounded FIFO.
class PortReqWriter : public ExternalWriter {
public:
  explicit PortReqWriter(Slot &S) : S(S) {}

  int isReady() override { return S.Inbox.peek(Cur) ? 1 : 0; }

  void produce(int, Heap &, std::vector<Value> &Out) override {
    // Binder leaves of `Post( { $seq, $vAddr, $size } )`, in order.
    Out.push_back(Value::makeInt(static_cast<int64_t>(Cur.Seq)));
    Out.push_back(Value::makeInt(static_cast<int64_t>(Cur.VAddr)));
    Out.push_back(Value::makeInt(static_cast<int64_t>(Cur.Size)));
  }

  void accepted(int) override {
    S.Inbox.popFront();
    // FIFO pairing: responses come back in request order (one server
    // process, synchronous channels), so positional matching suffices.
    S.PendingT0.push_back(Cur.T0Ns);
  }

private:
  Slot &S;
  ServeEvent Cur;
};

/// The collector side: always ready, closes the latency measurement and
/// folds the response into the slot's running totals.
class RespCollector : public ExternalReader {
public:
  RespCollector(Slot &S, Fleet &F) : S(S), F(F) {}

  bool isReady() override { return true; }
  void consume(int, Heap &, const std::vector<Value> &Args) override;

private:
  Slot &S;
  Fleet &F;
};

struct Fleet {
  explicit Fleet(const ServeOptions &Options)
      : Opt(Options), Lat(Options.Workers) {}

  ServeOptions Opt;
  std::vector<std::unique_ptr<Slot>> Slots;
  std::vector<WorkerQueue> Queues;
  obs::Histogram Lat;

  std::atomic<uint64_t> Responses{0};
  std::atomic<uint64_t> QueuedSlots{0};
  std::atomic<bool> Done{false};

  std::atomic<uint64_t> Steals{0};
  std::atomic<uint64_t> Parks{0};
  std::atomic<uint64_t> Wakes{0};
  std::atomic<uint64_t> Stalls{0};
  std::atomic<uint64_t> Resets{0};

  std::mutex IdleM;
  std::condition_variable IdleCV;

  std::mutex ErrM;
  std::string FirstError;

  void fail(const std::string &Message) {
    {
      std::lock_guard<std::mutex> Lock(ErrM);
      if (FirstError.empty())
        FirstError = Message;
    }
    Done.store(true, std::memory_order_seq_cst);
    IdleCV.notify_all();
  }

  /// Queued -> a worker deque. Producers call it after winning the
  /// Parked->Queued CAS; runners call it when the park-recheck found
  /// fresh events.
  void enqueue(uint32_t SlotIndex, unsigned Worker) {
    {
      std::lock_guard<std::mutex> Lock(Queues[Worker].M);
      Queues[Worker].Q.push_back(SlotIndex);
    }
    QueuedSlots.fetch_add(1, std::memory_order_relaxed);
    IdleCV.notify_one();
  }

  /// Wakes a slot if it is Parked; exactly one caller wins.
  void wake(uint32_t SlotIndex) {
    Slot &S = *Slots[SlotIndex];
    uint32_t Expected = kParked;
    if (S.State.compare_exchange_strong(Expected, kQueued,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      Wakes.fetch_add(1, std::memory_order_relaxed);
      enqueue(SlotIndex, S.Home);
    }
    // Queued or Running: the events are in the inbox; the runner's
    // drain-then-recheck picks them up.
  }

  /// Pops work for \p Worker: own deque front first, then steal from the
  /// back of the others. -1 when everything is empty.
  int dequeue(unsigned Worker) {
    {
      std::lock_guard<std::mutex> Lock(Queues[Worker].M);
      if (!Queues[Worker].Q.empty()) {
        uint32_t S = Queues[Worker].Q.front();
        Queues[Worker].Q.pop_front();
        QueuedSlots.fetch_sub(1, std::memory_order_relaxed);
        return static_cast<int>(S);
      }
    }
    for (unsigned I = 1; I < Queues.size(); ++I) {
      unsigned Victim = (Worker + I) % Queues.size();
      std::lock_guard<std::mutex> Lock(Queues[Victim].M);
      if (!Queues[Victim].Q.empty()) {
        uint32_t S = Queues[Victim].Q.back();
        Queues[Victim].Q.pop_back();
        QueuedSlots.fetch_sub(1, std::memory_order_relaxed);
        Steals.fetch_add(1, std::memory_order_relaxed);
        return static_cast<int>(S);
      }
    }
    return -1;
  }

  void runSlot(uint32_t SlotIndex);
  void workerMain(unsigned Worker);
};

void RespCollector::consume(int, Heap &, const std::vector<Value> &Args) {
  // Binder leaves of `Done( { $seq, $frags, $bytes, $sum } )`.
  uint64_t Seq = static_cast<uint64_t>(Args[0].Scalar);
  uint64_t Frags = static_cast<uint64_t>(Args[1].Scalar);
  uint64_t Bytes = static_cast<uint64_t>(Args[2].Scalar);
  uint64_t Sum = static_cast<uint64_t>(Args[3].Scalar);

  S.Frags += Frags;
  S.Bytes += Bytes;
  S.Checksum += vmmc::serveResponseDigest(Seq, Frags, Bytes, Sum);
  ++S.Responses;
  ++S.ConnResponses;

  if (!S.PendingT0.empty()) {
    uint64_t T0 = S.PendingT0.front();
    S.PendingT0.pop_front();
    uint64_t Now = nowNs();
    F.Lat.record(Now > T0 ? Now - T0 : 0);
  }

  uint64_t Total = F.Responses.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Total >= F.Opt.Requests)
    F.IdleCV.notify_all(); // The producer waits for the last response.
}

void Fleet::runSlot(uint32_t SlotIndex) {
  Slot &S = *Slots[SlotIndex];
  S.State.store(kRunning, std::memory_order_relaxed);

  for (;;) {
    StepResult R = S.M->run();
    if (R == StepResult::Errored) {
      fail("machine " + std::to_string(SlotIndex) + ": " +
           std::string(runtimeErrorKindName(S.M->error().Kind)) +
           (S.M->error().Message.empty() ? "" : ": " + S.M->error().Message));
      return;
    }
    if (R == StepResult::Halted) {
      fail("machine " + std::to_string(SlotIndex) +
           ": firmware halted (server loop exited)");
      return;
    }

    // Quiescent: inbox drained, all responses emitted. Recycle point.
    if (Opt.ConnRequests != 0 && S.ConnResponses >= Opt.ConnRequests &&
        S.PendingT0.empty() && S.Inbox.empty()) {
      uint64_t HW = S.M->heap().getHighWater();
      if (HW > S.HeapHighWater)
        S.HeapHighWater = HW;
      if (Opt.Metrics)
        Opt.Metrics->histogram("serve.machine_heap_highwater").record(HW);
      S.InstrAccum += S.M->stats().Instructions;
      S.M->reset();
      S.M->start();
      S.ConnResponses = 0;
      Resets.fetch_add(1, std::memory_order_relaxed);
    }

    // Park, then recheck: a producer that pushed between our last drain
    // and the store sees Parked and re-wakes us — but it may also have
    // pushed *before* we parked and lost the CAS, so we must look again
    // ourselves. Either the recheck or the producer's wake runs the
    // slot; the CAS makes sure it is not both.
    S.State.store(kParked, std::memory_order_release);
    Parks.fetch_add(1, std::memory_order_relaxed);
    if (S.Inbox.empty() || Done.load(std::memory_order_relaxed))
      return;
    uint32_t Expected = kParked;
    if (!S.State.compare_exchange_strong(Expected, kRunning,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
      return; // A producer won the race; the slot is queued elsewhere.
  }
}

void Fleet::workerMain(unsigned Worker) {
  for (;;) {
    int SlotIndex = dequeue(Worker);
    if (SlotIndex >= 0) {
      runSlot(static_cast<uint32_t>(SlotIndex));
      continue;
    }
    if (Done.load(std::memory_order_seq_cst))
      return;
    // Timed wait instead of precise wakeup bookkeeping: a missed notify
    // costs at most one timeout period, and the recheck-after-park on
    // the slot side already guarantees no event is stranded forever.
    std::unique_lock<std::mutex> Lock(IdleM);
    IdleCV.wait_for(Lock, std::chrono::microseconds(500));
  }
}

} // namespace

ServeResult esp::serve::runServe(const ServeOptions &Options) {
  ServeResult Result;

  ServeOptions Opt = Options;
  if (Opt.Machines == 0)
    Opt.Machines = 1;
  if (Opt.Workers == 0)
    Opt.Workers = 1;
  if (Opt.InboxCap == 0)
    Opt.InboxCap = 1;
  if (Opt.Batch == 0)
    Opt.Batch = 1;
  if (Opt.Batch > Opt.InboxCap)
    Opt.Batch = Opt.InboxCap;
  if (Opt.Trace && Opt.Workers != 1)
    Opt.Trace = nullptr; // Tracing is defined for the deterministic case.

  LoadGenOptions LoadOpt;
  LoadOpt.Seed = Opt.Seed;
  LoadOpt.Machines = Opt.Machines;
  LoadOpt.Requests = Opt.Requests;
  LoadOpt.Batch = Opt.Batch;
  Result.Expected = LoadGen::expectedTotals(LoadOpt);

  // One compiled program for the whole fleet; each machine shares it and
  // owns only its dynamic state.
  std::unique_ptr<vmmc::ServeProgram> Firmware = vmmc::compileServeFirmware();
  std::shared_ptr<const CompiledProgram> Compiled =
      Machine::compileProgram(Firmware->Module);

  Fleet F(Opt);
  F.Queues = std::vector<WorkerQueue>(Opt.Workers);
  F.Slots.reserve(Opt.Machines);
  for (uint32_t I = 0; I != Opt.Machines; ++I) {
    auto S = std::make_unique<Slot>(Opt.InboxCap);
    S->Home = I % Opt.Workers;
    MachineOptions MOpt;
    S->M = std::make_unique<Machine>(Firmware->Module, MOpt, Compiled);
    S->M->bindWriter("Req", std::make_unique<PortReqWriter>(*S));
    S->M->bindReader("Resp", std::make_unique<RespCollector>(*S, F));
    if (Opt.Trace && I < Opt.TraceMachines) {
      S->Tracer = std::make_unique<obs::TracingObserver>(
          *Opt.Trace, nullptr, /*Pid=*/I + 1);
      S->Tracer->attach(*S->M, "machine" + std::to_string(I));
      S->M->setObserver(S->Tracer.get());
    }
    S->M->start();
    F.Slots.push_back(std::move(S));
  }

  uint64_t StartNs = nowNs();

  std::vector<std::thread> Workers;
  Workers.reserve(Opt.Workers);
  for (unsigned W = 0; W != Opt.Workers; ++W)
    Workers.emplace_back([&F, W] { F.workerMain(W); });

  // Closed-loop producer: generate bursts, stamp T0, push with
  // backpressure, wake the slot. Runs on the calling thread.
  {
    LoadGen Gen(LoadOpt);
    std::vector<ServeEvent> Burst;
    Burst.reserve(Opt.Batch);
    LoadRequest Req;
    bool Pending = false;
    uint64_t Pushed = 0;
    while (!F.Done.load(std::memory_order_relaxed)) {
      // Collect one burst: consecutive requests to the same machine.
      Burst.clear();
      uint32_t Target = 0;
      while (Burst.size() < Opt.Batch) {
        if (!Pending && !Gen.next(Req))
          break;
        Pending = true;
        if (!Burst.empty() && Req.Machine != Target)
          break; // Next burst; keep Req pending.
        Target = Req.Machine;
        Req.Ev.T0Ns = nowNs();
        Burst.push_back(Req.Ev);
        Pending = false;
      }
      if (Burst.empty())
        break; // Stream exhausted.

      size_t Offset = 0;
      while (Offset < Burst.size() &&
             !F.Done.load(std::memory_order_relaxed)) {
        size_t Took = F.Slots[Target]->Inbox.pushBatch(Burst.data() + Offset,
                                                       Burst.size() - Offset);
        if (Took > 0) {
          Offset += Took;
          F.wake(Target);
          continue;
        }
        // Inbox full: the slot has a deep backlog. Nudge it (its wake
        // may have been consumed already) and yield to the workers.
        F.Stalls.fetch_add(1, std::memory_order_relaxed);
        F.wake(Target);
        std::this_thread::yield();
      }
      Pushed += Offset;
      if (Opt.Metrics)
        Opt.Metrics->gauge("serve.queue_depth")
            .set(static_cast<int64_t>(
                F.QueuedSlots.load(std::memory_order_relaxed)));
    }

    // Wait for the fleet to answer everything (or fail). Timed waits:
    // the workers notify without holding IdleM (the counters are
    // atomics), so a bare wait could miss a notify that lands between
    // the predicate check and the sleep.
    std::unique_lock<std::mutex> Lock(F.IdleM);
    while (!F.Done.load(std::memory_order_relaxed) &&
           F.Responses.load(std::memory_order_relaxed) < Pushed)
      F.IdleCV.wait_for(Lock, std::chrono::milliseconds(1));
  }

  F.Done.store(true, std::memory_order_seq_cst);
  F.IdleCV.notify_all();
  for (std::thread &T : Workers)
    T.join();

  uint64_t EndNs = nowNs();

  // Aggregate the per-slot totals (single-threaded now; the joins above
  // publish every worker's writes).
  for (std::unique_ptr<Slot> &S : F.Slots) {
    Result.Totals.Responses += S->Responses;
    Result.Totals.Frags += S->Frags;
    Result.Totals.Bytes += S->Bytes;
    Result.Totals.Checksum += S->Checksum;
    if (S->Inbox.highWater() > Result.InboxHighWater)
      Result.InboxHighWater = S->Inbox.highWater();
    uint64_t HW = std::max<uint64_t>(S->HeapHighWater,
                                     S->M->heap().getHighWater());
    if (HW > Result.HeapHighWaterMax)
      Result.HeapHighWaterMax = HW;
    Result.InstrTotal += S->InstrAccum + S->M->stats().Instructions;
    if (S->Tracer) {
      S->Tracer->finishTrace(*S->M);
      S->M->setObserver(nullptr);
    }
  }

  Result.ElapsedNs = EndNs > StartNs ? EndNs - StartNs : 1;
  Result.RequestsPerSec =
      double(Result.Totals.Responses) * 1e9 / double(Result.ElapsedNs);
  Result.P50Ns = F.Lat.quantile(0.50);
  Result.P99Ns = F.Lat.quantile(0.99);
  Result.P999Ns = F.Lat.quantile(0.999);
  Result.Steals = F.Steals.load();
  Result.Parks = F.Parks.load();
  Result.Wakes = F.Wakes.load();
  Result.BackpressureStalls = F.Stalls.load();
  Result.Resets = F.Resets.load();

  if (Opt.Metrics) {
    obs::MetricsRegistry &M = *Opt.Metrics;
    M.counter("serve.requests").add(Opt.Requests);
    M.counter("serve.responses").add(Result.Totals.Responses);
    M.counter("serve.steals").add(Result.Steals);
    M.counter("serve.parks").add(Result.Parks);
    M.counter("serve.wakes").add(Result.Wakes);
    M.counter("serve.backpressure_stalls").add(Result.BackpressureStalls);
    M.counter("serve.resets").add(Result.Resets);
    M.counter("serve.instructions").add(Result.InstrTotal);
    for (std::unique_ptr<Slot> &S : F.Slots)
      M.histogram("serve.machine_heap_highwater")
          .record(S->M->heap().getHighWater());
  }

  {
    std::lock_guard<std::mutex> Lock(F.ErrM);
    Result.Error = F.FirstError;
  }
  if (Result.Error.empty() && Result.Totals != Result.Expected)
    Result.Error = "aggregate totals mismatch (fleet vs load-generator "
                   "prediction)";
  Result.Ok = Result.Error.empty();
  return Result;
}
