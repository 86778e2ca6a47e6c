//===--- test_serve.cpp - Fleet serving runtime tests -----------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The serve subsystem's contracts: the bounded inbox (FIFO, cap,
// high-water), deterministic golden totals on one worker, worker-count independence of the aggregate,
// backpressure, machine recycling (Machine::reset() replays
// bit-identically and reuses the heap arena), and the serve metrics and
// tracing surfaces.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"
#include "runtime/Machine.h"
#include "serve/ExternalPort.h"
#include "serve/LoadGen.h"
#include "serve/Serve.h"
#include "vmmc/ServeFirmware.h"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <memory>
#include <vector>

using namespace esp;
using namespace esp::serve;

//===----------------------------------------------------------------------===//
// ExternalPort
//===----------------------------------------------------------------------===//

static ServeEvent ev(uint64_t Seq, uint32_t Size = 64) {
  ServeEvent E;
  E.Seq = Seq;
  E.VAddr = static_cast<uint32_t>(Seq * 4096);
  E.Size = Size;
  return E;
}

TEST(ServePort, FifoOrder) {
  ExternalPort P(8);
  ServeEvent Events[3] = {ev(1), ev(2), ev(3)};
  EXPECT_EQ(P.pushBatch(Events, 3), 3u);
  ServeEvent Out;
  ASSERT_TRUE(P.peek(Out));
  EXPECT_EQ(Out.Seq, 1u);
  P.popFront();
  ASSERT_TRUE(P.peek(Out));
  EXPECT_EQ(Out.Seq, 2u); // Peek does not consume; pop does.
  P.popFront();
  P.popFront();
  EXPECT_FALSE(P.peek(Out));
  EXPECT_TRUE(P.empty());
}

TEST(ServePort, CapBoundsAcceptance) {
  ExternalPort P(4);
  std::vector<ServeEvent> Events;
  for (uint64_t I = 0; I != 10; ++I)
    Events.push_back(ev(I));
  EXPECT_EQ(P.pushBatch(Events.data(), 10), 4u); // Prefix up to the cap.
  EXPECT_EQ(P.pushBatch(Events.data() + 4, 6), 0u); // Full: nothing.
  EXPECT_EQ(P.depth(), 4u);
  P.popFront();
  EXPECT_EQ(P.pushBatch(Events.data() + 4, 6), 1u); // One slot freed.
  // The accepted prefix preserved order across the partial pushes.
  ServeEvent Out;
  ASSERT_TRUE(P.peek(Out));
  EXPECT_EQ(Out.Seq, 1u);
  EXPECT_EQ(P.highWater(), 4u);
  EXPECT_LE(P.highWater(), P.capacity());
}

//===----------------------------------------------------------------------===//
// LoadGen
//===----------------------------------------------------------------------===//

TEST(ServeLoadGen, DeterministicAndInRange) {
  LoadGenOptions Opt;
  Opt.Seed = 7;
  Opt.Machines = 13;
  Opt.Requests = 1000;
  Opt.Batch = 8;
  LoadGen A(Opt), B(Opt);
  LoadRequest Ra, Rb;
  uint64_t MultiFrag = 0;
  for (uint64_t I = 0; I != Opt.Requests; ++I) {
    ASSERT_TRUE(A.next(Ra));
    ASSERT_TRUE(B.next(Rb));
    EXPECT_EQ(Ra.Machine, Rb.Machine);
    EXPECT_EQ(Ra.Ev.Seq, I);
    EXPECT_EQ(Ra.Ev.VAddr, Rb.Ev.VAddr);
    EXPECT_EQ(Ra.Ev.Size, Rb.Ev.Size);
    EXPECT_LT(Ra.Machine, Opt.Machines);
    EXPECT_GE(Ra.Ev.Size, 1u);
    EXPECT_LE(Ra.Ev.Size, 4 * vmmc::kServeMtu);
    if (Ra.Ev.Size > vmmc::kServeMtu)
      ++MultiFrag;
  }
  EXPECT_FALSE(A.next(Ra));
  EXPECT_GT(MultiFrag, 0u); // The distribution exercises fragmentation.

  ServeTotals T1 = LoadGen::expectedTotals(Opt);
  ServeTotals T2 = LoadGen::expectedTotals(Opt);
  EXPECT_EQ(T1.Responses, Opt.Requests);
  EXPECT_TRUE(T1 == T2);
  Opt.Seed = 8;
  EXPECT_TRUE(T1 != LoadGen::expectedTotals(Opt));
}

//===----------------------------------------------------------------------===//
// Fleet runs
//===----------------------------------------------------------------------===//

/// Pinned aggregate checksum for goldenOptions(1): seed 42, 64 machines,
/// 5000 requests, batch 8. Computed once from the deterministic stream;
/// a change means the load generator, the firmware, or the response
/// model changed behavior.
static constexpr uint64_t kGoldenChecksum = 2880485993664911262ULL;

static ServeOptions goldenOptions(unsigned Workers) {
  ServeOptions Opt;
  Opt.Machines = 64;
  Opt.Requests = 5'000;
  Opt.Workers = Workers;
  Opt.InboxCap = 32;
  Opt.Batch = 8;
  Opt.ConnRequests = 16; // Recycle under load: reset() on the hot path.
  Opt.Seed = 42;
  return Opt;
}

TEST(Serve, GoldenTotalsSingleWorker) {
  ServeResult R = runServe(goldenOptions(1));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Totals.Responses, 5'000u);
  EXPECT_TRUE(R.Totals == R.Expected);
  EXPECT_GT(R.Resets, 0u);
  EXPECT_GT(R.Totals.Frags, R.Totals.Responses); // Multi-frag requests exist.
  // Golden aggregate: the load stream and the firmware's response are
  // both deterministic, so this checksum is a constant of the options
  // above. A change means the generator, the firmware, or the response
  // model moved — all three must move together.
  EXPECT_EQ(R.Totals.Checksum, LoadGen::expectedTotals([] {
              LoadGenOptions L;
              L.Seed = 42;
              L.Machines = 64;
              L.Requests = 5'000;
              L.Batch = 8;
              return L;
            }()).Checksum);
  EXPECT_EQ(R.Totals.Checksum, kGoldenChecksum);
}

TEST(Serve, WorkerCountIndependence) {
  ServeResult R1 = runServe(goldenOptions(1));
  ServeResult R4 = runServe(goldenOptions(4));
  ASSERT_TRUE(R1.Ok) << R1.Error;
  ASSERT_TRUE(R4.Ok) << R4.Error;
  EXPECT_TRUE(R1.Totals == R4.Totals);
  EXPECT_TRUE(R4.Totals == R4.Expected);
}

TEST(Serve, BackpressureNeverExceedsInboxCap) {
  ServeOptions Opt;
  Opt.Machines = 2; // Tiny fleet, deep per-machine backlog.
  Opt.Requests = 2'000;
  Opt.Workers = 2;
  Opt.InboxCap = 4;
  Opt.Batch = 4;
  Opt.Seed = 3;
  ServeResult R = runServe(Opt);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_LE(R.InboxHighWater, Opt.InboxCap);
  EXPECT_GT(R.InboxHighWater, 0u);
}

TEST(Serve, MetricsSurface) {
  ServeOptions Opt = goldenOptions(2);
  ServeResult R = runServe(Opt);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Totals.Responses, 5'000u);
  // A recycle needs ConnRequests responses since the last one.
  EXPECT_GT(R.Resets, 0u);
  EXPECT_LE(R.Resets, Opt.Requests / Opt.ConnRequests);
  // Per-machine live-heap high watermark: one sample per recycle plus
  // one final sample per machine.
  EXPECT_EQ(R.HeapHighWaterSamples, R.Resets + Opt.Machines);
  EXPECT_GT(R.HeapHighWaterMax, 0u);
  EXPECT_LE(R.HeapHighWaterP50, R.HeapHighWaterP99);
  // Sampled after each burst; at two workers the queue can always be
  // drained by then, so only the ceiling is certain.
  EXPECT_LE(R.QueueHighWater, Opt.Machines);
}

TEST(Serve, TraceSmoke) {
  obs::TraceWriter Trace;
  ServeOptions Opt;
  Opt.Machines = 4;
  Opt.Requests = 100;
  Opt.Workers = 1;
  Opt.Trace = &Trace;
  Opt.TraceMachines = 2;
  ServeResult R = runServe(Opt);
  ASSERT_TRUE(R.Ok) << R.Error;
  Trace.finish(0);
  EXPECT_GT(Trace.eventCount(), 0u);
  std::string Json = Trace.json();
  EXPECT_NE(Json.find("machine0"), std::string::npos);
  EXPECT_NE(Json.find("machine1"), std::string::npos);
  EXPECT_EQ(Json.find("machine2"), std::string::npos); // Only 2 tracked.
}

//===----------------------------------------------------------------------===//
// Machine recycling (reset)
//===----------------------------------------------------------------------===//

namespace {

/// Scripted request source for a single machine (same interface contract
/// as the serve runtime's inbox-backed writer).
class ScriptedReq : public ExternalWriter {
public:
  std::deque<std::array<int64_t, 3>> Events; // seq, vAddr, size

  int isReady() override { return Events.empty() ? 0 : 1; }
  void produce(int, Heap &, std::vector<Value> &Out) override {
    Out.push_back(Value::makeInt(Events.front()[0]));
    Out.push_back(Value::makeInt(Events.front()[1]));
    Out.push_back(Value::makeInt(Events.front()[2]));
  }
  void accepted(int) override { Events.pop_front(); }
};

class CollectResp : public ExternalReader {
public:
  std::vector<std::array<int64_t, 4>> Got; // seq, frags, bytes, sum

  bool isReady() override { return true; }
  void consume(int, Heap &, const std::vector<Value> &Args) override {
    Got.push_back({Args[0].Scalar, Args[1].Scalar, Args[2].Scalar,
                   Args[3].Scalar});
  }
};

/// One compilation shared by every machine in a test — exactly the serve
/// runtime's structure, and required for serializeState comparisons
/// across machines (canonical state includes type identities, which are
/// per-compilation).
struct SharedFirmware {
  std::unique_ptr<vmmc::ServeProgram> FW = vmmc::compileServeFirmware();
  std::shared_ptr<const CompiledProgram> Compiled =
      Machine::compileProgram(FW->Module);
};

struct ServeMachine {
  std::unique_ptr<Machine> M;
  ScriptedReq *Req = nullptr;
  CollectResp *Resp = nullptr;

  explicit ServeMachine(const SharedFirmware &Shared) {
    M = std::make_unique<Machine>(Shared.FW->Module, MachineOptions(),
                                  Shared.Compiled);
    auto R = std::make_unique<ScriptedReq>();
    auto C = std::make_unique<CollectResp>();
    Req = R.get();
    Resp = C.get();
    M->bindWriter("Req", std::move(R));
    M->bindReader("Resp", std::move(C));
  }

  /// Feeds \p Load, drains to quiescence, returns the canonical state.
  std::string drive(const std::deque<std::array<int64_t, 3>> &Load) {
    Req->Events = Load;
    StepResult R = M->run();
    EXPECT_EQ(R, StepResult::Quiescent);
    EXPECT_FALSE(M->error()) << M->error().Message;
    return M->serializeState();
  }
};

std::deque<std::array<int64_t, 3>> loadA() {
  return {{0, 0, 64},
          {1, 4096, 4096},
          {2, 8192 + 100, 10'000}, // Multi-fragment, unaligned.
          {3, 12'288, 1},
          {4, 40'960, 8192}};
}

std::deque<std::array<int64_t, 3>> loadB() {
  return {{7, 4096 * 9, 300}, {8, 123, 5000}, {9, 4096 * 3 + 5, 12'000}};
}

bool statsEqual(const ExecStats &A, const ExecStats &B) {
  return A.Instructions == B.Instructions &&
         A.ContextSwitches == B.ContextSwitches &&
         A.Rendezvous == B.Rendezvous &&
         A.ExternalDeliveries == B.ExternalDeliveries &&
         A.ExternalConsumes == B.ExternalConsumes &&
         A.PatternMatchesTried == B.PatternMatchesTried;
}

} // namespace

TEST(ServeReset, ResetMachineReplaysBitIdentically) {
  SharedFirmware Shared;
  ServeMachine Fresh(Shared);
  Fresh.M->start();
  std::string FreshState = Fresh.drive(loadA());
  ExecStats FreshStats = Fresh.M->stats();
  auto FreshGot = Fresh.Resp->Got;
  ASSERT_EQ(FreshGot.size(), loadA().size());

  // Second machine: serve a different connection first, then recycle.
  ServeMachine Recycled(Shared);
  Recycled.M->start();
  std::string Dirty = Recycled.drive(loadB());
  EXPECT_NE(Dirty, FreshState);
  Recycled.M->reset();
  Recycled.M->start();
  Recycled.Resp->Got.clear();
  std::string ReplayState = Recycled.drive(loadA());
  EXPECT_EQ(ReplayState, FreshState); // Bit-identical canonical state.
  EXPECT_TRUE(statsEqual(Recycled.M->stats(), FreshStats));
  EXPECT_EQ(Recycled.Resp->Got, FreshGot);

  // And the responses match the pure model the load generator uses.
  for (const auto &Got : FreshGot) {
    auto Load = loadA();
    const auto &In = Load[&Got - FreshGot.data()];
    vmmc::ServeResponseModel Model = vmmc::serveResponseModel(
        static_cast<uint64_t>(In[0]), static_cast<uint32_t>(In[1]),
        static_cast<uint32_t>(In[2]));
    EXPECT_EQ(static_cast<uint64_t>(Got[0]), Model.Seq);
    EXPECT_EQ(static_cast<uint64_t>(Got[1]), Model.Frags);
    EXPECT_EQ(static_cast<uint64_t>(Got[2]), Model.Bytes);
    EXPECT_EQ(static_cast<uint64_t>(Got[3]), Model.Sum);
  }
}

TEST(ServeReset, HeapArenaIsReused) {
  SharedFirmware Shared;
  ServeMachine SM(Shared);
  SM.M->start();
  SM.drive(loadA());
  size_t TableAfterFirst = SM.M->heap().objects().size();
  uint64_t AllocsFirst = SM.M->heap().getTotalAllocations();
  EXPECT_GT(SM.M->heap().getHighWater(), 0u);

  for (int Round = 0; Round != 3; ++Round) {
    SM.M->reset();
    EXPECT_EQ(SM.M->heap().getLiveCount(), 0u);
    EXPECT_EQ(SM.M->heap().getHighWater(), 0u);
    SM.M->start();
    SM.drive(loadA());
    // Arena reuse: the same replay allocates from recycled slots; the
    // object table never grows across recycles.
    EXPECT_EQ(SM.M->heap().objects().size(), TableAfterFirst);
    EXPECT_EQ(SM.M->heap().getTotalAllocations(), AllocsFirst);
  }
}
