//===--- FleetComponent.cpp - espserve's closed-loop fleet ----------------===//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// One unit is serve::runServe over a fleet of serve-firmware machines
// sharing one CompiledProgram: two workers plus the producer thread,
// 64-deep inboxes, and a machine recycle every 64 responses so
// Machine::reset runs on the hot path. Two workers, not three, leave one
// of four cores free: with all four busy, any other activity on the host
// stalls the closed loop, and ten-seed runs of req_per_s spread 0.23-0.24
// at three workers. The probe size runs one worker: its short units on
// two workers spread req_per_s by 0.28 over ten seeds. The loop is
// closed: the producer pushes as fast as the bounded inboxes accept, so
// the reported waits are closed-loop inbox queueing, not latency at a
// fixed offered rate.
//
// runServe builds its fleet (compiles the firmware, builds and starts
// every machine) before its timed region; the unit's wall time minus
// that region is this build, and setup_s takes its median.
//
// The traced unit also drives one serve-firmware Machine outside the
// scheduler over the same request stream, which gives the service time
// per request and the scheduler's share of the rest.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "runtime/Machine.h"
#include "serve/Serve.h"
#include "vmmc/ServeFirmware.h"

#include <algorithm>

using namespace esp;
using namespace espbench;

namespace {

/// Feeds a fixed request list through the firmware's `Req` interface.
class ListReqWriter : public ExternalWriter {
public:
  explicit ListReqWriter(const std::vector<serve::ServeEvent> &Reqs)
      : Reqs(Reqs) {}

  int isReady() override { return Next < Reqs.size() ? 1 : 0; }
  void produce(int, Heap &, std::vector<Value> &Out) override {
    // Binder leaves of `Post( { $seq, $vAddr, $size } )`.
    const serve::ServeEvent &E = Reqs[Next];
    Out.push_back(Value::makeInt(static_cast<int64_t>(E.Seq)));
    Out.push_back(Value::makeInt(static_cast<int64_t>(E.VAddr)));
    Out.push_back(Value::makeInt(static_cast<int64_t>(E.Size)));
  }
  void accepted(int) override { ++Next; }
  void rewind() { Next = 0; }

private:
  const std::vector<serve::ServeEvent> &Reqs;
  size_t Next = 0;
};

/// Checks each `Resp` record against the firmware's response model.
class CheckingResp : public ExternalReader {
public:
  explicit CheckingResp(const std::vector<serve::ServeEvent> &Reqs)
      : Reqs(Reqs) {}

  bool isReady() override { return true; }
  void consume(int, Heap &, const std::vector<Value> &Args) override {
    // Binder leaves of `Done( { $seq, $frags, $bytes, $sum } )`; responses
    // leave in request order.
    if (Seen >= Reqs.size() || Args.size() != 4) {
      ++Wrong;
      return;
    }
    const serve::ServeEvent &E = Reqs[Seen++];
    vmmc::ServeResponseModel M =
        vmmc::serveResponseModel(E.Seq, E.VAddr, E.Size);
    if (uint64_t(Args[0].Scalar) != M.Seq ||
        uint64_t(Args[1].Scalar) != M.Frags ||
        uint64_t(Args[2].Scalar) != M.Bytes ||
        uint64_t(Args[3].Scalar) != M.Sum)
      ++Wrong;
  }
  void rewind() { Seen = Wrong = 0; }
  size_t seen() const { return Seen; }
  size_t wrong() const { return Wrong; }

private:
  const std::vector<serve::ServeEvent> &Reqs;
  size_t Seen = 0;
  size_t Wrong = 0;
};

/// The expected totals and the service probe's machine.
struct FleetBuild {
  std::unique_ptr<vmmc::ServeProgram> Program;
  std::unique_ptr<Machine> ProbeMachine;
  std::vector<serve::ServeEvent> ProbeReqs;
  ListReqWriter *ProbeWriter = nullptr;
  CheckingResp *ProbeResp = nullptr;
  serve::ServeTotals Expected;
};

struct ServeSample {
  double ReqPerSec = 0;
  serve::ServeResult R;
};

class FleetComponent : public Component {
public:
  explicit FleetComponent(const Context &Ctx) : Component(Ctx) {
    switch (Ctx.Size) {
    case Scale::Full:
      Opt.Machines = 10'000;
      Opt.Requests = 1'000'000;
      Opt.Workers = 2;
      ProbeRequests = 20'000;
      break;
    case Scale::Probe:
      Opt.Machines = 1'000;
      Opt.Requests = 100'000;
      Opt.Workers = 1;
      ProbeRequests = 10'000;
      break;
    case Scale::Smoke:
      Opt.Machines = 256;
      Opt.Requests = 20'000;
      Opt.Workers = 2;
      ProbeRequests = 2'000;
      break;
    }
    Opt.InboxCap = 64;
    Opt.ConnRequests = 64;
    Opt.Seed = Ctx.Seed;
  }

  void setup() override {
    Built.reset();
    auto B = std::make_unique<FleetBuild>();
    serve::LoadGenOptions LoadOpt;
    LoadOpt.Seed = Opt.Seed;
    LoadOpt.Machines = Opt.Machines;
    LoadOpt.Requests = Opt.Requests;
    LoadOpt.Batch = Opt.Batch;
    B->Expected = serve::LoadGen::expectedTotals(LoadOpt);

    // The probe replays the head of the same stream on one machine.
    serve::LoadGen Gen(LoadOpt);
    serve::LoadRequest Req;
    while (B->ProbeReqs.size() < ProbeRequests && Gen.next(Req))
      B->ProbeReqs.push_back(Req.Ev);

    B->Program = vmmc::compileServeFirmware();
    B->ProbeMachine =
        std::make_unique<Machine>(B->Program->Module, MachineOptions());
    auto Writer = std::make_unique<ListReqWriter>(B->ProbeReqs);
    auto Resp = std::make_unique<CheckingResp>(B->ProbeReqs);
    B->ProbeWriter = Writer.get();
    B->ProbeResp = Resp.get();
    B->ProbeMachine->bindWriter("Req", std::move(Writer));
    B->ProbeMachine->bindReader("Resp", std::move(Resp));
    B->ProbeMachine->start();
    Built = std::move(B);
  }

  void runUnit(bool Traced) override {
    SpanScope Unit(spans(), "fleet.unit");
    ServeSample S;
    {
      SpanScope Span(spans(), "serve.run");
      uint64_t T0 = nowNs();
      S.R = serve::runServe(Opt);
      uint64_t WallNs = nowNs() - T0;
      BuildS.push_back((WallNs - std::min(WallNs, S.R.ElapsedNs)) / 1e9);
    }
    S.ReqPerSec = S.R.RequestsPerSec;
    checks().check(S.R.Ok && S.R.Totals == Built->Expected,
                   "fleet: totals equal the load generator's prediction");
    if (!Traced) {
      ReqPerSec.push_back(S.ReqPerSec);
      return;
    }
    TracedRuns.push_back(S);
    serviceProbe();
  }

  void endToEnd(MetricSet &Out) const override {
    Out.add("req_per_s", fastestRate(ReqPerSec), "1/s");
  }

  double unitSetupSeconds() const override { return median(BuildS); }

  void perLayer(MetricSet &Out) const override {
    auto Med = [&](auto Get) {
      std::vector<double> V;
      for (const ServeSample &S : TracedRuns)
        V.push_back(static_cast<double>(Get(S)));
      return median(V);
    };
    auto PerKreq = [&](auto Get) {
      return Med([&](const ServeSample &S) {
        return double(Get(S)) * 1000.0 / double(Opt.Requests);
      });
    };
    Out.add("serve.wait_p50_ms",
            Med([](const ServeSample &S) { return S.R.P50Ns / 1e6; }), "ms");
    Out.add("serve.wait_p99_ms",
            Med([](const ServeSample &S) { return S.R.P99Ns / 1e6; }), "ms");
    Out.add("serve.steals_per_kreq",
            PerKreq([](const ServeSample &S) { return S.R.Steals; }), "count");
    Out.add("serve.parks_per_kreq",
            PerKreq([](const ServeSample &S) { return S.R.Parks; }), "count");
    Out.add("serve.wakes_per_kreq",
            PerKreq([](const ServeSample &S) { return S.R.Wakes; }), "count");
    Out.add("serve.stalls_per_kreq", PerKreq([](const ServeSample &S) {
              return S.R.BackpressureStalls;
            }),
            "count");
    Out.add("serve.resets",
            Med([](const ServeSample &S) { return S.R.Resets; }), "count");
    Out.add("serve.inbox_highwater",
            Med([](const ServeSample &S) { return S.R.InboxHighWater; }),
            "count");
    Out.add("runtime.heap_highwater",
            Med([](const ServeSample &S) { return S.R.HeapHighWaterMax; }),
            "objects");
    double ServiceUs = fastestTime(ServiceUsPerReq);
    Out.add("runtime.instr_per_req", median(InstrPerReq), "count");
    Out.add("runtime.serve_us_per_req", ServiceUs, "us");
    std::vector<double> Rates;
    for (const ServeSample &S : TracedRuns)
      Rates.push_back(S.ReqPerSec);
    double Rate = fastestRate(Rates);
    Out.add("serve.sched_overhead_share",
            1.0 - ServiceUs * 1e-6 * Rate / Opt.Workers, "ratio");
  }

private:
  /// Serves the probe requests on one machine, outside the scheduler.
  void serviceProbe() {
    TracedOnlyWork Extra(spans());
    SpanScope Span(spans(), "runtime.serve_probe");
    Machine &M = *Built->ProbeMachine;
    M.reset();
    M.start();
    Built->ProbeWriter->rewind();
    Built->ProbeResp->rewind();
    uint64_t Instr0 = M.stats().Instructions;
    uint64_t T0 = nowNs();
    StepResult R = M.run();
    uint64_t Ns = nowNs() - T0;
    size_t N = Built->ProbeReqs.size();
    checks().check(R != StepResult::Errored &&
                       Built->ProbeResp->seen() == N &&
                       Built->ProbeResp->wrong() == 0,
                   "fleet: one machine serves the stream correctly");
    if (!N)
      return;
    ServiceUsPerReq.push_back(Ns / 1000.0 / N);
    InstrPerReq.push_back(double(M.stats().Instructions - Instr0) / N);
  }

  serve::ServeOptions Opt;
  size_t ProbeRequests = 0;
  std::unique_ptr<FleetBuild> Built;
  std::vector<double> ReqPerSec, BuildS;
  std::vector<ServeSample> TracedRuns;
  std::vector<double> ServiceUsPerReq, InstrPerReq;
};

} // namespace

std::unique_ptr<Component> espbench::makeFleetComponent(const Context &Ctx) {
  return std::make_unique<FleetComponent>(Ctx);
}
