//===--- FirmwareComponent.cpp - Figure 5(a) pingpong on two NICs ---------===//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// One unit is a vmmcESP pingpong at 4 B and one at 4 KB on the two-node
// simulator. Host time per round trip is the pingpong's wall time minus
// the firmware construction its factory does, over every round trip it
// ran (warmup included). The traced unit wraps each firmware in a
// forwarding sim::Firmware that times runQuantum, so host time splits
// into the ESP runtime (inside the quantum) and the simulator's event
// queue (outside it), and adds a vmmcOrig pingpong at 4 B as a control.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Driver.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "vmmc/EspFirmware.h"
#include "vmmc/EspFirmwareSource.h"
#include "vmmc/Workloads.h"

using namespace esp;
using namespace espbench;

namespace {

/// Warmup round trips runPingpongWith adds to the requested iterations.
constexpr unsigned kWarmupRoundTrips = 4;

/// What the traced firmwares did, summed over both NICs.
struct QuantumStats {
  uint64_t Quanta = 0;
  uint64_t QuantumNs = 0;
  ExecStats Exec;
};

/// Forwards to the real firmware and times each quantum. Flushes the ESP
/// machine's statistics into \p Acc when the simulator destroys it.
class TimedFirmware : public sim::Firmware {
public:
  TimedFirmware(std::unique_ptr<sim::Firmware> Inner, QuantumStats &Acc)
      : Inner(std::move(Inner)), Acc(Acc) {}
  ~TimedFirmware() override {
    if (auto *Esp = dynamic_cast<vmmc::EspFirmware *>(Inner.get())) {
      const ExecStats &S = Esp->machine().stats();
      Acc.Exec.Instructions += S.Instructions;
      Acc.Exec.ContextSwitches += S.ContextSwitches;
      Acc.Exec.Rendezvous += S.Rendezvous;
      Acc.Exec.ExternalDeliveries += S.ExternalDeliveries;
      Acc.Exec.ExternalConsumes += S.ExternalConsumes;
      Acc.Exec.PollRounds += S.PollRounds;
      Acc.Exec.PatternMatchesTried += S.PatternMatchesTried;
    }
  }

  void runQuantum(sim::NicEnv &Env) override {
    uint64_t T0 = nowNs();
    Inner->runQuantum(Env);
    Acc.QuantumNs += nowNs() - T0;
    ++Acc.Quanta;
  }
  const char *name() const override { return Inner->name(); }
  sim::SimTime repollAt() const override { return Inner->repollAt(); }

private:
  std::unique_ptr<sim::Firmware> Inner;
  QuantumStats &Acc;
};

/// One pingpong's outcome.
struct Pingpong {
  double HostUsPerRt = 0;
  double SimOneWayUs = 0;
  double RoundTrips = 0;
  uint64_t FwCyclesNode0 = 0;
  QuantumStats Q;
};

/// Per-size metrics of the traced units.
struct SizeSamples {
  std::vector<double> HostUs, SimUs;
  std::vector<Pingpong> Traced;
};

class FirmwareComponent : public Component {
public:
  explicit FirmwareComponent(const Context &Ctx) : Component(Ctx) {
    // The seed picks the round-trip count, so the simulated average
    // (which the watchdog tick phase moves slightly) differs by seed but
    // repeats exactly for one seed.
    Rng R(Ctx.Seed);
    Iterations = (Ctx.Size == Scale::Smoke ? 16 : 200) +
                 static_cast<unsigned>(R.below(32));
  }

  void setup() override {
    // What each pingpong builds before its first event: one simulator
    // and a compiled firmware per NIC.
    auto Sim = std::make_unique<sim::Simulator>(2);
    for (unsigned Node = 0; Node != 2; ++Node)
      Sim->nic(Node).setFirmware(std::make_unique<vmmc::EspFirmware>());
    SourceManager SM;
    DiagnosticEngine Diags(SM);
    CompileOptions Options;
    Options.Optimize = true;
    CompileResult R =
        compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource(), Options);
    checks().check(R.Success, "firmware: VMMC firmware compiles");
    OptimizedInsts = 0;
    for (const ProcIR &P : R.Optimized.Procs)
      OptimizedInsts += P.Insts.size();
  }

  void runUnit(bool Traced) override {
    SpanScope Unit(spans(), "firmware.unit");
    for (unsigned I = 0; I != 2; ++I) {
      Pingpong P = pingpong(vmmc::FirmwareKind::Esp, kSizes[I], Traced,
                            I ? "vmmc.pingpong_4KB" : "vmmc.pingpong_4B");
      if (Traced) {
        Sizes[I].Traced.push_back(P);
      } else {
        Sizes[I].HostUs.push_back(P.HostUsPerRt);
        Sizes[I].SimUs.push_back(P.SimOneWayUs);
      }
    }
    if (Traced) {
      TracedOnlyWork Extra(spans());
      OrigHostUs.push_back(
          pingpong(vmmc::FirmwareKind::Orig, 4, false, "vmmc.pingpong_orig_4B")
              .HostUsPerRt);
    }
  }

  void endToEnd(MetricSet &Out) const override {
    for (unsigned I = 0; I != 2; ++I)
      Out.add(std::string("host_us_per_rt.") + kSizeNames[I],
              fastestTime(Sizes[I].HostUs), "us");
    for (unsigned I = 0; I != 2; ++I)
      Out.add(std::string("sim_oneway_us.") + kSizeNames[I],
              median(Sizes[I].SimUs), "us");
  }

  void perLayer(MetricSet &Out) const override {
    Out.add("ir.optimized_insts", static_cast<double>(OptimizedInsts),
            "count");
    Out.add("sim.orig_host_us_per_rt", fastestTime(OrigHostUs), "us");
    for (unsigned I = 0; I != 2; ++I) {
      const std::vector<Pingpong> &T = Sizes[I].Traced;
      std::string Sfx = std::string(".") + kSizeNames[I];
      // Times take the fastest unit like the end-to-end metrics; the
      // counts are the same in every unit.
      auto Med = [&](auto Get) {
        std::vector<double> V;
        for (const Pingpong &P : T)
          V.push_back(Get(P));
        return fastestTime(V);
      };
      auto PerRt = [&](auto Get) {
        return Med([&](const Pingpong &P) {
          return static_cast<double>(Get(P)) / P.RoundTrips;
        });
      };
      double QuantumUs =
          PerRt([](const Pingpong &P) { return P.Q.QuantumNs / 1000.0; });
      Out.add("vmmc.quantum_us_per_rt" + Sfx, QuantumUs, "us");
      Out.add("sim.host_us_per_rt" + Sfx,
              Med([](const Pingpong &P) {
                return P.HostUsPerRt - P.Q.QuantumNs / 1000.0 / P.RoundTrips;
              }),
              "us");
      Out.add("vmmc.quanta_per_rt" + Sfx,
              PerRt([](const Pingpong &P) { return P.Q.Quanta; }), "count");
      Out.add("runtime.ns_per_instr" + Sfx, Med([](const Pingpong &P) {
                return P.Q.Exec.Instructions
                           ? double(P.Q.QuantumNs) / P.Q.Exec.Instructions
                           : 0.0;
              }),
              "ns");
      Out.add("runtime.pattern_tries_per_rt" + Sfx,
              PerRt([](const Pingpong &P) {
                return P.Q.Exec.PatternMatchesTried;
              }),
              "count");
      Out.add("runtime.instr_per_rt" + Sfx,
              PerRt([](const Pingpong &P) { return P.Q.Exec.Instructions; }),
              "count");
      Out.add("runtime.ctx_switches_per_rt" + Sfx,
              PerRt([](const Pingpong &P) {
                return P.Q.Exec.ContextSwitches;
              }),
              "count");
      Out.add("runtime.rendezvous_per_rt" + Sfx,
              PerRt([](const Pingpong &P) { return P.Q.Exec.Rendezvous; }),
              "count");
      Out.add("runtime.poll_rounds_per_rt" + Sfx,
              PerRt([](const Pingpong &P) { return P.Q.Exec.PollRounds; }),
              "count");
      Out.add("runtime.ext_deliveries_per_rt" + Sfx,
              PerRt([](const Pingpong &P) {
                return P.Q.Exec.ExternalDeliveries;
              }),
              "count");
      Out.add("runtime.poll_useful_ratio" + Sfx, Med([](const Pingpong &P) {
                return P.Q.Exec.PollRounds
                           ? double(P.Q.Exec.ExternalDeliveries) /
                                 P.Q.Exec.PollRounds
                           : 0.0;
              }),
              "ratio");
      Out.add("sim.fw_cycles_per_rt" + Sfx,
              PerRt([](const Pingpong &P) { return P.FwCyclesNode0; }),
              "cycles");
    }
  }

private:
  static constexpr uint32_t kSizes[2] = {4, 4096};
  static constexpr const char *kSizeNames[2] = {"4B", "4KB"};

  Pingpong pingpong(vmmc::FirmwareKind Kind, uint32_t Bytes, bool Traced,
                    const char *SpanName) {
    SpanScope Span(spans(), SpanName);
    Pingpong P;
    uint64_t FactoryNs = 0;
    auto Factory = [&]() -> std::unique_ptr<sim::Firmware> {
      uint64_t T0 = nowNs();
      std::unique_ptr<sim::Firmware> FW = vmmc::makeFirmware(Kind);
      if (Traced)
        FW = std::make_unique<TimedFirmware>(std::move(FW), P.Q);
      FactoryNs += nowNs() - T0;
      return FW;
    };
    uint64_t T0 = nowNs();
    vmmc::WorkloadResult R =
        vmmc::runPingpongWith(Factory, Bytes, Iterations);
    uint64_t WallNs = nowNs() - T0;
    checks().check(R.Completed, std::string("firmware: ") + SpanName +
                                    " completes");
    P.RoundTrips = Iterations + kWarmupRoundTrips;
    P.HostUsPerRt = (WallNs - FactoryNs) / 1000.0 / P.RoundTrips;
    P.SimOneWayUs = R.OneWayLatencyUs;
    P.FwCyclesNode0 = R.FirmwareCyclesNode0;
    return P;
  }

  unsigned Iterations;
  uint64_t OptimizedInsts = 0;
  SizeSamples Sizes[2];
  std::vector<double> OrigHostUs;
};

} // namespace

std::unique_ptr<Component>
espbench::makeFirmwareComponent(const Context &Ctx) {
  return std::make_unique<FirmwareComponent>(Ctx);
}
