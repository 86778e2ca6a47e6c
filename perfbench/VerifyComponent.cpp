//===--- VerifyComponent.cpp - The paper's memory-safety searches ---------===//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The unit is the cluster check of VMMC's pageTable + deliver processes
// under a per-channel environment budget, run two ways on alternate units:
// (a) exhaustive without partial-order reduction on one worker, (b) with
// --por on four workers. Alternating keeps the units short, so the other
// components' units interleave with the searches more finely.
// The traced unit also walks the same harness through Machine's public
// model-checking interface and times each call, so the search time can be
// split into enumerate / apply / serialize / leak sweep / snapshot and an
// unattributed rest (hashing, visited inserts, DFS bookkeeping).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Driver.h"
#include "mc/ModelChecker.h"
#include "mc/SafetyHarness.h"
#include "runtime/Machine.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "vmmc/EspFirmwareSource.h"

#include <algorithm>
#include <set>

using namespace esp;
using namespace espbench;

namespace {

const std::vector<std::string> kCluster = {"pageTable", "deliver"};

/// Golden counts of search (a) at the full budget (tests/test_determinism).
constexpr uint64_t kFullStored = 63393;
constexpr uint64_t kFullExplored = 697273;
constexpr uint64_t kFullTransitions = 697272;

struct SearchSample {
  double Seconds = 0;
  McResult R;
};

/// Per-call costs of Machine's model-checking interface along one walk:
/// the samples while walking, then their medians.
template <typename T> struct WalkCosts {
  T Enumerate{}, Apply{}, Serialize{}, LeakSweep{}, Snapshot{}, Restore{};
};

double nsSince(uint64_t T0) { return static_cast<double>(nowNs() - T0); }

class VerifyComponent : public Component {
public:
  explicit VerifyComponent(const Context &Ctx) : Component(Ctx) {
    Budget = Ctx.Size == Scale::Full ? 4 : 1;
  }

  void setup() override {
    Built = std::make_unique<CompiledFirmware>();
    Built->Diags = std::make_unique<DiagnosticEngine>(Built->SM);
    CompileResult R = compileBuffer(Built->SM, *Built->Diags, "vmmc.esp",
                                    vmmc::getVmmcEspSource());
    checks().check(R.Success, "verify: VMMC firmware compiles");
    Built->Prog = std::move(R.Prog);
  }

  void runUnit(bool Traced) override {
    if (!Built->Prog)
      return;
    SpanScope Unit(spans(), "verify.unit");
    if (Units++ % 2 == 1) {
      SearchSample B = search(/*Por=*/true, /*Jobs=*/4, "mc.por_j4");
      checks().check(B.R.Verdict == McVerdict::OK, "verify: search (b) OK");
      (Traced ? TracedB : PorJ4).push_back(B);
      return;
    }
    SearchSample A = search(/*Por=*/false, /*Jobs=*/1, "mc.full_j1");
    bool CountsOk;
    if (Budget == 4) {
      CountsOk = A.R.StatesStored == kFullStored &&
                 A.R.StatesExplored == kFullExplored &&
                 A.R.Transitions == kFullTransitions;
    } else {
      // Smaller budgets have no committed golden; the counts must repeat.
      if (!RefStored) {
        RefStored = A.R.StatesStored;
        RefExplored = A.R.StatesExplored;
        RefTransitions = A.R.Transitions;
      }
      CountsOk = A.R.StatesStored == RefStored &&
                 A.R.StatesExplored == RefExplored &&
                 A.R.Transitions == RefTransitions;
    }
    checks().check(A.R.Verdict == McVerdict::OK && CountsOk,
                   "verify: search (a) OK with golden counts");
    (Traced ? TracedA : FullJ1).push_back(A);
    if (Traced)
      walk();
  }

  void endToEnd(MetricSet &Out) const override {
    Out.add("full_j1_s", fastestTime(seconds(FullJ1)), "s");
    Out.add("por_j4_s", fastestTime(seconds(PorJ4)), "s");
  }

  void perLayer(MetricSet &Out) const override {
    auto Med = [](const std::vector<SearchSample> &V, auto Get) {
      std::vector<double> X;
      for (const SearchSample &S : V)
        X.push_back(static_cast<double>(Get(S)));
      return median(X);
    };
    for (const auto &[Suffix, V] :
         {std::pair<const char *, const std::vector<SearchSample> *>{
              "full_j1", &TracedA},
          {"por_j4", &TracedB}}) {
      std::string S = Suffix;
      Out.add("mc.states_explored." + S,
              Med(*V, [](const SearchSample &X) { return X.R.StatesExplored; }),
              "count");
      Out.add("mc.states_stored." + S,
              Med(*V, [](const SearchSample &X) { return X.R.StatesStored; }),
              "count");
      Out.add("mc.transitions." + S,
              Med(*V, [](const SearchSample &X) { return X.R.Transitions; }),
              "count");
    }
    double ASeconds = fastestTime(seconds(TracedA));
    double Explored = Med(TracedA, [](const SearchSample &X) {
      return X.R.StatesExplored;
    });
    double Stored =
        Med(TracedA, [](const SearchSample &X) { return X.R.StatesStored; });
    double Replayed =
        Med(TracedA, [](const SearchSample &X) { return X.R.ReplayedMoves; });
    double Memory =
        Med(TracedA, [](const SearchSample &X) { return X.R.MemoryBytes; });
    Out.add("mc.states_per_s", ASeconds > 0 ? Explored / ASeconds : 0, "1/s");
    Out.add("mc.replayed_moves_per_state",
            Explored > 0 ? Replayed / Explored : 0, "ratio");
    Out.add("mc.bytes_per_state", Stored > 0 ? Memory / Stored : 0, "bytes");

    Out.add("mc.por_reduced_share", Med(TracedB, [](const SearchSample &X) {
              uint64_t All = X.R.PorReducedStates + X.R.PorFullStates;
              return All ? double(X.R.PorReducedStates) / All : 0.0;
            }),
            "ratio");
    Out.add("mc.proviso_upgrades", Med(TracedB, [](const SearchSample &X) {
              return X.R.PorProvisoUpgrades;
            }),
            "count");
    Out.add("mc.worker_imbalance", Med(TracedB, [](const SearchSample &X) {
              const std::vector<uint64_t> &W = X.R.WorkerExplored;
              if (W.empty())
                return 1.0;
              double Sum = 0, Max = 0;
              for (uint64_t E : W) {
                Sum += E;
                Max = std::max(Max, double(E));
              }
              return Sum > 0 ? Max * W.size() / Sum : 1.0;
            }),
            "ratio");
    Out.add("mc.shared_work_items", Med(TracedB, [](const SearchSample &X) {
              return X.R.SharedWorkItems;
            }),
            "count");

    auto Fastest = [&](double WalkCosts<double>::*Field) {
      std::vector<double> V;
      for (const WalkCosts<double> &W : Walks)
        V.push_back(W.*Field);
      return fastestTime(V);
    };
    Out.add("runtime.enumerate_ns", Fastest(&WalkCosts<double>::Enumerate),
            "ns");
    Out.add("runtime.apply_ns", Fastest(&WalkCosts<double>::Apply), "ns");
    Out.add("runtime.serialize_ns", Fastest(&WalkCosts<double>::Serialize),
            "ns");
    Out.add("runtime.leak_sweep_ns", Fastest(&WalkCosts<double>::LeakSweep),
            "ns");
    Out.add("runtime.snapshot_ns", Fastest(&WalkCosts<double>::Snapshot),
            "ns");
    Out.add("runtime.restore_ns", Fastest(&WalkCosts<double>::Restore), "ns");

    // Cost model of one DFS: every new (stored) state is enumerated and
    // swept for leaks; every transition is applied and serialized for the
    // visited lookup; every replayed move is applied again. Each traced
    // search is priced with the walk that ran right after it, so both see
    // the same state of the host.
    std::vector<double> Shares;
    for (size_t I = 0; I < std::min(TracedA.size(), Walks.size()); ++I) {
      const McResult &R = TracedA[I].R;
      const WalkCosts<double> &W = Walks[I];
      double Attributed = R.StatesStored * (W.Enumerate + W.LeakSweep) +
                          R.Transitions * (W.Apply + W.Serialize) +
                          R.ReplayedMoves * W.Apply;
      Shares.push_back(1.0 - Attributed / (TracedA[I].Seconds * 1e9));
    }
    Out.add("mc.unattributed_share", median(Shares), "ratio");
  }

private:
  struct CompiledFirmware {
    SourceManager SM;
    std::unique_ptr<DiagnosticEngine> Diags;
    std::unique_ptr<Program> Prog;
  };

  static std::vector<double> seconds(const std::vector<SearchSample> &V) {
    std::vector<double> X;
    for (const SearchSample &S : V)
      X.push_back(S.Seconds);
    return X;
  }

  SafetyOptions options(bool Por, unsigned Jobs) const {
    SafetyOptions O;
    O.Mc.MaxStates = 5'000'000;
    O.Mc.EnvSendBudget = Budget;
    O.Mc.Jobs = Jobs;
    O.Mc.Por = Por;
    return O;
  }

  SearchSample search(bool Por, unsigned Jobs, const char *SpanName) {
    SearchSample S;
    SpanScope Span(spans(), SpanName);
    uint64_t T0 = nowNs();
    S.R = verifyProcessClusterMemorySafety(*Built->Prog, kCluster,
                                           options(Por, Jobs));
    S.Seconds = (nowNs() - T0) / 1e9;
    return S;
  }

  /// A seeded random walk over the harness verifyProcessClusterMemory-
  /// Safety builds (same isolated module, driven channels, environment
  /// and machine options), timing each Machine call.
  void walk() {
    TracedOnlyWork Extra(spans());
    SpanScope Span(spans(), "runtime.walk");
    ModuleIR Full = lowerProgram(*Built->Prog);
    ModuleIR Isolated;
    Isolated.Prog = Full.Prog;
    for (ProcIR &P : Full.Procs)
      if (std::find(kCluster.begin(), kCluster.end(), P.Proc->Name) !=
          kCluster.end())
        Isolated.Procs.push_back(std::move(P));
    std::set<std::string> Read, Written;
    for (const ProcIR &P : Isolated.Procs)
      for (const Inst &I : P.Insts)
        if (I.Kind == InstKind::Block)
          for (const IRCase &Case : I.Cases)
            (Case.IsIn ? Read : Written).insert(Case.Channel->Name);
    std::set<std::string> Driven;
    for (const std::string &Name : Read)
      if (!Written.count(Name))
        Driven.insert(Name);
    SafetyOptions O = options(false, 1);
    BoundedEnvModel Env(Driven, O.IntDomain, O.ArrayLen);

    MachineOptions MO;
    MO.MaxObjects = O.Mc.MaxObjects;
    MO.ReuseObjectIds = true;
    MO.DeepCopyTransfers = true;
    MO.EnvSendBudget = Budget;
    Machine M(Isolated, MO);
    M.setEnvModel(&Env);
    M.start();
    Machine::Snapshot Root = M.snapshot();

    Rng R(Ctx.Seed ^ (Walks.size() * 0x5851f42d4c957f2dULL));
    WalkCosts<std::vector<double>> Walk;
    std::string Buf;
    unsigned Steps = Ctx.Size == Scale::Full ? 4000 : 1000;
    bool Ok = true;
    for (unsigned I = 0; I != Steps; ++I) {
      uint64_t T0 = nowNs();
      std::vector<Move> Moves = M.enumerateMoves();
      Walk.Enumerate.push_back(nsSince(T0));
      T0 = nowNs();
      M.serializeState(Buf);
      Walk.Serialize.push_back(nsSince(T0));
      T0 = nowNs();
      unsigned Leaked = M.countLeakedObjects();
      Walk.LeakSweep.push_back(nsSince(T0));
      Ok &= Leaked == 0;
      T0 = nowNs();
      Machine::Snapshot Here = M.snapshot();
      Walk.Snapshot.push_back(nsSince(T0));
      if (Moves.empty()) {
        T0 = nowNs();
        M.restore(Root);
        Walk.Restore.push_back(nsSince(T0));
        continue;
      }
      T0 = nowNs();
      M.applyMove(Moves[R.below(Moves.size())]);
      Walk.Apply.push_back(nsSince(T0));
      Ok &= !M.error();
      if (I % 8 == 7) {
        // Backtrack, as the DFS does.
        T0 = nowNs();
        M.restore(Here);
        Walk.Restore.push_back(nsSince(T0));
      }
    }
    checks().check(Ok, "verify: harness walk is error- and leak-free");
    Walks.push_back({median(Walk.Enumerate), median(Walk.Apply),
                     median(Walk.Serialize), median(Walk.LeakSweep),
                     median(Walk.Snapshot), median(Walk.Restore)});
  }

  uint32_t Budget;
  std::unique_ptr<CompiledFirmware> Built;
  uint64_t RefStored = 0, RefExplored = 0, RefTransitions = 0;
  std::vector<SearchSample> FullJ1, PorJ4, TracedA, TracedB;
  std::vector<WalkCosts<double>> Walks;
  uint64_t Units = 0;
};

} // namespace

std::unique_ptr<Component> espbench::makeVerifyComponent(const Context &Ctx) {
  return std::make_unique<VerifyComponent>(Ctx);
}
