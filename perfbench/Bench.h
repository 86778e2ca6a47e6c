//===--- Bench.h - Shared pieces of the repository benchmark ----*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark (perfbench/README.md) runs four components —
/// compile, verify, firmware, fleet — each timing calls into one group of
/// layers from outside, through their public headers. A workload (verify
/// or fleet) runs its own component at full size and the other three at
/// probe size, so every run reports every metric. This header holds what the components
/// share: the clock and the estimators, the metric and check sinks, and the
/// in-memory span recorder of the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_PERFBENCH_BENCH_H
#define ESP_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace espbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Quantile \p Q of \p V with linear interpolation (0 when empty).
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Timings report the fastest of their unit samples. Every unit repeats
/// the same deterministic work, so the spread of its samples is the
/// host's, not the program's: contention from other tenants makes
/// memory-bound code ~1.7x slower for stretches of seconds to minutes,
/// covering anywhere from a tenth to all of a run. The samples then fall
/// in two modes, and any quantile but the extremes jumps between them as
/// the slow share moves; the fastest sample stays in the fast mode unless
/// the whole run is slow. Minimum for times, maximum for rates.
inline double fastestTime(std::vector<double> V) {
  return quantile(std::move(V), 0.0);
}
inline double fastestRate(std::vector<double> V) {
  return quantile(std::move(V), 1.0);
}

/// splitmix64: the benchmark's one seeded generator.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }

private:
  uint64_t State;
};

/// How big a component's unit is: Full on its own workload, Probe on the
/// other, Smoke in the benchmark's tests. Compile and firmware have no
/// workload of their own; their probe is their full size.
enum class Scale { Full, Probe, Smoke };

/// One named value with its unit, in report order.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

class MetricSet {
public:
  void add(std::string Name, double Value, std::string Unit) {
    Items.push_back({std::move(Name), Value, std::move(Unit)});
  }
  const std::vector<Metric> &items() const { return Items; }

private:
  std::vector<Metric> Items;
};

/// Output checks, counted against attempts.
class Checks {
public:
  void check(bool Ok, const std::string &What);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  /// The first few failure descriptions, for the report.
  const std::vector<std::string> &failures() const { return Failures; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
};

/// One traced interval around a layer call.
struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int Parent = -1;  ///< Index of the enclosing span, -1 at top level.
  uint64_t Unit = 0; ///< Workload unit the span belongs to.
};

/// Keeps spans in memory while the traced run works; written out once at
/// the end. Inactive recorders cost one branch per scope.
class SpanRecorder {
public:
  bool active() const { return Active; }
  void setActive(bool On) { Active = On; }
  /// Starts a new workload unit; later spans carry its id.
  void beginUnit() { ++UnitId; }

  int open(const char *Name);
  void close(int Id);

  const std::vector<Span> &spans() const { return Spans; }
  std::string json() const;

  void addTracedOnlyNs(uint64_t Ns) { TracedOnlyNs += Ns; }
  /// Time spent since the last call in work only traced units do.
  uint64_t takeTracedOnlyNs() { return std::exchange(TracedOnlyNs, 0); }

private:
  bool Active = false;
  uint64_t UnitId = 0;
  int Current = -1;
  std::vector<Span> Spans;
  uint64_t TracedOnlyNs = 0;
};

/// RAII span; records nothing when the recorder is inactive.
class SpanScope {
public:
  SpanScope(SpanRecorder &R, const char *Name)
      : R(R), Id(R.active() ? R.open(Name) : -1) {}
  ~SpanScope() {
    if (Id >= 0)
      R.close(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanRecorder &R;
  int Id;
};

/// Times work that only traced units do (the extra probes behind some
/// per-layer metrics), so the tracing overhead can leave it out.
class TracedOnlyWork {
public:
  explicit TracedOnlyWork(SpanRecorder &R) : R(R), T0(nowNs()) {}
  ~TracedOnlyWork() { R.addTracedOnlyNs(nowNs() - T0); }
  TracedOnlyWork(const TracedOnlyWork &) = delete;
  TracedOnlyWork &operator=(const TracedOnlyWork &) = delete;

private:
  SpanRecorder &R;
  uint64_t T0;
};

/// What every component sees.
struct Context {
  uint64_t Seed = 1;
  Scale Size = Scale::Probe;
  SpanRecorder *Spans = nullptr;
  Checks *Chk = nullptr;
};

/// One group of layers, timed from outside.
class Component {
public:
  explicit Component(const Context &Ctx) : Ctx(Ctx) {}
  virtual ~Component() = default;

  /// Builds what a unit needs. Called several times; each call replaces
  /// the previous build, and the benchmark reports the median time.
  virtual void setup() = 0;
  /// One unit of work. A traced unit records spans and layer counters;
  /// an untraced one only the end-to-end timings.
  virtual void runUnit(bool Traced) = 0;
  /// End-to-end metrics from the untraced units.
  virtual void endToEnd(MetricSet &Out) const = 0;
  /// Per-layer metrics from the traced units.
  virtual void perLayer(MetricSet &Out) const = 0;
  /// Set-up the program under test does inside each unit, outside the
  /// time the unit reports (median seconds); setup_s adds it.
  virtual double unitSetupSeconds() const { return 0; }

protected:
  SpanRecorder &spans() const { return *Ctx.Spans; }
  Checks &checks() const { return *Ctx.Chk; }

  Context Ctx;
};

std::unique_ptr<Component> makeCompileComponent(const Context &Ctx);
std::unique_ptr<Component> makeVerifyComponent(const Context &Ctx);
std::unique_ptr<Component> makeFirmwareComponent(const Context &Ctx);
std::unique_ptr<Component> makeFleetComponent(const Context &Ctx);

/// A closed, well-typed ESP pipeline program generated from \p Seed:
/// \p Stages processes of \p StmtsPerStage statements each. The sizes fix
/// the statement count; the seed picks the statements, operators and
/// constants.
std::string generateProgram(uint64_t Seed, unsigned Stages,
                            unsigned StmtsPerStage);

} // namespace espbench

#endif // ESP_PERFBENCH_BENCH_H
