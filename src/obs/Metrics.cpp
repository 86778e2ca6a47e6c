//===--- Metrics.cpp - Sharded counters, gauges, and histograms -------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/Json.h"

#include <algorithm>
#include <sstream>

using namespace esp;
using namespace esp::obs;

unsigned esp::obs::metricShard() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Shard =
      Next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return Shard;
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(unsigned Shards)
    : ShardCount(Shards ? Shards : 1), Rows(new Row[ShardCount]) {}

uint64_t Histogram::count() const {
  uint64_t N = 0;
  for (unsigned S = 0; S != ShardCount; ++S)
    for (const auto &B : Rows[S].B)
      N += B.load(std::memory_order_relaxed);
  return N;
}

uint64_t Histogram::sum() const {
  uint64_t Sum = 0;
  for (unsigned S = 0; S != ShardCount; ++S)
    Sum += Rows[S].Sum.load(std::memory_order_relaxed);
  return Sum;
}

uint64_t Histogram::quantile(double Q) const {
  std::vector<uint64_t> Merged(kBucketCount, 0);
  uint64_t Total = 0;
  for (unsigned S = 0; S != ShardCount; ++S)
    for (unsigned B = 0; B != kBucketCount; ++B) {
      uint64_t C = Rows[S].B[B].load(std::memory_order_relaxed);
      Merged[B] += C;
      Total += C;
    }
  if (Total == 0)
    return 0;
  Q = std::clamp(Q, 0.0, 1.0);
  // Rank of the sample the quantile asks for, 1-based.
  uint64_t Rank = static_cast<uint64_t>(Q * double(Total - 1)) + 1;
  uint64_t Seen = 0;
  for (unsigned B = 0; B != kBucketCount; ++B) {
    Seen += Merged[B];
    if (Seen >= Rank) {
      uint64_t Low = bucketLow(B);
      uint64_t High = B + 1 < kBucketCount ? bucketLow(B + 1) : Low + 1;
      return Low + (High - Low) / 2;
    }
  }
  return bucketLow(kBucketCount - 1);
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

namespace {

template <typename Deque>
auto &findOrCreate(Deque &D, std::string_view Name, std::mutex &M) {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &E : D)
    if (E.Name == Name)
      return E.Metric;
  D.emplace_back();
  D.back().Name = std::string(Name);
  return D.back().Metric;
}

} // namespace

Counter &MetricsRegistry::counter(std::string_view Name) {
  return findOrCreate(Counters, Name, M);
}

Gauge &MetricsRegistry::gauge(std::string_view Name) {
  return findOrCreate(Gauges, Name, M);
}

Histogram &MetricsRegistry::histogram(std::string_view Name) {
  return findOrCreate(Histograms, Name, M);
}

JsonValue MetricsRegistry::json() const {
  std::lock_guard<std::mutex> Lock(M);
  JsonValue Root = JsonValue::object();
  JsonValue C = JsonValue::object();
  for (const auto &E : Counters)
    C.set(E.Name, JsonValue::integer(static_cast<int64_t>(E.Metric.value())));
  Root.set("counters", std::move(C));
  JsonValue G = JsonValue::object();
  for (const auto &E : Gauges) {
    JsonValue V = JsonValue::object();
    V.set("value", JsonValue::integer(E.Metric.value()));
    V.set("max", JsonValue::integer(E.Metric.max()));
    G.set(E.Name, std::move(V));
  }
  Root.set("gauges", std::move(G));
  JsonValue H = JsonValue::object();
  for (const auto &E : Histograms) {
    JsonValue V = JsonValue::object();
    V.set("count",
          JsonValue::integer(static_cast<int64_t>(E.Metric.count())));
    V.set("sum", JsonValue::integer(static_cast<int64_t>(E.Metric.sum())));
    V.set("p50",
          JsonValue::integer(static_cast<int64_t>(E.Metric.quantile(0.50))));
    V.set("p99",
          JsonValue::integer(static_cast<int64_t>(E.Metric.quantile(0.99))));
    H.set(E.Name, std::move(V));
  }
  Root.set("histograms", std::move(H));
  return Root;
}

std::string MetricsRegistry::report() const {
  struct Line {
    std::string Name;
    std::string Text;
  };
  std::vector<Line> Lines;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (const auto &E : Counters)
      Lines.push_back({E.Name, std::to_string(E.Metric.value())});
    for (const auto &E : Gauges)
      Lines.push_back({E.Name, std::to_string(E.Metric.value()) + " (max " +
                                   std::to_string(E.Metric.max()) + ")"});
    for (const auto &E : Histograms)
      Lines.push_back(
          {E.Name, "count " + std::to_string(E.Metric.count()) + ", sum " +
                       std::to_string(E.Metric.sum()) + ", p50 " +
                       std::to_string(E.Metric.quantile(0.50)) + ", p99 " +
                       std::to_string(E.Metric.quantile(0.99))});
  }
  std::sort(Lines.begin(), Lines.end(),
            [](const Line &A, const Line &B) { return A.Name < B.Name; });
  std::ostringstream OS;
  for (const Line &L : Lines)
    OS << "  " << L.Name << " = " << L.Text << "\n";
  return OS.str();
}
