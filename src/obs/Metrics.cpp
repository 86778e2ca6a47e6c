//===--- Metrics.cpp - Stage counters and sharded histograms ----------------==//
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

Counter &MetricsRegistry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  for (Entry &E : Counters)
    if (E.Name == Name)
      return E.Metric;
  Counters.emplace_back();
  Counters.back().Name = std::string(Name);
  return Counters.back().Metric;
}

JsonValue MetricsRegistry::json() const {
  std::lock_guard<std::mutex> Lock(M);
  JsonValue C = JsonValue::object();
  for (const Entry &E : Counters)
    C.set(E.Name, JsonValue::integer(static_cast<int64_t>(E.Metric.value())));
  JsonValue Root = JsonValue::object();
  Root.set("counters", std::move(C));
  return Root;
}

std::string MetricsRegistry::report() const {
  std::vector<std::pair<std::string, uint64_t>> Lines;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (const Entry &E : Counters)
      Lines.emplace_back(E.Name, E.Metric.value());
  }
  std::sort(Lines.begin(), Lines.end());
  std::ostringstream OS;
  for (const auto &[Name, Value] : Lines)
    OS << "  " << Name << " = " << Value << "\n";
  return OS.str();
}
