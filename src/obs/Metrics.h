//===--- Metrics.h - Stage counters and sharded histograms ------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two measurement tools. MetricsRegistry holds the compiler driver's
/// named stage counters (`driver.*`), which `espc --profile` prints and
/// the benchmark harness reads; each counter is one relaxed atomic,
/// written by the one thread that compiles. Histogram is a
/// standalone log-linear histogram with one cache-line-aligned row per
/// writer shard: the `espserve` workers record request latencies and
/// heap watermarks into it without touching each other's lines, and
/// reads merge the rows once the writers have joined.
///
/// Handles returned by the registry are stable for its lifetime;
/// registration takes a mutex, increments are lock-free.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_OBS_METRICS_H
#define ESP_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace esp {
namespace obs {

class JsonValue;

/// Number of independent shards per histogram. Threads map onto shards
/// round-robin; two threads share a shard only beyond this many
/// concurrent writers (still correct, just contended).
inline constexpr unsigned kMetricShards = 16;

/// The calling thread's shard slot, assigned on first use.
unsigned metricShard();

/// Monotone counter.
class Counter {
public:
  void add(uint64_t Delta = 1) {
    V.fetch_add(Delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Log-linear (HdrHistogram-style) histogram. Each power-of-two range
/// is split into kSubBuckets linear sub-buckets, so ~1.9k buckets cover
/// all of uint64 with a relative error of at most 1/32 (3.1%); values
/// below 2*kSubBuckets are exact. Each shard is one cache-line-aligned
/// row of relaxed atomics; quantile() merges the rows, so read it after
/// the writers joined (the joins publish the counts).
class Histogram {
public:
  static constexpr unsigned kPrecisionBits = 5;
  static constexpr unsigned kSubBuckets = 1u << kPrecisionBits; // 32
  // Values below kSubBuckets*2 are exact; above, 64 - kPrecisionBits - 1
  // doubling ranges of kSubBuckets sub-buckets each cover uint64.
  static constexpr unsigned kBucketCount =
      kSubBuckets * 2 + (64 - kPrecisionBits - 1) * kSubBuckets;

  explicit Histogram(unsigned Shards = kMetricShards);

  /// Maps a value to its bucket index. Monotone and total: consecutive
  /// values map to the same or the next bucket.
  static unsigned bucketOf(uint64_t V) {
    if (V < kSubBuckets * 2)
      return static_cast<unsigned>(V); // exact range
    // Highest set bit gives the doubling range; the kPrecisionBits bits
    // below it give the linear sub-bucket.
    unsigned Msb = 63u - static_cast<unsigned>(__builtin_clzll(V));
    unsigned Shift = Msb - kPrecisionBits; // >= 1 here
    unsigned Sub = static_cast<unsigned>((V >> Shift) & (kSubBuckets - 1));
    return (Shift + 1) * kSubBuckets + Sub;
  }

  /// Lower edge of a bucket: the smallest value mapping into it.
  static uint64_t bucketLow(unsigned Bucket) {
    if (Bucket < kSubBuckets * 2)
      return Bucket;
    unsigned Shift = Bucket / kSubBuckets - 1;
    unsigned Sub = Bucket % kSubBuckets;
    return (uint64_t(kSubBuckets) + Sub) << Shift;
  }

  void record(uint64_t Sample) { record(Sample, metricShard()); }
  void record(uint64_t Sample, unsigned Shard) {
    Row &R = Rows[Shard % ShardCount];
    R.B[bucketOf(Sample)].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const;
  /// Value at quantile \p Q in [0, 1]: the midpoint of the bucket holding
  /// that rank, so within 1/32 of the true sample. 0 when empty.
  uint64_t quantile(double Q) const;

private:
  struct alignas(64) Row {
    std::array<std::atomic<uint64_t>, kBucketCount> B{};
  };
  unsigned ShardCount;
  std::unique_ptr<Row[]> Rows;
};

/// Named counters. Lookup-or-create is mutex-guarded; returned
/// references remain valid for the registry's lifetime (deque storage
/// never moves elements).
class MetricsRegistry {
public:
  Counter &counter(std::string_view Name);

  /// Snapshot of every counter as JSON: {"counters": {...}}.
  JsonValue json() const;

  /// Human-readable listing, one counter per line, sorted by name.
  std::string report() const;

private:
  struct Entry {
    std::string Name;
    Counter Metric;
  };

  mutable std::mutex M;
  std::deque<Entry> Counters;
};

} // namespace obs
} // namespace esp

#endif // ESP_OBS_METRICS_H
