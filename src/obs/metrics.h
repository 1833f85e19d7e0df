#ifndef SQUID_OBS_METRICS_H_
#define SQUID_OBS_METRICS_H_

/// \file metrics.h
/// \brief Metrics substrate for the serve path: named counters, gauges, and
/// log-bucketed latency histograms behind a MetricsRegistry, plus a
/// Prometheus-style text exposition (MetricsRegistry::DumpText).
///
/// Design constraints (the observability contract, see docs/ARCHITECTURE.md):
///  - one store: every counter of a service lives in that service's own
///    registry (SquidService owns one unless ServeOptions::metrics names
///    another), and its stats structs, the StatsResponse wire frame, the
///    REPL and the text exposition all read the same metrics. There is no
///    process-global registry;
///  - always on: recording is lock-free and sharded: a histogram keeps
///    kShards cache-line-separated bucket arrays and a recording thread
///    touches only its own shard with relaxed atomics — safe from any number
///    of threads, TSan-clean, and cheap enough (low tens of ns) to leave on
///    in the serve hot path. bench_obs measures it against an empty loop
///    and scripts/check_bench_trends.py gates it (check_obs);
///  - recording NEVER changes answers: metrics code only observes durations
///    and counts. The serve parity suites byte-compare answers with tracing
///    on and off;
///  - snapshots are plain mergeable data: merge(a, b) == merge(b, a)
///    bucket-for-bucket, and any snapshot yields p50/p90/p99/max without
///    touching the live histogram again.
///
/// Bucketing is log-linear: values below kSubBuckets map exactly, above
/// that each power-of-two octave splits into kSubBuckets equal sub-buckets
/// (relative error <= 1/kSubBuckets). The full u64 range is covered, so a
/// nanosecond recording of any duration lands in some bucket and the bucket
/// boundaries are exact, testable integers.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace squid {
namespace obs {

/// Always true: metrics have no off switch. Kept for callers that print
/// the effective configuration.
constexpr bool MetricsEnabled() { return true; }

// --- log-linear bucketing -------------------------------------------------

/// Sub-buckets per power-of-two octave (4: relative error <= 25%).
constexpr int kSubBucketBits = 2;
constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
/// Index space: values [0, kSubBuckets) map exactly to buckets [0,
/// kSubBuckets); each octave [2^m, 2^(m+1)) for m in [kSubBucketBits, 63]
/// contributes kSubBuckets more — 64 - kSubBucketBits octaves in all, so
/// the highest index, held by v = 2^64 - 1, is
/// (64 - kSubBucketBits) * kSubBuckets + kSubBuckets - 1.
constexpr size_t kNumBuckets =
    static_cast<size_t>((64 - kSubBucketBits + 1) * kSubBuckets);

/// Bucket index of a recorded value (total function over u64).
inline size_t BucketIndex(uint64_t v) {
  if (v < kSubBuckets) return static_cast<size_t>(v);
  const int msb = 63 - __builtin_clzll(v);
  const int shift = msb - kSubBucketBits;
  const size_t sub = static_cast<size_t>((v >> shift) & (kSubBuckets - 1));
  return (static_cast<size_t>(msb - kSubBucketBits) + 1) * kSubBuckets + sub;
}

/// Smallest value mapping to bucket `index` (inverse of BucketIndex at the
/// left edge: BucketIndex(BucketLowerBound(i)) == i).
inline uint64_t BucketLowerBound(size_t index) {
  if (index < kSubBuckets) return index;
  const size_t octave = index >> kSubBucketBits;  // >= 1
  const uint64_t sub = index & (kSubBuckets - 1);
  const int msb = static_cast<int>(octave) + kSubBucketBits - 1;
  return (uint64_t{1} << msb) + (sub << (msb - kSubBucketBits));
}

/// Largest value mapping to bucket `index`.
inline uint64_t BucketUpperBound(size_t index) {
  if (index + 1 >= kNumBuckets) return UINT64_MAX;
  return BucketLowerBound(index + 1) - 1;
}

// --- snapshots ------------------------------------------------------------

/// \brief Plain-data copy of a histogram at one instant. Mergeable and
/// self-contained: percentiles derive from the bucket counts alone, so a
/// snapshot shipped over the wire (net/frame.h StatsResponse) answers the
/// same p50/p99 questions as the live histogram. `count` is always the sum
/// of `buckets` (Merge and the wire decoder preserve/enforce this).
struct HistogramSnapshot {
  uint64_t count = 0;  ///< total samples (== sum over buckets)
  uint64_t sum = 0;    ///< sum of recorded values
  uint64_t max = 0;    ///< largest recorded value
  std::array<uint64_t, kNumBuckets> buckets{};

  bool Empty() const { return count == 0; }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Adds `other` into this snapshot (commutative and associative
  /// bucket-wise; max is the pairwise max).
  void Merge(const HistogramSnapshot& other);

  /// Value at quantile `q` in [0, 1]: the upper bound of the bucket holding
  /// the ceil(q * count)-th sample, clamped to `max` so the answer never
  /// exceeds an actually recorded value. 0 when empty. Deterministic: a
  /// pure function of the snapshot.
  uint64_t ValueAtQuantile(double q) const;

  bool operator==(const HistogramSnapshot& other) const {
    return count == other.count && sum == other.sum && max == other.max &&
           buckets == other.buckets;
  }
  bool operator!=(const HistogramSnapshot& other) const {
    return !(*this == other);
  }
};

// --- live metrics ---------------------------------------------------------

/// \brief Monotonic counter (relaxed atomic add).
class Counter {
 public:
  void Add(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // relaxed: monotonic count with no ordering contract; readers tolerate
  // observing it mid-update relative to any other metric.
  std::atomic<uint64_t> value_{0};
};

/// \brief Point-in-time signed value (open connections, cached bytes).
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t n) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // relaxed: last-writer-wins point sample; nothing synchronizes on it.
  std::atomic<int64_t> value_{0};
};

/// \brief Log-bucketed histogram with lock-free sharded recording. Each
/// recording thread picks a fixed shard (round-robin at first use) and
/// bumps that shard's bucket with a relaxed fetch_add — no locks, no
/// cross-shard contention on the hot path. Snapshot() folds the shards into
/// one HistogramSnapshot; at quiescence (all recorders finished) the
/// snapshot is exact, matching a serial recording of the same samples.
class LatencyHistogram {
 public:
  static constexpr size_t kShards = 8;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(uint64_t value) {
    Shard& shard = shards_[ShardIndex()];
    shard.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t prev = shard.max.load(std::memory_order_relaxed);
    while (value > prev && !shard.max.compare_exchange_weak(
                               prev, value, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snapshot() const;

 private:
  /// Each shard starts on its own cache line; the bucket array keeps
  /// different shards' hot words apart.
  struct alignas(64) Shard {
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
  };

  /// This thread's shard: threads are assigned round-robin on first record,
  /// so up to kShards recorders never share a bucket word.
  static size_t ShardIndex();

  Shard shards_[kShards];
};

// --- registry -------------------------------------------------------------

/// \brief Named metric registry. Get* is get-or-create: the first caller
/// creates the metric, every later caller gets the same stable pointer
/// (metrics are never removed), so hot paths resolve a name once and keep
/// the pointer. Each SquidService records into its own registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  LatencyHistogram* GetHistogram(std::string_view name);

  /// Name -> value snapshots, sorted by name (std::map order).
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, int64_t>> GaugeValues() const;
  std::vector<std::pair<std::string, HistogramSnapshot>> HistogramSnapshots()
      const;

  /// Prometheus-style text exposition: one `# TYPE` line per metric,
  /// counters/gauges as `name value`, histograms as cumulative
  /// `name_bucket{le="..."}` series (non-empty buckets plus `+Inf`)
  /// followed by `name_sum` and `name_count`. Deterministic: sorted by
  /// name, integer-rendered values.
  std::string DumpText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

}  // namespace obs
}  // namespace squid

#endif  // SQUID_OBS_METRICS_H_
