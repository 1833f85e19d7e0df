#include "obs/metrics.h"

#include <sstream>

namespace squid {
namespace obs {

// --- snapshots ------------------------------------------------------------

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
  for (size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
}

uint64_t HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based: ceil(q * count), at least 1.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      const uint64_t upper = BucketUpperBound(i);
      return upper < max ? upper : max;
    }
  }
  return max;  // unreachable when count == sum of buckets
}

// --- LatencyHistogram -----------------------------------------------------

size_t LatencyHistogram::ShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  // Read buckets first and derive count from their sum: a concurrent
  // Record() may land between reads, but the snapshot stays internally
  // consistent (count == sum of buckets) — the wire decoder and tests
  // rely on that invariant.
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      const uint64_t n = shard.buckets[i].load(std::memory_order_relaxed);
      snap.buckets[i] += n;
      snap.count += n;
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    const uint64_t m = shard.max.load(std::memory_order_relaxed);
    if (m > snap.max) snap.max = m;
  }
  return snap;
}

// --- registry -------------------------------------------------------------

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<LatencyHistogram>())
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->Value());
  }
  return out;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->Value());
  }
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricsRegistry::HistogramSnapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    out.emplace_back(name, hist->Snapshot());
  }
  return out;
}

std::string MetricsRegistry::DumpText() const {
  const auto counters = CounterValues();
  const auto gauges = GaugeValues();
  const auto histograms = HistogramSnapshots();

  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    os << "# TYPE " << name << " counter\n";
    os << name << " " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    os << "# TYPE " << name << " gauge\n";
    os << name << " " << value << "\n";
  }
  for (const auto& [name, snap] : histograms) {
    os << "# TYPE " << name << " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      if (snap.buckets[i] == 0) continue;
      cumulative += snap.buckets[i];
      os << name << "_bucket{le=\"" << BucketUpperBound(i) << "\"} "
         << cumulative << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
    os << name << "_sum " << snap.sum << "\n";
    os << name << "_count " << snap.count << "\n";
  }
  return os.str();
}

}  // namespace obs
}  // namespace squid
