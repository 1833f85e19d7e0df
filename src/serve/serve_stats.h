#ifndef SQUID_SERVE_SERVE_STATS_H_
#define SQUID_SERVE_SERVE_STATS_H_

/// \file serve_stats.h
/// \brief Observable counters of the serve subsystem: context-cache
/// hit/miss/evict traffic and request-level service counters. A ServeStats
/// is a view of the service's MetricsRegistry (each field read from its
/// metric with a relaxed load, so fields may be mid-update relative to each
/// other while requests run); it is plain data, safe to copy out of the
/// service and print from any thread.

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

namespace squid {

/// \brief Snapshot of serve-mode counters (see ContextCache::stats and
/// SquidService::stats). The cache fields are the registry metrics
/// `cache_<field>` and the service counters `service_<field>`; queue_depth,
/// threads and capacity_bytes come from the service itself.
struct ServeStats {
  // --- context cache ---
  uint64_t hits = 0;         ///< profile found in the cache
  uint64_t misses = 0;       ///< profile built (then inserted)
  uint64_t evictions = 0;    ///< LRU entries dropped to meet the byte budget
  uint64_t inserts = 0;      ///< entries added (<= misses: races dedupe)
  uint64_t uncacheable = 0;  ///< keys outside the pool's symbol space
  size_t entries = 0;        ///< live cached profiles
  size_t bytes = 0;          ///< approximate bytes held by live entries
  size_t capacity_bytes = 0; ///< configured budget (0 = cache disabled)

  // --- service ---
  uint64_t requests = 0;   ///< Submit calls received (DiscoverSync included)
  uint64_t completed = 0;  ///< requests a worker actually ran (ok or error)
  uint64_t failed = 0;     ///< completed requests whose status was non-OK
  uint64_t rejected = 0;   ///< requests shed at admission (queue_capacity
                           ///< requests waiting, or service closed) — never
                           ///< ran, so disjoint from `completed`. At
                           ///< quiescence requests == completed + rejected.
  size_t queue_depth = 0;  ///< admitted requests not yet started
  size_t threads = 0;      ///< worker threads serving requests

  // --- latency distributions (nanoseconds; see obs/metrics.h) ---
  /// Admission to task start, per completed request.
  obs::HistogramSnapshot queue_wait_ns;
  /// Admission to completion delivery (end-to-end), per completed request.
  obs::HistogramSnapshot request_ns;

  double HitRate() const {
    uint64_t probes = hits + misses;
    return probes == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(probes);
  }

  // Latency summaries derived from the snapshots (0 when empty).
  uint64_t QueueWaitP50Ns() const { return queue_wait_ns.ValueAtQuantile(0.5); }
  uint64_t QueueWaitP99Ns() const { return queue_wait_ns.ValueAtQuantile(0.99); }
  uint64_t RequestP50Ns() const { return request_ns.ValueAtQuantile(0.5); }
  uint64_t RequestP90Ns() const { return request_ns.ValueAtQuantile(0.9); }
  uint64_t RequestP99Ns() const { return request_ns.ValueAtQuantile(0.99); }
  uint64_t RequestMaxNs() const { return request_ns.max; }
};

}  // namespace squid

#endif  // SQUID_SERVE_SERVE_STATS_H_
