#ifndef SQUID_SERVE_SQUID_SERVICE_H_
#define SQUID_SERVE_SQUID_SERVICE_H_

/// \file squid_service.h
/// \brief Serve mode: a long-lived SquidService owning one immutable αDB and
/// answering many concurrent Discover requests.
///
/// Request path (submit -> fan-out -> cache):
///
///   clients --Submit(examples, done)--> one ThreadPool task per request:
///       Squid::Discover with the pool, so the candidate base queries fan
///       out in parallel (ParallelFor), each candidate's per-entity profiles
///       (for disambiguation and context discovery alike) resolving through
///       the shared ContextCache; the winning abduction is handed to the
///       request's `done` callback.
///
/// Submit never blocks: it sheds a request (returns false) when the
/// service is closed or `queue_capacity` admitted requests are still
/// waiting for a worker. The pool bounds concurrency, and the cache turns
/// repeat entities across sessions into pure merges. Identity contract:
/// for any thread count and any cache budget (including forced evictions),
/// answers are bit-identical to a cold serial Squid::Discover — it is the
/// same Discover, whose candidate results land in per-match slots reduced
/// in one canonical order, and cached profiles are pure functions of the
/// αDB.

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adb/abduction_ready_db.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/squid.h"
#include "serve/context_cache.h"
#include "serve/serve_stats.h"

namespace squid {

/// Tuning knobs for a SquidService.
struct ServeOptions {
  SquidConfig config;
  /// Worker threads (0 = hardware concurrency, 1 = fully synchronous —
  /// requests run inline on the submitting thread, which is the serial
  /// reference the parity tests compare against).
  size_t threads = 0;
  /// Admitted requests that may wait for a worker at once; Submit sheds
  /// beyond it.
  size_t queue_capacity = 64;
  /// Context-cache byte budget (0 disables caching).
  size_t cache_bytes = 8u << 20;
  /// Context-cache shard count.
  size_t cache_shards = 8;
  /// Metrics registry the service, its context cache and a TcpServer over
  /// it record every counter and histogram into (read back by stats(), the
  /// StatsResponse frame and the text exposition). nullptr = a registry the
  /// service owns. Not owned otherwise; must outlive the service. Services
  /// given the same registry count into the same metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

/// \brief Long-lived serving front end over one immutable αDB. All public
/// member functions are safe for concurrent use from any number of client
/// threads.
class SquidService {
 public:
  explicit SquidService(const AbductionReadyDb* adb, ServeOptions options = {});
  ~SquidService();

  SquidService(const SquidService&) = delete;
  SquidService& operator=(const SquidService&) = delete;

  /// Completion delivery for Submit: invoked exactly once per admitted
  /// request, on the thread that ran it.
  using CompletionFn = std::function<void(Result<AbducedQuery>)>;

  /// The one admission primitive; never blocks. Returns false — bumping
  /// `rejected`, never calling `done` — when the service is closed or
  /// `queue_capacity` admitted requests have not yet started. Otherwise
  /// posts one pool task that owns the request and calls `done` once with
  /// the answer (or error). With threads == 1 that task runs inline, so
  /// `done` has run on the calling thread before Submit returns; with more
  /// threads it runs on a worker.
  bool Submit(std::vector<std::string> examples, CompletionFn done);

  /// Submit + wait, for callers without their own pipeline. A shed request
  /// returns the shed status (NotSupported) at once instead of waiting for
  /// room.
  Result<AbducedQuery> DiscoverSync(std::vector<std::string> examples);

  /// Stops admission: every later Submit sheds. Requests already admitted
  /// are still answered. Idempotent and safe to call concurrently with
  /// Submit (a racing Submit is either shed or answered, never lost). The
  /// destructor calls it first, then the pool runs every admitted request
  /// to completion before any member it uses is destroyed.
  void Close();

  /// Cache + service counters read from the registry, including the
  /// queue-wait and end-to-end latency histogram snapshots.
  ServeStats stats() const;

  /// The shared per-entity context cache (null when cache_bytes == 0).
  const ContextCache* cache() const { return cache_.get(); }

  /// Worker threads that process requests (the resolved ServeOptions::threads).
  size_t threads() const { return serving_threads_; }
  const ServeOptions& options() const { return options_; }

  /// Toggles per-request phase tracing at runtime (REPL `.trace on|off`).
  /// Purely observational: answers are byte-identical either way.
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  /// Phase breakdown of the most recently completed traced request (null
  /// when tracing has been off since the last completion). The returned
  /// trace is a stable snapshot — later requests replace the pointer, not
  /// the object.
  std::shared_ptr<const obs::RequestTrace> last_trace() const;

  /// The registry this service records into (ServeOptions::metrics or the
  /// service's own).
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct Request {
    std::vector<std::string> examples;
    CompletionFn done;
    /// Admission timestamp (MonotonicNowNs in Submit). Queue wait = task
    /// start minus this; end-to-end = completion minus this.
    uint64_t admitted_ns = 0;
    /// Per-request span, allocated only when tracing is on at admission.
    std::shared_ptr<obs::RequestTrace> trace;
  };

  /// Answers one admitted request (the body of its pool task): Squid's
  /// Discover with the candidate loop fanned out over the pool.
  void Run(Request& request);

  const AbductionReadyDb* adb_;
  ServeOptions options_;
  /// The registry when ServeOptions::metrics is null; declared before the
  /// cache, which records into it.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_;
  std::unique_ptr<ContextCache> cache_;
  Squid squid_;
  /// Set by Close(); Submit sheds once it reads true. A Submit racing
  /// Close() may read either value; both outcomes (shed, or admitted and
  /// answered by the still-live pool) keep the one-callback contract.
  std::atomic<bool> closed_{false};
  /// Admitted requests whose task has not started yet: the admission bound
  /// and ServeStats::queue_depth. Submit reserves a slot with a CAS, so
  /// concurrent Submits cannot overshoot queue_capacity.
  std::atomic<size_t> waiting_{0};
  /// The service's counters and histograms, resolved from the registry once
  /// at construction (stable pointers — see MetricsRegistry).
  obs::Counter* requests_;
  obs::Counter* completed_;
  obs::Counter* failed_;
  obs::Counter* rejected_;
  obs::LatencyHistogram* queue_wait_hist_;
  obs::LatencyHistogram* request_hist_;
  std::atomic<bool> tracing_{false};
  mutable std::mutex trace_mu_;
  std::shared_ptr<obs::RequestTrace> last_trace_;  // guarded by trace_mu_
  /// Resolved request-processing parallelism. The pool is sized one larger
  /// (unless 1 = inline-serial): posted tasks run only on pool workers, of
  /// which ThreadPool(n) spawns n - 1.
  size_t serving_threads_ = 1;
  /// Declared last: its destructor runs still-queued request tasks, which
  /// touch the cache, squid, and counters above — so the pool must be
  /// destroyed before any of them.
  ThreadPool pool_;
};

/// A service booted from an αDB snapshot file, bundling the loaded αDB with
/// the SquidService that serves it (the service holds a raw pointer into the
/// αDB, so the two must share a lifetime; member order keeps the αDB alive
/// until the service has drained).
struct SnapshotBootedService {
  std::unique_ptr<AbductionReadyDb> adb;  // declared before service: outlives it
  std::unique_ptr<SquidService> service;
  /// Wall-clock seconds spent in AbductionReadyDb::LoadSnapshot.
  double load_seconds = 0;
};

/// Boots a ready-to-serve SquidService from a snapshot file instead of an
/// offline Build() pass. Answers are bit-identical to a service over the
/// freshly built αDB (the snapshot round-trip preserves the αDB down to
/// symbol level). Malformed snapshots yield a Status error, never UB.
Result<std::unique_ptr<SnapshotBootedService>> BootServiceFromSnapshot(
    const std::string& snapshot_path, ServeOptions options = {});

}  // namespace squid

#endif  // SQUID_SERVE_SQUID_SERVICE_H_
