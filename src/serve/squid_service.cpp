#include "serve/squid_service.h"

#include <algorithm>
#include <future>

#include "common/stopwatch.h"
#include "core/entity_lookup.h"

namespace squid {

SquidService::SquidService(const AbductionReadyDb* adb, ServeOptions options)
    : adb_(adb),
      options_(options),
      squid_(adb, options.config),
      serving_threads_(ThreadPool::ResolveThreads(options.threads)),
      // Posted tasks run only on pool *workers* (ThreadPool(n) spawns n - 1
      // of them: ParallelFor callers participate, but Submit callers do
      // not). Size the pool so `serving_threads_` workers actually process
      // requests; 1 keeps exact inline-serial semantics.
      pool_(serving_threads_ == 1 ? 1 : serving_threads_ + 1) {
  if (options_.cache_bytes > 0) {
    ContextCache::Options cache_options;
    cache_options.max_bytes = options_.cache_bytes;
    cache_options.shards = options_.cache_shards;
    cache_ = std::make_unique<ContextCache>(adb_, cache_options);
    squid_.set_context_provider(cache_.get());
  }
  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : &obs::MetricsRegistry::Global();
  queue_wait_hist_ = metrics_->GetHistogram("squid_serve_queue_wait_ns");
  request_hist_ = metrics_->GetHistogram("squid_serve_request_ns");
}

SquidService::~SquidService() {
  // Shed anything submitted from here on (e.g. by a completion callback);
  // pool_, the first member destroyed, then runs every admitted request to
  // completion.
  Close();
}

void SquidService::Close() { closed_.store(true); }

bool SquidService::Submit(std::vector<std::string> examples,
                          CompletionFn done) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const size_t capacity = std::max<size_t>(options_.queue_capacity, 1);
  size_t waiting = waiting_.load();
  do {
    if (closed_.load() || waiting >= capacity) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  } while (!waiting_.compare_exchange_weak(waiting, waiting + 1));
  Request request;
  request.examples = std::move(examples);
  request.done = std::move(done);
  // The admission stamp anchors the queue-wait and end-to-end histograms;
  // skipping it when metrics are off keeps the disabled path clock-free.
  if (obs::MetricsEnabled()) request.admitted_ns = obs::MonotonicNowNs();
  if (tracing_.load(std::memory_order_relaxed)) {
    request.trace = std::make_shared<obs::RequestTrace>();
  }
  pool_.Post([this, request = std::move(request)]() mutable { Run(request); });
  return true;
}

Result<AbducedQuery> SquidService::DiscoverSync(std::vector<std::string> examples) {
  // Shared with the callback: the worker may still be inside set_value
  // when get() returns here.
  auto answer = std::make_shared<std::promise<Result<AbducedQuery>>>();
  std::future<Result<AbducedQuery>> future = answer->get_future();
  if (!Submit(std::move(examples), [answer](Result<AbducedQuery> result) {
        answer->set_value(std::move(result));
      })) {
    return Status::NotSupported("SquidService overloaded or shutting down");
  }
  return future.get();
}

void SquidService::Run(Request& req) {
  waiting_.fetch_sub(1);
  if (req.admitted_ns != 0) {
    const uint64_t started = obs::MonotonicNowNs();
    const uint64_t wait =
        started >= req.admitted_ns ? started - req.admitted_ns : 0;
    queue_wait_hist_->Record(wait);
    if (req.trace != nullptr) req.trace->AddPhase(obs::Phase::kQueueWait, wait);
  }
  Result<AbducedQuery> result = Process(req.examples, req.trace.get());
  if (!result.ok()) failed_.fetch_add(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (req.admitted_ns != 0) {
    const uint64_t done = obs::MonotonicNowNs();
    request_hist_->Record(done >= req.admitted_ns ? done - req.admitted_ns : 0);
  }
  if (req.trace != nullptr) {
    std::lock_guard<std::mutex> lock(trace_mu_);
    last_trace_ = req.trace;
  }
  req.done(std::move(result));
}

Result<AbducedQuery> SquidService::Process(
    const std::vector<std::string>& examples, obs::RequestTrace* trace) {
  std::vector<EntityMatch> matches;
  {
    obs::ScopedPhaseTimer timer(trace, obs::Phase::kEntityLookup);
    SQUID_ASSIGN_OR_RETURN(matches, LookupExamples(*adb_, examples));
  }

  // Candidate base queries fan out in parallel; each result lands in its
  // match-index slot, so ReduceCandidates — the same ranking Discover's
  // serial loop uses — sees them in canonical order. The trace's phase
  // cells are atomic, so every fan-out worker adds into the same span.
  std::vector<Result<AbducedQuery>> slots(
      matches.size(), Result<AbducedQuery>(Status::Internal("candidate not run")));
  pool_.ParallelFor(matches.size(), [&](size_t i) {
    slots[i] = squid_.AbduceCandidate(matches[i], trace);
  });
  return Squid::ReduceCandidates(std::move(slots));
}

std::shared_ptr<const obs::RequestTrace> SquidService::last_trace() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  return last_trace_;
}

ServeStats SquidService::stats() const {
  ServeStats out;
  if (cache_ != nullptr) out = cache_->stats();
  out.requests = requests_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.queue_depth = waiting_.load();
  out.threads = serving_threads_;
  out.queue_wait_ns = queue_wait_hist_->Snapshot();
  out.request_ns = request_hist_->Snapshot();
  return out;
}

Result<std::unique_ptr<SnapshotBootedService>> BootServiceFromSnapshot(
    const std::string& snapshot_path, ServeOptions options,
    const AdbSnapshotOptions& snapshot_options) {
  Stopwatch watch;
  SQUID_ASSIGN_OR_RETURN(
      std::unique_ptr<AbductionReadyDb> adb,
      AbductionReadyDb::LoadSnapshot(snapshot_path, snapshot_options));
  auto booted = std::make_unique<SnapshotBootedService>();
  booted->load_seconds = watch.ElapsedSeconds();
  booted->adb = std::move(adb);
  booted->service =
      std::make_unique<SquidService>(booted->adb.get(), std::move(options));
  return booted;
}

}  // namespace squid
