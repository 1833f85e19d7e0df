#include "serve/squid_service.h"

#include <algorithm>
#include <future>

#include "common/stopwatch.h"

namespace squid {

SquidService::SquidService(const AbductionReadyDb* adb, ServeOptions options)
    : adb_(adb),
      options_(options),
      metrics_(options.metrics),
      squid_(adb, options.config),
      serving_threads_(ThreadPool::ResolveThreads(options.threads)),
      // Posted tasks run only on pool *workers* (ThreadPool(n) spawns n - 1
      // of them: ParallelFor callers participate, but Submit callers do
      // not). Size the pool so `serving_threads_` workers actually process
      // requests; 1 keeps exact inline-serial semantics.
      pool_(serving_threads_ == 1 ? 1 : serving_threads_ + 1) {
  if (metrics_ == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
  if (options_.cache_bytes > 0) {
    ContextCache::Options cache_options;
    cache_options.max_bytes = options_.cache_bytes;
    cache_options.shards = options_.cache_shards;
    cache_ = std::make_unique<ContextCache>(adb_, cache_options, metrics_);
    squid_.set_context_provider(cache_.get());
  }
  requests_ = metrics_->GetCounter("service_requests");
  completed_ = metrics_->GetCounter("service_completed");
  failed_ = metrics_->GetCounter("service_failed");
  rejected_ = metrics_->GetCounter("service_rejected");
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
  requests_->Add();
  const size_t capacity = std::max<size_t>(options_.queue_capacity, 1);
  size_t waiting = waiting_.load();
  do {
    if (closed_.load() || waiting >= capacity) {
      rejected_->Add();
      return false;
    }
  } while (!waiting_.compare_exchange_weak(waiting, waiting + 1));
  Request request;
  request.examples = std::move(examples);
  request.done = std::move(done);
  // The admission stamp anchors the queue-wait and end-to-end histograms.
  request.admitted_ns = obs::MonotonicNowNs();
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
  const uint64_t started = obs::MonotonicNowNs();
  const uint64_t wait =
      started >= req.admitted_ns ? started - req.admitted_ns : 0;
  queue_wait_hist_->Record(wait);
  if (req.trace != nullptr) req.trace->AddPhase(obs::Phase::kQueueWait, wait);
  Result<AbducedQuery> result =
      squid_.Discover(req.examples, req.trace.get(), &pool_);
  if (!result.ok()) failed_->Add();
  completed_->Add();
  const uint64_t done = obs::MonotonicNowNs();
  request_hist_->Record(done >= req.admitted_ns ? done - req.admitted_ns : 0);
  if (req.trace != nullptr) {
    std::lock_guard<std::mutex> lock(trace_mu_);
    last_trace_ = req.trace;
  }
  req.done(std::move(result));
}

std::shared_ptr<const obs::RequestTrace> SquidService::last_trace() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  return last_trace_;
}

ServeStats SquidService::stats() const {
  ServeStats out;
  if (cache_ != nullptr) out = cache_->stats();
  out.requests = requests_->Value();
  out.completed = completed_->Value();
  out.failed = failed_->Value();
  out.rejected = rejected_->Value();
  out.queue_depth = waiting_.load();
  out.threads = serving_threads_;
  out.queue_wait_ns = queue_wait_hist_->Snapshot();
  out.request_ns = request_hist_->Snapshot();
  return out;
}

Result<std::unique_ptr<SnapshotBootedService>> BootServiceFromSnapshot(
    const std::string& snapshot_path, ServeOptions options) {
  Stopwatch watch;
  SQUID_ASSIGN_OR_RETURN(std::unique_ptr<AbductionReadyDb> adb,
                         AbductionReadyDb::LoadSnapshot(snapshot_path));
  auto booted = std::make_unique<SnapshotBootedService>();
  booted->load_seconds = watch.ElapsedSeconds();
  booted->adb = std::move(adb);
  booted->service =
      std::make_unique<SquidService>(booted->adb.get(), std::move(options));
  return booted;
}

}  // namespace squid
