#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace squid {

size_t ThreadPool::ResolveThreads(size_t requested) {
  if (requested != 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(size_t threads) : num_threads_(ResolveThreads(threads)) {
  workers_.reserve(num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Tasks still queued when shutdown won the race run inline here so no
  // posted task is ever lost.
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (tasks_.empty()) break;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutdown and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::Post(std::function<void()> task) {
  bool inline_run = num_threads_ == 1;
  if (!inline_run) {
    std::lock_guard<std::mutex> lock(mu_);
    // After shutdown the workers are gone (or going); run inline instead of
    // stranding the task in the queue.
    if (shutdown_) {
      inline_run = true;
    } else {
      tasks_.push_back(std::move(task));
    }
  }
  if (inline_run) {
    task();
    return;
  }
  work_ready_.notify_one();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads_ == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Per-call claim state, shared with helper tasks. Helpers may outlive this
  // frame (they can be dequeued after the job is exhausted), so the state —
  // including a copy of fn — lives on the heap until the last holder drops.
  struct SharedJob {
    std::function<void(size_t)> fn;
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto job = std::make_shared<SharedJob>();
  job->fn = fn;
  job->n = n;
  auto run = [job] {
    for (;;) {
      size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job->n) return;
      job->fn(i);
      if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 == job->n) {
        std::lock_guard<std::mutex> lock(job->mu);
        job->cv.notify_all();
      }
    }
  };
  const size_t helpers = std::min(num_threads_ - 1, n - 1);
  for (size_t i = 0; i < helpers; ++i) Post(run);
  run();  // the calling thread claims until no indexes remain
  std::unique_lock<std::mutex> lock(job->mu);
  job->cv.wait(lock, [&] {
    return job->done.load(std::memory_order_acquire) >= job->n;
  });
}

}  // namespace squid
