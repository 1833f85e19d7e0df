#ifndef SQUID_COMMON_THREAD_POOL_H_
#define SQUID_COMMON_THREAD_POOL_H_

/// \file thread_pool.h
/// \brief Small reusable worker pool: a FIFO task queue (Post) and one
/// cooperative fan-out built on it (ParallelFor). The offline phase
/// (parallel αDB construction and dataset generation) and serve mode
/// (request tasks and their per-candidate fan-out) share the same two
/// calls. Callers that need deterministic output write results into
/// per-index slots and merge them in canonical (index) order afterwards.
///
/// `threads == 0` resolves to the hardware concurrency; `threads == 1` runs
/// every task inline on the calling thread (exact serial semantics, no
/// worker threads are ever spawned) — the determinism tests compare that
/// mode against multi-threaded runs.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace squid {

/// \brief Fixed-size worker pool with a task queue and a cooperative
/// ParallelFor over it.
class ThreadPool {
 public:
  /// Spawns `ResolveThreads(threads) - 1` workers (the calling thread
  /// participates in ParallelFor, so n threads means n-1 workers).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute a ParallelFor (>= 1).
  size_t num_threads() const { return num_threads_; }

  /// Runs fn(0) .. fn(n - 1), enlisting idle workers as helpers, and
  /// returns when all calls finished. Indexes are claimed from a per-call
  /// counter, so assignment to threads is nondeterministic — fn must only
  /// write state owned by its index. With one thread (or n <= 1) the calls
  /// run inline in index order. Any number of calls may run concurrently,
  /// and calls may nest inside pool tasks: the calling thread claims
  /// indexes until none remain, then waits only for indexes a running
  /// helper already claimed — helpers never block, so progress is always
  /// possible even with every worker busy.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Enqueues `task` for asynchronous execution on a worker. Safe from any
  /// thread, including from inside a running task. With one thread the task
  /// runs inline before Post returns (serial semantics). Tasks still queued
  /// at destruction run inline on the destructing thread (none are lost).
  void Post(std::function<void()> task);

  /// 0 -> hardware concurrency (at least 1); anything else passes through.
  static size_t ResolveThreads(size_t requested);

 private:
  void WorkerLoop();

  size_t num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<std::function<void()>> tasks_;
  bool shutdown_ = false;
};

}  // namespace squid

#endif  // SQUID_COMMON_THREAD_POOL_H_
