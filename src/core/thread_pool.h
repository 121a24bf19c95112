#pragma once
// Small reusable thread pool. One pool is created per ensemble (sized by
// HmdConfig::n_threads) and reused across fit and every batched inference
// call, so the hot path never pays thread start-up costs. parallel_for
// hands out contiguous index ranges: callers that write disjoint ranges
// get deterministic results regardless of the worker count.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hmd::core {

class ThreadPool {
 public:
  /// n_threads <= 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(int n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The lane count a pool built with `n_threads` would use (resolves the
  /// <= 0 = all-cores convention). Callers can skip building a pool
  /// entirely when this is 1 — the single-lane path is pure inline.
  static std::size_t effective_threads(int n_threads);

  std::size_t size() const { return workers_.size() + 1; }

  /// True when the pool spawned no workers (effective width 1, e.g. the
  /// 1-core CI host): every parallel_for runs inline on the caller with
  /// no queue, locks, or wakeups.
  bool inline_only() const { return workers_.empty(); }

  /// Run body(begin, end) over [0, n) split into contiguous chunks, one
  /// per worker plus the calling thread; blocks until all chunks finish.
  /// Exceptions from the body are rethrown on the calling thread.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  struct Task {
    std::function<void(std::size_t, std::size_t)> body;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::vector<Task> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_error_;
  bool stopping_ = false;
};

/// This thread's batch-kernel scratch: at least `doubles` doubles with
/// unspecified contents, grown on demand and kept for the thread's
/// lifetime, so a steady-state batch call allocates nothing. One buffer
/// per thread, shared by every engine: the pointer is valid until this
/// thread's next call, so a kernel holding it must not enter another
/// batch path.
double* thread_scratch(std::size_t doubles);

}  // namespace hmd::core
