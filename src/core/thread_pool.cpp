#include "core/thread_pool.h"

#include <algorithm>

namespace hmd::core {

std::size_t ThreadPool::effective_threads(int n_threads) {
  return n_threads > 0
             ? static_cast<std::size_t>(n_threads)
             : std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int n_threads) {
  // Effective width 1 spawns nothing: the pool stays inline-only and
  // parallel_for never touches the queue machinery.
  const std::size_t total = effective_threads(n_threads);
  workers_.reserve(total - 1);
  for (std::size_t i = 0; i + 1 < total; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.back());
      queue_.pop_back();
    }
    try {
      task.body(task.begin, task.end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) work_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  // Inline fast path: a workerless pool (or a single work item) runs the
  // whole range on the caller — no lock, no queue, no condition variable.
  const std::size_t n_lanes = std::min(size(), n);
  if (inline_only() || n_lanes == 1) {
    body(0, n);
    return;
  }
  const std::size_t chunk = (n + n_lanes - 1) / n_lanes;
  // Enqueue every chunk but the first; the calling thread runs chunk 0.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    first_error_ = nullptr;
    for (std::size_t lane = 1; lane < n_lanes; ++lane) {
      Task task;
      task.body = body;
      task.begin = lane * chunk;
      task.end = std::min(n, (lane + 1) * chunk);
      if (task.begin >= task.end) continue;
      queue_.push_back(std::move(task));
      ++in_flight_;
    }
  }
  work_ready_.notify_all();
  std::exception_ptr caller_error;
  try {
    body(0, std::min(n, chunk));
  } catch (...) {
    caller_error = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    work_done_.wait(lock, [this] { return in_flight_ == 0; });
    if (!caller_error) caller_error = first_error_;
    first_error_ = nullptr;
  }
  if (caller_error) std::rethrow_exception(caller_error);
}

double* thread_scratch(std::size_t doubles) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < doubles) scratch.resize(doubles);
  return scratch.data();
}

}  // namespace hmd::core
