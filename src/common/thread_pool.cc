#include "common/thread_pool.h"

#include <string>

#include "obs/trace.h"

namespace gum {

int ThreadPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads <= 0 ? HardwareThreads() : num_threads) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int t = 0; t < num_threads_ - 1; ++t) {
    workers_.emplace_back([this, t] {
      // Deterministic trace lanes: the caller is lane 0 ("host-main"),
      // workers are 1..k-1 — stable across runs, unlike OS thread ids.
      obs::SetThreadLane(t + 1, "pool-worker-" + std::to_string(t + 1));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunIndices() {
  for (size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < count_;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    task_(task_ctx_, i);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    {
      GUM_TRACE_SCOPE("pool.busy");
      RunIndices();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --unfinished_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::RunTask(size_t count, Task task, void* ctx) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (size_t i = 0; i < count; ++i) task(ctx, i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = task;
    task_ctx_ = ctx;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    unfinished_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  work_cv_.notify_all();
  {
    GUM_TRACE_SCOPE("pool.busy");
    RunIndices();
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return unfinished_ == 0; });
  task_ = nullptr;
  task_ctx_ = nullptr;
}

}  // namespace gum
