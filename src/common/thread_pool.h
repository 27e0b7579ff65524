// Deterministic host thread pool.
//
// The superstep runtime (core/expand/) decomposes Step 4 of every
// iteration into independent work units and destination ranges; this pool
// runs them concurrently.
// Determinism is a joint contract: ParallelFor distributes *indices*
// dynamically (any thread may claim any index), so callers must make each
// index's effect independent of execution order — write to per-index output
// slots and merge serially afterwards. The engines do exactly that, which is
// why results are bit-identical for any thread count (see DESIGN.md,
// "Determinism contract").
//
// The calling thread participates in the loop, so a pool of size k uses k
// OS threads total (k-1 workers + the caller). Size 1 spawns no workers and
// ParallelFor degenerates to a plain serial loop — the legacy path.

#ifndef GUM_COMMON_THREAD_POOL_H_
#define GUM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gum {

class ThreadPool {
 public:
  // num_threads <= 0 selects the hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Invokes fn(i) exactly once for every i in [0, count), distributing
  // indices dynamically across the pool one at a time, and returns once all
  // invocations have completed. fn must not throw and must not call
  // ParallelFor on the same pool (no nesting). The pool only borrows fn
  // for the call, so a call allocates nothing whatever fn captures, and
  // every index, on the serial path too, calls fn through one function
  // pointer, so a call site does not inline fn's body a second time.
  template <typename Fn>
  void ParallelFor(size_t count, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    RunTask(count, &Invoke<F>,
            const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

  // std::thread::hardware_concurrency() clamped to at least 1.
  static int HardwareThreads();

 private:
  // A borrowed callable: task(ctx, i) calls (*static_cast<F*>(ctx))(i).
  using Task = void (*)(void* ctx, size_t i);
  template <typename F>
  static void Invoke(void* ctx, size_t i) {
    (*static_cast<F*>(ctx))(i);
  }

  void RunTask(size_t count, Task task, void* ctx);
  void WorkerLoop();
  void RunIndices();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;  // bumped once per ParallelFor, under mu_
  int unfinished_ = 0;       // workers still inside the current generation
  bool stop_ = false;

  // Current task; valid only while a generation is in flight. next_ is the
  // next unclaimed index.
  Task task_ = nullptr;
  void* task_ctx_ = nullptr;
  std::atomic<size_t> next_{0};
  size_t count_ = 0;
};

// The shard loop: fn(s) once for every s in [0, count). Without a pool of
// two or more threads, or with one shard, it runs ascending on the calling
// thread and calls fn directly; otherwise the pool's threads claim shards.
template <typename Fn>
void ForEachShard(ThreadPool* pool, int count, Fn&& fn) {
  if (pool == nullptr || pool->num_threads() <= 1 || count <= 1) {
    for (int s = 0; s < count; ++s) fn(static_cast<size_t>(s));
  } else {
    pool->ParallelFor(static_cast<size_t>(count), fn);
  }
}

}  // namespace gum

#endif  // GUM_COMMON_THREAD_POOL_H_
