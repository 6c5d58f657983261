// Fixed-size thread pool with a ParallelFor helper. The GEMM kernel layer
// (src/tensor/gemm.h) owns a process-wide instance of this pool for
// compute parallelism; the serving engine owns separate per-server worker
// pools. ParallelFor partitions work statically, so results are
// deterministic regardless of scheduling, and the calling thread runs the
// first shard itself instead of sleeping while the workers run the rest:
// a pool of N workers puts N + 1 threads on one ParallelFor. ParallelFor
// degrades to an inline call when invoked from inside any pool worker or
// from inside the caller's own shard, so nested parallel sections (a conv
// batch shard running a GEMM, a serving worker running a forward)
// serialize instead of deadlocking or oversubscribing the machine.
#ifndef MODELSLICING_UTIL_THREAD_POOL_H_
#define MODELSLICING_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ms {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) {
    if (num_threads < 1) num_threads = 1;
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueue a task for any worker. Fire-and-forget: callers that need
  /// completion (ParallelFor, the serving engine's drain) track it
  /// themselves. The destructor runs every queued task before joining.
  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push(std::move(task));
    }
    cv_.notify_one();
  }

  /// True on any ThreadPool worker thread (of any pool instance), and on a
  /// ParallelFor caller while it runs its own shard. Used to serialize
  /// nested parallel sections: a task that itself calls ParallelFor must
  /// not block a worker waiting on shards that only other workers could
  /// run.
  static bool InWorkerThread() { return tls_in_worker_; }

  /// Run fn(begin, end) over disjoint static partitions of [0, n) and wait.
  /// The range splits into min(n, num_threads() + 1) shards of
  /// ceil(n / shards) indices; the caller runs shard 0 and the workers the
  /// rest. Runs fn(0, n) inline when called from a pool worker (see
  /// InWorkerThread) or when there is a single shard.
  void ParallelFor(int64_t n, const std::function<void(int64_t, int64_t)>& fn) {
    if (n <= 0) return;
    if (tls_in_worker_) {
      fn(0, n);
      return;
    }
    const int64_t shards =
        std::min<int64_t>(n, static_cast<int64_t>(workers_.size()) + 1);
    if (shards <= 1) {
      fn(0, n);
      return;
    }
    const int64_t chunk = (n + shards - 1) / shards;
    std::mutex done_mu;
    std::condition_variable done_cv;
    // Shards past ceil(n / chunk) would be empty; none is submitted.
    int64_t remaining = (n + chunk - 1) / chunk - 1;
    for (int64_t begin = chunk; begin < n; begin += chunk) {
      const int64_t end = std::min(n, begin + chunk);
      Submit([&, begin, end] {
        fn(begin, end);
        std::lock_guard<std::mutex> lock(done_mu);
        if (--remaining == 0) done_cv.notify_one();
      });
    }
    // Shard 0 on this thread, marked in-worker so that nested sections
    // inside it stay inline. The submitted shards reference this frame, so
    // an exception waits for them before it leaves.
    std::exception_ptr error;
    tls_in_worker_ = true;
    try {
      fn(0, chunk);
    } catch (...) {
      error = std::current_exception();
    }
    tls_in_worker_ = false;
    {
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait(lock, [&] { return remaining == 0; });
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void WorkerLoop() {
    tls_in_worker_ = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
        if (shutdown_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      task();
    }
  }

  static inline thread_local bool tls_in_worker_ = false;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

}  // namespace ms

#endif  // MODELSLICING_UTIL_THREAD_POOL_H_
