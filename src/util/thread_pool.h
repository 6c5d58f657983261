// Fixed-size thread pool with a ParallelFor helper. The GEMM kernel layer
// (src/tensor/gemm.h) owns a process-wide instance of this pool for
// compute parallelism; the serving engine owns separate per-server worker
// pools. ParallelFor partitions work statically, so results are
// deterministic regardless of scheduling. The calling thread runs the
// first shard itself and then every shard that no worker has claimed from
// the call's shared counter, so it never sleeps waiting for a parked
// worker to wake: a pool of N workers puts at most N + 1 threads on one
// ParallelFor, and a pool whose workers are all busy degrades to a serial
// loop on the caller. An idle worker spins for a fixed 50 us before it
// parks, so back-to-back sections find it awake. ParallelFor degrades to
// an inline call when invoked from inside any pool worker or from inside
// the caller's own shards, so nested parallel sections (a conv batch shard
// running a GEMM, a serving worker running a forward) serialize instead of
// deadlocking or oversubscribing the machine.
#ifndef MODELSLICING_UTIL_THREAD_POOL_H_
#define MODELSLICING_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
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
      queued_.store(tasks_.size(), std::memory_order_relaxed);
    }
    cv_.notify_one();
  }

  /// True on any ThreadPool worker thread (of any pool instance), and on a
  /// ParallelFor caller while it runs shards. Used to serialize
  /// nested parallel sections: a task that itself calls ParallelFor must
  /// not block a worker waiting on shards that only other workers could
  /// run.
  static bool InWorkerThread() { return tls_in_worker_; }

  /// Run fn(begin, end) over disjoint static partitions of [0, n) and wait.
  /// The range splits into min(n, num_threads() + 1) shards of
  /// ceil(n / shards) indices. The caller runs shard 0, then claims every
  /// shard that no worker has taken yet, so it waits only for shards that
  /// are already running, never for a worker to wake up. Runs fn(0, n)
  /// inline when called from a pool worker (see InWorkerThread) or when
  /// there is a single shard. A shard that throws does not stop the
  /// others; the caller rethrows the first exception once all have run.
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
    // The state outlives this frame: a worker whose task runs after the
    // call has returned finds no shard left to claim and only touches the
    // shared counters, never fn.
    auto run = std::make_shared<ShardRun>(fn, n, (n + shards - 1) / shards);
    for (int s = 1; s < run->shards; ++s) Submit([run] { run->Drain(); });
    // Marked in-worker so that nested sections inside the caller's shards
    // stay inline. Run catches, so the mark is always cleared.
    tls_in_worker_ = true;
    run->Run(0);
    run->Drain();
    tls_in_worker_ = false;
    run->WaitAll();
    if (run->error) std::rethrow_exception(run->error);
  }

 private:
  /// How long an idle worker or a waiting caller spins before it blocks.
  static constexpr std::chrono::nanoseconds kSpin{50'000};

  /// Spins until pred() holds or kSpin has elapsed; returns pred().
  template <typename Pred>
  static bool SpinFor(Pred pred) {
    const auto deadline = std::chrono::steady_clock::now() + kSpin;
    for (;;) {
      for (int i = 0; i < 64; ++i) {
        if (pred()) return true;
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
      if (std::chrono::steady_clock::now() >= deadline) return pred();
    }
  }

  /// One ParallelFor call. Shard 0 belongs to the caller; shards 1.. are
  /// claimed from `next` by the caller and the workers alike.
  struct ShardRun {
    ShardRun(const std::function<void(int64_t, int64_t)>& f, int64_t size,
             int64_t chunk_size)
        : fn(&f),
          n(size),
          chunk(chunk_size),
          // Shards past ceil(n / chunk) would be empty; none is run.
          shards(static_cast<int>((size + chunk_size - 1) / chunk_size)) {}

    void Run(int s) {
      const int64_t begin = s * chunk;
      try {
        (*fn)(begin, std::min(n, begin + chunk));
      } catch (...) {
        if (!failed.exchange(true, std::memory_order_relaxed)) {
          error = std::current_exception();
        }
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == shards) {
        finished.notify_one();
      }
    }

    void Drain() {
      for (int s = next.fetch_add(1, std::memory_order_relaxed); s < shards;
           s = next.fetch_add(1, std::memory_order_relaxed)) {
        Run(s);
      }
    }

    void WaitAll() {
      const auto done = [this] {
        return finished.load(std::memory_order_acquire) == shards;
      };
      if (SpinFor(done)) return;
      for (int f; (f = finished.load(std::memory_order_acquire)) != shards;) {
        finished.wait(f, std::memory_order_acquire);
      }
    }

    const std::function<void(int64_t, int64_t)>* fn;
    const int64_t n;
    const int64_t chunk;
    const int shards;
    std::atomic<int> next{1};
    std::atomic<int> finished{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  ///< written by the first shard that throws
  };

  void WorkerLoop() {
    tls_in_worker_ = true;
    for (;;) {
      // Back-to-back sections (one per layer) arrive microseconds apart;
      // spinning first keeps the worker off the condition variable.
      SpinFor([this] { return queued_.load(std::memory_order_relaxed) > 0; });
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
        if (shutdown_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
        queued_.store(tasks_.size(), std::memory_order_relaxed);
      }
      task();
    }
  }

  static inline thread_local bool tls_in_worker_ = false;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::atomic<size_t> queued_{0};  ///< tasks_.size(), for the idle spin
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

}  // namespace ms

#endif  // MODELSLICING_UTIL_THREAD_POOL_H_
