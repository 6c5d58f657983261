// Tests for the utility substrate: Status/Result, deterministic RNG, CSV,
// string helpers, the thread pool and the compute pool built on it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/tensor/gemm.h"
#include "src/util/csv.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace ms {
namespace {

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  const Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(Result, ValueAndStatusPaths) {
  Result<int> ok_result(42);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.ValueOrDie(), 42);
  Result<int> err_result(Status::NotFound("gone"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
}

Status ReturnsEarly(bool fail) {
  MS_RETURN_NOT_OK(fail ? Status::Internal("boom") : Status::OK());
  return Status::OK();
}

TEST(Status, ReturnNotOkMacro) {
  EXPECT_TRUE(ReturnsEarly(false).ok());
  EXPECT_EQ(ReturnsEarly(true).code(), StatusCode::kInternal);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntIsUnbiasedEnough) {
  Rng rng(2);
  std::vector<int> counts(5, 0);
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) counts[rng.UniformInt(5)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 5, trials / 50);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(3);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, PoissonMean) {
  Rng rng(4);
  for (double lambda : {0.5, 4.0, 100.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.Poisson(lambda);
    EXPECT_NEAR(sum / n, lambda, lambda * 0.05 + 0.05) << lambda;
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(5);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) counts[rng.Categorical(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0], trials / 4, trials / 40);
  EXPECT_NEAR(counts[2], 3 * trials / 4, trials / 40);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(7);
  Rng child = a.Fork();
  // The fork and the parent continue to differ.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextU64() != child.NextU64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = ::testing::TempDir() + "/out.csv";
  {
    auto writer = CsvWriter::Open(path).MoveValueOrDie();
    writer.Row("a", 1, 2.5);
    writer.Row("with,comma", "with\"quote");
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,1,2.5");
  EXPECT_EQ(line2, "\"with,comma\",\"with\"\"quote\"");
}

TEST(Csv, OpenFailsOnBadPath) {
  EXPECT_FALSE(CsvWriter::Open("/nonexistent-dir/x.csv").ok());
}

TEST(StringUtil, FormatSplitJoin) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  const auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrJoin({"x", "y", "z"}, "/"), "x/y/z");
  EXPECT_EQ(StrJoin({}, "/"), "");
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)]++;
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(3);
  int called = 0;
  pool.ParallelFor(0, [&](int64_t, int64_t) { ++called; });
  EXPECT_EQ(called, 0);
  std::atomic<int> total{0};
  pool.ParallelFor(1, [&](int64_t begin, int64_t end) {
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPool, CallerRunsFirstShardWithNestedSectionsInline) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  std::thread::id first_shard_thread;
  bool first_shard_in_worker = false;
  std::vector<std::pair<int64_t, int64_t>> nested;
  pool.ParallelFor(100, [&](int64_t begin, int64_t end) {
    if (begin == 0) {
      first_shard_thread = std::this_thread::get_id();
      first_shard_in_worker = ThreadPool::InWorkerThread();
      // Nested inside the caller's shard: one inline call over the range.
      pool.ParallelFor(10, [&](int64_t b, int64_t e) {
        nested.emplace_back(b, e);
      });
    }
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(begin, end);
  });
  EXPECT_EQ(first_shard_thread, caller);
  EXPECT_TRUE(first_shard_in_worker);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  EXPECT_EQ(nested, (std::vector<std::pair<int64_t, int64_t>>{{0, 10}}));
  // Three workers plus the caller: four shards of 25.
  std::sort(ranges.begin(), ranges.end());
  EXPECT_EQ(ranges, (std::vector<std::pair<int64_t, int64_t>>{
                        {0, 25}, {25, 50}, {50, 75}, {75, 100}}));
}

TEST(ThreadPool, CallerShardExceptionWaitsForTheOthers) {
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.ParallelFor(3,
                                [&](int64_t begin, int64_t) {
                                  if (begin == 0) throw std::runtime_error("x");
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(20));
                                  ++finished;
                                }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 2);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

// The caller claims every shard no worker has taken: with the only worker
// stuck in another task, ParallelFor still finishes, on the caller alone,
// over the usual two shards of ceil(n / 2).
TEST(ThreadPool, CallerRunsEveryShardWhileTheOnlyWorkerIsBlocked) {
  ThreadPool pool(1);
  std::latch started(1);
  std::latch release(1);
  pool.Submit([&] {
    started.count_down();
    release.wait();
  });
  started.wait();
  const std::thread::id caller = std::this_thread::get_id();
  for (int64_t n : {2, 5, 7, 100}) {
    std::vector<std::pair<int64_t, int64_t>> ranges;
    std::vector<int> hits(static_cast<size_t>(n), 0);
    bool on_caller = true;
    pool.ParallelFor(n, [&](int64_t begin, int64_t end) {
      on_caller = on_caller && std::this_thread::get_id() == caller;
      ranges.emplace_back(begin, end);
      for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
    });
    const int64_t chunk = (n + 1) / 2;
    EXPECT_TRUE(on_caller) << "n " << n;
    EXPECT_EQ(ranges, (std::vector<std::pair<int64_t, int64_t>>{
                          {0, chunk}, {chunk, n}}))
        << "n " << n;
    for (int h : hits) EXPECT_EQ(h, 1);
    EXPECT_FALSE(ThreadPool::InWorkerThread());
  }
  release.count_down();
}

// An exception thrown in a shard that a worker claimed reaches the caller.
// The caller's shard 0 holds until the worker has entered shard 1, so the
// worker is the one that runs it.
TEST(ThreadPool, WorkerShardExceptionReachesTheCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> entered{false};
  std::atomic<bool> on_worker{false};
  EXPECT_THROW(pool.ParallelFor(2,
                                [&](int64_t begin, int64_t) {
                                  if (begin == 0) {
                                    while (!entered.load()) {
                                      std::this_thread::yield();
                                    }
                                    return;
                                  }
                                  on_worker = std::this_thread::get_id() !=
                                              caller;
                                  entered = true;
                                  throw std::runtime_error("shard 1");
                                }),
               std::runtime_error);
  EXPECT_TRUE(on_worker.load());
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

// The compute pool runs a ParallelForCompute on ComputeThreads() threads —
// the caller and ComputeThreads() - 1 workers — over the same static
// partition as a pool of ComputeThreads() workers that leaves the caller
// idle: min(n, threads) shards of ceil(n / shards) indices.
TEST(ComputePool, ShardsAndThreadsFollowComputeThreads) {
  const int saved = ops::ComputeThreads();
  for (int threads = 1; threads <= 5; ++threads) {
    ops::SetComputeThreads(threads);
    std::set<std::thread::id> ids;
    for (int64_t n : {1, 2, 5, 7, 64, 1000}) {
      std::mutex mu;
      std::vector<std::pair<int64_t, int64_t>> got;
      std::vector<int> hits(static_cast<size_t>(n), 0);
      ops::ParallelForCompute(n, [&](int64_t begin, int64_t end) {
        std::lock_guard<std::mutex> lock(mu);
        got.emplace_back(begin, end);
        ids.insert(std::this_thread::get_id());
        for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
      });
      const int64_t shards = std::min<int64_t>(n, threads);
      const int64_t chunk = (n + shards - 1) / shards;
      std::vector<std::pair<int64_t, int64_t>> want;
      for (int64_t begin = 0; begin < n; begin += chunk) {
        want.emplace_back(begin, std::min(n, begin + chunk));
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "threads " << threads << " n " << n;
      for (int h : hits) EXPECT_EQ(h, 1);
    }
    EXPECT_LE(ids.size(), static_cast<size_t>(threads));
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
    EXPECT_FALSE(ThreadPool::InWorkerThread());
  }
  ops::SetComputeThreads(saved);
}

}  // namespace
}  // namespace ms
