// Thread-safe metrics registry: counters, gauges and fixed-bucket
// histograms with an atomic hot path. Metrics are created on first use and
// live for the registry's lifetime, so callers may cache the returned
// pointers and update them lock-free from any thread. Snapshots export as
// JSONL (one metric per line) or Prometheus text exposition format.
//
// The process-wide registry (`MetricsRegistry::Global()`) is what the
// trainer, the serving schedulers and the benches record into; tests and
// embedders can also instantiate private registries.
#ifndef MODELSLICING_OBS_METRICS_H_
#define MODELSLICING_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace ms {
namespace obs {

/// JSON string-body escaping shared by every obs export.
std::string JsonEscape(const std::string& s);

/// Writes `contents` to `path`, truncating it: the one file writer behind
/// the metrics, chrome-trace and flight-recorder exports.
Status WriteTextFile(const std::string& path, const std::string& contents);

/// \brief Monotonically increasing integer metric.
class Counter {
 public:
  void Inc(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Last-write-wins floating-point metric (also supports Add).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }

  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket histogram. `bounds` are ascending inclusive upper
/// bounds; an implicit overflow bucket catches everything above the last
/// bound.
///
/// Observe() is wait-free: the bucket index is computed in O(1) arithmetic
/// when the bounds form a geometric (log-bucketed — the default layouts) or
/// arithmetic progression, the counters are relaxed fetch_adds, and the sum
/// is a hardware atomic add (no CAS loop). Irregular bounds fall back to a
/// binary search over the immutable bounds array, which is still wait-free.
///
/// Percentile() snapshots every bucket once and ranks against the
/// snapshot's own total, so under concurrent writers the answer is always
/// exact-to-bucket for the observations captured in the snapshot (it can
/// never fall through to the overflow bucket because a racing count_ ran
/// ahead of the bucket array). Within the selected bucket the value is
/// estimated by linear interpolation, so it always lies inside that
/// bucket's bounds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Estimated value at percentile `p` in [0, 100]. Returns 0 when empty.
  double Percentile(double p) const;

  /// Percentiles for all of `ps` computed from ONE bucket snapshot, so the
  /// answers are mutually consistent even while writers race (p50 from one
  /// call can never exceed p99 from the same call).
  std::vector<double> Percentiles(const std::vector<double>& ps) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i`; i == bounds().size() is the overflow bucket.
  int64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  size_t num_buckets() const { return bounds_.size() + 1; }

 private:
  /// How BucketIndex finds the smallest i with v <= bounds_[i].
  enum class Layout {
    kGeometric,   ///< bounds_[i] = b0 * ratio^i: index via one log().
    kArithmetic,  ///< bounds_[i] = b0 + i * step: index via one divide.
    kIrregular,   ///< anything else: binary search.
  };

  size_t BucketIndex(double v) const;

  std::vector<double> bounds_;
  Layout layout_ = Layout::kIrregular;
  double inv_b0_ = 0.0;        ///< 1 / bounds_[0] (geometric guess).
  double inv_log_ratio_ = 0.0; ///< 1 / log(ratio) (geometric guess).
  double inv_step_ = 0.0;      ///< 1 / step (arithmetic guess).
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default bucket layouts.
std::vector<double> LatencyBucketsMs();   ///< 0.01ms .. ~10s, log-spaced.
std::vector<double> RateBuckets();        ///< slice rates, 1/16 steps.
std::vector<double> DepthBuckets();       ///< queue depths, 1 .. 4096.

/// \brief Named metric store. Get* creates on first use; pointers remain
/// valid and lock-free to update for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` are used only on first creation; later calls with the same
  /// name return the existing histogram regardless of bounds.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = LatencyBucketsMs());

  /// One JSON object per line:
  ///   {"type":"counter","name":...,"value":...}
  ///   {"type":"gauge","name":...,"value":...}
  ///   {"type":"histogram","name":...,"count":...,"sum":...,"p50":...,
  ///    "p95":...,"p99":...,"buckets":[{"le":...,"count":...},...]}
  std::string ToJsonl() const;

  /// Prometheus text exposition format (histograms use cumulative
  /// `_bucket{le=...}` series plus `_sum` / `_count`).
  std::string ToPrometheus() const;

  Status WriteJsonl(const std::string& path) const;
  Status WritePrometheus(const std::string& path) const;

  /// Drops every metric (invalidates cached pointers); for tests.
  void Reset();

  /// Process-wide registry used by the built-in instrumentation.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace ms

#endif  // MODELSLICING_OBS_METRICS_H_
