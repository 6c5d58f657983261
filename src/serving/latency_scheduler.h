// Fine-grained system degradation via model slicing (paper Sec. 4.1).
//
// Queries are batched every T/2; the remaining T/2 is the processing budget.
// For a batch of n samples and a full-model per-sample time t, the scheduler
// picks the largest trained slice rate r with n * r^2 * t <= T/2 (Eq. 3), so
// every sample meets the latency SLO and no capacity is wasted.
#ifndef MODELSLICING_SERVING_LATENCY_SCHEDULER_H_
#define MODELSLICING_SERVING_LATENCY_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "src/core/slice_config.h"
#include "src/tensor/quant.h"
#include "src/util/status.h"

namespace ms {

struct ServingConfig {
  double full_sample_time = 1.0;  ///< t: per-sample time of the full model.
  /// t for the int8 path (second cost column). 0 disables the precision
  /// axis: scheduling degenerates to the fp32-only Eq. 3 rule.
  double full_sample_time_int8 = 0.0;
  double latency_budget = 16.0;   ///< T: end-to-end latency SLO.
  SliceConfig lattice;            ///< trained slice rates.
  /// Expected accuracy per lattice rate (ascending, aligned with
  /// lattice.rates()); lets the simulator report accuracy delivered.
  std::vector<double> accuracy_per_rate;
};

struct TickDecision {
  int num_samples = 0;
  double rate = 1.0;             ///< slice rate chosen for the batch.
  Precision precision = Precision::kFp32;  ///< precision chosen.
  double processing_time = 0.0;  ///< n * r^2 * t(precision).
  bool slo_met = true;           ///< processing fits within T/2.
  double accuracy = 0.0;         ///< expected accuracy at `rate`.
};

class LatencyScheduler {
 public:
  static Result<LatencyScheduler> Make(const ServingConfig& config);

  /// Decide the (slice rate, precision) for a batch of `n` samples. The
  /// Sec. 4.1 rule extended with the precision axis: rates are walked
  /// descending and at each rate fp32 is preferred over int8, so the
  /// ladder degrades "drop to int8 at the current rate" BEFORE "drop
  /// rate" — accuracy loss from quantization is far smaller than from
  /// slicing down a step. With full_sample_time_int8 == 0 this is exactly
  /// the historical fp32-only Eq. 3 rule.
  TickDecision Schedule(int n) const;

  /// Fixed-operating-point strawman used by the comparison benches:
  /// always run (rate, precision) and report whether the batch fit.
  TickDecision ScheduleFixed(int n, double rate,
                             Precision precision = Precision::kFp32) const;

  /// The calibrated per-sample cost of `precision` (the cost column).
  double SampleTime(Precision precision) const;

  /// Eq. 3: predicted seconds for `n` samples at (`rate`, `precision`),
  /// n * r^2 * t(precision). Every cost the scheduler and SliceServer
  /// reason with comes from here.
  double PredictSeconds(int64_t n, double rate, Precision precision) const;

  /// True when an int8 cost column is calibrated (the axis is usable).
  bool int8_enabled() const { return config_.full_sample_time_int8 > 0.0; }

  const ServingConfig& config() const { return config_; }

 private:
  explicit LatencyScheduler(ServingConfig config)
      : config_(std::move(config)) {}

  double AccuracyAt(double rate) const;

  ServingConfig config_;
};

/// Largest batch the T/2 budget can absorb at the base (lowest) rate and
/// the cheapest calibrated precision — the last rung of the shedding
/// ladder before work must stay queued. With an int8 cost column
/// calibrated, "drop to int8 at the base rate" is that rung, so the queue
/// drains up to t_fp32/t_int8 times faster before shedding. SliceServer
/// cuts its batches with it.
int64_t MaxBatchWithinBudget(const ServingConfig& config);

struct ServingSummary {
  int64_t total_samples = 0;
  int64_t slo_violations = 0;     ///< ticks whose batch overran T/2.
  double mean_rate = 0.0;         ///< sample-weighted mean slice rate.
  double mean_accuracy = 0.0;     ///< sample-weighted expected accuracy.
  double utilization = 0.0;       ///< busy time / total budget.
};

/// Runs the scheduler over a workload trace (arrivals per tick).
ServingSummary SimulateServing(const LatencyScheduler& scheduler,
                               const std::vector<int>& arrivals,
                               std::vector<TickDecision>* decisions = nullptr);

/// Same trace, fixed rate for every batch.
ServingSummary SimulateFixedServing(
    const LatencyScheduler& scheduler, const std::vector<int>& arrivals,
    double rate, std::vector<TickDecision>* decisions = nullptr);

}  // namespace ms

#endif  // MODELSLICING_SERVING_LATENCY_SCHEDULER_H_
