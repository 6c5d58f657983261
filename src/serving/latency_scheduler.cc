#include "src/serving/latency_scheduler.h"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.h"

namespace ms {

Result<LatencyScheduler> LatencyScheduler::Make(const ServingConfig& config) {
  // Reject NaN/inf explicitly: NaN compares false against every bound, so a
  // plain `<= 0` check would admit it and poison every downstream
  // processing-time computation.
  if (!std::isfinite(config.full_sample_time) ||
      config.full_sample_time <= 0.0) {
    return Status::InvalidArgument(
        "full_sample_time must be finite and positive");
  }
  if (!std::isfinite(config.full_sample_time_int8) ||
      config.full_sample_time_int8 < 0.0) {
    return Status::InvalidArgument(
        "full_sample_time_int8 must be finite and >= 0 (0 disables int8)");
  }
  if (!std::isfinite(config.latency_budget) || config.latency_budget <= 0.0) {
    return Status::InvalidArgument(
        "latency_budget must be finite and positive");
  }
  if (config.lattice.num_rates() == 0) {
    return Status::InvalidArgument("empty rate lattice");
  }
  if (!config.accuracy_per_rate.empty() &&
      config.accuracy_per_rate.size() != config.lattice.num_rates()) {
    return Status::InvalidArgument(
        "accuracy table must align with the rate lattice");
  }
  return LatencyScheduler(config);
}

double LatencyScheduler::AccuracyAt(double rate) const {
  if (config_.accuracy_per_rate.empty()) return 0.0;
  const auto& rates = config_.lattice.rates();
  for (size_t i = 0; i < rates.size(); ++i) {
    if (std::abs(rates[i] - rate) < 1e-9) {
      return config_.accuracy_per_rate[i];
    }
  }
  return 0.0;
}

double LatencyScheduler::SampleTime(Precision precision) const {
  return precision == Precision::kInt8 ? config_.full_sample_time_int8
                                       : config_.full_sample_time;
}

double LatencyScheduler::PredictSeconds(int64_t n, double rate,
                                        Precision precision) const {
  return static_cast<double>(n) * rate * rate * SampleTime(precision);
}

TickDecision LatencyScheduler::Schedule(int n) const {
  TickDecision d;
  d.num_samples = n;
  if (n == 0) {
    d.processing_time = 0.0;
    d.rate = config_.lattice.full_rate();
    d.accuracy = AccuracyAt(d.rate);
    return d;
  }
  const double budget = config_.latency_budget / 2.0;
  // Joint (rate, precision) rule: walk the trained rates descending; at
  // each rate try fp32 first, then int8 — so overload drops to int8 at
  // the current rate before it sheds a rate step. With int8 disabled this
  // reduces to picking the largest r with n * r^2 * t <= T/2 (Eq. 3).
  const auto& rates = config_.lattice.rates();
  for (size_t i = rates.size(); i-- > 0;) {
    const double r = rates[i];
    for (const Precision p : {Precision::kFp32, Precision::kInt8}) {
      if (p == Precision::kInt8 && !int8_enabled()) continue;
      const double cost = PredictSeconds(n, r, p);
      if (cost <= budget + 1e-12) {
        d.rate = r;
        d.precision = p;
        d.processing_time = cost;
        d.slo_met = true;
        d.accuracy = AccuracyAt(r);
        return d;
      }
    }
  }
  // The base network is the floor: an extreme batch can still overrun.
  // Serve it at the cheapest operating point we have.
  d.rate = rates.front();
  d.precision = int8_enabled() ? Precision::kInt8 : Precision::kFp32;
  d.processing_time = PredictSeconds(n, d.rate, d.precision);
  d.slo_met = false;
  d.accuracy = AccuracyAt(d.rate);
  return d;
}

int64_t MaxBatchWithinBudget(const ServingConfig& config) {
  const double budget = config.latency_budget / 2.0;
  const double base = config.lattice.lower_bound();
  // The cheapest calibrated operating point bounds the ladder's last rung:
  // int8-at-base-rate when that cost column exists, else fp32-at-base.
  double t_min = config.full_sample_time;
  if (config.full_sample_time_int8 > 0.0) {
    t_min = std::min(t_min, config.full_sample_time_int8);
  }
  const double per_sample = base * base * t_min;
  if (per_sample <= 0.0) return 0;
  return static_cast<int64_t>(std::floor(budget / per_sample));
}

TickDecision LatencyScheduler::ScheduleFixed(int n, double rate,
                                             Precision precision) const {
  TickDecision d;
  d.num_samples = n;
  d.rate = rate;
  d.precision = precision;
  d.processing_time = PredictSeconds(n, rate, precision);
  d.slo_met = n == 0 || d.processing_time <= config_.latency_budget / 2.0;
  d.accuracy = AccuracyAt(config_.lattice.NearestRate(rate));
  return d;
}

namespace {

ServingSummary Summarize(const std::vector<TickDecision>& decisions,
                         double tick_budget) {
  ServingSummary s;
  double rate_weighted = 0.0, acc_weighted = 0.0, busy = 0.0;
  for (const auto& d : decisions) {
    s.total_samples += d.num_samples;
    if (!d.slo_met) ++s.slo_violations;
    rate_weighted += d.rate * d.num_samples;
    acc_weighted += d.accuracy * d.num_samples;
    busy += std::min(d.processing_time, tick_budget);
  }
  if (s.total_samples > 0) {
    s.mean_rate = rate_weighted / static_cast<double>(s.total_samples);
    s.mean_accuracy = acc_weighted / static_cast<double>(s.total_samples);
  }
  if (!decisions.empty()) {
    s.utilization = busy / (tick_budget * decisions.size());
  }
  return s;
}

// Per-tick serving metrics (Sec. 4.1): tick/SLO counters, the chosen-rate
// distribution, and a running SLO-met ratio gauge.
void RecordServingMetrics(const std::vector<TickDecision>& decisions,
                          const ServingSummary& summary) {
  auto& registry = obs::MetricsRegistry::Global();
  auto* chosen_rate =
      registry.GetHistogram("ms_serving_chosen_rate", obs::RateBuckets());
  auto* proc_ms = registry.GetHistogram("ms_serving_processing_time",
                                        obs::LatencyBucketsMs());
  int64_t int8_batches = 0;
  for (const auto& d : decisions) {
    if (d.num_samples > 0) chosen_rate->Observe(d.rate);
    if (d.num_samples > 0 && d.precision == Precision::kInt8) ++int8_batches;
    proc_ms->Observe(d.processing_time);
  }
  registry.GetCounter("ms_serving_int8_batches_total")->Inc(int8_batches);
  registry.GetCounter("ms_serving_ticks_total")
      ->Inc(static_cast<int64_t>(decisions.size()));
  registry.GetCounter("ms_serving_slo_met_total")
      ->Inc(static_cast<int64_t>(decisions.size()) - summary.slo_violations);
  registry.GetCounter("ms_serving_slo_violations_total")
      ->Inc(summary.slo_violations);
  registry.GetCounter("ms_serving_samples_total")->Inc(summary.total_samples);
  if (!decisions.empty()) {
    registry.GetGauge("ms_serving_slo_met_ratio")
        ->Set(1.0 - static_cast<double>(summary.slo_violations) /
                        static_cast<double>(decisions.size()));
  }
  registry.GetGauge("ms_serving_utilization")->Set(summary.utilization);
}

}  // namespace

ServingSummary SimulateServing(const LatencyScheduler& scheduler,
                               const std::vector<int>& arrivals,
                               std::vector<TickDecision>* decisions) {
  std::vector<TickDecision> local;
  local.reserve(arrivals.size());
  for (int n : arrivals) local.push_back(scheduler.Schedule(n));
  ServingSummary summary =
      Summarize(local, scheduler.config().latency_budget / 2.0);
  RecordServingMetrics(local, summary);
  if (decisions != nullptr) *decisions = std::move(local);
  return summary;
}

ServingSummary SimulateFixedServing(const LatencyScheduler& scheduler,
                                    const std::vector<int>& arrivals,
                                    double rate,
                                    std::vector<TickDecision>* decisions) {
  std::vector<TickDecision> local;
  local.reserve(arrivals.size());
  for (int n : arrivals) local.push_back(scheduler.ScheduleFixed(n, rate));
  ServingSummary summary =
      Summarize(local, scheduler.config().latency_budget / 2.0);
  RecordServingMetrics(local, summary);
  if (decisions != nullptr) *decisions = std::move(local);
  return summary;
}

}  // namespace ms
