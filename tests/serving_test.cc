// Tests for the serving substrates: workload generation, the T/2 latency
// scheduler (Sec. 4.1), and cascade ranking (Sec. 4.2).
#include <limits>
#include <numeric>

#include "gtest/gtest.h"
#include "src/obs/metrics.h"
#include "src/serving/cascade_ranking.h"
#include "src/serving/latency_scheduler.h"
#include "src/serving/workload.h"

namespace ms {
namespace {

WorkloadOptions DefaultWorkload() {
  WorkloadOptions opts;
  opts.num_ticks = 400;
  opts.base_arrivals = 4.0;
  opts.peak_multiplier = 10.0;
  opts.peak_begin = 0.4;
  opts.peak_end = 0.7;
  opts.spike_probability = 0.0;
  opts.seed = 5;
  return opts;
}

TEST(Workload, PeakWindowIsBusier) {
  auto arrivals = GenerateWorkload(DefaultWorkload()).MoveValueOrDie();
  ASSERT_EQ(arrivals.size(), 400u);
  double off_peak = 0.0, peak = 0.0;
  int n_off = 0, n_peak = 0;
  for (size_t t = 0; t < arrivals.size(); ++t) {
    const double phase = static_cast<double>(t) / 400.0;
    if (phase >= 0.4 && phase < 0.7) {
      peak += arrivals[t];
      ++n_peak;
    } else {
      off_peak += arrivals[t];
      ++n_off;
    }
  }
  EXPECT_NEAR(off_peak / n_off, 4.0, 1.0);
  EXPECT_NEAR(peak / n_peak, 40.0, 5.0);
}

TEST(Workload, SpikesAppear) {
  auto opts = DefaultWorkload();
  opts.peak_multiplier = 1.0;
  opts.spike_probability = 0.05;
  opts.spike_multiplier = 16.0;
  auto arrivals = GenerateWorkload(opts).MoveValueOrDie();
  const int max_arrivals =
      *std::max_element(arrivals.begin(), arrivals.end());
  EXPECT_GT(max_arrivals, 30);  // ~64 expected at spike ticks.
}

TEST(Workload, RejectsBadOptions) {
  auto opts = DefaultWorkload();
  opts.num_ticks = 0;
  EXPECT_FALSE(GenerateWorkload(opts).ok());
  opts = DefaultWorkload();
  opts.peak_begin = 0.9;
  opts.peak_end = 0.1;
  EXPECT_FALSE(GenerateWorkload(opts).ok());
  opts = DefaultWorkload();
  opts.spike_probability = 2.0;
  EXPECT_FALSE(GenerateWorkload(opts).ok());
}

ServingConfig DefaultServing() {
  ServingConfig cfg;
  cfg.full_sample_time = 1.0;
  cfg.latency_budget = 32.0;  // budget per tick: 16 full-model samples.
  cfg.lattice = SliceConfig::Make(0.25, 0.25).MoveValueOrDie();
  cfg.accuracy_per_rate = {0.91, 0.93, 0.94, 0.95};
  return cfg;
}

TEST(LatencyScheduler, LightLoadRunsFullModel) {
  auto sched = LatencyScheduler::Make(DefaultServing()).MoveValueOrDie();
  const TickDecision d = sched.Schedule(10);
  EXPECT_DOUBLE_EQ(d.rate, 1.0);
  EXPECT_TRUE(d.slo_met);
  EXPECT_DOUBLE_EQ(d.accuracy, 0.95);
}

TEST(LatencyScheduler, HeavyLoadSlicesDown) {
  auto sched = LatencyScheduler::Make(DefaultServing()).MoveValueOrDie();
  // 64 samples * r^2 <= 16  =>  r <= 0.5.
  const TickDecision d = sched.Schedule(64);
  EXPECT_DOUBLE_EQ(d.rate, 0.5);
  EXPECT_TRUE(d.slo_met);
  EXPECT_DOUBLE_EQ(d.accuracy, 0.93);
  // 16x the light load -> base network.
  const TickDecision d2 = sched.Schedule(256);
  EXPECT_DOUBLE_EQ(d2.rate, 0.25);
  EXPECT_TRUE(d2.slo_met);
}

TEST(LatencyScheduler, ExtremeLoadViolatesEvenAtBase) {
  auto sched = LatencyScheduler::Make(DefaultServing()).MoveValueOrDie();
  // Base rate 0.25: n * 0.0625 <= 16 holds up to n = 256.
  EXPECT_TRUE(sched.Schedule(256).slo_met);
  EXPECT_FALSE(sched.Schedule(300).slo_met);
}

TEST(LatencyScheduler, EmptyTickIsFree) {
  auto sched = LatencyScheduler::Make(DefaultServing()).MoveValueOrDie();
  const TickDecision d = sched.Schedule(0);
  EXPECT_TRUE(d.slo_met);
  EXPECT_DOUBLE_EQ(d.processing_time, 0.0);
}

TEST(LatencyScheduler, FixedFullModelViolatesUnderPeak) {
  auto sched = LatencyScheduler::Make(DefaultServing()).MoveValueOrDie();
  const TickDecision d = sched.ScheduleFixed(64, 1.0);
  EXPECT_FALSE(d.slo_met);
}

TEST(LatencyScheduler, RejectsBadConfigs) {
  auto cfg = DefaultServing();
  cfg.full_sample_time = 0.0;
  EXPECT_FALSE(LatencyScheduler::Make(cfg).ok());
  cfg = DefaultServing();
  cfg.accuracy_per_rate = {0.9};  // misaligned
  EXPECT_FALSE(LatencyScheduler::Make(cfg).ok());
}

TEST(LatencyScheduler, RejectsNonFiniteTimes) {
  // NaN compares false against any bound, so these would sail through a
  // naive `<= 0` check and emit NaN processing times downstream.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kNan, kInf, -kInf}) {
    auto cfg = DefaultServing();
    cfg.full_sample_time = bad;
    EXPECT_FALSE(LatencyScheduler::Make(cfg).ok()) << bad;
    cfg = DefaultServing();
    cfg.latency_budget = bad;
    EXPECT_FALSE(LatencyScheduler::Make(cfg).ok()) << bad;
  }
}

TEST(LatencyScheduler, Int8DisabledIsExactlyTheFp32Rule) {
  // full_sample_time_int8 == 0 must degenerate to the historical Eq. 3
  // rule: same rates, never an int8 decision, even when infeasible.
  auto sched = LatencyScheduler::Make(DefaultServing()).MoveValueOrDie();
  EXPECT_FALSE(sched.int8_enabled());
  for (int n : {1, 10, 64, 256, 300}) {
    const TickDecision d = sched.Schedule(n);
    EXPECT_EQ(d.precision, Precision::kFp32) << n;
  }
  EXPECT_DOUBLE_EQ(sched.Schedule(64).rate, 0.5);
  EXPECT_DOUBLE_EQ(sched.Schedule(300).rate, 0.25);
}

TEST(LatencyScheduler, DropsToInt8AtCurrentRateBeforeDroppingRate) {
  auto cfg = DefaultServing();
  cfg.full_sample_time_int8 = 0.25;  // 4x cheaper than fp32's t = 1.
  auto sched = LatencyScheduler::Make(cfg).MoveValueOrDie();
  EXPECT_TRUE(sched.int8_enabled());

  // Light load: fp32 fits at full rate, so fp32 is preferred.
  const TickDecision light = sched.Schedule(10);
  EXPECT_DOUBLE_EQ(light.rate, 1.0);
  EXPECT_EQ(light.precision, Precision::kFp32);

  // 64 samples: fp32 at r=1 costs 64 > 16, int8 at r=1 costs exactly 16.
  // The fp32-only rule would shed to r=0.5; the joint rule must instead
  // hold the rate and drop precision.
  const TickDecision d = sched.Schedule(64);
  EXPECT_DOUBLE_EQ(d.rate, 1.0);
  EXPECT_EQ(d.precision, Precision::kInt8);
  EXPECT_DOUBLE_EQ(d.processing_time, 16.0);
  EXPECT_TRUE(d.slo_met);

  // 100 samples: both columns fail at r=1 (100, 25), fp32 fails at
  // r=0.75 too (56.25) but int8 fits there (14.06) — the ladder
  // interleaves precision inside each rate step, so one rate step plus a
  // precision drop settles it instead of the fp32-only rule's r=0.5.
  const TickDecision d2 = sched.Schedule(100);
  EXPECT_DOUBLE_EQ(d2.rate, 0.75);
  EXPECT_EQ(d2.precision, Precision::kInt8);
  EXPECT_TRUE(d2.slo_met);

  // Beyond every operating point: serve at the cheapest one, SLO violated.
  const TickDecision worst = sched.Schedule(2000);
  EXPECT_DOUBLE_EQ(worst.rate, 0.25);
  EXPECT_EQ(worst.precision, Precision::kInt8);
  EXPECT_FALSE(worst.slo_met);
}

TEST(LatencyScheduler, ScheduleFixedUsesThePrecisionCostColumn) {
  auto cfg = DefaultServing();
  cfg.full_sample_time_int8 = 0.25;
  auto sched = LatencyScheduler::Make(cfg).MoveValueOrDie();
  EXPECT_FALSE(sched.ScheduleFixed(64, 1.0).slo_met);  // fp32: 64 > 16
  const TickDecision d = sched.ScheduleFixed(64, 1.0, Precision::kInt8);
  EXPECT_TRUE(d.slo_met);  // int8: 16 <= 16
  EXPECT_DOUBLE_EQ(d.processing_time, 16.0);
  EXPECT_DOUBLE_EQ(sched.SampleTime(Precision::kInt8), 0.25);
  EXPECT_DOUBLE_EQ(sched.SampleTime(Precision::kFp32), 1.0);
}

TEST(LatencyScheduler, RejectsBadInt8Times) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kNan, kInf, -kInf, -1.0}) {
    auto cfg = DefaultServing();
    cfg.full_sample_time_int8 = bad;
    EXPECT_FALSE(LatencyScheduler::Make(cfg).ok()) << bad;
  }
}

TEST(LatencyScheduler, MaxBatchWithinBudgetScalesWithCheapestColumn) {
  // Base rate 0.25 costs 0.0625 of a full sample: 16 / 0.0625 = 256.
  EXPECT_EQ(MaxBatchWithinBudget(DefaultServing()), 256);
  // Base-rate int8 admits 4x the fp32-only max batch
  // (16 / (0.0625 * 0.25) = 1024).
  auto cfg = DefaultServing();
  cfg.full_sample_time_int8 = 0.25;
  EXPECT_EQ(MaxBatchWithinBudget(cfg), 1024);
}

TEST(ServingSimulation, ElasticBeatsFixedTradeoffs) {
  auto sched = LatencyScheduler::Make(DefaultServing()).MoveValueOrDie();
  auto workload = GenerateWorkload(DefaultWorkload()).MoveValueOrDie();

  const ServingSummary elastic = SimulateServing(sched, workload);
  const ServingSummary fixed_full =
      SimulateFixedServing(sched, workload, 1.0);
  const ServingSummary fixed_base =
      SimulateFixedServing(sched, workload, 0.25);

  // The elastic policy misses (almost) no deadlines; the full model misses
  // many during the peak window.
  EXPECT_EQ(elastic.slo_violations, 0);
  EXPECT_GT(fixed_full.slo_violations, 50);
  // The base-width fixed model is safe but delivers the worst accuracy.
  EXPECT_EQ(fixed_base.slo_violations, 0);
  EXPECT_GT(elastic.mean_accuracy, fixed_base.mean_accuracy + 0.005);
}

TEST(ServingSimulation, RecordsPerfectSloRatioUnderGenerousBudget) {
  obs::MetricsRegistry::Global().Reset();
  auto cfg = DefaultServing();
  cfg.latency_budget = 1e6;  // everything fits at the full rate.
  auto sched = LatencyScheduler::Make(cfg).MoveValueOrDie();
  const std::vector<int> arrivals(50, 8);
  const ServingSummary summary = SimulateServing(sched, arrivals);
  EXPECT_EQ(summary.slo_violations, 0);

  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(registry.GetGauge("ms_serving_slo_met_ratio")->value(),
                   1.0);
  EXPECT_EQ(registry.GetCounter("ms_serving_ticks_total")->value(), 50);
  EXPECT_EQ(registry.GetCounter("ms_serving_slo_met_total")->value(), 50);
  EXPECT_EQ(registry.GetCounter("ms_serving_slo_violations_total")->value(),
            0);
  EXPECT_EQ(registry.GetCounter("ms_serving_samples_total")->value(),
            50 * 8);
  // Every tick ran the full model: the chosen-rate histogram concentrates
  // its mass at r = 1.0.
  auto* chosen =
      registry.GetHistogram("ms_serving_chosen_rate", obs::RateBuckets());
  EXPECT_EQ(chosen->count(), 50);
  EXPECT_GE(chosen->Percentile(50), 0.9375);
}

TEST(CascadeRanking, PrecisionAndAggregateRecall) {
  // 4 items; stage masks (1 = wrong).
  CascadeStageInput s1{0.5, {0, 0, 1, 0}, 10, 100};
  CascadeStageInput s2{1.0, {0, 1, 1, 0}, 20, 400};
  auto summary = SimulateCascade({s1, s2}, /*shares_parameters=*/false)
                     .MoveValueOrDie();
  ASSERT_EQ(summary.stages.size(), 2u);
  EXPECT_DOUBLE_EQ(summary.stages[0].precision, 0.75);
  EXPECT_DOUBLE_EQ(summary.stages[0].aggregate_recall, 0.75);
  EXPECT_DOUBLE_EQ(summary.stages[1].precision, 0.5);
  // Items 0 and 3 survive both stages.
  EXPECT_DOUBLE_EQ(summary.stages[1].aggregate_recall, 0.5);
  EXPECT_EQ(summary.total_params, 30);   // ensemble: sum
  EXPECT_EQ(summary.total_flops, 500);
}

TEST(CascadeRanking, SharedParametersTakeMax) {
  CascadeStageInput s1{0.5, {0, 0}, 10, 100};
  CascadeStageInput s2{1.0, {0, 0}, 20, 400};
  auto summary = SimulateCascade({s1, s2}, /*shares_parameters=*/true)
                     .MoveValueOrDie();
  EXPECT_EQ(summary.total_params, 20);  // one sliced model: max
  EXPECT_DOUBLE_EQ(summary.final_recall, 1.0);
}

TEST(CascadeRanking, ConsistentErrorsYieldHigherRecall) {
  // Same per-stage precision (75%), different error overlap.
  CascadeStageInput a1{0.5, {1, 0, 0, 0}, 1, 1};
  CascadeStageInput a2{1.0, {1, 0, 0, 0}, 1, 1};  // identical errors
  CascadeStageInput b1{0.5, {1, 0, 0, 0}, 1, 1};
  CascadeStageInput b2{1.0, {0, 1, 0, 0}, 1, 1};  // disjoint errors
  const auto consistent =
      SimulateCascade({a1, a2}, true).MoveValueOrDie();
  const auto inconsistent =
      SimulateCascade({b1, b2}, false).MoveValueOrDie();
  EXPECT_GT(consistent.final_recall, inconsistent.final_recall);
}

TEST(CascadeRanking, RejectsBadInput) {
  EXPECT_FALSE(SimulateCascade({}, false).ok());
  CascadeStageInput s1{0.5, {0, 0}, 1, 1};
  CascadeStageInput s2{1.0, {0}, 1, 1};  // mismatched item counts
  EXPECT_FALSE(SimulateCascade({s1, s2}, false).ok());
}

}  // namespace
}  // namespace ms
