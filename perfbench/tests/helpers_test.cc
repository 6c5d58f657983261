// Tests for the benchmark's own helpers: the arrival generator, the
// percentile rule, the span self-time rule and the metric names. Run with
// `python3 perfbench/run.py --selftest`; exits non-zero on any failure.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "perfbench/helpers.h"
#include "perfbench/metric_names.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::abs(got - want) < 1e-9,
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void TestArrivalsRepeatForASeed() {
  auto ramp = [](double t) { return TriangleRate(t, 300.0, 5000.0, 4.0); };
  const auto a = PoissonArrivals(7, 4.0, ramp, 5000.0);
  const auto b = PoissonArrivals(7, 4.0, ramp, 5000.0);
  const auto c = PoissonArrivals(8, 4.0, ramp, 5000.0);
  Expect(!a.empty() && a == b, "same seed gives an identical schedule");
  Expect(a != c, "another seed gives another schedule");
  for (size_t i = 1; i < a.size(); ++i) {
    if (!(a[i - 1] <= a[i] && a[i] < 4.0)) {
      Expect(false, "arrivals sorted and inside the window");
      break;
    }
  }
  // The triangle averages (300 + 5000) / 2 req/s; 4 s give ~10600
  // arrivals with a Poisson sd of ~103.
  Expect(std::abs(static_cast<double>(a.size()) - 10600.0) < 600.0,
         "ramp schedule has the expected count, got " + std::to_string(a.size()));
  Expect(StreamSeed(1, 2) == StreamSeed(1, 2) && StreamSeed(1, 2) != StreamSeed(1, 3),
         "stream seeds are deterministic and distinct");
}

void TestTriangleRate() {
  ExpectNear(TriangleRate(0.0, 300, 5000, 4), 300, "triangle at 0");
  ExpectNear(TriangleRate(2.0, 300, 5000, 4), 5000, "triangle at half period");
  ExpectNear(TriangleRate(1.0, 300, 5000, 4), 2650, "triangle at quarter period");
  ExpectNear(TriangleRate(5.0, 300, 5000, 4), 2650, "triangle repeats");
}

void TestPercentiles() {
  const std::vector<double> five = {5, 1, 4, 2, 3};
  ExpectNear(Percentile(five, 0), 1, "p0");
  ExpectNear(Percentile(five, 25), 2, "p25");
  ExpectNear(Percentile(five, 50), 3, "p50");
  ExpectNear(Percentile(five, 90), 4.6, "p90 interpolates");
  ExpectNear(Percentile(five, 100), 5, "p100");
  const std::vector<double> four = {10, 20, 30, 40};
  ExpectNear(Median(four), 25, "even-count median");
  ExpectNear(Percentile(four, 99), 39.7, "p99 of four");
  ExpectNear(Percentile({42}, 99), 42, "single value");
  Expect(std::isnan(Percentile({}, 50)), "empty input gives NaN");
  ExpectNear(Mean({1, 2, 3, 6}), 3, "mean");
}

void TestSelfTimes() {
  SpanLog log;
  const int64_t root = log.Add("fwd", 0.0, 10.0);
  log.Add("conv", 1.0, 3.0, root);
  log.Add("norm", 2.0, 5.0, root);   // overlaps the previous child
  log.Add("pool", 7.0, 8.0, root);
  log.Add("head", 9.5, 12.0, root);  // runs past the parent: clipped
  const int64_t other = log.Add("other", 20.0, 21.0);
  const auto self = log.SelfTimes();
  ExpectNear(self[static_cast<size_t>(root)], 10.0 - 4.0 - 1.0 - 0.5,
             "root self time excludes the union of its children");
  ExpectNear(self[1], 2.0, "leaf self time is its duration");
  ExpectNear(self[static_cast<size_t>(other)], 1.0, "unrelated root");
}

void TestMetricNames() {
  Expect(ValidMetricName("nn.rate_share.r025"), "dotted name is valid");
  Expect(ValidMetricName("latency_p50_ms"), "underscore name is valid");
  Expect(!ValidMetricName(""), "empty name is invalid");
  Expect(!ValidMetricName(".lead"), "leading dot is invalid");
  Expect(!ValidMetricName("has space"), "space is invalid");
  Expect(!ValidMetricName("a/b"), "slash is invalid");
  Expect(!ValidMetricName(std::string(65, 'a')), "65 letters is too long");
  Expect(RateTag(0.25) == "r025" && RateTag(1.0) == "r100", "rate tags");
  for (bool trace : {false, true}) {
    const auto names = DeclaredMetrics(trace);
    Expect(!names.empty(), "metrics declared");
    std::set<std::string> seen;
    for (const std::string& n : names) {
      Expect(ValidMetricName(n), "valid metric name: " + n);
      Expect(seen.insert(n).second, "metric declared once: " + n);
    }
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestArrivalsRepeatForASeed();
  perfbench::TestTriangleRate();
  perfbench::TestPercentiles();
  perfbench::TestSelfTimes();
  perfbench::TestMetricNames();
  std::printf("helpers_test: %s\n", perfbench::g_failures == 0 ? "ok" : "FAILED");
  return perfbench::g_failures == 0 ? 0 : 1;
}
