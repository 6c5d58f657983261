// slice-sweep: offline batch-8 forwards of vgg13 at zoo width over the four
// lattice rates x {fp32, int8}, on 2 compute threads. The operating points
// are interleaved in short chunks so that host-speed drift lands on every
// point alike, and each forward is timed on its own so the report can take
// medians.
#include <cmath>
#include <cstring>

#include "src/tensor/gemm.h"
#include "perfbench/traced_model.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kBatch = 8;
constexpr int kSetupInstances = 40;  // fresh build+prewarm per run.
constexpr int kChunk = 4;            // forwards per operating point per turn.

struct Point {
  double rate;
  ms::Precision precision;
  std::string tag;  ///< "fp32.r025", for messages
};

bool SameBits(const ms::Tensor& a, const ms::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

void SetPoint(ms::Module* m, const Point& p) {
  m->SetPrecision(p.precision);
  m->SetSliceRate(p.rate);
}

}  // namespace

void RunSliceSweep(const RunArgs& args, Report* report) {
  ms::ops::SetComputeThreads(2);
  std::vector<Point> points;
  for (ms::Precision p : {ms::Precision::kFp32, ms::Precision::kInt8}) {
    for (double r : kLattice) {
      points.push_back({r, p, std::string(ms::PrecisionName(p)) + "." + RateTag(r)});
    }
  }
  SplitMix64 rng(StreamSeed(args.seed, 0));
  const ms::Tensor x = RandomImages(kBatch, &rng);

  // Set-up: build a fresh model and prewarm every operating point (weight
  // packs, int8 quantization). setup_s is the median over fresh instances
  // built throughout the run, so that it samples the host as the forwards do.
  std::vector<double> setup;
  auto build = [&]() {
    const double t0 = NowSeconds();
    auto fresh = MakeVgg13();
    for (const Point& p : points) {
      SetPoint(fresh.get(), p);
      fresh->Forward(x, false);
    }
    setup.push_back(NowSeconds() - t0);
    return fresh;
  };
  std::unique_ptr<ms::Sequential> net = build();

  std::string error;
  const std::vector<LayerKind> kinds = ClassifyChildren(net.get(), &error);
  if (kinds.empty()) return report->Fail(error);
  SpanLog log;
  TracedModel walk(net.get(), kinds, nullptr);
  TracedModel traced(net.get(), kinds, &log);

  // The child-by-child walk must reproduce Sequential::Forward bitwise.
  for (const Point& p : points) {
    SetPoint(net.get(), p);
    const ms::Tensor a = net->Forward(x, false);
    const ms::Tensor b = walk.Forward(x, false);
    if (!SameBits(a, b)) report->Fail("traced walk differs at " + p.tag);
    if (!AllFinite(a)) report->Fail("non-finite logits at " + p.tag);
  }

  // Measurement: rotate through the points in chunks; in a traced run,
  // alternate chunks run through the traced walk.
  std::vector<std::vector<double>> plain(points.size()), walked(points.size());
  int64_t forwards = 0, bad = 0;
  const double end = NowSeconds() + args.seconds;
  double next_setup = NowSeconds();
  for (int64_t chunk = 0; NowSeconds() < end; ++chunk) {
    if (NowSeconds() >= next_setup) {
      build();
      next_setup += args.seconds / kSetupInstances;
    }
    const bool use_traced = args.trace && chunk % 2 == 1;
    ms::Module* m = use_traced ? static_cast<ms::Module*>(&traced) : net.get();
    for (size_t k = 0; k < points.size(); ++k) {
      const size_t idx = (k + static_cast<size_t>(chunk)) % points.size();
      SetPoint(m, points[idx]);
      for (int i = 0; i < kChunk; ++i) {
        const double t0 = NowSeconds();
        const ms::Tensor y = m->Forward(x, false);
        const double dt = NowSeconds() - t0;
        ++forwards;
        if (!AllFinite(y)) ++bad;
        (use_traced ? walked : plain)[idx].push_back(dt);
      }
    }
  }
  report->CountAttempts(forwards, bad);
  if (bad > 0) report->Fail("forwards with non-finite logits");

  if (!args.trace) {
    // Every point weighs alike: the geometric mean over the eight points
    // of each point's own median.
    double log_p50 = 0.0;
    for (const std::vector<double>& t : plain) log_p50 += std::log(Median(t));
    const double p50_s = std::exp(log_p50 / static_cast<double>(points.size()));
    report->Add("setup_s", Median(setup), "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MiB");
    report->Add("throughput_sps", kBatch / p50_s, "1/s");
    report->Add("latency_p50_ms", p50_s * 1e3, "ms");
    return;
  }

  AddModelLayerMetrics(log, traced.records(), report);
  report->Add("models.first_forward_ms", FirstForwardMs(1.0, x), "ms");
  double sum_traced = 0.0, sum_plain = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    sum_traced += Median(walked[i]);
    sum_plain += Median(plain[i]);
  }
  report->Add("trace.overhead_pct", OverheadPct(sum_traced, sum_plain), "%");
  if (!args.trace_path.empty() && !log.WriteChromeTrace(args.trace_path)) {
    report->Fail("cannot write " + args.trace_path);
  }
}

}  // namespace perfbench
