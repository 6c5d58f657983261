// train-sliced: Algorithm 1 through TrainImageClassifier — vgg13 at zoo
// width on the cifar-analogue dataset, the r-min-max scheduler (the mscli
// train default), batch 32, 2 compute threads, 4 epochs of 1024 samples per
// round (enough steps that every round's loss falls clearly). It is the only
// workload that runs Backward, gradient packing and SGD. A run repeats fresh
// rounds (new model, new dataset) until its time is up; throughput_sps is
// the median over every epoch of every round.
#include <cmath>

#include "perfbench/traced_model.h"
#include "perfbench/workloads.h"
#include "src/core/scheduler.h"
#include "src/core/slice_config.h"
#include "src/core/trainer.h"
#include "src/models/zoo.h"
#include "src/obs/metrics.h"
#include "src/tensor/gemm.h"

namespace perfbench {
namespace {

constexpr int kEpochs = 4;
constexpr int64_t kBatch = 32;
constexpr int64_t kTrainSize = 1024;
constexpr int kSetupBuilds = 8;  // timed set-ups per round.

ms::ImageTrainOptions TrainOptions(uint64_t seed) {
  ms::ImageTrainOptions opts;
  opts.epochs = kEpochs;
  opts.batch_size = kBatch;
  opts.sgd.lr = 0.05;  // the mscli train default.
  opts.seed = seed;
  return opts;
}

}  // namespace

void RunTrainSliced(const RunArgs& args, Report* report) {
  ms::ops::SetComputeThreads(2);
  const ms::SliceConfig lattice = ms::SliceConfig::FromList(kLattice).MoveValueOrDie();
  ms::obs::Counter* rollbacks =
      ms::obs::MetricsRegistry::Global().GetCounter("ms_train_rollbacks_total");
  std::vector<double> setup;
  std::vector<double> sps_by_mode[2];  // [traced round?] per-epoch samples/s
  std::vector<ForwardRecord> records;
  int64_t steps = 0;
  SpanLog log;
  const double end = NowSeconds() + args.seconds;
  const int min_rounds = args.trace ? 2 : 1;  // a traced run alternates.
  double round_seconds = 0.0;
  // Start another round only while it is expected to end in time.
  for (int round = 0; round < min_rounds || NowSeconds() + round_seconds <= end;
       ++round) {
    const bool traced = args.trace && round % 2 == 1;
    const double t0 = NowSeconds();
    std::unique_ptr<ms::Sequential> net;
    ms::ImageDataSplit data;
    std::unique_ptr<ms::SliceRateScheduler> scheduler;
    // One set-up takes tens of ms, so each round times several and trains
    // on the last: setup_s is then a median over many, not three or four.
    for (int i = 0; i < kSetupBuilds; ++i) {
      const double ts = NowSeconds();
      net = MakeVgg13();
      ms::SyntheticImageOptions data_opts = ms::ZooDatasetOptions("cifar");
      data_opts.train_size = kTrainSize;
      data_opts.test_size = kBatch;
      data_opts.seed = StreamSeed(args.seed, 2 * static_cast<uint64_t>(round));
      data = ms::MakeSyntheticImages(data_opts).MoveValueOrDie();
      scheduler = ms::MakeScheduler("r-min-max", lattice).MoveValueOrDie();
      setup.push_back(NowSeconds() - ts);
    }

    std::string error;
    const std::vector<LayerKind> kinds = ClassifyChildren(net.get(), &error);
    if (kinds.empty()) return report->Fail(error);
    TracedModel traced_net(net.get(), kinds, &log);
    ms::Module* model = traced ? static_cast<ms::Module*>(&traced_net) : net.get();

    const ms::ImageTrainOptions opts =
        TrainOptions(StreamSeed(args.seed, 2 * static_cast<uint64_t>(round) + 1));
    std::vector<double> losses;
    const int64_t rollbacks_before = rollbacks->value();
    ms::TrainImageClassifier(
        model, data.train, scheduler.get(), opts, [&](const ms::EpochStats& e) {
          losses.push_back(e.train_loss);
          sps_by_mode[traced ? 1 : 0].push_back(e.examples_per_sec);
        });
    steps += kEpochs * ((kTrainSize + kBatch - 1) / kBatch);
    report->CountAttempts(0, rollbacks->value() - rollbacks_before);
    for (double l : losses) {
      if (!std::isfinite(l)) report->Fail("non-finite epoch loss");
    }
    if (losses.size() != static_cast<size_t>(kEpochs) || !(losses.back() < losses.front())) {
      report->Fail("training loss did not fall over the round");
    }
    if (traced) {
      const std::vector<ForwardRecord> r = traced_net.records();
      records.insert(records.end(), r.begin(), r.end());
    }
    round_seconds = NowSeconds() - t0;
  }
  report->CountAttempts(steps, 0);

  if (!args.trace) {
    // An epoch's ms per training step (one batch: forward, backward, SGD).
    std::vector<double> step_ms;
    for (double sps : sps_by_mode[0]) step_ms.push_back(kBatch / sps * 1e3);
    report->Add("setup_s", Median(setup), "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MiB");
    report->Add("throughput_sps", Median(sps_by_mode[0]), "1/s");
    report->Add("latency_p50_ms", Median(step_ms), "ms");
    return;
  }
  AddModelLayerMetrics(log, records, report);
  SplitMix64 rng(StreamSeed(args.seed, 1u << 20));
  report->Add("models.first_forward_ms", FirstForwardMs(1.0, RandomImages(kBatch, &rng)),
              "ms");
  // Time per sample, traced epochs against untraced ones.
  report->Add("trace.overhead_pct",
              OverheadPct(1.0 / Median(sps_by_mode[1]), 1.0 / Median(sps_by_mode[0])),
              "%");
  if (!args.trace_path.empty() && !log.WriteChromeTrace(args.trace_path)) {
    report->Fail("cannot write " + args.trace_path);
  }
}

}  // namespace perfbench
