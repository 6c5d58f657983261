// mscli — command-line front end for the model slicing library.
//
//   $ ./example_mscli train --model=vgg13 --scheduler=r-min-max \
//       --epochs=8 --lr=0.05 --lb=0.25 --granularity=0.25 --out=model.ckpt
//   $ ./example_mscli eval --model=vgg13 --ckpt=model.ckpt --rate=0.5
//   $ ./example_mscli profile --model=vgg13
//   $ ./example_mscli summary --model=vgg13 --rate=0.5
//   $ ./example_mscli serve --model=vgg13 --ckpt=model.ckpt --budget=32
//
// Models come from the zoo (vgg13, resnet164, resnet56-2, vgg16, resnet50);
// data is the matching synthetic benchmark split.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/anytime.h"
#include "src/net/frontend.h"
#include "src/net/net_server.h"
#include "src/core/cost_model.h"
#include "src/core/evaluator.h"
#include "src/core/trainer.h"
#include "src/models/zoo.h"
#include "src/nn/serialize.h"
#include "src/nn/summary.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/serving/latency_scheduler.h"
#include "src/serving/server.h"
#include "src/serving/workload.h"
#include "src/tensor/quant.h"
#include "src/util/flags.h"
#include "src/util/stopwatch.h"

using namespace ms;  // NOLINT — tool brevity

namespace {

int Usage() {
  std::printf(
      "usage: mscli <train|eval|profile|serve> [--model=vgg13]\n"
      "  --width_mult=X scales every sliced layer's width (heavier model,\n"
      "           same architecture; the cluster bench uses it to make\n"
      "           per-sample cost non-trivial)\n"
      "  train:   --scheduler=r-min-max --epochs=8 --lr=0.05 --lb=0.25\n"
      "           --granularity=0.25 --out=model.ckpt\n"
      "           --checkpoint_every=N (crash-safe periodic checkpoint to\n"
      "           --out every N epochs; resumes from it if present)\n"
      "  eval:    --ckpt=model.ckpt --rate=0.5\n"
      "  profile: (prints the rate/FLOPs/params lattice, the measured\n"
      "           cost curve vs the r^2 model, and the measured fp32 vs\n"
      "           int8 speedup per rate)\n"
      "  summary: --rate=0.5 (per-layer table with measured fwd times)\n"
      "  --precision={fp32,int8} (eval/summary/serve): run inference on\n"
      "           the quantized sliceable path; for serve this enables the\n"
      "           joint (rate, precision) scheduler with a calibrated int8\n"
      "           cost column\n"
      "  serve:   real concurrent serving engine (calibrated t, worker\n"
      "           replicas, T/2 batching): --workers=2 --budget_ms=50\n"
      "           --queue=4096 --ticks=48 --load=0.3 --peak=10\n"
      "           --deadline_ticks=3; or --simulate --budget=<samples per\n"
      "           tick at full cost> for the arithmetic-only simulator;\n"
      "           or --listen=PORT to serve remote traffic over the wire\n"
      "           (--chaos_control additionally honors kControl\n"
      "           fault-arming frames — bench/CI only)\n"
      "           protocol until SIGTERM/SIGINT (0 = ephemeral port; the\n"
      "           bound port is printed). --stats_out=/p.jsonl writes the\n"
      "           final accounting ledger as one JSON line at shutdown\n"
      "observability (any command):\n"
      "  --metrics_out=/path.jsonl   dump the metrics registry as JSONL\n"
      "  --trace_out=/path.json      record a chrome://tracing trace (for\n"
      "           serve: plus one lane of stage spans per request)\n"
      "serving observability (serve):\n"
      "  --flight_recorder_dir=/dir     arm the serving black box: auto-\n"
      "           dump recent events on quarantine/breaker-open/watchdog,\n"
      "           and the final ring (scheduler decisions with Eq. 3\n"
      "           predicted vs achieved seconds) to flight-exit.jsonl\n"
      "fault injection (chaos testing, any command):\n"
      "  MS_FAULTS=point=prob[@param],...  e.g.\n"
      "  MS_FAULTS='server.forward.nan=0.05,server.worker.stall=0.05@0.02'\n"
      "  (MS_FAULTS_SEED=N for a deterministic stream; fires are counted\n"
      "  in the ms_fault_* metrics)\n");
  return 2;
}

struct Loaded {
  ZooEntry entry;
  std::unique_ptr<Sequential> net;
  ImageDataSplit split;
  SliceConfig lattice;
};

// SIGTERM/SIGINT flag for `serve --listen` (async-signal-safe write only).
volatile std::sig_atomic_t g_shutdown = 0;
void OnShutdownSignal(int) { g_shutdown = 1; }

/// --precision={fp32,int8}; defaults to fp32, prints its own error.
bool GetPrecisionFlag(const Flags& flags, Precision* out) {
  *out = Precision::kFp32;
  if (!flags.Has("precision")) return true;
  if (ParsePrecision(flags.GetString("precision"), out)) return true;
  std::fprintf(stderr, "bad --precision=%s (want fp32 or int8)\n",
               flags.GetString("precision").c_str());
  return false;
}

Result<Loaded> Load(const Flags& flags) {
  const std::string model = flags.GetString("model", "vgg13");
  auto entry_result = GetZooModel(model);
  MS_RETURN_NOT_OK(entry_result.status());
  Loaded loaded{entry_result.MoveValueOrDie(), nullptr, {}, {}};
  if (flags.Has("width_mult")) {
    const double wm = flags.GetDouble("width_mult", 1.0);
    if (!(wm > 0.0)) return Status::InvalidArgument("bad --width_mult");
    loaded.entry.config.width_mult = wm;
  }
  auto net_result = loaded.entry.is_resnet
                        ? MakeResNet(loaded.entry.config)
                        : MakeVggSmall(loaded.entry.config);
  MS_RETURN_NOT_OK(net_result.status());
  loaded.net = net_result.MoveValueOrDie();
  auto split_result =
      MakeSyntheticImages(ZooDatasetOptions(loaded.entry.dataset));
  MS_RETURN_NOT_OK(split_result.status());
  loaded.split = split_result.MoveValueOrDie();
  auto lattice_result = SliceConfig::Make(flags.GetDouble("lb", 0.25),
                                          flags.GetDouble("granularity",
                                                          0.25));
  MS_RETURN_NOT_OK(lattice_result.status());
  loaded.lattice = lattice_result.MoveValueOrDie();
  if (flags.Has("ckpt")) {
    std::vector<ParamRef> params;
    loaded.net->CollectParams(&params);
    MS_RETURN_NOT_OK(LoadParams(params, flags.GetString("ckpt")));
  }
  return loaded;
}

int Train(const Flags& flags) {
  auto loaded_result = Load(flags);
  if (!loaded_result.ok()) {
    std::fprintf(stderr, "%s\n", loaded_result.status().ToString().c_str());
    return 1;
  }
  Loaded loaded = loaded_result.MoveValueOrDie();
  auto sched_result =
      MakeScheduler(flags.GetString("scheduler", "r-min-max"),
                    loaded.lattice);
  if (!sched_result.ok()) {
    std::fprintf(stderr, "%s\n", sched_result.status().ToString().c_str());
    return 1;
  }
  auto sched = sched_result.MoveValueOrDie();
  ImageTrainOptions opts;
  opts.epochs = static_cast<int>(flags.GetInt("epochs", 8));
  opts.batch_size = flags.GetInt("batch", 32);
  opts.sgd.lr = flags.GetDouble("lr", 0.05);
  opts.lr_milestones = {(opts.epochs * 3) / 4};
  // Crash-safe periodic checkpoints: write to --out every N epochs (atomic
  // temp+fsync+rename, CRC-verified), and resume from it when present so a
  // killed run picks up where it left off.
  if (flags.Has("checkpoint_every") && flags.Has("out")) {
    opts.checkpoint.path = flags.GetString("out");
    opts.checkpoint.every_epochs =
        static_cast<int>(flags.GetInt("checkpoint_every", 1));
    opts.checkpoint.resume = true;
  }
  TrainImageClassifier(loaded.net.get(), loaded.split.train, sched.get(),
                       opts, [](const EpochStats& s) {
                         std::printf("epoch %d loss %.4f (%.1fs)\n", s.epoch,
                                     s.train_loss, s.seconds);
                       });
  for (double r : loaded.lattice.rates()) {
    std::printf("rate %.3f accuracy %.4f\n", r,
                EvalAccuracy(loaded.net.get(), loaded.split.test, r));
  }
  if (flags.Has("out")) {
    std::vector<ParamRef> params;
    loaded.net->CollectParams(&params);
    const Status s = SaveParams(params, flags.GetString("out"));
    std::printf("checkpoint %s: %s\n", flags.GetString("out").c_str(),
                s.ToString().c_str());
    if (!s.ok()) return 1;
  }
  return 0;
}

int Eval(const Flags& flags) {
  auto loaded_result = Load(flags);
  if (!loaded_result.ok()) {
    std::fprintf(stderr, "%s\n", loaded_result.status().ToString().c_str());
    return 1;
  }
  Loaded loaded = loaded_result.MoveValueOrDie();
  Precision precision;
  if (!GetPrecisionFlag(flags, &precision)) return 1;
  loaded.net->SetPrecision(precision);
  const double rate = flags.GetDouble("rate", 1.0);
  std::printf("model %s rate %.3f precision %s accuracy %.4f\n",
              loaded.entry.name.c_str(), rate, PrecisionName(precision),
              EvalAccuracy(loaded.net.get(), loaded.split.test, rate));
  return 0;
}

int Profile(const Flags& flags) {
  auto loaded_result = Load(flags);
  if (!loaded_result.ok()) {
    std::fprintf(stderr, "%s\n", loaded_result.status().ToString().c_str());
    return 1;
  }
  Loaded loaded = loaded_result.MoveValueOrDie();
  auto predictor_result = AnytimePredictor::Make(
      loaded.net.get(), loaded.lattice,
      {1, loaded.split.test.channels, loaded.split.test.height,
       loaded.split.test.width});
  if (!predictor_result.ok()) return 1;
  auto predictor = predictor_result.MoveValueOrDie();
  std::printf("%-8s %-12s %-12s %s\n", "rate", "MFLOPs", "params(K)",
              "fwd ms (1 sample)");
  for (size_t i = 0; i < predictor.profiles().size(); ++i) {
    const auto& p = predictor.profiles()[i];
    std::printf("%-8.3f %-12.4f %-12.1f %.3f\n", p.rate, p.flops / 1e6,
                p.params / 1e3, predictor.seconds_per_rate()[i] * 1e3);
  }

  // Empirical cost curve vs the paper's quadratic model (Eq. 3), measured
  // under a profiler session so per-layer stats land in the registry too.
  obs::SliceProfiler profiler;
  std::vector<obs::CostCurvePoint> curve;
  {
    obs::ProfilerScope scope(&profiler);
    Tensor sample({8, loaded.split.test.channels, loaded.split.test.height,
                   loaded.split.test.width});
    curve = obs::MeasureCostCurve(loaded.net.get(), sample,
                                  loaded.lattice.rates(), /*repeats=*/5);
  }
  std::printf("\nmeasured cost curve (batch of 8) vs r^2 model:\n%s",
              obs::FormatCostCurve(curve).c_str());
  obs::ExportCostCurve(curve, &obs::MetricsRegistry::Global());
  profiler.ExportTo(&obs::MetricsRegistry::Global());

  // Second elastic axis: measured fp32 vs int8 forward time per rate, on a
  // serving-sized batch. One warm forward per (rate, precision) pays for
  // packing/quantization outside the timed reps, mirroring the server's
  // cold-start exclusion.
  Tensor batch({8, loaded.split.test.channels, loaded.split.test.height,
                loaded.split.test.width});
  std::printf("\nint8 quantized path (batch of 8, per-sample ms):\n");
  std::printf("%-8s %-12s %-12s %s\n", "rate", "fp32 ms", "int8 ms",
              "speedup");
  for (double r : loaded.lattice.rates()) {
    loaded.net->SetSliceRate(r);
    double ms[2] = {0.0, 0.0};
    int idx = 0;
    for (Precision p : {Precision::kFp32, Precision::kInt8}) {
      loaded.net->SetPrecision(p);
      loaded.net->Forward(batch, /*training=*/false);  // warm: pack/quantize
      double best = 0.0;
      for (int rep = 0; rep < 5; ++rep) {
        Stopwatch sw;
        loaded.net->Forward(batch, /*training=*/false);
        const double s = sw.ElapsedSeconds();
        if (rep == 0 || s < best) best = s;
      }
      ms[idx++] = best / 8.0 * 1e3;
    }
    loaded.net->SetPrecision(Precision::kFp32);
    std::printf("%-8.3f %-12.3f %-12.3f %.2fx\n", r, ms[0], ms[1],
                ms[1] > 0.0 ? ms[0] / ms[1] : 0.0);
  }
  return 0;
}

int Summary(const Flags& flags) {
  auto loaded_result = Load(flags);
  if (!loaded_result.ok()) {
    std::fprintf(stderr, "%s\n", loaded_result.status().ToString().c_str());
    return 1;
  }
  Loaded loaded = loaded_result.MoveValueOrDie();
  Precision precision;
  if (!GetPrecisionFlag(flags, &precision)) return 1;
  loaded.net->SetPrecision(precision);
  Tensor sample({1, loaded.split.test.channels, loaded.split.test.height,
                 loaded.split.test.width});
  // Warm up at the requested rate and precision first: the first forward
  // pays for weight packing and first-touch allocations, which would
  // otherwise dominate the per-layer times (a warm first conv runs in a
  // few µs).
  const double rate = flags.GetDouble("rate", 1.0);
  loaded.net->SetSliceRate(rate);
  for (int i = 0; i < 3; ++i) {
    (void)loaded.net->Forward(sample, /*training=*/false);
  }
  // Summarize under a profiler session so the table gains measured
  // per-layer forward times.
  obs::SliceProfiler profiler;
  obs::ProfilerScope scope(&profiler);
  const ModelSummary summary = Summarize(loaded.net.get(), sample, rate);
  std::fputs(FormatSummary(summary).c_str(), stdout);
  return 0;
}

// The original arithmetic-only simulation of the Sec. 4.1 policy
// (`serve --simulate`): useful to sanity-check the rule without paying for
// real forwards.
int ServeSimulated(const Flags& flags, Loaded loaded) {
  ServingConfig cfg;
  cfg.full_sample_time = 1.0;
  cfg.latency_budget = 2.0 * flags.GetDouble("budget", 16.0);
  cfg.lattice = loaded.lattice;
  for (double r : loaded.lattice.rates()) {
    cfg.accuracy_per_rate.push_back(
        EvalAccuracy(loaded.net.get(), loaded.split.test, r));
  }
  auto sched_result = LatencyScheduler::Make(cfg);
  if (!sched_result.ok()) return 1;
  auto scheduler = sched_result.MoveValueOrDie();
  WorkloadOptions wl;
  wl.num_ticks = static_cast<int64_t>(flags.GetInt("ticks", 200));
  wl.base_arrivals = flags.GetDouble("arrivals", 5.0);
  wl.peak_multiplier = flags.GetDouble("peak", 10.0);
  auto workload_result = GenerateWorkload(wl);
  if (!workload_result.ok()) return 1;
  const ServingSummary s =
      SimulateServing(scheduler, workload_result.MoveValueOrDie());
  std::printf(
      "served %lld samples: %lld SLO violations, mean rate %.3f, mean "
      "accuracy %.4f, utilization %.3f\n",
      static_cast<long long>(s.total_samples),
      static_cast<long long>(s.slo_violations), s.mean_rate,
      s.mean_accuracy, s.utilization);
  return 0;
}

// Real concurrent serving: per-worker model replicas, startup calibration
// of t, a T/2 batcher thread and actual forwards under the Eq. 3 rate rule.
int Serve(const Flags& flags) {
  auto loaded_result = Load(flags);
  if (!loaded_result.ok()) {
    std::fprintf(stderr, "%s\n", loaded_result.status().ToString().c_str());
    return 1;
  }
  Loaded loaded = loaded_result.MoveValueOrDie();
  if (flags.Has("simulate")) return ServeSimulated(flags, std::move(loaded));

  // Serving observability: stage stamps feed the per-stage histograms the
  // summary below prints, so they are always on for `serve` (the stamps are
  // one clock read each; the overhead gate in bench_server_throughput keeps
  // them honest). Request lanes (--trace_out) and the flight recorder stay
  // opt-in.
  obs::EnableStageStats(true);
  if (flags.Has("flight_recorder_dir")) {
    const Status armed = obs::FlightRecorder::Global().ConfigureDumps(
        flags.GetString("flight_recorder_dir"));
    if (!armed.ok()) {
      std::fprintf(stderr, "%s\n", armed.ToString().c_str());
      return 1;
    }
  }

  ServerOptions opts;
  Precision precision;
  if (!GetPrecisionFlag(flags, &precision)) return 1;
  // --precision=int8 arms the second elastic axis: calibration measures an
  // int8 cost column and the scheduler drops precision before rate.
  opts.enable_int8 = precision == Precision::kInt8;
  opts.serving.latency_budget = flags.GetDouble("budget_ms", 50.0) / 1e3;
  opts.serving.lattice = loaded.lattice;
  opts.max_queue = flags.GetInt("queue", 4096);
  opts.sample_shape = {loaded.split.test.channels, loaded.split.test.height,
                       loaded.split.test.width};

  const int workers = static_cast<int>(flags.GetInt("workers", 2));
  std::vector<std::unique_ptr<Module>> replicas;
  replicas.push_back(std::move(loaded.net));
  for (int w = 1; w < workers; ++w) {
    auto r = loaded.entry.is_resnet ? MakeResNet(loaded.entry.config)
                                    : MakeVggSmall(loaded.entry.config);
    if (!r.ok()) return 1;
    auto replica = r.MoveValueOrDie();
    const Status copied = CopyParams(replicas.front().get(), replica.get());
    if (!copied.ok()) {
      std::fprintf(stderr, "%s\n", copied.ToString().c_str());
      return 1;
    }
    replicas.push_back(std::move(replica));
  }

  auto server_result = SliceServer::Create(std::move(replicas), opts);
  if (!server_result.ok()) {
    std::fprintf(stderr, "%s\n", server_result.status().ToString().c_str());
    return 1;
  }
  auto server = server_result.MoveValueOrDie();
  const Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  const double t = server->calibrated_sample_seconds();
  const double t8 = server->calibrated_sample_seconds_int8();
  const int cap_full =
      std::max(1, static_cast<int>(server->tick_seconds() / t));
  std::printf(
      "serving %s with %d worker(s): calibrated t = %.3f ms/sample, tick "
      "%.0f ms (%d full-rate samples/tick)\n",
      loaded.entry.name.c_str(), server->num_workers(), t * 1e3,
      server->tick_seconds() * 1e3, cap_full);
  if (t8 > 0.0) {
    std::printf("int8 axis on: calibrated t_int8 = %.3f ms/sample (%.2fx)\n",
                t8 * 1e3, t / t8);
  }

  if (flags.Has("listen")) {
    // Networked shard mode: serve wire traffic until SIGTERM/SIGINT, then
    // drain gracefully — SliceServer first (terminal replies flush through
    // the still-open sockets), frame server second.
    net::ShardFrontend frontend(server.get());
    net::NetServer::Options net_opts;
    net_opts.allow_fault_control = flags.Has("chaos_control");
    net::NetServer frames(&frontend, net_opts);
    const Status bound =
        frames.Start(static_cast<uint16_t>(flags.GetInt("listen", 0)));
    if (!bound.ok()) {
      std::fprintf(stderr, "%s\n", bound.ToString().c_str());
      return 1;
    }
    std::signal(SIGTERM, OnShutdownSignal);
    std::signal(SIGINT, OnShutdownSignal);
    std::printf("listening on port %u\n", frames.port());
    std::fflush(stdout);
    while (g_shutdown == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server->Stop();
    frames.Stop();
  } else {
    WorkloadOptions wl;
    wl.num_ticks = static_cast<int64_t>(flags.GetInt("ticks", 48));
    // --load is the off-peak arrival rate as a fraction of full-rate
    // capacity; the peak multiplier pushes past 1.0 into degradation.
    wl.base_arrivals =
        std::max(1.0, flags.GetDouble("load", 0.3) * cap_full);
    wl.peak_multiplier = flags.GetDouble("peak", 10.0);
    wl.spike_probability = flags.GetDouble("spike_prob", 0.04);
    wl.spike_multiplier = 16.0;
    auto workload_result = GenerateWorkload(wl);
    if (!workload_result.ok()) return 1;
    const double deadline =
        flags.GetDouble("deadline_ticks", 3.0) * server->tick_seconds();
    RunClosedLoop(server.get(), workload_result.MoveValueOrDie(), deadline);
    server->Stop();
  }
  const ServerStats s = server->stats();
  const bool accounted =
      s.submitted == s.served + s.shed + s.expired + s.rejected + s.failed;
  std::printf(
      "submitted %lld: served %lld, shed %lld, expired %lld, rejected %lld, "
      "failed %lld (every request accounted: %s)\n"
      "lowest slice rate %.2f, slowest batch %.1f ms, %lld batches over "
      "%lld ticks (%lld int8)\n"
      "self-healing: %lld batch retries, %lld quarantines (%lld repaired), "
      "%d/%d workers healthy at shutdown\n",
      static_cast<long long>(s.submitted), static_cast<long long>(s.served),
      static_cast<long long>(s.shed), static_cast<long long>(s.expired),
      static_cast<long long>(s.rejected), static_cast<long long>(s.failed),
      accounted ? "yes" : "NO", s.min_rate, s.max_batch_seconds * 1e3,
      static_cast<long long>(s.batches), static_cast<long long>(s.ticks),
      static_cast<long long>(s.batches_int8),
      static_cast<long long>(s.retried_batches),
      static_cast<long long>(s.quarantined),
      static_cast<long long>(s.repaired), server->healthy_workers(),
      server->num_workers());

  if (flags.Has("stats_out")) {
    // One JSON line: the shard's final ledger, machine-checkable by the
    // cluster CI job (same fields as the wire kStatsReply).
    std::ofstream out(flags.GetString("stats_out"));
    out << "{\"role\":\"shard\",\"submitted\":" << s.submitted
        << ",\"accepted\":" << s.accepted << ",\"served\":" << s.served
        << ",\"shed\":" << s.shed << ",\"expired\":" << s.expired
        << ",\"rejected\":" << s.rejected << ",\"failed\":" << s.failed
        << ",\"accounted\":" << (accounted ? "true" : "false")
        << ",\"quarantined\":" << s.quarantined
        << ",\"repaired\":" << s.repaired << ",\"calibrated_t\":" << t
        << ",\"calibrated_t_int8\":" << t8
        << ",\"batches_int8\":" << s.batches_int8
        << ",\"tick_seconds\":" << server->tick_seconds() << "}\n";
    if (!out.good()) {
      std::fprintf(stderr, "stats dump failed: %s\n",
                   flags.GetString("stats_out").c_str());
      return 1;
    }
  }

  // Per-stage latency breakdown of every served request (DESIGN.md §8).
  auto& registry = obs::MetricsRegistry::Global();
  std::printf("\n%-12s %9s %10s %10s %10s %10s\n", "stage", "count",
              "p50 ms", "p99 ms", "p99.9 ms", "mean ms");
  for (const char* stage : {"queue_wait", "batch_form", "schedule",
                            "dispatch", "forward", "total"}) {
    obs::Histogram* h = registry.GetHistogram(
        std::string("ms_server_stage_") + stage + "_ms");
    const std::vector<double> ps = h->Percentiles({50.0, 99.0, 99.9});
    std::printf("%-12s %9lld %10.3f %10.3f %10.3f %10.3f\n", stage,
                static_cast<long long>(h->count()), ps[0], ps[1], ps[2],
                h->mean());
  }
  const double drift = server->cost_model_drift();
  if (std::isfinite(drift)) {
    std::printf(
        "cost model: %lld batches, drift EWMA |pred-achieved|/achieved "
        "= %.3f\n",
        static_cast<long long>(s.batches), drift);
  }
  auto& flight = obs::FlightRecorder::Global();
  const int64_t dumps = flight.dumps_written();
  if (dumps > 0) {
    std::printf("flight recorder: %lld dump(s), last %s\n",
                static_cast<long long>(dumps),
                flight.last_dump_path().c_str());
  }
  if (flags.Has("flight_recorder_dir")) {
    // The final ring, trip or not: every decision and how its batch settled.
    const Status w = flight.DumpTo(flags.GetString("flight_recorder_dir") +
                                   "/flight-exit.jsonl");
    if (!w.ok()) {
      std::fprintf(stderr, "flight recorder dump: %s\n",
                   w.ToString().c_str());
      return 1;
    }
  }
  return accounted ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = Flags::Parse(argc, argv);
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.status().ToString().c_str());
    return Usage();
  }
  const Flags flags = flags_result.MoveValueOrDie();
  if (flags.positional().empty()) return Usage();
  if (flags.Has("trace_out")) obs::TraceCollector::Global().Enable();
  const std::string command = flags.positional().front();
  int rc;
  if (command == "train") rc = Train(flags);
  else if (command == "eval") rc = Eval(flags);
  else if (command == "profile") rc = Profile(flags);
  else if (command == "summary") rc = Summary(flags);
  else if (command == "serve") rc = Serve(flags);
  else return Usage();
  if (flags.Has("metrics_out")) {
    const Status s = obs::MetricsRegistry::Global().WriteJsonl(
        flags.GetString("metrics_out"));
    if (!s.ok()) {
      std::fprintf(stderr, "metrics dump: %s\n", s.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (flags.Has("trace_out")) {
    const Status s =
        obs::TraceCollector::Global().WriteJson(flags.GetString("trace_out"));
    if (!s.ok()) {
      std::fprintf(stderr, "trace dump: %s\n", s.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
