// serve-ramp: an in-process SliceServer running vgg13 at width_mult 2 (2
// workers, 1 compute thread, T = 20 ms, lattice {0.25, 0.5, 0.75, 1}) under
// open-loop Poisson arrivals that follow a 300 -> 2000 -> 300 req/s
// triangle with a 4-s period, sent from one thread.
//
// The served rate is a step function of the t the server calibrates at
// Start(), and t varies from start to start, so one run is several rounds
// of build -> traffic -> teardown, and each metric is the median of its
// per-round values: the run then spans several calibrations instead of
// sampling one.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "perfbench/traced_model.h"
#include "perfbench/workloads.h"
#include "src/core/slice_config.h"
#include "src/serving/server.h"
#include "src/tensor/gemm.h"

namespace perfbench {
namespace {

/// Admission bound sized to the SLO: a request queued behind more than
/// ~T x peak rate others cannot be served within T anyway. It also caps the
/// batch Start() plans its activation arenas at, so set-up time and memory
/// do not follow the calibrated t from start to start.
constexpr int64_t kMaxQueue = 64;
constexpr double kBudget = 0.020;  // T, seconds.
constexpr double kPeriod = 4.0;    // triangle period == traffic per round.
constexpr double kLowRps = 300.0;
constexpr double kHighRps = 2000.0;  // see NOTES.md on the peak
constexpr int kWorkers = 2;

/// Client-side record of one request. Written by the generator (admission)
/// and once by the server's completion hook; read after the server is
/// destroyed, which joins every thread that wrote it.
struct Slot {
  double due = 0.0;
  double submitted = 0.0;
  double done = 0.0;
  ms::AdmitResult admit = ms::AdmitResult::kAccepted;
  ms::RequestOutcome outcome = ms::RequestOutcome::kServed;
  double rate = 0.0;
  std::atomic<int> settles{0};
};

struct Totals {
  int64_t sent = 0, served = 0, good = 0, late = 0, shed = 0, expired = 0,
          rejected = 0, failed = 0;
  std::vector<double> latency_ms;  ///< served requests, from when due.
  std::vector<double> rates;       ///< served requests.
  double max_lag = 0.0;
};

}  // namespace

void RunServeRamp(const RunArgs& args, Report* report) {
  ms::ops::SetComputeThreads(1);
  const int rounds = std::max(args.trace ? 2 : 1,
                              static_cast<int>(std::lround(args.seconds / kPeriod)));
  std::vector<double> setup;
  // One value per round; the report takes the median over rounds, so a
  // round that tips into overload moves it less than pooling would.
  std::vector<double> goodput, p50, rss;
  int64_t sent = 0, failed = 0;
  std::vector<double> p50_by_mode[2];  // [traced round?] round p50s
  SpanLog log;
  std::vector<ForwardRecord> records;  // traffic forwards of traced rounds

  for (int round = 0; round < rounds; ++round) {
    const bool traced = args.trace && round % 2 == 1;
    const double t0 = NowSeconds();
    std::vector<std::unique_ptr<ms::Module>> replicas;
    std::vector<TracedModel*> traced_replicas;
    for (int w = 0; w < kWorkers; ++w) {
      std::unique_ptr<ms::Sequential> net = MakeVgg13(2.0);
      if (!traced) {
        replicas.push_back(std::move(net));
        continue;
      }
      std::string error;
      std::vector<LayerKind> kinds = ClassifyChildren(net.get(), &error);
      if (kinds.empty()) return report->Fail(error);
      auto replica = std::make_unique<TracedModel>(std::move(net), std::move(kinds), &log);
      traced_replicas.push_back(replica.get());
      replicas.push_back(std::move(replica));
    }
    ms::ServerOptions opts;
    opts.serving.latency_budget = kBudget;
    opts.serving.lattice = ms::SliceConfig::FromList(kLattice).MoveValueOrDie();
    opts.sample_shape = {3, 12, 12};
    opts.max_queue = kMaxQueue;
    auto server = ms::SliceServer::Create(std::move(replicas), opts).MoveValueOrDie();
    const ms::Status st = server->Start();
    const double ready = NowSeconds();
    if (!st.ok()) return report->Fail("Start: " + st.ToString());
    setup.push_back(ready - t0);
    const double calibrated_us = server->calibrated_sample_seconds() * 1e6;
    double round_rss = CurrentRssMb();

    const std::vector<double> arrivals = PoissonArrivals(
        StreamSeed(args.seed, static_cast<uint64_t>(round) + 1), kPeriod,
        [](double t) { return TriangleRate(t, kLowRps, kHighRps, kPeriod); },
        kHighRps);
    const size_t n = arrivals.size();
    std::unique_ptr<Slot[]> slots(new Slot[n]);
    std::atomic<int64_t> settled{0};
    int64_t accepted = 0;
    const double base = NowSeconds() + 0.005;
    for (size_t i = 0; i < n; ++i) {
      Slot* slot = &slots[i];
      slot->due = base + arrivals[i];
      SleepUntil(slot->due);
      slot->submitted = NowSeconds();
      // The deadline counts from when the request was due, not from when
      // the generator got to it.
      const double deadline =
          std::max(1e-6, kBudget - (slot->submitted - slot->due));
      slot->admit = server->Submit(
          deadline, [slot, &settled, &log, traced](ms::RequestOutcome o, double r) {
            slot->done = NowSeconds();
            slot->outcome = o;
            slot->rate = r;
            slot->settles.fetch_add(1, std::memory_order_relaxed);
            settled.fetch_add(1, std::memory_order_relaxed);
            if (traced) log.Add("request", slot->submitted, slot->done);
          });
      if (slot->admit == ms::AdmitResult::kAccepted) ++accepted;
    }
    // Let the backlog drain (every accepted request either runs or expires
    // within T of its deadline), then tear down.
    const double drain_until = NowSeconds() + 10 * kBudget;
    while (settled.load() < accepted && NowSeconds() < drain_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    round_rss = std::max(round_rss, CurrentRssMb());
    server->Stop();
    const ms::ServerStats s = server->stats();
    // Calibration and prewarm forwards ran before the traffic. The server
    // owns the traced replicas, so read them before it goes.
    const std::vector<ForwardRecord> traffic = RecordsSince(log, traced_replicas, base);
    records.insert(records.end(), traffic.begin(), traffic.end());
    server.reset();

    Totals r;
    for (size_t i = 0; i < n; ++i) {
      const Slot& slot = slots[i];
      ++r.sent;
      r.max_lag = std::max(r.max_lag, slot.submitted - slot.due);
      const int settles = slot.settles.load();
      if (slot.admit != ms::AdmitResult::kAccepted) {
        if (settles != 0) report->Fail("a refused request settled");
        if (slot.admit == ms::AdmitResult::kShedQueueFull) {
          ++r.shed;
        } else {
          ++r.rejected;
        }
        continue;
      }
      if (settles != 1) {
        report->Fail("an accepted request settled " + std::to_string(settles) +
                     " times");
        continue;
      }
      switch (slot.outcome) {
        case ms::RequestOutcome::kServed: {
          ++r.served;
          const double latency = slot.done - slot.due;
          if (latency <= kBudget) {
            ++r.good;
          } else {
            ++r.late;
          }
          r.latency_ms.push_back(latency * 1e3);
          r.rates.push_back(slot.rate);
          break;
        }
        case ms::RequestOutcome::kExpired: ++r.expired; break;
        case ms::RequestOutcome::kShedStop: ++r.shed; break;
        case ms::RequestOutcome::kFailed: ++r.failed; break;
      }
    }
    if (r.sent != r.served + r.shed + r.expired + r.rejected + r.failed) {
      report->Fail("client ledger does not add up");
    }
    if (s.submitted != r.sent || s.served != r.served || s.shed != r.shed ||
        s.expired != r.expired || s.rejected != r.rejected ||
        s.failed != r.failed) {
      report->Fail("client counts differ from SliceServer::stats()");
    }
    if (r.served == 0) return report->Fail("nothing served in a round");
    goodput.push_back(r.good / kPeriod);
    p50.push_back(Percentile(r.latency_ms, 50));
    rss.push_back(round_rss);
    p50_by_mode[traced ? 1 : 0].push_back(p50.back());
    std::fprintf(stderr,
                 "serve-ramp round %d: t %.0f us, attainment %.3f, mean rate "
                 "%.3f, p50 %.1f ms, p90 %.1f ms, rss %.0f MiB, late %lld, "
                 "shed %lld, expired %lld, generator lag %.1f ms\n",
                 round, calibrated_us, static_cast<double>(r.good) / r.sent,
                 Mean(r.rates), p50.back(), Percentile(r.latency_ms, 90), rss.back(),
                 static_cast<long long>(r.late), static_cast<long long>(r.shed),
                 static_cast<long long>(r.expired), r.max_lag * 1e3);
    sent += r.sent;
    failed += r.failed + r.rejected;
  }
  // Shed, expired and late requests are SLO misses, counted against
  // throughput_sps (goodput); a failed operation is one the server lost or
  // refused while healthy.
  report->CountAttempts(sent, failed);

  if (!args.trace) {
    report->Add("setup_s", Median(setup), "s");
    report->Add("peak_rss_mb", Median(rss), "MiB");
    report->Add("throughput_sps", Median(goodput), "1/s");
    report->Add("latency_p50_ms", Median(p50), "ms");
    return;
  }
  AddModelLayerMetrics(log, records, report);
  SplitMix64 rng(StreamSeed(args.seed, 1u << 20));
  report->Add("models.first_forward_ms", FirstForwardMs(2.0, RandomImages(1, &rng)),
              "ms");
  report->Add("trace.overhead_pct",
              OverheadPct(Mean(p50_by_mode[1]), Mean(p50_by_mode[0])), "%");
  if (!args.trace_path.empty() && !log.WriteChromeTrace(args.trace_path)) {
    report->Fail("cannot write " + args.trace_path);
  }
}

}  // namespace perfbench
