// wire-light: one ShardRouter in front of two ShardFrontend shards over
// loopback TCP, all in this process. Each shard serves vgg13 at zoo width
// with 1 worker (T = 20 ms); load is open-loop Poisson at 500 req/s over
// two client connections, each request carrying one 3x12x12 sample. At
// this rate every batch runs at r = 1 for any calibrated t, so the socket,
// frame codec, epoll loop and router are what the numbers see.
//
// Like serve-ramp, a run is several rounds of build -> traffic -> teardown.
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/traced_model.h"
#include "perfbench/workloads.h"
#include "src/core/slice_config.h"
#include "src/net/client.h"
#include "src/net/frontend.h"
#include "src/net/net_server.h"
#include "src/net/router.h"
#include "src/serving/server.h"
#include "src/tensor/gemm.h"

namespace perfbench {
namespace {

/// Admission bound sized to the SLO: a request queued behind more than
/// ~T x peak rate others cannot be served within T anyway. It also caps the
/// batch Start() plans its activation arenas at, so set-up time and memory
/// do not follow the calibrated t from start to start.
constexpr int64_t kMaxQueue = 64;
constexpr double kBudget = 0.020;   // T, seconds.
constexpr double kRoundSeconds = 4.0;
constexpr double kRps = 500.0;
constexpr int kShards = 2;
constexpr int kClients = 2;
constexpr int64_t kSampleElems = 3 * 12 * 12;
/// Replies settle within budget + the router's reply grace; wait this long
/// for stragglers before tearing a round down.
constexpr double kDrainSeconds = 2.0;

/// Client-side record of one request, written by the generator and by the
/// client reader thread that delivers its reply.
struct Slot {
  double due = 0.0;
  double sent = 0.0;
  double replied = 0.0;
  ms::net::ReplyMsg reply;
  std::atomic<int> replies{0};
};

struct Shard {
  std::unique_ptr<ms::SliceServer> server;
  std::unique_ptr<ms::net::ShardFrontend> frontend;
  std::unique_ptr<ms::net::NetServer> net;
};

struct Counts {
  int64_t sent = 0, served = 0, good = 0, shed = 0, expired = 0, rejected = 0,
          failed = 0, unreplied = 0;
};

}  // namespace

void RunWireLight(const RunArgs& args, Report* report) {
  ms::ops::SetComputeThreads(1);
  const int rounds = std::max(
      args.trace ? 2 : 1, static_cast<int>(std::lround(args.seconds / kRoundSeconds)));
  std::vector<double> setup;
  // One value per round; the report takes the median over rounds.
  std::vector<double> goodput, p50, rss;
  std::vector<double> p50_by_mode[2];  // [traced round?] round p50s
  int64_t sent_total = 0, failed_total = 0;
  SpanLog log;
  std::vector<ForwardRecord> records;  // traffic forwards of traced rounds

  for (int round = 0; round < rounds; ++round) {
    const bool traced = args.trace && round % 2 == 1;
    SplitMix64 rng(StreamSeed(args.seed, 1000 + static_cast<uint64_t>(round)));
    const std::vector<double> arrivals = PoissonArrivals(
        StreamSeed(args.seed, static_cast<uint64_t>(round) + 1), kRoundSeconds,
        [](double) { return kRps; }, kRps);
    // Slot 0 is the warm-up request whose reply marks the stack ready.
    const size_t n = arrivals.size() + 1;
    std::unique_ptr<Slot[]> slots(new Slot[n]);
    std::vector<std::vector<float>> payloads(n);
    for (auto& p : payloads) {
      p.resize(kSampleElems);
      for (float& v : p) v = static_cast<float>(rng.Normal());
    }
    std::mutex ready_mu;
    std::condition_variable ready_cv;
    std::atomic<int64_t> replied{0}, unknown{0};
    auto on_reply = [&](const ms::net::ReplyMsg& msg) {
      if (msg.id >= n) {
        unknown.fetch_add(1);
        return;
      }
      Slot* slot = &slots[msg.id];
      const double now = NowSeconds();
      if (slot->replies.fetch_add(1) == 0) {
        slot->replied = now;
        slot->reply = msg;
        if (traced) log.Add("request", slot->sent, now);
      }
      replied.fetch_add(1);
      std::lock_guard<std::mutex> lock(ready_mu);
      ready_cv.notify_all();
    };

    // Set-up: shards, router, client connections, first reply.
    const double t0 = NowSeconds();
    std::vector<Shard> shards(kShards);
    std::vector<std::string> addrs;
    std::vector<TracedModel*> traced_replicas;
    for (Shard& shard : shards) {
      std::vector<std::unique_ptr<ms::Module>> replicas;
      std::unique_ptr<ms::Sequential> net = MakeVgg13(1.0);
      if (traced) {
        std::string error;
        std::vector<LayerKind> kinds = ClassifyChildren(net.get(), &error);
        if (kinds.empty()) return report->Fail(error);
        auto replica =
            std::make_unique<TracedModel>(std::move(net), std::move(kinds), &log);
        traced_replicas.push_back(replica.get());
        replicas.push_back(std::move(replica));
      } else {
        replicas.push_back(std::move(net));
      }
      ms::ServerOptions opts;
      opts.serving.latency_budget = kBudget;
      opts.serving.lattice = ms::SliceConfig::FromList(kLattice).MoveValueOrDie();
      opts.sample_shape = {3, 12, 12};
      opts.max_queue = kMaxQueue;
      shard.server = ms::SliceServer::Create(std::move(replicas), opts).MoveValueOrDie();
      const ms::Status st = shard.server->Start();
      if (!st.ok()) return report->Fail("shard Start: " + st.ToString());
      shard.frontend = std::make_unique<ms::net::ShardFrontend>(shard.server.get(),
                                                                kSampleElems);
      shard.net = std::make_unique<ms::net::NetServer>(shard.frontend.get());
      const ms::Status ns = shard.net->Start(0);
      if (!ns.ok()) return report->Fail("shard listen: " + ns.ToString());
      addrs.push_back("127.0.0.1:" + std::to_string(shard.net->port()));
    }
    ms::net::RouterOptions ropts;
    ropts.require_shard_at_start = true;
    auto router = std::make_unique<ms::net::ShardRouter>(addrs, ropts);
    const ms::Status rs = router->Start();
    if (!rs.ok()) return report->Fail("router Start: " + rs.ToString());
    auto router_net = std::make_unique<ms::net::NetServer>(router.get());
    const ms::Status rns = router_net->Start(0);
    if (!rns.ok()) return report->Fail("router listen: " + rns.ToString());
    std::vector<std::unique_ptr<ms::net::WireClient>> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<ms::net::WireClient>());
      clients.back()->set_on_reply(on_reply);
      const ms::Status cs = clients.back()->Connect("127.0.0.1", router_net->port());
      if (!cs.ok()) return report->Fail("client Connect: " + cs.ToString());
    }
    auto send = [&](size_t i, double deadline) {
      ms::net::RequestMsg msg;
      msg.id = i;
      msg.deadline_seconds = deadline;
      msg.payload = std::move(payloads[i]);
      Slot* slot = &slots[i];
      slot->sent = NowSeconds();
      const ms::Status s = clients[i % kClients]->SendRequest(msg);
      if (traced) log.Add("send", slot->sent, NowSeconds());
      if (!s.ok()) report->Fail("SendRequest: " + s.ToString());
    };
    slots[0].due = NowSeconds();
    send(0, 0.0);
    {
      std::unique_lock<std::mutex> lock(ready_mu);
      ready_cv.wait_for(lock, std::chrono::seconds(5),
                        [&] { return slots[0].replies.load() > 0; });
    }
    if (slots[0].replies.load() == 0) return report->Fail("no first reply");
    setup.push_back(NowSeconds() - t0);
    double round_rss = CurrentRssMb();

    // Traffic.
    const double base = NowSeconds() + 0.005;
    double max_lag = 0.0;
    for (size_t i = 1; i < n; ++i) {
      Slot* slot = &slots[i];
      slot->due = base + arrivals[i - 1];
      SleepUntil(slot->due);
      const double lag = NowSeconds() - slot->due;
      max_lag = std::max(max_lag, lag);
      send(i, std::max(1e-6, kBudget - lag));
    }
    const double drain_until = NowSeconds() + kDrainSeconds;
    while (replied.load() < static_cast<int64_t>(n) && NowSeconds() < drain_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    round_rss = std::max(round_rss, CurrentRssMb());

    // Teardown: clients, then the router tier, then the shards (each
    // SliceServer before its NetServer, so settled replies flush first).
    for (auto& c : clients) c->Close();
    router_net->Stop();
    const ms::net::StatsMsg rstats = router->Snapshot();
    router->Stop();
    for (Shard& shard : shards) {
      shard.server->Stop();
      shard.net->Stop();
    }
    // Calibration, prewarm and the warm-up request ran before the traffic.
    const std::vector<ForwardRecord> traffic = RecordsSince(log, traced_replicas, base);
    records.insert(records.end(), traffic.begin(), traffic.end());

    Counts r;
    std::vector<double> round_latency, round_rates;
    for (size_t i = 0; i < n; ++i) {
      const Slot& slot = slots[i];
      ++r.sent;
      const int replies = slot.replies.load();
      if (replies > 1) report->Fail("duplicate reply to a request");
      if (replies == 0) {
        ++r.unreplied;
        continue;
      }
      const ms::net::ReplyMsg& msg = slot.reply;
      switch (msg.admit) {
        case ms::AdmitResult::kAccepted: break;
        case ms::AdmitResult::kShedQueueFull: ++r.shed; continue;
        default: ++r.rejected; continue;
      }
      switch (msg.outcome) {
        case ms::RequestOutcome::kServed: {
          ++r.served;
          const double latency = slot.replied - slot.due;
          if (i == 0) break;  // the warm-up request is set-up, not traffic.
          if (latency <= kBudget) ++r.good;
          round_latency.push_back(latency * 1e3);
          round_rates.push_back(msg.rate);
          break;
        }
        case ms::RequestOutcome::kExpired: ++r.expired; break;
        case ms::RequestOutcome::kShedStop: ++r.shed; break;
        case ms::RequestOutcome::kFailed: ++r.failed; break;
      }
    }
    if (r.unreplied > 0) report->Fail("requests without a reply");
    if (unknown.load() > 0) report->Fail("replies for unknown ids");
    if (r.sent != r.served + r.shed + r.expired + r.rejected + r.failed + r.unreplied) {
      report->Fail("client ledger does not add up");
    }
    if (rstats.submitted != r.sent || rstats.served != r.served ||
        rstats.shed != r.shed || rstats.expired != r.expired ||
        rstats.rejected != r.rejected || rstats.failed != r.failed) {
      report->Fail("client counts differ from the router's stats");
    }
    if (round_latency.empty()) return report->Fail("nothing served in a round");
    goodput.push_back(r.good / kRoundSeconds);
    p50.push_back(Percentile(round_latency, 50));
    rss.push_back(round_rss);
    p50_by_mode[traced ? 1 : 0].push_back(p50.back());
    std::fprintf(stderr,
                 "wire-light round %d: attainment %.3f, mean rate %.3f, p50 "
                 "%.2f ms, p90 %.2f ms, rss %.0f MiB, failovers %lld, "
                 "generator lag %.1f ms\n",
                 round, static_cast<double>(r.good) / static_cast<double>(r.sent - 1),
                 Mean(round_rates), p50.back(), Percentile(round_latency, 90), rss.back(),
                 static_cast<long long>(router->total_failovers()), max_lag * 1e3);
    sent_total += r.sent - 1;  // the warm-up request is not traffic.
    failed_total += r.failed + r.rejected + r.unreplied;
  }
  report->CountAttempts(sent_total, failed_total);

  if (!args.trace) {
    report->Add("setup_s", Median(setup), "s");
    report->Add("peak_rss_mb", Median(rss), "MiB");
    report->Add("throughput_sps", Median(goodput), "1/s");
    report->Add("latency_p50_ms", Median(p50), "ms");
    return;
  }
  AddModelLayerMetrics(log, records, report);
  SplitMix64 rng(StreamSeed(args.seed, 1u << 20));
  report->Add("models.first_forward_ms", FirstForwardMs(1.0, RandomImages(1, &rng)),
              "ms");
  report->Add("trace.overhead_pct",
              OverheadPct(Mean(p50_by_mode[1]), Mean(p50_by_mode[0])), "%");
  if (!args.trace_path.empty() && !log.WriteChromeTrace(args.trace_path)) {
    report->Fail("cannot write " + args.trace_path);
  }
}

}  // namespace perfbench
