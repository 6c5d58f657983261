// Tests for request-lifecycle tracing (DESIGN.md §8), read back from the
// trace collector the server writes request lanes into: served lanes carry
// the five stage spans in stage order, each starting where the previous one
// ended; every stage span nests inside its request span; the stage sums
// reconcile with the request span (within the 5% contract; exact by
// construction, since the stages tile [submit, fwd_done]); expired requests
// get lanes without forward spans; served requests land in the
// ms_server_stage_*_ms histograms; and with stamping off nothing is
// recorded at all.
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/models/mlp.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serving/server.h"
#include "src/util/fault.h"
#include "tests/minijson_test_util.h"

namespace ms {
namespace {

constexpr const char* kStages[] = {"queue_wait", "batch_form", "schedule",
                                   "dispatch", "forward"};

std::vector<std::unique_ptr<Module>> MakeReplicas(int n) {
  MlpConfig cfg;
  cfg.in_features = 8;
  cfg.hidden = {16};
  cfg.num_classes = 4;
  cfg.slice_groups = 4;
  cfg.seed = 11;
  std::vector<std::unique_ptr<Module>> replicas;
  for (int i = 0; i < n; ++i) {
    replicas.push_back(MakeMlp(cfg).MoveValueOrDie());
  }
  return replicas;
}

ServerOptions TraceOptions() {
  ServerOptions opts;
  opts.serving.latency_budget = 0.02;  // 10ms batching tick.
  opts.serving.full_sample_time = 1.0;  // replaced by calibration.
  opts.serving.lattice = SliceConfig::Make(0.25, 0.25).MoveValueOrDie();
  opts.max_queue = 256;
  opts.sample_shape = {8};
  opts.calibration_batch = 4;
  opts.calibration_repeats = 2;
  return opts;
}

template <typename Fn>
bool WaitFor(Fn&& done, int timeout_ms) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

/// The request lanes in the global collector: request spans (depth 0) and
/// stage spans (depth 1) on the synthetic tids, grouped by lane.
struct Lanes {
  std::vector<obs::TraceEvent> requests;
  std::map<int, std::vector<obs::TraceEvent>> stages_by_tid;
};

Lanes ReadLanes() {
  Lanes lanes;
  for (const obs::TraceEvent& e : obs::TraceCollector::Global().Snapshot()) {
    if (e.tid < obs::kRequestLaneTid) continue;  // a real thread's span
    if (e.depth == 0) {
      lanes.requests.push_back(e);
    } else {
      lanes.stages_by_tid[e.tid].push_back(e);
    }
  }
  return lanes;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The stage span named `name` on `request`'s lane that starts at `ts_ns`
/// and ends inside the request span, or nullptr. Requests of one batch can
/// share a lane; their batch-shared stage spans are then identical, so any
/// match is the right one.
const obs::TraceEvent* FindStage(const Lanes& lanes,
                                 const obs::TraceEvent& request,
                                 const std::string& name, int64_t ts_ns) {
  auto it = lanes.stages_by_tid.find(request.tid);
  if (it == lanes.stages_by_tid.end()) return nullptr;
  for (const obs::TraceEvent& e : it->second) {
    if (e.name == name && e.ts_ns == ts_ns &&
        e.ts_ns + e.dur_ns <= request.ts_ns + request.dur_ns) {
      return &e;
    }
  }
  return nullptr;
}

class RequestTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& reg = fault::Registry::Global();
    reg.DisarmAll();
    reg.SetSeed(7);
    // Reset BEFORE creating any server: SliceServer caches its stage
    // histogram pointers at construction and Reset() invalidates them.
    obs::MetricsRegistry::Global().Reset();
    obs::TraceCollector::Global().Clear();
    obs::TraceCollector::Global().Enable();
    obs::EnableStageStats(false);
  }
  void TearDown() override {
    fault::Registry::Global().DisarmAll();
    obs::TraceCollector::Global().Disable();
    obs::TraceCollector::Global().Clear();
    obs::EnableStageStats(false);
  }

  /// Starts a server, serves `n` no-deadline requests to completion, stops
  /// it and returns it (stats remain readable).
  std::unique_ptr<SliceServer> ServeRequests(int n) {
    auto server =
        SliceServer::Create(MakeReplicas(2), TraceOptions()).MoveValueOrDie();
    EXPECT_TRUE(server->Start().ok());
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(server->Submit(), AdmitResult::kAccepted);
    }
    EXPECT_TRUE(WaitFor([&] { return server->stats().served >= n; },
                        /*timeout_ms=*/20000));
    server->Stop();
    return server;
  }
};

TEST_F(RequestTraceTest, StageNowNanosIsZeroWhenDisabled) {
  obs::EnableStageStats(false);
  EXPECT_EQ(obs::StageNowNanos(), 0);
  obs::EnableStageStats(true);
  const int64_t a = obs::StageNowNanos();
  const int64_t b = obs::StageNowNanos();
  EXPECT_GT(a, 0);
  EXPECT_GE(b, a);
  obs::EnableStageStats(false);
  EXPECT_EQ(obs::StageNowNanos(), 0);
}

TEST_F(RequestTraceTest, ServedLanesAreMonotoneAndStagesReconcile) {
  obs::EnableStageStats(true);
  const int kRequests = 32;
  auto server = ServeRequests(kRequests);
  EXPECT_EQ(server->stats().served, kRequests);

  const Lanes lanes = ReadLanes();
  int served = 0;
  for (const obs::TraceEvent& req : lanes.requests) {
    ASSERT_EQ(req.name.rfind("req ", 0), 0u) << req.name;
    if (!HasSuffix(req.name, " served")) continue;
    ++served;
    EXPECT_GT(req.ts_ns, 0) << req.name;
    ASSERT_GT(req.dur_ns, 0) << req.name;
    // Full stage ladder in order, each stage starting where the previous
    // one ended: the lane is monotone and the stages tile the span.
    int64_t cursor = req.ts_ns;
    int64_t sum = 0;
    for (const char* stage : kStages) {
      const obs::TraceEvent* e = FindStage(lanes, req, stage, cursor);
      ASSERT_NE(e, nullptr) << req.name << " has no '" << stage
                            << "' span starting at " << cursor;
      EXPECT_GE(e->dur_ns, 0);
      cursor = e->ts_ns + e->dur_ns;
      sum += e->dur_ns;
    }
    EXPECT_EQ(cursor, req.ts_ns + req.dur_ns) << req.name;
    const double total = static_cast<double>(req.dur_ns);
    EXPECT_LE(std::abs(static_cast<double>(sum) - total) / total, 0.05)
        << req.name << " sum=" << sum << " total=" << total;
  }
  EXPECT_EQ(served, kRequests);

  // Every served request contributed one sample to every stage histogram.
  auto& reg = obs::MetricsRegistry::Global();
  for (const char* stage :
       {"queue_wait", "batch_form", "schedule", "dispatch", "forward",
        "total"}) {
    obs::Histogram* h = reg.GetHistogram(std::string("ms_server_stage_") +
                                         stage + "_ms");
    EXPECT_EQ(h->count(), kRequests) << "stage=" << stage;
  }
}

TEST_F(RequestTraceTest, StageSpansNestInsideTheirRequestSpans) {
  obs::EnableStageStats(true);
  const int kRequests = 12;
  auto server = ServeRequests(kRequests);

  const Lanes lanes = ReadLanes();
  ASSERT_EQ(lanes.requests.size(), static_cast<size_t>(kRequests));
  std::map<int, std::vector<obs::TraceEvent>> requests_by_tid;
  for (const obs::TraceEvent& req : lanes.requests) {
    requests_by_tid[req.tid].push_back(req);
  }
  int stages = 0;
  for (const auto& [tid, spans] : lanes.stages_by_tid) {
    for (const obs::TraceEvent& e : spans) {
      ++stages;
      EXPECT_EQ(e.depth, 1);
      bool nested = false;
      for (const obs::TraceEvent& req : requests_by_tid[tid]) {
        if (e.ts_ns >= req.ts_ns &&
            e.ts_ns + e.dur_ns <= req.ts_ns + req.dur_ns) {
          nested = true;
          break;
        }
      }
      EXPECT_TRUE(nested) << "stage span '" << e.name
                          << "' escapes its request span";
    }
  }
  EXPECT_EQ(stages, kRequests * 5);
  EXPECT_TRUE(
      testing::IsValidJson(obs::TraceCollector::Global().ToChromeJson()));
}

TEST_F(RequestTraceTest, ExpiredRequestsGetLanesWithoutForwardSpans) {
  obs::EnableStageStats(true);
  auto server =
      SliceServer::Create(MakeReplicas(2), TraceOptions()).MoveValueOrDie();
  ASSERT_TRUE(server->Start().ok());
  // 1 microsecond deadline: long expired by the 10ms batch cut.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(server->Submit(/*deadline_seconds=*/1e-6),
              AdmitResult::kAccepted);
  }
  ASSERT_TRUE(WaitFor([&] { return server->stats().expired >= 4; },
                      /*timeout_ms=*/20000));
  server->Stop();

  const Lanes lanes = ReadLanes();
  int expired = 0;
  for (const obs::TraceEvent& req : lanes.requests) {
    if (!HasSuffix(req.name, " expired")) continue;
    ++expired;
    EXPECT_GT(req.ts_ns, 0);
    EXPECT_GE(req.dur_ns, 0);
  }
  EXPECT_EQ(expired, 4);
  // Never reached a worker: no lane carries a dispatch or forward span.
  for (const auto& [tid, spans] : lanes.stages_by_tid) {
    for (const obs::TraceEvent& e : spans) {
      EXPECT_NE(e.name, "forward");
      EXPECT_NE(e.name, "dispatch");
    }
  }
  // No expired request may appear in the stage histograms.
  obs::Histogram* total =
      obs::MetricsRegistry::Global().GetHistogram("ms_server_stage_total_ms");
  EXPECT_EQ(total->count(), 0);
}

TEST_F(RequestTraceTest, DisabledStampingRecordsNothing) {
  // Fixture default: stage stats off, even though the collector is on.
  auto server = ServeRequests(8);
  EXPECT_EQ(server->stats().served, 8);
  const Lanes lanes = ReadLanes();
  EXPECT_TRUE(lanes.requests.empty());
  EXPECT_TRUE(lanes.stages_by_tid.empty());
  obs::Histogram* total =
      obs::MetricsRegistry::Global().GetHistogram("ms_server_stage_total_ms");
  EXPECT_EQ(total->count(), 0);
}

}  // namespace
}  // namespace ms
