// Tests for the serving flight recorder (DESIGN.md §8): the lock-free ring
// keeps events in sequence order, wraps keeping the most recent, records
// nothing when disabled, survives concurrent writers, and dumps valid JSONL
// on Trip(). The chaos test at the bottom is the black-box contract: with
// server.forward.nan injected, the PR-5 quarantine machinery trips the
// recorder and the dump shows the quarantine preceded by the scheduler
// decisions that led up to it — the post-mortem the recorder exists for.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/models/mlp.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/serving/server.h"
#include "src/util/fault.h"
#include "tests/minijson_test_util.h"

namespace ms {
namespace {

using obs::FlightEvent;
using obs::FlightEventKind;
using obs::FlightRecorder;

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

ServerOptions ChaosOptions() {
  ServerOptions opts;
  opts.serving.latency_budget = 0.02;
  opts.serving.full_sample_time = 1.0;
  opts.serving.lattice = SliceConfig::Make(0.25, 0.25).MoveValueOrDie();
  opts.max_queue = 256;
  opts.sample_shape = {8};
  opts.calibration_batch = 4;
  opts.calibration_repeats = 2;
  opts.health.watchdog_min_seconds = 0.03;
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

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& reg = fault::Registry::Global();
    reg.DisarmAll();
    reg.SetSeed(7);
    FlightRecorder::Global().Disable();
    FlightRecorder::Global().Clear();
  }
  void TearDown() override {
    fault::Registry::Global().DisarmAll();
    FlightRecorder::Global().Disable();
    FlightRecorder::Global().Clear();
  }
};

TEST_F(FlightRecorderTest, RecordsInSequenceOrderWithPayloads) {
  FlightRecorder rec(16);
  rec.EnableRecording();
  rec.Record(FlightEventKind::kAdmission, "accepted", /*a=*/7);
  rec.Record(FlightEventKind::kDecision, "", /*a=*/1, /*b=*/4, /*x=*/0.5,
             /*y=*/0.001);
  rec.Record(FlightEventKind::kServe, "", /*a=*/1, /*b=*/4, /*x=*/0.5,
             /*y=*/0.0009);
  EXPECT_EQ(rec.recorded(), 3);

  const std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
    EXPECT_GT(events[i].ts_ns, 0);
  }
  EXPECT_EQ(events[0].kind, FlightEventKind::kAdmission);
  EXPECT_STREQ(events[0].detail, "accepted");
  EXPECT_EQ(events[0].a, 7);
  EXPECT_EQ(events[1].kind, FlightEventKind::kDecision);
  EXPECT_EQ(events[1].b, 4);
  EXPECT_DOUBLE_EQ(events[1].x, 0.5);
  EXPECT_DOUBLE_EQ(events[1].y, 0.001);
  EXPECT_EQ(events[2].kind, FlightEventKind::kServe);
}

TEST_F(FlightRecorderTest, WrapsKeepingTheMostRecentEvents) {
  FlightRecorder rec(8);
  rec.EnableRecording();
  for (int64_t i = 1; i <= 20; ++i) {
    rec.Record(FlightEventKind::kMark, "wrap", /*a=*/i);
  }
  EXPECT_EQ(rec.recorded(), 20);
  const std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The ring holds exactly the last 8: seqs 13..20, oldest first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 13 + i);
    EXPECT_EQ(events[i].a, static_cast<int64_t>(13 + i));
  }
}

TEST_F(FlightRecorderTest, DisabledRecordsNothing) {
  FlightRecorder rec(8);
  rec.Record(FlightEventKind::kMark, "dropped");
  EXPECT_EQ(rec.recorded(), 0);
  EXPECT_TRUE(rec.Snapshot().empty());
  rec.EnableRecording();
  rec.Record(FlightEventKind::kMark, "kept");
  rec.Disable();
  rec.Record(FlightEventKind::kMark, "dropped again");
  EXPECT_EQ(rec.recorded(), 1);
  const std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].detail, "kept");
}

TEST_F(FlightRecorderTest, ClearEmptiesTheRing) {
  FlightRecorder rec(8);
  rec.EnableRecording();
  rec.Record(FlightEventKind::kMark, "x");
  rec.Record(FlightEventKind::kMark, "y");
  rec.Clear();
  EXPECT_EQ(rec.recorded(), 0);
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST_F(FlightRecorderTest, ConcurrentWritersNeverTearOrLoseSequence) {
  FlightRecorder rec(64);
  rec.EnableRecording();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.Record(FlightEventKind::kMark, "race", /*a=*/t, /*b=*/i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(rec.recorded(), kThreads * kPerThread);
  const std::vector<FlightEvent> events = rec.Snapshot();
  // Writers are done, so every slot is settled: a full ring of the last 64
  // sequence numbers, strictly increasing.
  ASSERT_EQ(events.size(), 64u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq,
              static_cast<uint64_t>(kThreads * kPerThread - 63) + i);
    EXPECT_GE(events[i].a, 0);
    EXPECT_LT(events[i].a, kThreads);
    EXPECT_GE(events[i].b, 0);
    EXPECT_LT(events[i].b, kPerThread);
  }
}

TEST_F(FlightRecorderTest, DumpToWritesMetaLinePlusValidEventLines) {
  FlightRecorder rec(8);
  rec.EnableRecording();
  rec.Record(FlightEventKind::kQuarantine, "non-finite output", /*a=*/1,
             /*b=*/0);
  rec.Record(FlightEventKind::kRepair, "", /*a=*/1);
  // Trip and kMark details are caller strings: quotes, backslashes and
  // control characters must be escaped, not written raw.
  rec.Trip("operator said \"stop\" at C:\\serving\n");
  const std::string path =
      std::string(::testing::TempDir()) + "/flight_dump_test.jsonl";
  ASSERT_TRUE(rec.DumpTo(path).ok());

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 4u);  // meta + 3 events
  EXPECT_NE(lines[0].find("\"type\":\"meta\""), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_TRUE(testing::IsValidJson(line)) << line;
  }
  EXPECT_NE(lines[1].find("\"kind\":\"quarantine\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\":\"repair\""), std::string::npos);
  EXPECT_NE(lines[3].find(
                "\"detail\":\"operator said \\\"stop\\\" at C:\\\\serving\\n\""),
            std::string::npos)
      << lines[3];
}

TEST_F(FlightRecorderTest, TripWithoutArmedDumpsOnlyCounts) {
  FlightRecorder rec(8);
  rec.EnableRecording();
  EXPECT_EQ(rec.Trip("unit"), "");
  EXPECT_EQ(rec.trips(), 1);
  EXPECT_EQ(rec.dumps_written(), 0);
  // The trip itself is recorded as a mark, so the next dump shows it.
  const std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kMark);
  EXPECT_STREQ(events[0].detail, "unit");
}

TEST_F(FlightRecorderTest, ArmedTripsWriteDumpsUpToMaxDumps) {
  FlightRecorder rec(8);
  const std::string dir =
      std::string(::testing::TempDir()) + "/fr_local_dumps";
  ASSERT_TRUE(rec.ConfigureDumps(dir, /*max_dumps=*/2).ok());
  EXPECT_TRUE(rec.enabled());  // ConfigureDumps arms recording too
  rec.Record(FlightEventKind::kMark, "before trip");

  const std::string first = rec.Trip("unit reason");  // sanitised in name
  ASSERT_FALSE(first.empty());
  EXPECT_TRUE(std::filesystem::exists(first));
  EXPECT_EQ(rec.last_dump_path(), first);
  for (const std::string& line : ReadLines(first)) {
    EXPECT_TRUE(testing::IsValidJson(line)) << line;
  }

  EXPECT_FALSE(rec.Trip("again").empty());
  EXPECT_EQ(rec.Trip("over budget"), "");  // max_dumps=2 reached
  EXPECT_EQ(rec.trips(), 3);
  EXPECT_EQ(rec.dumps_written(), 2);
}

// The black-box contract: a poisoned forward trips the health machinery and
// the flight dump reconstructs the lead-up — the quarantine event preceded
// by at least one scheduler decision for the doomed batch.
TEST_F(FlightRecorderTest, QuarantineTripDumpsDecisionsLeadingUpToIt) {
  auto& flight = FlightRecorder::Global();
  const std::string dir =
      std::string(::testing::TempDir()) + "/fr_chaos_dumps";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(flight.ConfigureDumps(dir, /*max_dumps=*/4).ok());
  const int64_t dumps_before = flight.dumps_written();

  auto server =
      SliceServer::Create(MakeReplicas(2), ChaosOptions()).MoveValueOrDie();
  ASSERT_TRUE(server->Start().ok());
  // Arm after Start so calibration forwards stay clean, as in the chaos
  // suite; every serving forward then emits NaN until disarmed.
  fault::Registry::Global().Arm(fault::kForwardNan, 1.0);
  for (int i = 0; i < 4; ++i) server->Submit();
  ASSERT_TRUE(WaitFor([&] { return server->stats().quarantined >= 1; },
                      /*timeout_ms=*/20000));
  fault::Registry::Global().DisarmAll();
  server->Stop();

  EXPECT_GE(flight.trips(), 1);
  ASSERT_GT(flight.dumps_written(), dumps_before);
  const std::string dump = flight.last_dump_path();
  ASSERT_FALSE(dump.empty());
  ASSERT_TRUE(std::filesystem::exists(dump));

  const std::vector<std::string> lines = ReadLines(dump);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\":\"meta\""), std::string::npos);
  int first_decision = -1;
  int first_quarantine = -1;
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_TRUE(testing::IsValidJson(lines[i])) << lines[i];
    if (first_decision < 0 &&
        lines[i].find("\"kind\":\"decision\"") != std::string::npos) {
      first_decision = static_cast<int>(i);
    }
    if (first_quarantine < 0 &&
        lines[i].find("\"kind\":\"quarantine\"") != std::string::npos) {
      first_quarantine = static_cast<int>(i);
    }
  }
  ASSERT_GE(first_quarantine, 0) << "dump has no quarantine event";
  ASSERT_GE(first_decision, 0) << "dump has no scheduler decision";
  EXPECT_LT(first_decision, first_quarantine)
      << "no decision precedes the quarantine";
  // The injected fault itself is on the tape too.
  bool has_fault_fire = false;
  for (const std::string& line : lines) {
    if (line.find("\"kind\":\"fault_fire\"") != std::string::npos) {
      has_fault_fire = true;
      break;
    }
  }
  EXPECT_TRUE(has_fault_fire);
  EXPECT_GE(
      obs::MetricsRegistry::Global()
          .GetCounter("ms_flight_recorder_dumps_total")
          ->value(),
      1);
}

}  // namespace
}  // namespace ms
