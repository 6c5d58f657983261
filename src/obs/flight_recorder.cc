#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/string_util.h"

namespace ms {
namespace obs {

namespace {

// Filesystem-safe version of a trip reason ("breaker open" -> "breaker_open").
std::string SanitizeReason(const char* reason) {
  std::string out;
  for (const char* p = reason; *p != '\0' && out.size() < 48; ++p) {
    const char c = *p;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? std::string("trip") : out;
}

int64_t WallClockMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void AppendEventJson(std::ostringstream& os, const FlightEvent& e) {
  os << "{\"type\":\"event\",\"seq\":" << e.seq << ",\"ts_ns\":" << e.ts_ns
     << ",\"kind\":\"" << FlightEventKindName(e.kind) << "\",\"detail\":\""
     << JsonEscape(e.detail) << "\",\"a\":" << e.a << ",\"b\":" << e.b
     << ",\"x\":" << StrFormat("%g", e.x) << ",\"y\":" << StrFormat("%g", e.y)
     << "}\n";
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kAdmission: return "admission";
    case FlightEventKind::kDecision: return "decision";
    case FlightEventKind::kServe: return "serve";
    case FlightEventKind::kRetry: return "retry";
    case FlightEventKind::kFail: return "fail";
    case FlightEventKind::kQuarantine: return "quarantine";
    case FlightEventKind::kRepair: return "repair";
    case FlightEventKind::kBreakerOpen: return "breaker_open";
    case FlightEventKind::kBreakerClose: return "breaker_close";
    case FlightEventKind::kWatchdog: return "watchdog";
    case FlightEventKind::kFaultFire: return "fault_fire";
    case FlightEventKind::kMark: return "mark";
    case FlightEventKind::kShardDown: return "shard_down";
    case FlightEventKind::kShardReadmit: return "shard_readmit";
    case FlightEventKind::kRequestTimeout: return "request_timeout";
    case FlightEventKind::kFailover: return "failover";
    case FlightEventKind::kHedge: return "hedge";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 2)),
      slots_(new Slot[std::max<size_t>(capacity, 2)]) {}

void FlightRecorder::EnableRecording() {
  enabled_.store(true, std::memory_order_relaxed);
}

void FlightRecorder::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

Status FlightRecorder::ConfigureDumps(const std::string& dir, int max_dumps) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create flight recorder dir: " + dir + ": " +
                           ec.message());
  }
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    dump_dir_ = dir;
    max_dumps_ = max_dumps;
    dumps_armed_ = true;
  }
  EnableRecording();
  return Status::OK();
}

void FlightRecorder::Record(FlightEventKind kind, const char* detail,
                            int64_t a, int64_t b, double x, double y) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(seq - 1) % capacity_];
  slot.ts_ns.store(TraceCollector::NowNanos(), std::memory_order_relaxed);
  slot.kind.store(static_cast<int>(kind), std::memory_order_relaxed);
  slot.detail.store(detail != nullptr ? detail : "",
                    std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.x.store(x, std::memory_order_relaxed);
  slot.y.store(y, std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> events;
  events.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    for (int tries = 0; tries < 4; ++tries) {
      const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
      if (seq_before == 0) break;  // never written
      FlightEvent e;
      e.seq = seq_before;
      e.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      e.kind =
          static_cast<FlightEventKind>(slot.kind.load(std::memory_order_relaxed));
      e.detail = slot.detail.load(std::memory_order_relaxed);
      e.a = slot.a.load(std::memory_order_relaxed);
      e.b = slot.b.load(std::memory_order_relaxed);
      e.x = slot.x.load(std::memory_order_relaxed);
      e.y = slot.y.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) == seq_before) {
        events.push_back(e);
        break;  // consistent read
      }
      // Torn by a racing writer; retry (the slot settles in one rewrite).
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return events;
}

std::string FlightRecorder::Trip(const char* reason) {
  trips_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global()
      .GetCounter("ms_flight_recorder_trips_total")
      ->Inc();
  Record(FlightEventKind::kMark, reason);
  std::lock_guard<std::mutex> lock(dump_mu_);
  if (!dumps_armed_) return "";
  if (dumps_written_.load(std::memory_order_relaxed) >= max_dumps_) return "";
  const std::string path = StrFormat(
      "%s/flight-%s-%03lld-%lld.jsonl", dump_dir_.c_str(),
      SanitizeReason(reason).c_str(),
      static_cast<long long>(dumps_written_.load(std::memory_order_relaxed)),
      static_cast<long long>(WallClockMillis()));
  const Status status = DumpTo(path);
  if (!status.ok()) return "";
  dumps_written_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global()
      .GetCounter("ms_flight_recorder_dumps_total")
      ->Inc();
  last_dump_path_ = path;
  return path;
}

Status FlightRecorder::DumpTo(const std::string& path) const {
  const std::vector<FlightEvent> events = Snapshot();
  std::ostringstream os;
  os << "{\"type\":\"meta\",\"capacity\":" << capacity_
     << ",\"recorded\":" << recorded() << ",\"events\":" << events.size()
     << ",\"wall_ms\":" << WallClockMillis() << "}\n";
  for (const FlightEvent& e : events) AppendEventJson(os, e);
  return WriteTextFile(path, os.str());
}

void FlightRecorder::Clear() {
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
  }
  next_seq_.store(0, std::memory_order_relaxed);
}

std::string FlightRecorder::last_dump_path() const {
  std::lock_guard<std::mutex> lock(dump_mu_);
  return last_dump_path_;
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

}  // namespace obs
}  // namespace ms
