#include "src/obs/trace.h"

#include <chrono>
#include <sstream>

#include "src/obs/metrics.h"
#include "src/util/string_util.h"

namespace ms {
namespace obs {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point TraceEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::atomic<int>& ThreadCounter() {
  static std::atomic<int> counter{0};
  return counter;
}

// Per-thread stack of open span names (pointers into the live TraceSpan
// objects, valid while the span is open).
thread_local std::vector<const std::string*> t_span_stack;

std::atomic<bool> g_stage_stats{false};

}  // namespace

int64_t TraceCollector::NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              TraceEpoch())
      .count();
}

int TraceCollector::CurrentThreadId() {
  thread_local const int id = ThreadCounter().fetch_add(1);
  return id;
}

int TraceCollector::CurrentDepth() {
  return static_cast<int>(t_span_stack.size());
}

std::vector<std::string> TraceCollector::CurrentStack() {
  std::vector<std::string> names;
  names.reserve(t_span_stack.size());
  for (const std::string* name : t_span_stack) names.push_back(*name);
  return names;
}

void TraceCollector::Record(std::string name, int64_t ts_ns, int64_t dur_ns,
                            int depth) {
  Record(std::move(name), ts_ns, dur_ns, CurrentThreadId(), depth);
}

void TraceCollector::Record(std::string name, int64_t ts_ns, int64_t dur_ns,
                            int tid, int depth) {
  TraceEvent event;
  event.name = std::move(name);
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  event.tid = tid;
  event.depth = depth;
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= max_events_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t TraceCollector::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceCollector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string TraceCollector::ToChromeJson() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << JsonEscape(e.name) << "\",\"ph\":\"X\",\"cat\":"
       << "\"ms\",\"pid\":1,\"tid\":" << e.tid
       << ",\"ts\":" << StrFormat("%.3f", e.ts_ns / 1e3)
       << ",\"dur\":" << StrFormat("%.3f", e.dur_ns / 1e3)
       << ",\"args\":{\"depth\":" << e.depth << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

Status TraceCollector::WriteJson(const std::string& path) const {
  return WriteTextFile(path, ToChromeJson());
}

TraceCollector& TraceCollector::Global() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

void EnableStageStats(bool on) {
  g_stage_stats.store(on, std::memory_order_relaxed);
}

bool StageStatsEnabled() {
  return g_stage_stats.load(std::memory_order_relaxed);
}

int64_t StageNowNanos() {
  if (!g_stage_stats.load(std::memory_order_relaxed)) return 0;
  return TraceCollector::NowNanos();
}

TraceSpan::TraceSpan(const char* name) : name_(name) { Open(); }

TraceSpan::TraceSpan(std::string name) : name_(std::move(name)) { Open(); }

void TraceSpan::Open() {
  if (!TraceCollector::Global().enabled()) return;
  t_span_stack.push_back(&name_);
  start_ns_ = TraceCollector::NowNanos();
}

TraceSpan::~TraceSpan() {
  if (start_ns_ < 0) return;
  const int64_t end_ns = TraceCollector::NowNanos();
  t_span_stack.pop_back();
  TraceCollector::Global().Record(std::move(name_), start_ns_,
                                  end_ns - start_ns_,
                                  static_cast<int>(t_span_stack.size()));
}

}  // namespace obs
}  // namespace ms
