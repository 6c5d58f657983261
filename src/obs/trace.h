// Scoped tracing spans with a per-thread span stack and a chrome://tracing
// compatible JSON dump ("trace_events" format, complete "X" events).
//
//   obs::TraceCollector::Global().Enable();
//   { MS_TRACE_SCOPE("train_epoch"); ... }        // literal name, zero-alloc
//   { obs::TraceSpan span(layer->name()); ... }   // dynamic name
//   obs::TraceCollector::Global().WriteJson("trace.json");
//
// When tracing is disabled a span costs one relaxed atomic load. Event
// storage is bounded (~1M events); beyond that new events are dropped and
// counted in `dropped()`.
#ifndef MODELSLICING_OBS_TRACE_H_
#define MODELSLICING_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace ms {
namespace obs {

struct TraceEvent {
  std::string name;
  int64_t ts_ns = 0;   ///< start, relative to the process trace epoch.
  int64_t dur_ns = 0;
  int tid = 0;         ///< small dense per-thread id (not the OS tid).
  int depth = 0;       ///< span-stack depth at the time of the event.
};

class TraceCollector {
 public:
  TraceCollector() = default;
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(std::string name, int64_t ts_ns, int64_t dur_ns, int depth);
  /// Record under an explicit lane id instead of the calling thread's —
  /// SliceServer lays each settled request on a synthetic lane this way,
  /// so request lanes and worker spans share one chrome-trace file.
  void Record(std::string name, int64_t ts_ns, int64_t dur_ns, int tid,
              int depth);

  std::vector<TraceEvent> Snapshot() const;
  size_t size() const;
  int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  void Clear();

  /// {"traceEvents":[{"name":...,"ph":"X","ts":us,"dur":us,"pid":1,
  ///   "tid":...,"args":{"depth":...}},...]}
  std::string ToChromeJson() const;
  Status WriteJson(const std::string& path) const;

  /// Nanoseconds since the process trace epoch (first use).
  static int64_t NowNanos();
  /// Dense id of the calling thread, assigned on first use.
  static int CurrentThreadId();
  /// Depth of the calling thread's span stack.
  static int CurrentDepth();
  /// Names of the calling thread's open spans, outermost first.
  static std::vector<std::string> CurrentStack();

  static TraceCollector& Global();

 private:
  friend class TraceSpan;

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  size_t max_events_ = 1u << 20;
};

/// First synthetic chrome-trace lane id; real thread ids stay far below
/// it. SliceServer lays request lanes from here up.
constexpr int kRequestLaneTid = 1000;

/// Process-wide toggle for request-stage stamping (DESIGN.md §8). Off
/// (the default), every stamp site costs one relaxed atomic load — the
/// overhead gate in bench_server_throughput holds it to that.
void EnableStageStats(bool on);
bool StageStatsEnabled();

/// TraceCollector::NowNanos() when stage stats are enabled; 0 when
/// disabled. Callers treat 0 as "not stamped".
int64_t StageNowNanos();

/// \brief RAII span: records one complete event on destruction when the
/// global collector is enabled at construction time.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  explicit TraceSpan(std::string name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Open();
  std::string name_;
  int64_t start_ns_ = -1;  ///< -1: tracing was off, span is a no-op.
};

}  // namespace obs
}  // namespace ms

#define MS_OBS_CONCAT_INNER_(a, b) a##b
#define MS_OBS_CONCAT_(a, b) MS_OBS_CONCAT_INNER_(a, b)
/// Traces the enclosing scope under `name` (any string expression).
#define MS_TRACE_SCOPE(name) \
  ::ms::obs::TraceSpan MS_OBS_CONCAT_(ms_trace_span_, __LINE__)(name)

#endif  // MODELSLICING_OBS_TRACE_H_
