// Black-box flight recorder for the serving path (DESIGN.md §8).
//
// A fixed-size lock-free ring of the most recent serving events — refused
// admissions, scheduler decisions, serves, retries, failures, fault fires,
// health transitions. It is also the scheduler's record: a kDecision and
// the kServe with the same batch id pair Eq. 3's predicted seconds with the
// achieved ones. It records continuously at negligible cost and is dumped
// automatically ("tripped") the moment the self-healing machinery
// fires: replica quarantine, circuit-breaker open, or a watchdog
// reschedule. The dump is a timestamped JSONL file holding the last N
// events before the trip, so post-mortems can see what the server was doing
// right before it got sick without any tracing having been enabled.
//
//   obs::FlightRecorder::Global().ConfigureDumps("flight/");  // arm dumps
//   ... serve ...                                             // ring fills
//   // SliceServer quarantines a replica -> flight-<reason>-*.jsonl appears.
//
// Writers are wait-free (one fetch_add to claim a slot + relaxed payload
// stores, seqlock-style); when recording is disabled each Record() call is
// a single relaxed atomic load. Event payloads are a fixed struct — two
// int64 operands + two doubles + a pointer to a STATIC string — so
// recording never allocates.
#ifndef MODELSLICING_OBS_FLIGHT_RECORDER_H_
#define MODELSLICING_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace ms {
namespace obs {

enum class FlightEventKind : int {
  kAdmission = 0,   ///< request shed or rejected; detail = why.
  kDecision,        ///< batch scheduled; a = batch, b = n, x = rate, y = predicted s.
  kServe,           ///< batch served; a = batch, b = n, x = rate, y = achieved s.
  kRetry,           ///< batch attempt failed, retrying; a = batch, b = attempt.
  kFail,            ///< batch failed terminally; a = batch, b = n.
  kQuarantine,      ///< replica quarantined; a = replica, b = worker.
  kRepair,          ///< replica repaired/readmitted; a = replica.
  kBreakerOpen,     ///< circuit breaker opened.
  kBreakerClose,    ///< circuit breaker closed again.
  kWatchdog,        ///< watchdog rescheduled a stalled batch; a = batch.
  kFaultFire,       ///< fault injection fired; detail = point name.
  kMark,            ///< free-form marker (tests, embedders).
  kShardDown,       ///< router drained a backend shard; a = shard index.
  kShardReadmit,    ///< router readmitted a shard after probe; a = shard.
  kRequestTimeout,  ///< router timer settled a request; a = id, b = shard.
  kFailover,        ///< attempt re-routed; a = id, b = new shard.
  kHedge,           ///< speculative duplicate; a = id, b = hedge shard.
};

/// Stable lowercase name for JSONL export ("admission", "decision", ...).
const char* FlightEventKindName(FlightEventKind kind);

/// One ring slot's payload. `detail` MUST point at storage that outlives
/// the recorder (string literals, fault-point names).
struct FlightEvent {
  uint64_t seq = 0;  ///< 1-based global sequence number.
  int64_t ts_ns = 0;
  FlightEventKind kind = FlightEventKind::kMark;
  const char* detail = "";
  int64_t a = 0;
  int64_t b = 0;
  double x = 0.0;
  double y = 0.0;
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Start recording into the ring (no dumps unless ConfigureDumps too).
  void EnableRecording();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Creates `dir`, enables recording, and arms automatic dumps: every
  /// Trip() writes a `flight-<reason>-<n>-<stamp>.jsonl` file into `dir`,
  /// up to `max_dumps` files per process (then trips only count).
  Status ConfigureDumps(const std::string& dir, int max_dumps = 16);

  /// Wait-free when enabled; one relaxed load when disabled.
  void Record(FlightEventKind kind, const char* detail, int64_t a = 0,
              int64_t b = 0, double x = 0.0, double y = 0.0);

  /// The ring's current contents in sequence order (oldest first). Slots
  /// mid-write by a racing producer are skipped.
  std::vector<FlightEvent> Snapshot() const;

  /// Health machinery calls this when something trips (quarantine, breaker
  /// open, watchdog). Records the trip, bumps ms_flight_recorder_trips_total
  /// and, if dumps are armed and under max_dumps, writes the ring snapshot
  /// to a new JSONL file. Returns the dump path ("" if none written).
  std::string Trip(const char* reason);

  /// Writes the current snapshot as JSONL: a {"type":"meta",...} header
  /// line then one {"type":"event",...} line per ring entry.
  Status DumpTo(const std::string& path) const;

  void Clear();

  int64_t recorded() const {
    return static_cast<int64_t>(next_seq_.load(std::memory_order_relaxed));
  }
  int64_t trips() const { return trips_.load(std::memory_order_relaxed); }
  int64_t dumps_written() const {
    return dumps_written_.load(std::memory_order_relaxed);
  }
  std::string last_dump_path() const;
  size_t capacity() const { return capacity_; }

  static FlightRecorder& Global();

 private:
  // Seqlock-style slot: writer stores payload with relaxed order then
  // publishes `seq` with release; reader loads `seq` (acquire), copies the
  // payload, and re-checks `seq` to detect a torn read. All fields are
  // atomics so concurrent overwrite is a data-race-free torn read that the
  // seq re-check discards.
  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< 0 = never written.
    std::atomic<int64_t> ts_ns{0};
    std::atomic<int> kind{0};
    std::atomic<const char*> detail{""};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<double> x{0.0};
    std::atomic<double> y{0.0};
  };

  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<int64_t> trips_{0};
  std::atomic<int64_t> dumps_written_{0};

  mutable std::mutex dump_mu_;  ///< serialises Trip() dump writes.
  bool dumps_armed_ = false;
  int max_dumps_ = 16;
  std::string dump_dir_;
  std::string last_dump_path_;
};

}  // namespace obs
}  // namespace ms

#endif  // MODELSLICING_OBS_FLIGHT_RECORDER_H_
