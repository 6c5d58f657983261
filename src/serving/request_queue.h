// Request admission queue for the serving engine: a bounded MPMC buffer of
// deadline-carrying requests plus the batch-cut operation the T/2 batcher
// performs each tick. Expiry is evaluated lazily at cut time (a request that
// outlives its deadline while queued is dropped the next time the batcher
// looks at it), which keeps Submit wait-free apart from one mutex.
#ifndef MODELSLICING_SERVING_REQUEST_QUEUE_H_
#define MODELSLICING_SERVING_REQUEST_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/util/bounded_queue.h"

namespace ms {

/// Terminal fate of an ACCEPTED request (admission-time sheds/rejects are
/// reported synchronously as the AdmitResult below and never reach a
/// terminal outcome). The numeric values are part of the wire protocol
/// (src/net/wire.h) — append, never renumber.
enum class RequestOutcome : uint8_t {
  kServed = 0,    ///< ran through a clean Forward at `rate`.
  kExpired = 1,   ///< deadline passed before execution.
  kShedStop = 2,  ///< still queued when the server drained at Stop().
  kFailed = 3,    ///< batch failed terminally (throw/poison after retry).
};

/// Lowercase outcome name ("served", "expired", "shed", "failed"); names
/// the request lanes in the chrome trace.
const char* RequestOutcomeName(RequestOutcome outcome);

/// Per-request completion hook, invoked exactly once when an accepted
/// request settles. Runs on a batcher or worker thread — keep it quick and
/// never call back into the server from it. `rate` is the slice rate a
/// served request ran at (0 for the other outcomes).
using RequestDoneFn = std::function<void(RequestOutcome outcome, double rate)>;

/// \brief One queued inference request. Requests carry no payload: the
/// server materializes the batch input tensor itself (every sample has the
/// configured shape, and cost depends only on shape and slice rate).
struct Request {
  using Clock = std::chrono::steady_clock;

  int64_t id = 0;
  Clock::time_point enqueued;
  /// Absolute expiry; Clock::time_point::max() means "no deadline".
  Clock::time_point deadline = Clock::time_point::max();
  /// Submit stamp on the trace clock (obs::StageNowNanos); 0 when stage
  /// stats are disabled. Admission happens inside Submit, so this one read
  /// is both the submit and the queue-admit stamp, and the per-stage sums
  /// reconcile exactly with the end-to-end latency.
  int64_t submit_ns = 0;
  /// Completion hook (null for fire-and-forget submits). shared_ptr so the
  /// Request stays cheaply copyable through batch cut / retry splitting.
  std::shared_ptr<RequestDoneFn> done;

  bool ExpiredAt(Clock::time_point now) const { return deadline < now; }
};

/// Outcome of admission control, in shedding-ladder order: accept if there
/// is room, shed (kShedQueueFull) under overload, reject once stopping or
/// while the failure circuit breaker is open. kRejectedInvalid is the
/// malformed-request case: a non-finite deadline is rejected outright
/// (mirroring LatencyScheduler::Make's rule for config times) rather than
/// silently treated as "no deadline".
enum class AdmitResult {
  kAccepted = 0,
  kShedQueueFull,
  kRejectedClosed,
  kRejectedInvalid,
};

/// What one batch cut produced: up to `max_n` live requests (oldest first)
/// plus the deadline-expired requests dropped along the way (`expired` ==
/// `expired_requests.size()`; the requests themselves are kept so their
/// completion hooks fire and their lanes can be traced).
struct RequestBatch {
  std::vector<Request> requests;
  std::vector<Request> expired_requests;
  int64_t expired = 0;
  /// CutBatch's cut stamp (obs::StageNowNanos), read once the queue was
  /// emptied, so every request in the batch was submitted before it.
  int64_t cut_ns = 0;
};

class RequestQueue {
 public:
  explicit RequestQueue(int64_t capacity)
      : queue_(static_cast<size_t>(capacity)) {}

  /// Thread-safe admission. `deadline_seconds` <= 0 means no deadline;
  /// NaN/Inf deadlines return kRejectedInvalid. The `queue.submit.reject`
  /// fault point, when armed, makes this return kRejectedClosed. `done`,
  /// when set, is attached to the request and fires exactly once at its
  /// terminal outcome — but only for kAccepted admissions; for every other
  /// AdmitResult the synchronous return value is the whole story.
  AdmitResult Submit(double deadline_seconds, RequestDoneFn done = nullptr);

  /// Pops up to `max_n` live requests; expired requests encountered are
  /// dropped and counted. Requests beyond `max_n` stay queued (FIFO).
  /// Single-consumer: only the batcher thread may call this.
  RequestBatch CutBatch(int64_t max_n);

  /// Empties the queue, classifying every remaining request as live (to be
  /// shed by the caller) or expired. Used by shutdown.
  RequestBatch DrainAll();

  /// Stops admission; subsequent Submit returns kRejectedClosed.
  void Close() { queue_.Close(); }

  int64_t depth() const { return static_cast<int64_t>(queue_.size()); }
  int64_t capacity() const { return static_cast<int64_t>(queue_.capacity()); }

 private:
  BoundedQueue<Request> queue_;
  std::atomic<int64_t> next_id_{0};
};

}  // namespace ms

#endif  // MODELSLICING_SERVING_REQUEST_QUEUE_H_
