// Concurrent batched serving engine (paper Sec. 4.1, made real).
//
// The simulators in latency_scheduler.h exercise the Eq. 3 rule (pick the
// largest trained rate r with n * r^2 * t <= T/2) with arithmetic only.
// SliceServer runs it against the wall clock:
//
//   producers ──Submit()──► RequestQueue (bounded MPMC, per-request deadline)
//                                │  batch cut every T/2 tick
//                                ▼
//                         batcher thread ── LatencyScheduler::Schedule(n)
//                                │  rate r, batch ≤ MaxBatchWithinBudget
//                                ▼
//                       ThreadPool workers ── replica->SetSliceRate(r)
//                                             replica->Forward(batch)
//
// Degradation ladder, in order:
//   1. shed:   Submit on a full queue returns kShedQueueFull;
//   2. drop precision, then rate: with the int8 axis enabled the scheduler
//      tries int8 at the current rate before it sheds a rate step, then
//      slices the model down toward the base rate;
//   3. reject: once Stop() begins — or while the failure circuit breaker is
//      open — Submit returns kRejectedClosed.
// Requests whose deadline passes while queued are dropped at the next batch
// cut and counted as expired.
//
// Self-healing layer (src/serving/health.h, tunable via
// ServerOptions::health):
//   - Watchdog: the batcher tracks every in-flight batch; one that exceeds
//     k x its expected n*r^2*t (a stalled or dead worker) is rescheduled
//     ONCE on a healthy worker after a deadline re-check. The superseded
//     attempt's eventual result is discarded under the ticket lock, so a
//     request can never be served twice.
//   - Output health: every batch's logits are scanned for NaN/Inf. A
//     poisoned replica is quarantined, repaired from the golden weight
//     snapshot taken at Start(), probed with a small forward, and
//     readmitted only if the probe is clean. Unrepairable replicas stay out
//     of the free list for good.
//   - Circuit breaker: consecutive final batch failures open the breaker;
//     admission rejects (the ladder's last rung) until a cooloff passes and
//     a probe batch succeeds.
//   - Worker exceptions are caught, counted as `failed`, and always release
//     the in-flight slot — a worker that dies mid-batch cannot park Stop().
//
// Fault-injection points on this path (src/util/fault.h, armed via
// MS_FAULTS): server.worker.stall, server.forward.throw, server.forward.nan
// (weight-poisons the replica so the health check must catch it), and
// queue.submit.reject inside RequestQueue. All are single relaxed atomic
// loads when disarmed.
//
// `t` (full-model per-sample seconds) is *measured* at Start() by timing
// real forwards, instead of trusting ServingConfig::full_sample_time — on
// the serving path the config constant is a guess, and Eq. 3 is only as good
// as t. All ServingConfig times are seconds here (latency_budget = T).
//
// Every ServerStats counter also lands in the global metrics registry under
// ms_server_* (queue depth, shed/expired/failed counts, batch latency
// histogram, chosen vs achieved rate, quarantine/repair/retry counts).
#ifndef MODELSLICING_SERVING_SERVER_H_
#define MODELSLICING_SERVING_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/nn/module.h"
#include "src/obs/metrics.h"
#include "src/serving/health.h"
#include "src/serving/latency_scheduler.h"
#include "src/serving/request_queue.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace ms {

struct ServerOptions {
  /// Sec. 4.1 parameters. Times are seconds; `full_sample_time` is replaced
  /// by the calibration measurement unless `calibrate` is false.
  ServingConfig serving;
  int64_t max_queue = 1024;       ///< admission bound; beyond it, shed.
  /// Per-sample input shape (no batch dimension), e.g. {3, 12, 12}.
  std::vector<int64_t> sample_shape;
  bool calibrate = true;
  int calibration_batch = 8;      ///< samples per calibration forward.
  int calibration_repeats = 3;    ///< timed repeats; the minimum is taken.
  /// Turn on the second elastic axis: batches may run int8 at the current
  /// rate before the scheduler sheds a rate step. With `calibrate` true the
  /// int8 per-sample time is measured at Start(); with `calibrate` false,
  /// `serving.full_sample_time_int8` must be set (> 0) and is trusted
  /// verbatim — the fixed-calibration injection tests use exactly that.
  bool enable_int8 = false;
  /// Watchdog / quarantine / circuit-breaker knobs (src/serving/health.h).
  HealthOptions health;
};

/// Post-Stop invariant:
///   submitted == served + shed + expired + rejected + failed —
/// every request is accounted for exactly once.
struct ServerStats {
  int64_t submitted = 0;   ///< Submit() calls.
  int64_t accepted = 0;    ///< admitted to the queue.
  int64_t served = 0;      ///< went through a real Forward with clean output.
  int64_t shed = 0;        ///< queue-full at admission, or queued at Stop.
  int64_t expired = 0;     ///< deadline passed before execution.
  int64_t rejected = 0;    ///< before Start, during/after Stop, breaker open,
                           ///< or malformed (non-finite deadline).
  int64_t failed = 0;      ///< batch threw or stayed poisoned after the
                           ///< single retry — requests definitively lost.
  int64_t batches = 0;     ///< forwards dispatched.
  int64_t batches_int8 = 0;  ///< forwards dispatched on the int8 path.
  int64_t ticks = 0;       ///< batch-cut intervals elapsed.
  int64_t retried_batches = 0;    ///< watchdog or failure reschedules.
  int64_t quarantined = 0;        ///< replica quarantine events.
  int64_t repaired = 0;           ///< quarantined replicas readmitted.
  double min_rate = 1.0;   ///< lowest slice rate any batch ran at.
  double max_batch_seconds = 0.0;  ///< slowest batch forward.
};

/// \brief Multi-threaded model-slicing server over per-worker replicas.
///
/// Each worker owns one model replica (Module is stateful across
/// Forward/SetSliceRate, so replicas are never shared between concurrent
/// batches). Replicas must be weight-identical (CopyParams): replica 0's
/// weights become the golden master used to repair poisoned replicas.
/// Lifecycle: Create -> Start -> Submit... -> Stop. Stop is graceful:
/// admission closes, in-flight batches finish, still-queued requests are
/// shed/expired with exact accounting. Restart is not supported; create a
/// new server instead.
class SliceServer {
 public:
  static Result<std::unique_ptr<SliceServer>> Create(
      std::vector<std::unique_ptr<Module>> replicas, ServerOptions opts);

  ~SliceServer();

  SliceServer(const SliceServer&) = delete;
  SliceServer& operator=(const SliceServer&) = delete;

  /// Calibrates `t` (unless disabled), runs one forward per (replica,
  /// trained rate) so every weight pack exists before traffic arrives,
  /// and starts the batcher thread.
  Status Start();

  /// Admission control; safe from any thread. `deadline_seconds` is
  /// relative to now; <= 0 means no deadline; NaN/Inf is rejected.
  /// `done` (optional) fires exactly once with the request's terminal
  /// outcome — served/expired/shed-at-stop/failed — but only when this
  /// call returns kAccepted; for any other AdmitResult the synchronous
  /// return value is the request's whole story. The networked frontend
  /// (src/net/frontend.h) rides its per-request replies on this hook.
  AdmitResult Submit(double deadline_seconds = 0.0,
                     RequestDoneFn done = nullptr);

  /// Graceful shutdown: close admission, let in-flight batches drain, shed
  /// the remaining queue. Idempotent; safe to race from multiple threads.
  void Stop();

  ServerStats stats() const;
  int64_t queue_depth() const { return queue_->depth(); }
  int64_t queue_capacity() const { return queue_->capacity(); }
  double tick_seconds() const { return tick_seconds_; }
  /// Measured full-model per-sample seconds (0 before calibration). This is
  /// the *warm* time: the cold first forward is excluded.
  double calibrated_sample_seconds() const { return calibrated_t_; }
  /// Measured (or injected) int8 per-sample seconds; 0 when the int8 axis
  /// is off.
  double calibrated_sample_seconds_int8() const { return calibrated_t8_; }
  /// Per-sample seconds of the very first forward (weight packing and
  /// first-touch allocation included); 0 before calibration or when
  /// calibration is disabled. The gap to calibrated_sample_seconds() is the
  /// one-time cost prewarming moves out of the serving path.
  double cold_start_sample_seconds() const { return cold_start_t_; }
  /// Serving config as used (full_sample_time reflects calibration).
  const ServingConfig& serving_config() const { return opts_.serving; }
  int num_workers() const { return static_cast<int>(replicas_.size()); }
  /// EWMA (alpha 0.1) of |predicted - achieved| / achieved over served
  /// batches — how far Eq. 3 has drifted from the wall clock; NaN before
  /// the first served batch. Also published as ms_sched_cost_model_drift.
  double cost_model_drift() const;
  /// Replicas currently serving-eligible (total minus quarantined).
  int healthy_workers() const;
  /// True while the failure circuit breaker is rejecting admissions.
  bool breaker_open() const;

 private:
  using SteadyClock = std::chrono::steady_clock;

  /// One dispatched batch. The ticket outlives worker attempts: the
  /// watchdog may supersede attempt 0 with a retry, and only the attempt
  /// whose number still matches the ticket's may account the outcome —
  /// that handshake (under tickets_mu_) is what makes double-serving
  /// impossible.
  struct BatchTicket {
    std::vector<Request> requests;
    double rate = 1.0;
    Precision precision = Precision::kFp32;
    double predicted_seconds = 0.0;   ///< Eq. 3 cost of the batch.
    int attempt = 0;                  ///< 0 original, 1 the single retry.
    SteadyClock::time_point start;    ///< current attempt's dispatch time.
    double watchdog_seconds = 0.0;    ///< stall threshold for this attempt.
    // Lifecycle stamps shared by every request in the batch (trace clock,
    // 0 when stage stats are off). fwd_start_ns is re-stamped by each
    // attempt, so a settled request's stamps are the serving attempt's.
    int64_t cut_ns = 0;               ///< queue emptied into the cut.
    int64_t formed_ns = 0;            ///< cut done, batch formed.
    int64_t sched_ns = 0;             ///< rate decision made.
    int64_t fwd_start_ns = 0;         ///< worker began the forward.
  };

  SliceServer(std::vector<std::unique_ptr<Module>> replicas,
              ServerOptions opts);

  Status Calibrate();
  void Prewarm();
  void BatcherLoop();
  void TickOnce();
  void RunWatchdog();
  /// Worker body for one attempt at one ticket. Never throws; always
  /// releases the replica and settles the ticket's accounting.
  void RunAttempt(int64_t ticket_id, int my_attempt);
  /// Settles an attempt: serve, schedule the one retry, or fail. No-op if
  /// the attempt was superseded. `fwd_done_ns` is the attempt's
  /// forward-done stamp (0 when stage stats are off or no forward ran).
  void FinalizeAttempt(int64_t ticket_id, int my_attempt, bool success,
                       double batch_seconds, int64_t fwd_done_ns);
  /// Quarantines a poisoned replica, restores golden weights, probes, and
  /// readmits on a clean probe.
  void QuarantineAndRepair(int replica);
  bool RepairReplica(int replica);
  double WatchdogThreshold(int64_t n, double rate, Precision precision) const;
  void FinishTicket();  ///< in-flight bookkeeping after a ticket settles.

  /// Fires the requests' completion hooks, folds served stamps into the
  /// per-stage histograms and, while the global TraceCollector is enabled,
  /// records each stamped request as a span with its stage spans on a
  /// synthetic lane. Non-terminal stamps may be 0 for non-served outcomes.
  void RecordFinished(const std::vector<Request>& requests,
                      RequestOutcome outcome, double rate, int64_t cut_ns,
                      int64_t formed_ns, int64_t sched_ns,
                      int64_t fwd_start_ns, int64_t fwd_done_ns);
  /// Flight-records circuit-breaker open/close transitions (and trips the
  /// recorder on open). Call after any breaker OnSuccess/OnFailure.
  void NoteBreakerState();

  /// Blocks until a healthy replica is free; returns -1 when every replica
  /// is quarantined (the batch then fails instead of waiting forever).
  int AcquireReplica();
  void ReleaseReplica(int replica);

  ServerOptions opts_;
  std::vector<std::unique_ptr<Module>> replicas_;
  std::vector<std::vector<ParamRef>> replica_params_;
  std::vector<Tensor> golden_;    ///< golden-master weights (from Start()).
  std::unique_ptr<RequestQueue> queue_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<LatencyScheduler> scheduler_;
  std::unique_ptr<ReplicaHealth> health_;
  std::unique_ptr<CircuitBreaker> breaker_;

  double tick_seconds_ = 0.0;     ///< T/2, the batching interval.
  double calibrated_t_ = 0.0;
  double calibrated_t8_ = 0.0;    ///< int8 per-sample seconds (0 = off).
  double cold_start_t_ = 0.0;     ///< first-forward (pack-included) time.

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread batcher_;
  std::mutex lifecycle_mu_;       ///< serializes Start/Stop.
  bool stopped_ = false;          ///< guarded by lifecycle_mu_.

  std::mutex batcher_mu_;
  std::condition_variable batcher_cv_;

  // Free-list of healthy, idle replica indices.
  std::mutex replica_mu_;
  std::condition_variable replica_cv_;
  std::vector<int> free_replicas_;

  // In-flight batch tracking: count for the shutdown drain, tickets for the
  // watchdog/retry machinery.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  int64_t in_flight_ = 0;
  std::mutex tickets_mu_;
  std::map<int64_t, BatchTicket> tickets_;
  int64_t next_ticket_ = 0;

  // Admission / execution counters. served/min_rate/max_batch_seconds are
  // written by worker threads; everything is atomic or stats_mu_-guarded.
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> served_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> expired_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> batches_int8_{0};
  std::atomic<int64_t> ticks_{0};
  std::atomic<int64_t> retried_{0};
  std::atomic<int64_t> quarantined_total_{0};
  std::atomic<int64_t> repaired_total_{0};
  mutable std::mutex stats_mu_;
  double min_rate_ = 1.0;
  double max_batch_seconds_ = 0.0;
  double drift_ewma_ = std::numeric_limits<double>::quiet_NaN();
  std::atomic<float> output_guard_{0.0f};  ///< keeps forwards observable.

  /// Last breaker state flight-recorded, for open/close edge detection.
  std::atomic<bool> breaker_open_seen_{false};
  // Per-stage latency histograms (global registry), cached at construction
  // so the serve path never takes the registry lock. Order matches the
  // stage pipeline; "dispatch" is schedule-decision -> forward-start, which
  // makes the six stages sum exactly to "total".
  obs::Histogram* stage_queue_wait_ = nullptr;
  obs::Histogram* stage_batch_form_ = nullptr;
  obs::Histogram* stage_schedule_ = nullptr;
  obs::Histogram* stage_dispatch_ = nullptr;
  obs::Histogram* stage_forward_ = nullptr;
  obs::Histogram* stage_total_ = nullptr;
};

/// One tick of the closed-loop driver below.
struct ClosedLoopTick {
  int submitted = 0;
  int64_t queue_depth = 0;  ///< sampled at the end of the tick.
};

/// Drives a started server in real time: each tick submits `arrivals[i]`
/// requests (deadline `deadline_seconds`, <= 0 for none), sleeps one batch
/// interval, and samples the queue depth. Returns the per-tick trace.
std::vector<ClosedLoopTick> RunClosedLoop(SliceServer* server,
                                          const std::vector<int>& arrivals,
                                          double deadline_seconds = 0.0);

}  // namespace ms

#endif  // MODELSLICING_SERVING_SERVER_H_
