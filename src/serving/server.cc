#include "src/serving/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/prepack.h"
#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"
#include "src/util/fault.h"
#include "src/util/logging.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace ms {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::chrono::nanoseconds SecondsToDuration(double seconds) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(seconds));
}

double DurationToSeconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
}

// Milliseconds between two stage stamps; 0 when either stamp is missing
// (stage stats were off when the request passed that point).
double StageMsFromStamps(int64_t from_ns, int64_t to_ns) {
  if (from_ns <= 0 || to_ns <= 0 || to_ns < from_ns) return 0.0;
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

}  // namespace

Result<std::unique_ptr<SliceServer>> SliceServer::Create(
    std::vector<std::unique_ptr<Module>> replicas, ServerOptions opts) {
  if (replicas.empty()) {
    return Status::InvalidArgument("at least one model replica is required");
  }
  for (const auto& r : replicas) {
    if (r == nullptr) {
      return Status::InvalidArgument("null model replica");
    }
  }
  if (opts.max_queue < 1) {
    return Status::InvalidArgument("max_queue must be >= 1");
  }
  if (opts.sample_shape.empty()) {
    return Status::InvalidArgument("sample_shape must be non-empty");
  }
  for (int64_t d : opts.sample_shape) {
    if (d < 1) return Status::InvalidArgument("sample_shape dims must be >= 1");
  }
  if (opts.calibrate &&
      (opts.calibration_batch < 1 || opts.calibration_repeats < 1)) {
    return Status::InvalidArgument("calibration batch/repeats must be >= 1");
  }
  if (opts.enable_int8 && !opts.calibrate &&
      !(opts.serving.full_sample_time_int8 > 0.0)) {
    return Status::InvalidArgument(
        "enable_int8 without calibration requires an injected "
        "full_sample_time_int8 > 0");
  }
  if (!(opts.health.watchdog_factor > 0.0) ||
      !std::isfinite(opts.health.watchdog_factor)) {
    return Status::InvalidArgument("watchdog_factor must be finite and > 0");
  }
  if (!(opts.health.watchdog_min_seconds >= 0.0) ||
      !std::isfinite(opts.health.watchdog_min_seconds)) {
    return Status::InvalidArgument("watchdog_min_seconds must be >= 0");
  }
  if (opts.health.breaker_failures < 1) {
    return Status::InvalidArgument("breaker_failures must be >= 1");
  }
  if (!(opts.health.breaker_cooloff_seconds >= 0.0) ||
      !std::isfinite(opts.health.breaker_cooloff_seconds)) {
    return Status::InvalidArgument("breaker_cooloff_seconds must be >= 0");
  }
  if (opts.health.probe_batch < 1) {
    return Status::InvalidArgument("probe_batch must be >= 1");
  }
  // Validate everything the scheduler will check, up front — except
  // full_sample_time, which calibration is allowed to supply later.
  ServingConfig probe = opts.serving;
  if (opts.calibrate) probe.full_sample_time = 1.0;
  auto probe_result = LatencyScheduler::Make(probe);
  MS_RETURN_NOT_OK(probe_result.status());
  return std::unique_ptr<SliceServer>(
      new SliceServer(std::move(replicas), std::move(opts)));
}

SliceServer::SliceServer(std::vector<std::unique_ptr<Module>> replicas,
                         ServerOptions opts)
    : opts_(std::move(opts)), replicas_(std::move(replicas)) {
  queue_ = std::make_unique<RequestQueue>(opts_.max_queue);
  for (int i = 0; i < static_cast<int>(replicas_.size()); ++i) {
    free_replicas_.push_back(i);
  }
  tick_seconds_ = opts_.serving.latency_budget / 2.0;
  // Cache the per-stage histograms once: the registry guarantees the
  // pointers stay valid and lock-free for its lifetime, so the serve path
  // never takes the registry map lock.
  auto& registry = obs::MetricsRegistry::Global();
  stage_queue_wait_ = registry.GetHistogram("ms_server_stage_queue_wait_ms",
                                            obs::LatencyBucketsMs());
  stage_batch_form_ = registry.GetHistogram("ms_server_stage_batch_form_ms",
                                            obs::LatencyBucketsMs());
  stage_schedule_ = registry.GetHistogram("ms_server_stage_schedule_ms",
                                          obs::LatencyBucketsMs());
  stage_dispatch_ = registry.GetHistogram("ms_server_stage_dispatch_ms",
                                          obs::LatencyBucketsMs());
  stage_forward_ = registry.GetHistogram("ms_server_stage_forward_ms",
                                         obs::LatencyBucketsMs());
  stage_total_ = registry.GetHistogram("ms_server_stage_total_ms",
                                       obs::LatencyBucketsMs());
}

SliceServer::~SliceServer() { Stop(); }

Status SliceServer::Calibrate() {
  MS_TRACE_SCOPE("server_calibrate");
  Module* m = replicas_.front().get();
  m->SetSliceRate(opts_.serving.lattice.full_rate());
  std::vector<int64_t> shape = opts_.sample_shape;
  shape.insert(shape.begin(), opts_.calibration_batch);
  Tensor x(shape);
  // The warmup forward doubles as the cold-start measurement: it pays for
  // weight packing and first-touch allocations, everything the steady path
  // never sees again. Reported separately so capacity planning (Eq. 3 uses
  // the warm t) is not polluted by one-time costs.
  {
    Stopwatch cold;
    Tensor y = m->Forward(x, /*training=*/false);
    cold_start_t_ =
        cold.ElapsedSeconds() / static_cast<double>(opts_.calibration_batch);
    output_guard_.store(y.data()[0], std::memory_order_relaxed);
  }
  double best = 0.0;
  for (int i = 0; i < opts_.calibration_repeats; ++i) {
    Stopwatch sw;
    Tensor y = m->Forward(x, /*training=*/false);
    const double per_sample =
        sw.ElapsedSeconds() / static_cast<double>(opts_.calibration_batch);
    output_guard_.store(y.data()[0], std::memory_order_relaxed);
    // Minimum across repeats: a one-off scheduling stall would inflate t
    // and cripple capacity for the server's whole lifetime, so take the
    // best observed run as the machine's true speed.
    if (i == 0 || per_sample < best) best = per_sample;
  }
  if (!(best > 0.0)) {
    return Status::Internal("calibration measured a non-positive sample time");
  }
  calibrated_t_ = best;
  opts_.serving.full_sample_time = best;
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("ms_server_calibrated_sample_ms")->Set(best * 1e3);
  registry.GetGauge("ms_server_cold_start_ms")->Set(cold_start_t_ * 1e3);
  if (opts_.enable_int8) {
    // Second cost column: same protocol on the quantized path. The first
    // int8 forward pays for quantized packing; it is excluded just like
    // the fp32 cold forward.
    m->SetPrecision(Precision::kInt8);
    {
      Tensor y = m->Forward(x, /*training=*/false);
      output_guard_.store(y.data()[0], std::memory_order_relaxed);
    }
    double best8 = 0.0;
    for (int i = 0; i < opts_.calibration_repeats; ++i) {
      Stopwatch sw;
      Tensor y = m->Forward(x, /*training=*/false);
      const double per_sample =
          sw.ElapsedSeconds() / static_cast<double>(opts_.calibration_batch);
      output_guard_.store(y.data()[0], std::memory_order_relaxed);
      if (i == 0 || per_sample < best8) best8 = per_sample;
    }
    m->SetPrecision(Precision::kFp32);
    if (!(best8 > 0.0)) {
      return Status::Internal(
          "int8 calibration measured a non-positive sample time");
    }
    calibrated_t8_ = best8;
    opts_.serving.full_sample_time_int8 = best8;
    registry.GetGauge("ms_server_calibrated_sample_int8_ms")
        ->Set(best8 * 1e3);
  }
  return Status::OK();
}

void SliceServer::Prewarm() {
  MS_TRACE_SCOPE("server_prewarm");
  // One forward per (replica, trained rate). Each replica owns its layer
  // objects and therefore its packs, and a pack for the full weight serves
  // every rate prefix — but backward-transpose/per-gate packs only form on
  // first use at that replica, so touch every replica rather than just the
  // calibration one.
  std::vector<int64_t> shape = opts_.sample_shape;
  shape.insert(shape.begin(), 1);
  Tensor x(shape);
  for (size_t ri = 0; ri < replicas_.size(); ++ri) {
    Module* replica = replicas_[ri].get();
    for (double rate : opts_.serving.lattice.rates()) {
      replica->SetSliceRate(rate);
      Tensor y = replica->Forward(x, /*training=*/false);
      output_guard_.store(y.data()[0], std::memory_order_relaxed);
      if (opts_.enable_int8) {
        // Quantized packs cover every rate prefix, but per-layer pack
        // objects only materialize on first int8 use at this replica —
        // touch them now so steady-state serving never quantizes.
        replica->SetPrecision(Precision::kInt8);
        Tensor y8 = replica->Forward(x, /*training=*/false);
        output_guard_.store(y8.data()[0], std::memory_order_relaxed);
        replica->SetPrecision(Precision::kFp32);
      }
    }
    replica->SetSliceRate(opts_.serving.lattice.full_rate());
  }
  ops::PublishPackMetrics();
}

Status SliceServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_.load()) {
    return Status::FailedPrecondition("server already started");
  }
  if (stopped_) {
    return Status::FailedPrecondition("server cannot be restarted");
  }
  if (!opts_.enable_int8) {
    // The precision axis is opt-in; a stray config value must not turn it
    // on behind the caller's back.
    opts_.serving.full_sample_time_int8 = 0.0;
  }
  if (opts_.calibrate) {
    MS_RETURN_NOT_OK(Calibrate());
  } else {
    calibrated_t_ = opts_.serving.full_sample_time;
    calibrated_t8_ = opts_.serving.full_sample_time_int8;
  }
  Prewarm();
  auto scheduler = LatencyScheduler::Make(opts_.serving);
  MS_RETURN_NOT_OK(scheduler.status());
  scheduler_ =
      std::make_unique<LatencyScheduler>(scheduler.MoveValueOrDie());
  if (MaxBatchWithinBudget(opts_.serving) < 1) {
    return Status::FailedPrecondition(
        "latency budget below one base-rate sample: T/2 = " +
        std::to_string(tick_seconds_) + "s, measured t = " +
        std::to_string(opts_.serving.full_sample_time) + "s");
  }
  // Self-healing state. Replica 0's weights (already calibrated/prewarmed,
  // i.e. proven forward-able) become the golden master that repairs
  // poisoned replicas; Create() requires weight-identical replicas, so any
  // replica's snapshot would do.
  replica_params_.clear();
  replica_params_.reserve(replicas_.size());
  for (auto& r : replicas_) {
    std::vector<ParamRef> ps;
    r->CollectParams(&ps);
    replica_params_.push_back(std::move(ps));
  }
  golden_.clear();
  for (const ParamRef& p : replica_params_.front()) {
    golden_.push_back(*p.param);  // deep copy
  }
  health_ = std::make_unique<ReplicaHealth>(static_cast<int>(replicas_.size()));
  breaker_ = std::make_unique<CircuitBreaker>(
      opts_.health.breaker_failures, opts_.health.breaker_cooloff_seconds);
  obs::MetricsRegistry::Global().GetGauge("ms_server_quarantine_active")
      ->Set(0.0);
  pool_ = std::make_unique<ThreadPool>(static_cast<int>(replicas_.size()));
  started_.store(true);
  batcher_ = std::thread([this] { BatcherLoop(); });
  return Status::OK();
}

AdmitResult SliceServer::Submit(double deadline_seconds,
                                RequestDoneFn done) {
  auto& registry = obs::MetricsRegistry::Global();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  registry.GetCounter("ms_server_submitted_total")->Inc();
  if (!started_.load(std::memory_order_acquire) ||
      stop_requested_.load(std::memory_order_acquire)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    registry.GetCounter("ms_server_rejected_total")->Inc();
    return AdmitResult::kRejectedClosed;
  }
  // Last rung of the degradation ladder: while the failure breaker is open
  // (and its cooloff has not elapsed), don't even queue — the backlog would
  // only expire. Allow() returning true half-open lets probe traffic in.
  if (!breaker_->Allow()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    registry.GetCounter("ms_server_rejected_total")->Inc();
    registry.GetCounter("ms_server_breaker_rejected_total")->Inc();
    return AdmitResult::kRejectedClosed;
  }
  const AdmitResult result = queue_->Submit(deadline_seconds,
                                            std::move(done));
  auto& flight = obs::FlightRecorder::Global();
  switch (result) {
    case AdmitResult::kAccepted:
      // Counted, not flight-recorded: at serving rates accepted admissions
      // would push the batch decisions out of the ring.
      accepted_.fetch_add(1, std::memory_order_relaxed);
      registry.GetCounter("ms_server_accepted_total")->Inc();
      break;
    case AdmitResult::kShedQueueFull:
      shed_.fetch_add(1, std::memory_order_relaxed);
      registry.GetCounter("ms_server_shed_total")->Inc();
      flight.Record(obs::FlightEventKind::kAdmission, "shed_queue_full");
      break;
    case AdmitResult::kRejectedClosed:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      registry.GetCounter("ms_server_rejected_total")->Inc();
      flight.Record(obs::FlightEventKind::kAdmission, "rejected_closed");
      break;
    case AdmitResult::kRejectedInvalid:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      registry.GetCounter("ms_server_rejected_total")->Inc();
      registry.GetCounter("ms_server_rejected_invalid_total")->Inc();
      flight.Record(obs::FlightEventKind::kAdmission, "rejected_invalid");
      break;
  }
  return result;
}

int SliceServer::AcquireReplica() {
  std::unique_lock<std::mutex> lock(replica_mu_);
  // Wake on a freed replica OR on "no healthy replica exists" — with every
  // replica quarantined, waiting would deadlock the pool; the batch fails
  // instead and the circuit breaker takes over admission.
  replica_cv_.wait(lock, [this] {
    return !free_replicas_.empty() || health_->healthy_count() == 0;
  });
  if (free_replicas_.empty()) return -1;
  const int idx = free_replicas_.back();
  free_replicas_.pop_back();
  return idx;
}

void SliceServer::ReleaseReplica(int replica) {
  {
    std::lock_guard<std::mutex> lock(replica_mu_);
    free_replicas_.push_back(replica);
  }
  replica_cv_.notify_one();
}

int SliceServer::healthy_workers() const {
  return health_ ? health_->healthy_count()
                 : static_cast<int>(replicas_.size());
}

bool SliceServer::breaker_open() const {
  return breaker_ != nullptr && breaker_->open();
}

double SliceServer::WatchdogThreshold(int64_t n, double rate,
                                      Precision precision) const {
  // Expected wall time under the Eq. 3 cost model with the batch's own
  // cost column — an int8 batch judged against the fp32 t would get ~3x
  // the grace it deserves. Scaled by the grace factor; floored so
  // scheduling jitter on tiny batches can't trip the watchdog.
  return std::max(
      opts_.health.watchdog_min_seconds,
      opts_.health.watchdog_factor *
          scheduler_->PredictSeconds(n, rate, precision));
}

void SliceServer::FinishTicket() {
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    --in_flight_;
  }
  inflight_cv_.notify_all();
}

bool SliceServer::RepairReplica(int replica) {
  MS_TRACE_SCOPE("server_repair");
  auto& params = replica_params_[static_cast<size_t>(replica)];
  MS_CHECK(params.size() == golden_.size());
  for (size_t i = 0; i < params.size(); ++i) {
    *params[i].param = golden_[i];
  }
  // Restored weights invalidate any prepacked panels derived from them.
  ops::BumpWeightGeneration();
  // Probe: a small real forward at the full rate. Injection points live in
  // RunAttempt, not here, so the probe sees the replica's true health even
  // while faults stay armed.
  Module* m = replicas_[static_cast<size_t>(replica)].get();
  try {
    m->SetSliceRate(opts_.serving.lattice.full_rate());
    m->SetPrecision(Precision::kFp32);  // probe the canonical path
    std::vector<int64_t> shape = opts_.sample_shape;
    shape.insert(shape.begin(), opts_.health.probe_batch);
    Tensor x(shape);
    Tensor y = m->Forward(x, /*training=*/false);
    output_guard_.store(y.data()[0], std::memory_order_relaxed);
    return TensorIsFinite(y);
  } catch (const std::exception& e) {
    MS_LOG(Error) << "replica " << replica << " probe threw: " << e.what();
    return false;
  } catch (...) {
    MS_LOG(Error) << "replica " << replica << " probe threw";
    return false;
  }
}

void SliceServer::QuarantineAndRepair(int replica) {
  auto& registry = obs::MetricsRegistry::Global();
  if (!health_->Quarantine(replica)) return;  // already out
  quarantined_total_.fetch_add(1, std::memory_order_relaxed);
  registry.GetCounter("ms_server_quarantine_total")->Inc();
  registry.GetGauge("ms_server_quarantine_active")
      ->Set(health_->quarantined_count());
  // Waiters in AcquireReplica must re-evaluate "any healthy replica left?".
  replica_cv_.notify_all();
  MS_LOG(Warn) << "replica " << replica
               << " produced non-finite output; quarantined ("
               << health_->healthy_count() << " healthy left)";
  // A quarantine IS the black-box moment: record it, then dump the ring so
  // the events leading up to the poisoned output are preserved.
  auto& flight = obs::FlightRecorder::Global();
  flight.Record(obs::FlightEventKind::kQuarantine, "non-finite output",
                replica, health_->healthy_count());
  flight.Trip("quarantine");
  if (RepairReplica(replica)) {
    health_->Readmit(replica);
    repaired_total_.fetch_add(1, std::memory_order_relaxed);
    registry.GetCounter("ms_server_quarantine_repaired_total")->Inc();
    registry.GetGauge("ms_server_quarantine_active")
        ->Set(health_->quarantined_count());
    flight.Record(obs::FlightEventKind::kRepair, "golden restore ok",
                  replica);
    ReleaseReplica(replica);
    MS_LOG(Info) << "replica " << replica
                 << " repaired from golden snapshot and readmitted";
  } else {
    // Unrepairable: the replica never rejoins the free list. Serving
    // continues on whatever healthy replicas remain.
    MS_LOG(Error) << "replica " << replica
                  << " failed its post-repair probe; permanently out";
  }
}

void SliceServer::RunAttempt(int64_t ticket_id, int my_attempt) {
  MS_TRACE_SCOPE("server_batch");
  int64_t n = 0;
  double rate = 1.0;
  Precision precision = Precision::kFp32;
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    auto it = tickets_.find(ticket_id);
    if (it == tickets_.end() || it->second.attempt != my_attempt) {
      return;  // settled or superseded before this attempt even started
    }
    n = static_cast<int64_t>(it->second.requests.size());
    rate = it->second.rate;
    precision = it->second.precision;
    // Stamped under the ticket lock so a superseding retry re-stamps it:
    // whichever attempt settles the batch owns the forward stamps.
    it->second.fwd_start_ns = obs::StageNowNanos();
  }
  const int replica = AcquireReplica();
  if (replica < 0) {
    // Every replica is quarantined; nothing can run this batch.
    FinalizeAttempt(ticket_id, my_attempt, /*success=*/false, 0.0,
                    /*fwd_done_ns=*/0);
    return;
  }
  bool success = false;
  bool poisoned = false;
  double secs = 0.0;
  int64_t fwd_done_ns = 0;
  try {
    auto& faults = fault::Registry::Global();
    if (faults.ShouldFire(fault::kWorkerStall)) {
      // A wedged worker: hold the replica past the watchdog threshold.
      std::this_thread::sleep_for(
          SecondsToDuration(faults.Param(fault::kWorkerStall, 0.25)));
    }
    if (faults.ShouldFire(fault::kForwardNan)) {
      // Weight-poison the replica (not just this output): corrupt the LAST
      // parameter so no downstream ReLU can mask the NaN, then invalidate
      // packs in case that parameter participates in a prepacked panel.
      auto& params = replica_params_[static_cast<size_t>(replica)];
      if (!params.empty() && params.back().param->size() > 0) {
        params.back().param->data()[0] =
            std::numeric_limits<float>::quiet_NaN();
        ops::BumpWeightGeneration();
      }
    }
    if (faults.ShouldFire(fault::kForwardThrow)) {
      throw std::runtime_error("injected fault: server.forward.throw");
    }
    Module* m = replicas_[static_cast<size_t>(replica)].get();
    m->SetSliceRate(rate);
    m->SetPrecision(precision);
    std::vector<int64_t> shape = opts_.sample_shape;
    shape.insert(shape.begin(), n);
    Tensor x(shape);
    Stopwatch sw;
    Tensor y = m->Forward(x, /*training=*/false);
    secs = sw.ElapsedSeconds();
    fwd_done_ns = obs::StageNowNanos();
    output_guard_.store(y.data()[0], std::memory_order_relaxed);
    // Always-on output health check: one linear scan of the logits, cheap
    // next to the forward that produced them.
    if (TensorIsFinite(y)) {
      success = true;
    } else {
      poisoned = true;
    }
  } catch (const std::exception& e) {
    // A worker dying mid-batch must not leak the replica or the in-flight
    // slot — otherwise Stop() would wait forever (and the pool thread
    // would die taking the process with it).
    MS_LOG(Warn) << "batch attempt threw: " << e.what();
  } catch (...) {
    MS_LOG(Warn) << "batch attempt threw a non-std exception";
  }
  if (poisoned) {
    // Held, not freed: quarantine/repair owns the replica until it either
    // readmits (and releases) it or retires it for good.
    QuarantineAndRepair(replica);
  } else {
    ReleaseReplica(replica);
  }
  FinalizeAttempt(ticket_id, my_attempt, success, secs, fwd_done_ns);
}

void SliceServer::FinalizeAttempt(int64_t ticket_id, int my_attempt,
                                  bool success, double batch_seconds,
                                  int64_t fwd_done_ns) {
  auto& registry = obs::MetricsRegistry::Global();
  auto& flight = obs::FlightRecorder::Global();
  enum class Outcome { kDiscard, kServe, kRetry, kFail };
  Outcome outcome = Outcome::kDiscard;
  int64_t n = 0;
  int64_t newly_expired = 0;
  double rate = 1.0;
  Precision precision = Precision::kFp32;
  double predicted_seconds = 0.0;
  // Settled requests and their batch-shared stamps, moved out under the
  // lock so histograms and lanes are recorded without holding tickets_mu_.
  std::vector<Request> settled;
  std::vector<Request> expired_now;
  int64_t cut_ns = 0, formed_ns = 0, sched_ns = 0, fwd_start_ns = 0;
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    auto it = tickets_.find(ticket_id);
    if (it == tickets_.end() || it->second.attempt != my_attempt) {
      // Superseded: the watchdog re-issued this batch and the other attempt
      // owns the accounting. Dropping the result here is what guarantees no
      // request is ever served (counted) twice.
      return;
    }
    BatchTicket& t = it->second;
    rate = t.rate;
    precision = t.precision;
    predicted_seconds = t.predicted_seconds;
    cut_ns = t.cut_ns;
    formed_ns = t.formed_ns;
    sched_ns = t.sched_ns;
    fwd_start_ns = t.fwd_start_ns;
    if (success) {
      outcome = Outcome::kServe;
      n = static_cast<int64_t>(t.requests.size());
      settled = std::move(t.requests);
      tickets_.erase(it);
    } else if (my_attempt == 0) {
      // The single retry. Requests whose deadline passed while attempt 0
      // was wedged are expired now, not served late.
      const auto now = Request::Clock::now();
      std::vector<Request> live;
      live.reserve(t.requests.size());
      for (const Request& r : t.requests) {
        if (r.ExpiredAt(now)) {
          ++newly_expired;
          expired_now.push_back(r);
        } else {
          live.push_back(r);
        }
      }
      if (live.empty()) {
        outcome = Outcome::kDiscard;  // nothing left worth re-running
        tickets_.erase(it);
        // Fall through: newly_expired / FinishTicket handled below.
      } else {
        outcome = Outcome::kRetry;
        t.requests = std::move(live);
        t.attempt = 1;
        t.start = SteadyClock::now();
        t.watchdog_seconds = WatchdogThreshold(
            static_cast<int64_t>(t.requests.size()), t.rate, t.precision);
      }
    } else {
      // Retry also failed: these requests are definitively lost.
      outcome = Outcome::kFail;
      n = static_cast<int64_t>(t.requests.size());
      settled = std::move(t.requests);
      tickets_.erase(it);
    }
  }
  if (newly_expired > 0) {
    expired_.fetch_add(newly_expired, std::memory_order_relaxed);
    registry.GetCounter("ms_server_expired_total")->Inc(newly_expired);
    RecordFinished(expired_now, RequestOutcome::kExpired, rate, cut_ns,
                   formed_ns, sched_ns, fwd_start_ns, /*fwd_done_ns=*/0);
  }
  switch (outcome) {
    case Outcome::kServe: {
      served_.fetch_add(n, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        min_rate_ = std::min(min_rate_, rate);
        max_batch_seconds_ = std::max(max_batch_seconds_, batch_seconds);
        // Cost-model drift: this batch's |predicted - achieved| / achieved,
        // folded into an EWMA seeded by the first served batch. The
        // kDecision/kServe pair on the flight recorder carries both inputs.
        if (batch_seconds > 0.0) {
          constexpr double kDriftAlpha = 0.1;
          const double drift =
              std::abs(predicted_seconds - batch_seconds) / batch_seconds;
          drift_ewma_ = std::isnan(drift_ewma_)
                            ? drift
                            : (1.0 - kDriftAlpha) * drift_ewma_ +
                                  kDriftAlpha * drift;
          registry.GetGauge("ms_sched_cost_model_drift")->Set(drift_ewma_);
        }
      }
      registry.GetCounter("ms_server_served_total")->Inc(n);
      registry
          .GetHistogram("ms_server_batch_latency_ms", obs::LatencyBucketsMs())
          ->Observe(batch_seconds * 1e3);
      registry.GetHistogram("ms_server_chosen_rate", obs::RateBuckets())
          ->Observe(rate);
      // The slice rate the wall clock actually corresponds to under the r^2
      // model (n * r_achieved^2 * t == measured seconds) — with the batch's
      // own cost column, so an int8 batch isn't read as "faster than r=1":
      // compared with the chosen rate, this exposes calibration drift and
      // contention.
      const double full_rate_seconds =
          scheduler_->PredictSeconds(n, 1.0, precision);
      if (full_rate_seconds > 0.0) {
        registry.GetHistogram("ms_server_achieved_rate", obs::RateBuckets())
            ->Observe(std::sqrt(batch_seconds / full_rate_seconds));
      }
      registry.GetGauge("ms_server_budget_utilization")
          ->Set(tick_seconds_ > 0.0 ? batch_seconds / tick_seconds_ : 0.0);
      RecordFinished(settled, RequestOutcome::kServed, rate, cut_ns,
                     formed_ns, sched_ns, fwd_start_ns, fwd_done_ns);
      flight.Record(obs::FlightEventKind::kServe, "batch served", ticket_id,
                    n, rate, batch_seconds);
      breaker_->OnSuccess();
      registry.GetGauge("ms_server_breaker_open")->Set(0.0);
      NoteBreakerState();
      FinishTicket();
      break;
    }
    case Outcome::kRetry: {
      retried_.fetch_add(1, std::memory_order_relaxed);
      registry.GetCounter("ms_server_retries_total")->Inc();
      flight.Record(obs::FlightEventKind::kRetry, "attempt failed, retrying",
                    ticket_id, my_attempt);
      breaker_->OnFailure();
      registry.GetGauge("ms_server_breaker_open")
          ->Set(breaker_->open() ? 1.0 : 0.0);
      NoteBreakerState();
      // Same ticket, attempt 1; the in-flight slot carries over.
      pool_->Submit([this, ticket_id] { RunAttempt(ticket_id, 1); });
      break;
    }
    case Outcome::kFail: {
      failed_.fetch_add(n, std::memory_order_relaxed);
      registry.GetCounter("ms_server_failed_total")->Inc(n);
      RecordFinished(settled, RequestOutcome::kFailed, rate, cut_ns,
                     formed_ns, sched_ns, fwd_start_ns, /*fwd_done_ns=*/0);
      flight.Record(obs::FlightEventKind::kFail, "batch failed terminally",
                    ticket_id, n, rate);
      breaker_->OnFailure();
      registry.GetGauge("ms_server_breaker_open")
          ->Set(breaker_->open() ? 1.0 : 0.0);
      NoteBreakerState();
      FinishTicket();
      break;
    }
    case Outcome::kDiscard: {
      // Attempt-0 failure whose requests all expired: the ticket settled
      // as pure expiry above.
      FinishTicket();
      break;
    }
  }
}

void SliceServer::RecordFinished(const std::vector<Request>& requests,
                                 RequestOutcome outcome, double rate,
                                 int64_t cut_ns, int64_t formed_ns,
                                 int64_t sched_ns, int64_t fwd_start_ns,
                                 int64_t fwd_done_ns) {
  if (requests.empty()) return;
  const bool served = outcome == RequestOutcome::kServed;
  // Completion hooks: every accepted request reaches exactly one terminal
  // RecordFinished (serve/fail from FinalizeAttempt, expiry at retry split,
  // cut or drain, shed at drain), so firing here is the exactly-once
  // completion contract Submit's `done` promises. Called outside every
  // server lock; retried batches pass only their settled requests.
  const double done_rate = served ? rate : 0.0;
  for (const Request& r : requests) {
    if (r.done && *r.done) (*r.done)(outcome, done_rate);
  }
  if (!obs::StageStatsEnabled()) return;
  // Only a served batch stamped through its forward has fwd_done_ns.
  const bool forwarded = fwd_done_ns > 0;
  if (forwarded) {
    // Batch-shared stages are observed once per request on purpose: every
    // histogram then counts requests, and the mean of stage sums equals the
    // mean total (the 5%-reconciliation contract in DESIGN.md §8).
    const double batch_form_ms = StageMsFromStamps(cut_ns, formed_ns);
    const double schedule_ms = StageMsFromStamps(formed_ns, sched_ns);
    const double dispatch_ms = StageMsFromStamps(sched_ns, fwd_start_ns);
    const double forward_ms = StageMsFromStamps(fwd_start_ns, fwd_done_ns);
    for (const Request& r : requests) {
      if (r.submit_ns <= 0) continue;  // submitted while stamping was off
      stage_queue_wait_->Observe(StageMsFromStamps(r.submit_ns, cut_ns));
      stage_batch_form_->Observe(batch_form_ms);
      stage_schedule_->Observe(schedule_ms);
      stage_dispatch_->Observe(dispatch_ms);
      stage_forward_->Observe(forward_ms);
      stage_total_->Observe(StageMsFromStamps(r.submit_ns, fwd_done_ns));
    }
  }
  auto& collector = obs::TraceCollector::Global();
  if (!collector.enabled()) return;
  // Request lanes: each request is a span with its stage spans nested
  // inside, on one of kLanes synthetic tids far above any real thread id,
  // so they group below the worker rows in about:tracing. A served span
  // ends at fwd_done, so its five stages tile it exactly.
  constexpr int kLanes = 32;
  const int64_t end_ns = forwarded ? fwd_done_ns : obs::StageNowNanos();
  for (const Request& r : requests) {
    if (r.submit_ns <= 0) continue;
    const int tid = obs::kRequestLaneTid + static_cast<int>(r.id % kLanes);
    collector.Record(StrFormat("req %lld %s", static_cast<long long>(r.id),
                               RequestOutcomeName(outcome)),
                     r.submit_ns, end_ns - r.submit_ns, tid, /*depth=*/0);
    struct Stage {
      const char* name;
      int64_t from, to;
    };
    const Stage stages[] = {
        {"queue_wait", r.submit_ns, cut_ns},
        {"batch_form", cut_ns, formed_ns},
        {"schedule", formed_ns, sched_ns},
        {"dispatch", sched_ns, fwd_start_ns},
        {"forward", fwd_start_ns, fwd_done_ns},
    };
    for (const Stage& st : stages) {
      if (st.from <= 0 || st.to < st.from) continue;
      collector.Record(st.name, st.from, st.to - st.from, tid, /*depth=*/1);
    }
  }
}

void SliceServer::NoteBreakerState() {
  const bool open = breaker_->open();
  const bool was =
      breaker_open_seen_.exchange(open, std::memory_order_relaxed);
  if (open == was) return;
  auto& flight = obs::FlightRecorder::Global();
  if (open) {
    flight.Record(obs::FlightEventKind::kBreakerOpen,
                  "circuit breaker opened");
    // Breaker opening means consecutive terminal failures — exactly the
    // situation the black box exists for.
    flight.Trip("breaker_open");
  } else {
    flight.Record(obs::FlightEventKind::kBreakerClose,
                  "circuit breaker closed");
  }
}

void SliceServer::RunWatchdog() {
  if (!opts_.health.watchdog) return;
  const auto now = SteadyClock::now();
  std::vector<int64_t> stalled;
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    for (const auto& [id, t] : tickets_) {
      // Only attempt 0 is ever rescheduled; a stalled retry must be waited
      // out (a watchdog cannot kill a thread, only stop trusting it).
      if (t.attempt != 0) continue;
      if (DurationToSeconds(now - t.start) > t.watchdog_seconds) {
        stalled.push_back(id);
      }
    }
  }
  if (stalled.empty()) return;
  auto& registry = obs::MetricsRegistry::Global();
  auto& flight = obs::FlightRecorder::Global();
  for (int64_t id : stalled) {
    registry.GetCounter("ms_server_watchdog_stalls_total")->Inc();
    MS_LOG(Warn) << "watchdog: batch ticket " << id
                 << " exceeded its stall threshold; rescheduling once";
    flight.Record(obs::FlightEventKind::kWatchdog,
                  "stalled batch rescheduled", id);
    flight.Trip("watchdog");
    // Finalizing attempt 0 as a failure IS the reschedule: the ticket's
    // attempt number advances, so the wedged worker's eventual result is
    // discarded under the ticket lock. (If the batch finished between the
    // scan above and here, the ticket is gone and this is a no-op.)
    FinalizeAttempt(id, /*my_attempt=*/0, /*success=*/false,
                    /*batch_seconds=*/0.0, /*fwd_done_ns=*/0);
  }
}

void SliceServer::TickOnce() {
  ticks_.fetch_add(1, std::memory_order_relaxed);
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("ms_server_ticks_total")->Inc();

  RunWatchdog();

  // While the breaker is open (cooloff running), cut with max_n = 0: an
  // expiry-only sweep that keeps deadline accounting moving without
  // dispatching doomed forwards. Half-open lets one batch probe.
  const bool admit = breaker_->Allow();
  const int64_t max_n =
      admit ? MaxBatchWithinBudget(opts_.serving) : 0;
  RequestBatch batch = queue_->CutBatch(max_n);
  const int64_t cut_ns = batch.cut_ns;
  const int64_t formed_ns = obs::StageNowNanos();
  if (batch.expired > 0) {
    expired_.fetch_add(batch.expired, std::memory_order_relaxed);
    registry.GetCounter("ms_server_expired_total")->Inc(batch.expired);
    RecordFinished(batch.expired_requests, RequestOutcome::kExpired,
                   /*rate=*/0.0, cut_ns, /*formed_ns=*/0, /*sched_ns=*/0,
                   /*fwd_start_ns=*/0, /*fwd_done_ns=*/0);
  }
  const int64_t depth_after = queue_->depth();
  registry.GetGauge("ms_server_backlog")->Set(depth_after);
  registry.GetHistogram("ms_server_queue_depth", obs::DepthBuckets())
      ->Observe(depth_after);

  const int64_t n = static_cast<int64_t>(batch.requests.size());
  if (n == 0) return;
  const TickDecision decision =
      scheduler_->Schedule(static_cast<int>(n));
  const int64_t sched_ns = obs::StageNowNanos();
  batches_.fetch_add(1, std::memory_order_relaxed);
  registry.GetCounter("ms_server_batches_total")->Inc();
  if (decision.precision == Precision::kInt8) {
    batches_int8_.fetch_add(1, std::memory_order_relaxed);
    registry.GetCounter("ms_server_int8_batches_total")->Inc();
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++in_flight_;
  }
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    id = next_ticket_++;
    BatchTicket t;
    t.requests = std::move(batch.requests);
    t.rate = decision.rate;
    t.precision = decision.precision;
    t.predicted_seconds = decision.processing_time;
    t.attempt = 0;
    t.start = SteadyClock::now();
    t.watchdog_seconds = WatchdogThreshold(n, decision.rate,
                                           decision.precision);
    t.cut_ns = cut_ns;
    t.formed_ns = formed_ns;
    t.sched_ns = sched_ns;
    tickets_.emplace(id, std::move(t));
  }
  // The decision's record: batch, n, chosen point and Eq. 3 prediction.
  obs::FlightRecorder::Global().Record(
      obs::FlightEventKind::kDecision,
      decision.precision == Precision::kInt8 ? "batch scheduled int8"
                                             : "batch scheduled",
      id, n, decision.rate, decision.processing_time);
  pool_->Submit([this, id] { RunAttempt(id, 0); });
}

void SliceServer::BatcherLoop() {
  const auto tick = SecondsToDuration(tick_seconds_);
  auto next = SteadyClock::now() + tick;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(batcher_mu_);
      batcher_cv_.wait_until(lock, next, [this] {
        return stop_requested_.load(std::memory_order_acquire);
      });
    }
    if (stop_requested_.load(std::memory_order_acquire)) break;
    TickOnce();
    next += tick;
    // If a tick overran (slow machine, sanitizer), skip the missed
    // intervals instead of firing a burst of catch-up cuts.
    const auto now = SteadyClock::now();
    while (next <= now) next += tick;
  }

  // Graceful shutdown: admission is already rejecting (stop_requested_);
  // close the queue, account for everything still in it, and wait for
  // in-flight batches to settle. The watchdog keeps running during the
  // drain so a worker that wedged on the last batch still gets its retry
  // and cannot park Stop() forever.
  queue_->Close();
  RequestBatch rest = queue_->DrainAll();
  auto& registry = obs::MetricsRegistry::Global();
  if (rest.expired > 0) {
    expired_.fetch_add(rest.expired, std::memory_order_relaxed);
    registry.GetCounter("ms_server_expired_total")->Inc(rest.expired);
    RecordFinished(rest.expired_requests, RequestOutcome::kExpired,
                   /*rate=*/0.0, /*cut_ns=*/0, /*formed_ns=*/0, /*sched_ns=*/0,
                   /*fwd_start_ns=*/0, /*fwd_done_ns=*/0);
  }
  const int64_t shed_on_stop = static_cast<int64_t>(rest.requests.size());
  if (shed_on_stop > 0) {
    shed_.fetch_add(shed_on_stop, std::memory_order_relaxed);
    registry.GetCounter("ms_server_shed_total")->Inc(shed_on_stop);
    RecordFinished(rest.requests, RequestOutcome::kShedStop, /*rate=*/0.0,
                   /*cut_ns=*/0, /*formed_ns=*/0, /*sched_ns=*/0,
                   /*fwd_start_ns=*/0, /*fwd_done_ns=*/0);
  }
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(inflight_mu_);
      if (inflight_cv_.wait_for(lock, std::chrono::milliseconds(10),
                                [this] { return in_flight_ == 0; })) {
        break;
      }
    }
    RunWatchdog();
  }
}

void SliceServer::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (stopped_) return;
  stopped_ = true;
  stop_requested_.store(true, std::memory_order_release);
  batcher_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  // Destroying the pool joins the workers after any queued tasks ran; the
  // batcher already waited for in-flight batches, so this is immediate.
  pool_.reset();
}

double SliceServer::cost_model_drift() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return drift_ewma_;
}

ServerStats SliceServer::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batches_int8 = batches_int8_.load(std::memory_order_relaxed);
  s.ticks = ticks_.load(std::memory_order_relaxed);
  s.retried_batches = retried_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_total_.load(std::memory_order_relaxed);
  s.repaired = repaired_total_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mu_);
  s.min_rate = min_rate_;
  s.max_batch_seconds = max_batch_seconds_;
  return s;
}

std::vector<ClosedLoopTick> RunClosedLoop(SliceServer* server,
                                          const std::vector<int>& arrivals,
                                          double deadline_seconds) {
  std::vector<ClosedLoopTick> trace;
  trace.reserve(arrivals.size());
  const auto tick = SecondsToDuration(server->tick_seconds());
  auto next = SteadyClock::now() + tick;
  for (int n : arrivals) {
    ClosedLoopTick t;
    t.submitted = n;
    for (int i = 0; i < n; ++i) server->Submit(deadline_seconds);
    std::this_thread::sleep_until(next);
    next += tick;
    t.queue_depth = server->queue_depth();
    trace.push_back(t);
  }
  return trace;
}

}  // namespace ms
