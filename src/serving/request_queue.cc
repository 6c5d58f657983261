#include "src/serving/request_queue.h"

#include <cmath>

#include "src/obs/trace.h"
#include "src/util/fault.h"

namespace ms {

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kServed: return "served";
    case RequestOutcome::kExpired: return "expired";
    case RequestOutcome::kShedStop: return "shed";
    case RequestOutcome::kFailed: return "failed";
  }
  return "unknown";
}

AdmitResult RequestQueue::Submit(double deadline_seconds,
                                 RequestDoneFn done) {
  // A NaN deadline would slip past the `> 0.0` check below and masquerade
  // as "no deadline"; reject non-finite deadlines outright instead (+Inf is
  // equally malformed — callers meaning "no deadline" pass 0).
  if (!std::isfinite(deadline_seconds)) return AdmitResult::kRejectedInvalid;
  if (fault::Registry::Global().ShouldFire(fault::kQueueReject)) {
    return AdmitResult::kRejectedClosed;
  }
  Request r;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.enqueued = Request::Clock::now();
  r.submit_ns = obs::StageNowNanos();
  if (done) {
    r.done = std::make_shared<RequestDoneFn>(std::move(done));
  }
  if (deadline_seconds > 0.0) {
    r.deadline = r.enqueued + std::chrono::duration_cast<
                                  Request::Clock::duration>(
                                  std::chrono::duration<double>(
                                      deadline_seconds));
  }
  switch (queue_.TryPush(r)) {
    case PushStatus::kOk:
      return AdmitResult::kAccepted;
    case PushStatus::kFull:
      return AdmitResult::kShedQueueFull;
    case PushStatus::kClosed:
      break;
  }
  return AdmitResult::kRejectedClosed;
}

RequestBatch RequestQueue::CutBatch(int64_t max_n) {
  std::vector<Request> all;
  queue_.PopAll(&all);
  RequestBatch out;
  out.cut_ns = obs::StageNowNanos();
  std::vector<Request> leftover;
  const auto now = Request::Clock::now();
  for (auto& r : all) {
    if (r.ExpiredAt(now)) {
      ++out.expired;
      out.expired_requests.push_back(r);
    } else if (static_cast<int64_t>(out.requests.size()) < max_n) {
      out.requests.push_back(r);
    } else {
      leftover.push_back(r);
    }
  }
  // Untaken live requests keep their queue position (and deadlines) for the
  // next tick; concurrent Submits landed behind them, preserving FIFO.
  if (!leftover.empty()) queue_.PushFront(std::move(leftover));
  return out;
}

RequestBatch RequestQueue::DrainAll() {
  std::vector<Request> all;
  queue_.PopAll(&all);
  RequestBatch out;
  const auto now = Request::Clock::now();
  for (auto& r : all) {
    if (r.ExpiredAt(now)) {
      ++out.expired;
      out.expired_requests.push_back(r);
    } else {
      out.requests.push_back(r);
    }
  }
  return out;
}

}  // namespace ms
