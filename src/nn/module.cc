#include "src/nn/module.h"

#include <cstdlib>
#include <optional>

#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/tensor/activation_arena.h"
#include "src/util/stopwatch.h"

namespace ms {
namespace {

// MS_PLAN_ACTIVATIONS=1 forces every top-level Forward to run inside an
// activation-arena scope even when the caller (trainer, ad-hoc test) never
// set one up. Used by the ASan CI job to route ALL activation traffic
// through the arena path. Each thread gets its own arena; the depth counter
// keeps nested child Forward calls inside the root scope.
bool ForcedPlanningEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("MS_PLAN_ACTIVATIONS");
    return v != nullptr && v[0] == '1' && v[1] == '\0';
  }();
  return enabled;
}

ActivationArena& ForcedArenaForThread() {
  thread_local ActivationArena arena;
  return arena;
}

thread_local int t_forward_depth = 0;

}  // namespace

Tensor Module::Forward(const Tensor& x, bool training) {
  last_forward_training_ = training;
  // Opens the forced arena scope only at the OUTERMOST Forward of this
  // thread (depth 0) and only when no arena is already bound.
  std::optional<ActivationScope> forced;
  struct DepthGuard {
    DepthGuard() { ++t_forward_depth; }
    ~DepthGuard() { --t_forward_depth; }
  } depth_guard;
  if (t_forward_depth == 1 && ForcedPlanningEnabled() &&
      CurrentActivationArena() == nullptr) {
    forced.emplace(ForcedArenaForThread());
  }

  obs::SliceProfiler* profiler = obs::SliceProfiler::Active();
  const bool tracing = obs::TraceCollector::Global().enabled();
  if (profiler == nullptr && !tracing) return DoForward(x, training);

  std::optional<obs::TraceSpan> span;
  if (tracing) span.emplace(name() + ".fwd");
  Stopwatch watch;
  Tensor y = DoForward(x, training);
  if (profiler != nullptr) {
    profiler->RecordForward(this, name(),
                            static_cast<double>(watch.ElapsedNanos()));
  }
  return y;
}

Tensor Module::Backward(const Tensor& grad_out) {
  MS_CHECK_MSG(last_forward_training_,
               name() + "::Backward requires a training-mode Forward");
  obs::SliceProfiler* profiler = obs::SliceProfiler::Active();
  const bool tracing = obs::TraceCollector::Global().enabled();
  if (profiler == nullptr && !tracing) return DoBackward(grad_out);

  std::optional<obs::TraceSpan> span;
  if (tracing) span.emplace(name() + ".bwd");
  Stopwatch watch;
  Tensor g = DoBackward(grad_out);
  if (profiler != nullptr) {
    profiler->RecordBackward(this, name(),
                             static_cast<double>(watch.ElapsedNanos()));
  }
  return g;
}

void Module::SetPrecision(Precision p) {
  precision_ = p;
  DoSetPrecision(p);
}

void Module::SetSliceRate(double r) {
  if (obs::SliceProfiler* profiler = obs::SliceProfiler::Active()) {
    profiler->set_current_rate(r);
  }
  DoSetSliceRate(r);
}

}  // namespace ms
