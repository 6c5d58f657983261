#include "src/nn/module.h"

#include <optional>

#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/util/stopwatch.h"

namespace ms {

Tensor Module::Forward(const Tensor& x, bool training) {
  last_forward_training_ = training;
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
