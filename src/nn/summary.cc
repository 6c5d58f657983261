#include "src/nn/summary.h"

#include <sstream>

#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "src/nn/norm.h"
#include "src/nn/residual.h"
#include "src/obs/profiler.h"
#include "src/util/string_util.h"

namespace ms {
namespace {

std::string KindOf(const Module* m) {
  if (dynamic_cast<const Dense*>(m) != nullptr) return "dense";
  if (dynamic_cast<const Conv2d*>(m) != nullptr) return "conv2d";
  if (dynamic_cast<const Lstm*>(m) != nullptr) return "lstm";
  if (dynamic_cast<const Gru*>(m) != nullptr) return "gru";
  if (dynamic_cast<const GroupNorm*>(m) != nullptr) return "groupnorm";
  if (dynamic_cast<const MultiBatchNorm*>(m) != nullptr) return "multibn";
  if (dynamic_cast<const BatchNorm*>(m) != nullptr) return "batchnorm";
  if (dynamic_cast<const ResidualBlock*>(m) != nullptr) return "residual";
  if (dynamic_cast<const Sequential*>(m) != nullptr) return "sequential";
  return "";
}

void Walk(Module* m, int depth, ModelSummary* out) {
  LayerSummary layer;
  layer.name = m->name();
  layer.kind = KindOf(m);
  layer.active_params = m->ActiveParams();
  layer.flops = m->FlopsPerSample();
  layer.depth = depth;
  if (const obs::SliceProfiler* prof = obs::SliceProfiler::Active()) {
    layer.fwd_millis = prof->MeanForwardNanos(m, out->rate) / 1e6;
  }
  out->layers.push_back(layer);

  if (auto* seq = dynamic_cast<Sequential*>(m)) {
    for (size_t i = 0; i < seq->size(); ++i) {
      Walk(seq->child(i), depth + 1, out);
    }
  } else if (auto* res = dynamic_cast<ResidualBlock*>(m)) {
    Walk(res->body(), depth + 1, out);
  }
}

}  // namespace

ModelSummary Summarize(Module* net, const Tensor& sample, double rate) {
  net->SetSliceRate(rate);
  (void)net->Forward(sample, /*training=*/false);
  ModelSummary summary;
  summary.rate = rate;
  Walk(net, 0, &summary);
  // Totals come from the root (children would double-count).
  summary.total_params = net->ActiveParams();
  summary.total_flops = net->FlopsPerSample();
  return summary;
}

std::string FormatSummary(const ModelSummary& summary) {
  bool profiled = false;
  for (const auto& layer : summary.layers) {
    if (layer.fwd_millis > 0.0) {
      profiled = true;
      break;
    }
  }
  std::ostringstream os;
  os << StrFormat("model summary at slice rate %.3f\n", summary.rate);
  os << StrFormat("%-36s %-11s %12s %12s", "layer", "kind", "params",
                  "FLOPs");
  if (profiled) os << StrFormat(" %10s", "fwd ms");
  os << "\n";
  for (const auto& layer : summary.layers) {
    std::string indent(static_cast<size_t>(layer.depth) * 2, ' ');
    const std::string name = indent + layer.name;
    os << StrFormat("%-36s %-11s %12lld %12lld", name.c_str(),
                    layer.kind.c_str(),
                    static_cast<long long>(layer.active_params),
                    static_cast<long long>(layer.flops));
    if (profiled) os << StrFormat(" %10.4f", layer.fwd_millis);
    os << "\n";
  }
  os << StrFormat("%-36s %-11s %12lld %12lld", "TOTAL (active)", "",
                  static_cast<long long>(summary.total_params),
                  static_cast<long long>(summary.total_flops));
  if (profiled && !summary.layers.empty()) {
    // The root layer's measured time covers the whole model.
    os << StrFormat(" %10.4f", summary.layers.front().fwd_millis);
  }
  os << "\n";
  return os.str();
}

}  // namespace ms
