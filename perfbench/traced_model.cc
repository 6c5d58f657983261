#include "perfbench/traced_model.h"

#include <cmath>
#include <map>
#include <tuple>
#include <unordered_map>

#include "perfbench/workloads.h"

namespace perfbench {

std::vector<LayerKind> ClassifyChildren(ms::Sequential* net,
                                        std::string* error) {
  std::vector<LayerKind> kinds;
  bool seen_conv = false;
  for (size_t i = 0; i < net->size(); ++i) {
    const std::string name = net->child(i)->name();
    auto starts = [&](const char* prefix) { return name.rfind(prefix, 0) == 0; };
    if (starts("conv_")) {
      kinds.push_back(seen_conv ? LayerKind::kConv : LayerKind::kStem);
      seen_conv = true;
    } else if (starts("norm_") || name == "relu") {
      kinds.push_back(LayerKind::kNorm);
    } else if (name == "maxpool") {
      kinds.push_back(LayerKind::kPool);
    } else if (name == "gap" || name == "classifier") {
      kinds.push_back(LayerKind::kHead);
    } else {
      *error = "unknown layer kind for child '" + name + "'";
      return {};
    }
  }
  return kinds;
}

TracedModel::TracedModel(ms::Sequential* inner, std::vector<LayerKind> kinds,
                         SpanLog* log)
    : inner_(inner), kinds_(std::move(kinds)), log_(log) {
  DoSetSliceRate(1.0);
}

TracedModel::TracedModel(std::unique_ptr<ms::Sequential> inner,
                         std::vector<LayerKind> kinds, SpanLog* log)
    : TracedModel(inner.get(), std::move(kinds), log) {
  owned_ = std::move(inner);
}

std::vector<ForwardRecord> TracedModel::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

void TracedModel::DoSetSliceRate(double r) {
  rate_ = r;
  inner_->SetSliceRate(r);
  gemm_macs_ = 0.0;
  for (size_t i = 0; i < inner_->size(); ++i) {
    if (kinds_[i] != LayerKind::kNorm && kinds_[i] != LayerKind::kPool) {
      gemm_macs_ += static_cast<double>(inner_->child(i)->FlopsPerSample());
    }
  }
}

ms::Tensor TracedModel::DoForward(const ms::Tensor& x, bool training) {
  const int64_t root =
      log_ == nullptr ? -1 : log_->Begin(training ? "train_fwd" : "fwd");
  ms::Tensor h = x;
  ran_.assign(inner_->size(), 0);
  for (size_t i = 0; i < inner_->size(); ++i) {
    ms::Module* child = inner_->child(i);
    // Sequential::DoForward's rule: a child whose work an earlier layer
    // absorbed is skipped on inference forwards.
    if (!training && child->BypassedAtInference()) continue;
    ran_[i] = 1;
    if (log_ == nullptr) {
      h = child->Forward(h, training);
      continue;
    }
    const int64_t span = log_->Begin(kKindNames[static_cast<int>(kinds_[i])], root);
    h = child->Forward(h, training);
    log_->End(span);
  }
  if (log_ != nullptr) {
    log_->End(root);
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back({root, x.shape()[0], rate_, precision_, training, gemm_macs_});
  }
  return h;
}

ms::Tensor TracedModel::DoBackward(const ms::Tensor& grad_out) {
  const int64_t root = log_ == nullptr ? -1 : log_->Begin("bwd");
  ms::Tensor g = grad_out;
  for (size_t i = inner_->size(); i-- > 0;) {
    if (i < ran_.size() && !ran_[i]) continue;
    ms::Module* child = inner_->child(i);
    if (log_ == nullptr) {
      g = child->Backward(g);
      continue;
    }
    const int64_t span = log_->Begin(kKindNames[static_cast<int>(kinds_[i])], root);
    g = child->Backward(g);
    log_->End(span);
  }
  if (log_ != nullptr) log_->End(root);
  return g;
}

void AddModelLayerMetrics(const SpanLog& log,
                          const std::vector<ForwardRecord>& records,
                          Report* report) {
  if (records.empty()) return report->Fail("no traced forward to report");
  const std::vector<SpanLog::Span> spans = log.spans();
  const std::vector<double> self = log.SelfTimes();
  // Self time per layer kind of every recorded forward, by root span.
  std::unordered_map<int64_t, std::array<double, kNumKinds>> kind_s;
  for (const ForwardRecord& r : records) kind_s[r.span] = {};
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = kind_s.find(spans[i].parent);
    if (it == kind_s.end()) continue;
    for (int k = 0; k < kNumKinds; ++k) {
      if (spans[i].name == kKindNames[k]) it->second[k] += self[i];
    }
  }

  // Per operating point: per-sample values of each metric, and samples.
  constexpr int kGflops = kNumKinds;
  struct Point {
    std::array<std::vector<double>, kNumKinds + 1> values;
    int64_t samples = 0;
  };
  std::map<std::tuple<double, int, bool>, Point> points;
  std::map<std::string, int64_t> samples_at_rate;
  int64_t samples = 0, forwards = 0;
  for (const ForwardRecord& r : records) {
    const auto& t = kind_s.at(r.span);
    Point& p = points[{r.rate, static_cast<int>(r.precision), r.training}];
    const double n = static_cast<double>(r.batch);
    for (int k = 0; k < kNumKinds; ++k) p.values[k].push_back(t[k] * 1e6 / n);
    const double gemm_s = t[0] + t[1] + t[4];  // stem, conv, head
    p.values[kGflops].push_back(2.0 * r.gemm_macs * n / gemm_s / 1e9);
    p.samples += r.batch;
    samples_at_rate[RateTag(r.rate)] += r.batch;
    samples += r.batch;
    ++forwards;
  }
  auto mix = [&](int metric) {
    double log_sum = 0.0;
    for (const auto& [key, p] : points) {
      log_sum += static_cast<double>(p.samples) * std::log(Median(p.values[metric]));
    }
    return std::exp(log_sum / static_cast<double>(samples));
  };
  for (int k = 0; k < kNumKinds; ++k) {
    report->Add(std::string("nn.fwd_us.") + kKindNames[k], mix(k), "us");
  }
  report->Add("tensor.gflops", mix(kGflops), "GFLOP/s");
  report->Add("nn.batch_mean",
              static_cast<double>(samples) / static_cast<double>(forwards), "count");
  for (double rate : kLattice) {
    report->Add("nn.rate_share." + RateTag(rate),
                static_cast<double>(samples_at_rate[RateTag(rate)]) /
                    static_cast<double>(samples),
                "ratio");
  }
}

std::vector<ForwardRecord> RecordsSince(const SpanLog& log,
                                        const std::vector<TracedModel*>& models,
                                        double since) {
  const std::vector<SpanLog::Span> spans = log.spans();
  std::vector<ForwardRecord> out;
  for (const TracedModel* m : models) {
    for (const ForwardRecord& r : m->records()) {
      if (spans[static_cast<size_t>(r.span)].start >= since) out.push_back(r);
    }
  }
  return out;
}

}  // namespace perfbench
