// The traced forward: walks a zoo model's Sequential children one by one,
// exactly as Sequential::DoForward does (skipping children whose
// BypassedAtInference() is true on inference forwards), and records one
// span per child call. Only public Module entry points are used, so the
// walk runs the same kernels as Sequential::Forward; the benchmark checks
// that the two give bitwise-identical logits.
#ifndef PERFBENCH_TRACED_MODEL_H_
#define PERFBENCH_TRACED_MODEL_H_

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/helpers.h"
#include "src/nn/module.h"

namespace perfbench {

/// Layer kinds of the vgg13 zoo model. `stem` is the unsliced first conv,
/// `conv` the other convs, `norm` GroupNorm (and the ReLU after it, which
/// runs as its own child only on training forwards), `pool` max-pool and
/// `head` global average pool plus the classifier.
enum class LayerKind { kStem = 0, kConv, kNorm, kPool, kHead };
inline constexpr int kNumKinds = 5;
inline constexpr std::array<const char*, kNumKinds> kKindNames = {
    "stem", "conv", "norm", "pool", "head"};

/// Kind of each child of `net`, by child name. Empty (with `*error` set)
/// when a child matches no kind.
std::vector<LayerKind> ClassifyChildren(ms::Sequential* net,
                                        std::string* error);

/// One traced forward: its root span in the log and its operating point.
struct ForwardRecord {
  int64_t span = -1;
  int64_t batch = 0;
  double rate = 1.0;
  ms::Precision precision = ms::Precision::kFp32;
  bool training = false;
  /// Multiply-accumulates per sample of the stem, conv and head children
  /// at `rate` (the GEMM-bearing layers).
  double gemm_macs = 0.0;
};

/// \brief A Module that runs a Sequential child by child, recording spans
/// into `log` and one ForwardRecord per forward (when `log` is non-null).
/// Span names: the whole forward is "fwd" ("train_fwd" when training), the
/// whole backward "bwd", and each child call "<kind>" under it.
/// Thread-compatible: one caller at a time per instance, any number of
/// instances per log.
class TracedModel : public ms::Module {
 public:
  /// Wraps `inner`, which the caller keeps alive.
  TracedModel(ms::Sequential* inner, std::vector<LayerKind> kinds,
              SpanLog* log);
  /// Wraps and owns `inner` (a server replica).
  TracedModel(std::unique_ptr<ms::Sequential> inner,
              std::vector<LayerKind> kinds, SpanLog* log);

  void CollectParams(std::vector<ms::ParamRef>* out) override {
    inner_->CollectParams(out);
  }
  int64_t FlopsPerSample() const override { return inner_->FlopsPerSample(); }
  int64_t ActiveParams() const override { return inner_->ActiveParams(); }
  std::string name() const override { return inner_->name(); }

  std::vector<ForwardRecord> records() const;

 protected:
  ms::Tensor DoForward(const ms::Tensor& x, bool training) override;
  ms::Tensor DoBackward(const ms::Tensor& grad_out) override;
  void DoSetSliceRate(double r) override;
  void DoSetPrecision(ms::Precision p) override { inner_->SetPrecision(p); }

 private:
  std::unique_ptr<ms::Sequential> owned_;
  ms::Sequential* inner_;
  std::vector<LayerKind> kinds_;
  SpanLog* log_;
  double rate_ = 1.0;
  double gemm_macs_ = 0.0;  ///< at rate_.
  std::vector<uint8_t> ran_;  ///< children the last forward ran.
  mutable std::mutex mu_;
  std::vector<ForwardRecord> records_;  // guarded by mu_
};

/// Adds the model-layer metrics of the traced forwards in `records`:
///   nn.fwd_us.<kind>  self time per sample of each layer kind;
///   tensor.gflops     2 x GEMM MACs / self time of stem, conv and head;
///   nn.batch_mean     samples per forward;
///   nn.rate_share.<r> share of samples run at each lattice rate.
/// The two timings are medians within each operating point (rate,
/// precision, training), combined as a geometric mean weighted by the
/// samples each point ran, so that a mix of operating points gives a
/// steady figure. Fails `report` when `records` is empty.
void AddModelLayerMetrics(const SpanLog& log,
                          const std::vector<ForwardRecord>& records,
                          Report* report);

/// The records of `models` whose forward started at or after `since`
/// (NowSeconds()).
std::vector<ForwardRecord> RecordsSince(const SpanLog& log,
                                        const std::vector<TracedModel*>& models,
                                        double since);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_MODEL_H_
