// Normalization layers under model slicing (paper Sec. 3.2, Eq. 5-6).
//
// - GroupNorm: the paper's solution. Normalization groups coincide with the
//   slicing groups, so a sliced layer normalizes exactly its active groups
//   with statistics computed on the fly — no running estimates to go stale.
// - BatchNorm: classic batch statistics + running estimates; under slicing
//   its single set of running estimates cannot stabilize the fluctuating
//   fan-in (the instability the paper describes).
// - MultiBatchNorm: SlimmableNet's alternative — one private BatchNorm per
//   candidate slice rate.
#ifndef MODELSLICING_NN_NORM_H_
#define MODELSLICING_NN_NORM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/nn/slice_spec.h"
#include "src/tensor/epilogue.h"

namespace ms {

struct NormOptions {
  int64_t channels = 0;
  int64_t groups = 1;    ///< G: slicing == normalization groups.
  bool slice = true;     ///< Whether the channel dim participates in slicing.
  float eps = 1e-5f;
  float momentum = 0.1f; ///< BatchNorm running-stat update rate.
};

/// \brief Group normalization sliced at group granularity.
///
/// Accepts (B, C) or (B, C, H, W) input where C is the active prefix.
class GroupNorm : public Module {
 public:
  explicit GroupNorm(NormOptions opts, std::string name = "gn");

  Tensor DoForward(const Tensor& x, bool training) override;
  Tensor DoBackward(const Tensor& grad_out) override;
  void CollectParams(std::vector<ParamRef>* out) override;
  void DoSetSliceRate(double r) override;
  int64_t ActiveParams() const override { return 2 * active_channels_; }
  std::string name() const override { return name_; }

  int64_t active_channels() const { return active_channels_; }
  /// Per-channel scale γ — Figure 6 visualizes these during training.
  const Tensor& gamma() const { return gamma_; }

  /// Fusion-pass hook: apply `act` at the normalization's own write site
  /// during inference (the following activation module is then bypassed).
  void SetFusedActivation(ops::EpiAct act) { fused_act_ = act; }
  ops::EpiAct fused_activation() const { return fused_act_; }

 private:
  /// One parallel sweep over samples: statistics, normalization and the
  /// fused activation per (sample, group), with no backward state.
  Tensor ForwardInference(const Tensor& x) const;

  NormOptions opts_;
  std::string name_;
  SliceSpec spec_;
  int64_t active_channels_ = 0;
  int64_t active_groups_ = 0;
  ops::EpiAct fused_act_ = ops::EpiAct::kNone;

  Tensor gamma_;       ///< (C)
  Tensor beta_;        ///< (C)
  Tensor gamma_grad_;
  Tensor beta_grad_;

  // Training-forward cache for backward.
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;  ///< (B * active_groups)
  int64_t cached_batch_ = 0;
  int64_t cached_area_ = 0;
};

/// \brief Batch normalization over the active channel prefix.
class BatchNorm : public Module {
 public:
  explicit BatchNorm(NormOptions opts, std::string name = "bn");

  Tensor DoForward(const Tensor& x, bool training) override;
  Tensor DoBackward(const Tensor& grad_out) override;
  void CollectParams(std::vector<ParamRef>* out) override;
  void DoSetSliceRate(double r) override;
  int64_t ActiveParams() const override { return 2 * active_channels_; }
  std::string name() const override { return name_; }

  int64_t active_channels() const { return active_channels_; }

  /// See GroupNorm::SetFusedActivation.
  void SetFusedActivation(ops::EpiAct act) { fused_act_ = act; }
  ops::EpiAct fused_activation() const { return fused_act_; }

  /// Accessors for the channel-pruning baseline (Network Slimming reads the
  /// γ magnitudes and rebuilds compact BN layers).
  const Tensor& gamma() const { return gamma_; }
  Tensor* mutable_gamma() { return &gamma_; }
  Tensor* mutable_gamma_grad() { return &gamma_grad_; }
  const Tensor& beta() const { return beta_; }
  Tensor* mutable_beta() { return &beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  Tensor* mutable_running_mean() { return &running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  Tensor* mutable_running_var() { return &running_var_; }

 private:
  NormOptions opts_;
  std::string name_;
  SliceSpec spec_;
  int64_t active_channels_ = 0;

  Tensor gamma_, beta_, gamma_grad_, beta_grad_;
  Tensor running_mean_, running_var_;
  ops::EpiAct fused_act_ = ops::EpiAct::kNone;

  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;  ///< (active channels)
  int64_t cached_batch_ = 0;
  int64_t cached_area_ = 0;
};

/// \brief One independent BatchNorm per candidate slice rate
/// (SlimmableNet [52]). SetSliceRate selects the matching set.
class MultiBatchNorm : public Module {
 public:
  MultiBatchNorm(NormOptions opts, const std::vector<double>& rates,
                 std::string name = "mbn");

  /// Propagates to every per-rate BatchNorm.
  void SetFusedActivation(ops::EpiAct act) {
    for (auto& n : norms_) n->SetFusedActivation(act);
  }

  Tensor DoForward(const Tensor& x, bool training) override;
  Tensor DoBackward(const Tensor& grad_out) override;
  void CollectParams(std::vector<ParamRef>* out) override;
  void DoSetSliceRate(double r) override;
  int64_t ActiveParams() const override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<double> rates_;
  std::vector<std::unique_ptr<BatchNorm>> norms_;
  size_t active_ = 0;
};

}  // namespace ms

#endif  // MODELSLICING_NN_NORM_H_
