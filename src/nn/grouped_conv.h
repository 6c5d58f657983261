// Grouped 2-D convolution (ResNeXt-style homogeneous multi-branch
// transformation [51]). The paper singles these out as ideally suited to
// group residual learning (Sec. 3.5): when the convolution groups coincide
// with the slicing groups, a slice keeps a prefix of whole branches, each
// branch's compute is independent, and cost scales linearly in the number
// of active branches.
#ifndef MODELSLICING_NN_GROUPED_CONV_H_
#define MODELSLICING_NN_GROUPED_CONV_H_

#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/nn/slice_spec.h"
#include "src/nn/sliced_matmul.h"
#include "src/util/rng.h"

namespace ms {

struct GroupedConv2dOptions {
  int64_t in_channels = 0;    ///< must be divisible by groups.
  int64_t out_channels = 0;   ///< must be divisible by groups.
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t pad = 1;
  int64_t groups = 1;         ///< convolution groups == slicing groups.
  bool slice = true;
};

/// \brief Branch g maps input channels [g*Mg, (g+1)*Mg) to output channels
/// [g*Ng, (g+1)*Ng); slicing activates the branch prefix.
class GroupedConv2d : public Module {
 public:
  GroupedConv2d(GroupedConv2dOptions opts, Rng* rng,
                std::string name = "gconv");

  Tensor DoForward(const Tensor& x, bool training) override;
  Tensor DoBackward(const Tensor& grad_out) override;
  void CollectParams(std::vector<ParamRef>* out) override;
  void DoSetSliceRate(double r) override;
  int64_t FlopsPerSample() const override;
  int64_t ActiveParams() const override;
  std::string name() const override { return name_; }

  int64_t active_groups() const { return active_groups_; }
  int64_t active_in() const { return active_groups_ * in_per_group_; }
  int64_t active_out() const { return active_groups_ * out_per_group_; }

  /// Fusion-pass hook: apply `act` in each branch GEMM's epilogue at
  /// inference (the following activation module is then bypassed). The
  /// layer has no bias, so the epilogue is activation-only.
  void SetFusedActivation(ops::EpiAct act) { fused_act_ = act; }
  ops::EpiAct fused_activation() const { return fused_act_; }

 private:
  GroupedConv2dOptions opts_;
  std::string name_;
  int64_t in_per_group_ = 0;
  int64_t out_per_group_ = 0;
  int64_t active_groups_ = 0;

  Tensor w_;       ///< (groups, out_per_group, in_per_group * k * k) flat.
  Tensor w_grad_;

  /// One operator per branch, W_g as the left operand of its im2col
  /// product. Slicing keeps whole branches, so each is a single K segment
  /// always used at full extents.
  std::vector<SlicedMatmul> matmuls_;

  Tensor cached_x_;
  ops::EpiAct fused_act_ = ops::EpiAct::kNone;
  int64_t cached_h_ = 0, cached_w_ = 0, last_oh_ = 0, last_ow_ = 0;
};

}  // namespace ms

#endif  // MODELSLICING_NN_GROUPED_CONV_H_
