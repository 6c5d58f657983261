// 2-D convolution with model slicing over channels (paper Sec. 3.2, Eq. 4),
// including grouped and depthwise convolutions as branches (Sec. 3.5).
#ifndef MODELSLICING_NN_CONV2D_H_
#define MODELSLICING_NN_CONV2D_H_

#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/nn/slice_spec.h"
#include "src/nn/sliced_matmul.h"
#include "src/tensor/cols_view.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace ms {

struct Conv2dOptions {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t pad = 1;
  int64_t groups = 1;     ///< G slicing groups (not conv groups).
  /// Conv groups: branch b maps input channels [b*in/branches, ...) to
  /// output channels [b*out/branches, ...). Both counts must divide by it.
  int64_t branches = 1;
  bool slice_in = true;
  bool slice_out = true;
  bool bias = false;      ///< Usually false: a norm layer follows.
};

/// \brief Channel-sliced convolution, plain (branches == 1), grouped
/// (ResNeXt) or depthwise (branches == in == out channels).
///
/// Weight layout is (N, M / branches, k, k) flattened row-major, so the
/// first m_active*k*k entries of each filter row correspond exactly to the
/// first m_active input channels of its branch. With one branch, slicing
/// both dimensions reduces to prefix GEMMs against the im2col matrix of
/// the active channels. With several, the slicing groups must fall on
/// branch boundaries (checked at construction): a slice keeps a prefix of
/// whole branches, each one GEMM of its own, so cost is linear in the
/// active branches (Sec. 3.5). The forward reads every branch's im2col
/// matrix in place from one set of padded input planes
/// (tensor/cols_view.h); the backward materialises it with Im2Col. A
/// depthwise shape runs direct loops instead, always in fp32.
class Conv2d : public Module {
 public:
  Conv2d(Conv2dOptions opts, Rng* rng, std::string name = "conv");

  Tensor DoForward(const Tensor& x, bool training) override;
  Tensor DoBackward(const Tensor& grad_out) override;
  void CollectParams(std::vector<ParamRef>* out) override;
  void DoSetSliceRate(double r) override;
  int64_t FlopsPerSample() const override;
  int64_t ActiveParams() const override;
  std::string name() const override { return name_; }

  int64_t active_in() const { return active_in_; }
  int64_t active_out() const { return active_out_; }
  /// Branches in the active prefix (1 when the conv has one branch).
  int64_t active_branches() const;
  const Conv2dOptions& options() const { return opts_; }

  /// Fusion-pass hook: apply `act` in the forward GEMM's epilogue at
  /// inference (the following activation module is then bypassed).
  void SetFusedActivation(ops::EpiAct act) { fused_act_ = act; }
  ops::EpiAct fused_activation() const { return fused_act_; }

  /// Weight matrix (out_channels, in_channels / branches * k * k); exposed
  /// for the channel-pruning baseline which rebuilds compact networks.
  const Tensor& weight() const { return w_; }
  /// Write-intent accessor: bumps the weight generation so prepacked
  /// panels (see prepack.h) can never serve the old values.
  Tensor* mutable_weight() {
    ops::BumpWeightGeneration();
    return &w_;
  }
  const Tensor& bias() const { return b_; }
  Tensor* mutable_bias() { return &b_; }

 private:
  /// One input and one output channel per branch: direct loops, no GEMM.
  bool depthwise() const {
    return opts_.branches > 1 && opts_.in_channels == opts_.branches &&
           opts_.out_channels == opts_.branches;
  }

  Conv2dOptions opts_;
  std::string name_;
  SliceSpec in_spec_;
  SliceSpec out_spec_;
  int64_t active_in_ = 0;
  int64_t active_out_ = 0;

  Tensor w_;       ///< (out_channels, in_channels / branches * k * k)
  Tensor b_;
  Tensor w_grad_;
  Tensor b_grad_;

  /// One per branch (none for a depthwise shape): the branch's rows of W
  /// as the left operand of its im2col product; sliced channels read a
  /// prefix. With one branch the K segments (int8 scale groups) are the
  /// input groups scaled by k*k; a branch of several is one segment.
  std::vector<SlicedMatmul> matmuls_;
  /// Im2col row starts in the padded planes, one per active tap; rebuilt
  /// each forward. Branch b reads the first taps of it from its own planes.
  std::vector<int64_t> tap_offsets_;

  Tensor cached_x_;       ///< compact input (B, m, H, W)
  ops::EpiAct fused_act_ = ops::EpiAct::kNone;
  int64_t cached_h_ = 0;
  int64_t cached_w_ = 0;
  int64_t last_oh_ = 0;   ///< spatial dims of last output, for FLOPs.
  int64_t last_ow_ = 0;
};

}  // namespace ms

#endif  // MODELSLICING_NN_CONV2D_H_
