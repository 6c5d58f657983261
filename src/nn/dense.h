// Fully-connected layer with model slicing (paper Sec. 3.1, Eq. 1-2).
#ifndef MODELSLICING_NN_DENSE_H_
#define MODELSLICING_NN_DENSE_H_

#include <string>

#include "src/nn/module.h"
#include "src/nn/slice_spec.h"
#include "src/nn/sliced_matmul.h"
#include "src/tensor/prepack.h"
#include "src/util/rng.h"

namespace ms {

struct DenseOptions {
  int64_t in_features = 0;
  int64_t out_features = 0;
  int64_t groups = 1;          ///< G, ordered slicing groups per dimension.
  bool slice_in = true;        ///< Input neurons participate in slicing.
  bool slice_out = true;       ///< Output neurons participate in slicing.
  bool bias = true;
  /// Rescale output by full_in / active_in so pre-activation scale is stable
  /// as the fan-in shrinks ("output rescaling", paper Sec. 5.2.2). Only
  /// meaningful when slice_in is true and the layer is not followed by a
  /// normalization layer.
  bool rescale = false;
  /// Multiplier when the input is a flattened spatial map: the sliceable
  /// unit is `in_unit` consecutive scalars (e.g. H*W after flatten).
  int64_t in_unit = 1;
};

/// \brief y = W x (+ b) over the active prefix of neurons.
///
/// W is stored full-size (out_features x in_features); forward/backward at
/// slice rate r touch rows [0, n_active) and columns [0, m_active), leaving
/// the rest untouched (zero gradient), which realizes the partial-order
/// group constraint of Eq. 2.
class Dense : public Module {
 public:
  Dense(DenseOptions opts, Rng* rng, std::string name = "dense");

  Tensor DoForward(const Tensor& x, bool training) override;
  Tensor DoBackward(const Tensor& grad_out) override;
  void CollectParams(std::vector<ParamRef>* out) override;
  void DoSetSliceRate(double r) override;
  int64_t FlopsPerSample() const override;
  int64_t ActiveParams() const override;
  std::string name() const override { return name_; }

  int64_t active_in() const { return active_in_units_ * opts_.in_unit; }
  int64_t active_out() const { return active_out_; }
  /// Fusion-pass hook: apply `act` in the forward GEMM's epilogue at
  /// inference (the following activation module is then bypassed).
  void SetFusedActivation(ops::EpiAct act) { fused_act_ = act; }
  ops::EpiAct fused_activation() const { return fused_act_; }
  const Tensor& weight() const { return w_; }
  /// Write-intent accessor: bumps the weight generation so prepacked
  /// panels (see prepack.h) can never serve the old values.
  Tensor* mutable_weight() {
    ops::BumpWeightGeneration();
    return &w_;
  }
  const Tensor& bias() const { return b_; }
  Tensor* mutable_bias() { return &b_; }
  const DenseOptions& options() const { return opts_; }

 private:
  DenseOptions opts_;
  std::string name_;
  SliceSpec in_spec_;
  SliceSpec out_spec_;
  int64_t active_in_units_ = 0;  ///< active input *units* (pre in_unit).
  int64_t active_out_ = 0;

  Tensor w_;       ///< (out_features, in_features)
  Tensor b_;       ///< (out_features)
  Tensor w_grad_;
  Tensor b_grad_;

  Tensor cached_x_;  ///< compact input from last Forward.
  float rescale_factor_ = 1.0f;
  ops::EpiAct fused_act_ = ops::EpiAct::kNone;

  /// W's contraction and packs; any (rate, precision) reads a prefix. K
  /// segments (int8 scale groups) are the input groups scaled by in_unit.
  SlicedMatmul matmul_;
};

}  // namespace ms

#endif  // MODELSLICING_NN_DENSE_H_
