// Stateless activation layers (shape-agnostic; pass compact slices through).
#ifndef MODELSLICING_NN_ACTIVATIONS_H_
#define MODELSLICING_NN_ACTIVATIONS_H_

#include <cmath>

#include "src/nn/module.h"

namespace ms {

/// \brief max(0, x); a training forward caches the mask for backward.
class ReLU : public Module {
 public:
  Tensor DoForward(const Tensor& x, bool training) override {
    // Only backward reads the mask.
    if (training) mask_.assign(static_cast<size_t>(x.size()), 0);
    Tensor y = x;
    for (int64_t i = 0; i < y.size(); ++i) {
      if (y[i] > 0.0f) {
        if (training) mask_[static_cast<size_t>(i)] = 1;
      } else {
        y[i] = 0.0f;
      }
    }
    return y;
  }

  Tensor DoBackward(const Tensor& grad_out) override {
    MS_CHECK(grad_out.size() == static_cast<int64_t>(mask_.size()));
    Tensor g = grad_out;
    for (int64_t i = 0; i < g.size(); ++i) {
      if (!mask_[static_cast<size_t>(i)]) g[i] = 0.0f;
    }
    return g;
  }

  std::string name() const override { return "relu"; }

  /// Marked by the fusion pass (nn/fusion.h): the preceding layer applies
  /// this activation in its GEMM epilogue, so the inference forward skips
  /// this module. Training still runs it (the mask feeds backward).
  void set_fused(bool fused) { fused_ = fused; }
  bool BypassedAtInference() const override { return fused_; }

 private:
  std::vector<uint8_t> mask_;
  bool fused_ = false;
};

/// \brief tanh(x); backward uses 1 - tanh^2 from the output a training
/// forward cached.
class Tanh : public Module {
 public:
  Tensor DoForward(const Tensor& x, bool training) override {
    Tensor y = x;
    for (int64_t i = 0; i < y.size(); ++i) y[i] = std::tanh(y[i]);
    if (training) cached_y_ = y;  // only backward reads it
    return y;
  }

  Tensor DoBackward(const Tensor& grad_out) override {
    Tensor g = grad_out;
    for (int64_t i = 0; i < g.size(); ++i) {
      const float t = cached_y_[i];
      g[i] *= 1.0f - t * t;
    }
    return g;
  }

  std::string name() const override { return "tanh"; }

  /// See ReLU::set_fused.
  void set_fused(bool fused) { fused_ = fused; }
  bool BypassedAtInference() const override { return fused_; }

 private:
  Tensor cached_y_;
  bool fused_ = false;
};

}  // namespace ms

#endif  // MODELSLICING_NN_ACTIVATIONS_H_
