// Pooling and flatten layers; channel-count agnostic so they pass compact
// sliced activations through unchanged.
#ifndef MODELSLICING_NN_POOLING_H_
#define MODELSLICING_NN_POOLING_H_

#include "src/nn/module.h"
#include "src/tensor/gemm.h"
#include "src/tensor/tensor_ops.h"

namespace ms {

class MaxPool2d : public Module {
 public:
  MaxPool2d(int64_t kernel, int64_t stride)
      : kernel_(kernel), stride_(stride) {}

  Tensor DoForward(const Tensor& x, bool training) override {
    MS_CHECK(x.ndim() == 4);
    if (!training) return ForwardInference(x);
    n_ = x.dim(0);
    c_ = x.dim(1);
    h_ = x.dim(2);
    w_ = x.dim(3);
    const int64_t oh = (h_ - kernel_) / stride_ + 1;
    const int64_t ow = (w_ - kernel_) / stride_ + 1;
    Tensor y({n_, c_, oh, ow});
    ops::MaxPool2d(x, n_, c_, h_, w_, kernel_, stride_, &y, &argmax_);
    oh_ = oh;
    ow_ = ow;
    return y;
  }

  Tensor DoBackward(const Tensor& grad_out) override {
    Tensor grad_in({n_, c_, h_, w_});
    ops::MaxPool2dBackward(grad_out, argmax_, n_ * c_, h_ * w_, oh_ * ow_,
                           &grad_in);
    return grad_in;
  }

  std::string name() const override { return "maxpool"; }

 private:
  /// Parallel over samples into an uninitialised output; no argmax.
  Tensor ForwardInference(const Tensor& x) const {
    const int64_t c = x.dim(1);
    const int64_t h = x.dim(2);
    const int64_t w = x.dim(3);
    const int64_t oh = (h - kernel_) / stride_ + 1;
    const int64_t ow = (w - kernel_) / stride_ + 1;
    Tensor y = Tensor::Uninit({x.dim(0), c, oh, ow});
    const float* xd = x.data();
    float* yd = y.data();
    ops::ParallelForCompute(x.dim(0), [&](int64_t b0, int64_t b1) {
      ops::MaxPool2dPlanes(xd + b0 * c * h * w, (b1 - b0) * c, h, w, kernel_,
                           stride_, yd + b0 * c * oh * ow);
    });
    return y;
  }

  int64_t kernel_, stride_;
  int64_t n_ = 0, c_ = 0, h_ = 0, w_ = 0, oh_ = 0, ow_ = 0;
  std::vector<int32_t> argmax_;
};

/// \brief Global average pooling: (B, C, H, W) -> (B, C).
class GlobalAvgPool : public Module {
 public:
  Tensor DoForward(const Tensor& x, bool training) override {
    (void)training;
    MS_CHECK(x.ndim() == 4);
    n_ = x.dim(0);
    c_ = x.dim(1);
    h_ = x.dim(2);
    w_ = x.dim(3);
    const int64_t area = h_ * w_;
    Tensor y({n_, c_});
    const float inv = 1.0f / static_cast<float>(area);
    for (int64_t i = 0; i < n_ * c_; ++i) {
      const float* plane = x.data() + i * area;
      float acc = 0.0f;
      for (int64_t p = 0; p < area; ++p) acc += plane[p];
      y[i] = acc * inv;
    }
    return y;
  }

  Tensor DoBackward(const Tensor& grad_out) override {
    const int64_t area = h_ * w_;
    Tensor grad_in({n_, c_, h_, w_});
    const float inv = 1.0f / static_cast<float>(area);
    for (int64_t i = 0; i < n_ * c_; ++i) {
      const float g = grad_out[i] * inv;
      float* plane = grad_in.data() + i * area;
      for (int64_t p = 0; p < area; ++p) plane[p] = g;
    }
    return grad_in;
  }

  std::string name() const override { return "gap"; }

 private:
  int64_t n_ = 0, c_ = 0, h_ = 0, w_ = 0;
};

/// \brief (B, C, H, W) -> (B, C*H*W); inverse on backward.
class Flatten : public Module {
 public:
  Tensor DoForward(const Tensor& x, bool training) override {
    (void)training;
    shape_ = x.shape();
    int64_t rest = 1;
    for (int i = 1; i < x.ndim(); ++i) rest *= x.dim(i);
    return x.Reshaped({x.dim(0), rest});
  }

  Tensor DoBackward(const Tensor& grad_out) override {
    return grad_out.Reshaped(shape_);
  }

  std::string name() const override { return "flatten"; }

 private:
  std::vector<int64_t> shape_;
};

}  // namespace ms

#endif  // MODELSLICING_NN_POOLING_H_
