#include "src/nn/depthwise_conv.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/gemm.h"

namespace ms {

DepthwiseConv2d::DepthwiseConv2d(DepthwiseConv2dOptions opts, Rng* rng,
                                 std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.channels >= 1 && opts_.kernel >= 1);
  MS_CHECK(opts_.stride >= 1 && opts_.pad >= 0);
  spec_ = SliceSpec(opts_.channels,
                    std::min<int64_t>(opts_.groups, opts_.channels));
  active_channels_ = opts_.channels;
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(opts_.kernel * opts_.kernel));
  w_ = Tensor::Randn({opts_.channels, opts_.kernel * opts_.kernel}, rng,
                     stddev);
  w_grad_ = Tensor::Zeros(w_.shape());
}

void DepthwiseConv2d::DoSetSliceRate(double r) {
  if (!opts_.slice) return;
  active_channels_ = spec_.ActiveWidth(r);
}

Tensor DepthwiseConv2d::DoForward(const Tensor& x, bool training) {
  MS_CHECK(x.ndim() == 4);
  MS_CHECK_MSG(x.dim(1) == active_channels_,
               "DepthwiseConv2d channels != active prefix");
  const int64_t batch = x.dim(0);
  const int64_t h = x.dim(2);
  const int64_t w = x.dim(3);
  const int64_t k = opts_.kernel;
  const int64_t oh = (h + 2 * opts_.pad - k) / opts_.stride + 1;
  const int64_t ow = (w + 2 * opts_.pad - k) / opts_.stride + 1;
  MS_CHECK(oh >= 1 && ow >= 1);
  // Only backward reads the input copy.
  if (training) cached_x_ = x;
  cached_h_ = h;
  cached_w_ = w;
  last_oh_ = oh;
  last_ow_ = ow;

  // Direct-loop analogue of the GEMM epilogue: a planted activation is
  // applied at each output write (inference only).
  const ops::EpiAct act = training ? ops::EpiAct::kNone : fused_act_;
  Tensor y = Tensor::Uninit({batch, active_channels_, oh, ow});
  const float* xd = x.data();
  float* yd = y.data();
  const int64_t stride = opts_.stride;
  const int64_t pad = opts_.pad;
  // Interior outputs — those whose k x k window lies fully inside the
  // input — take a bounds-check-free inner loop; only the border rows and
  // columns keep the checked loop. Both variants accumulate in the same
  // (ki, kj) ascending order, so the result is bitwise unchanged.
  const int64_t oi_lo = (pad + stride - 1) / stride;
  const int64_t oi_hi = std::min<int64_t>(oh - 1, (h - k + pad) / stride);
  const int64_t oj_lo = oi_lo;  // same pad/stride in both dimensions
  const int64_t oj_hi = std::min<int64_t>(ow - 1, (w - k + pad) / stride);
  // Each (image, channel) plane is independent; parallelize over the
  // flattened plane index.
  ops::ParallelForCompute(batch * active_channels_, [&](int64_t p0,
                                                        int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const float* xc = xd + p * h * w;
      const float* wc = w_.data() + (p % active_channels_) * k * k;
      float* yc = yd + p * oh * ow;
      auto checked_pixel = [&](int64_t oi, int64_t oj) {
        float acc = 0.0f;
        for (int64_t ki = 0; ki < k; ++ki) {
          const int64_t ii = oi * stride - pad + ki;
          if (ii < 0 || ii >= h) continue;
          for (int64_t kj = 0; kj < k; ++kj) {
            const int64_t jj = oj * stride - pad + kj;
            if (jj < 0 || jj >= w) continue;
            acc += xc[ii * w + jj] * wc[ki * k + kj];
          }
        }
        yc[oi * ow + oj] = ops::detail::EpiActApply(act, acc);
      };
      for (int64_t oi = 0; oi < oh; ++oi) {
        const bool row_interior = oi >= oi_lo && oi <= oi_hi;
        if (!row_interior || oj_lo > oj_hi) {
          for (int64_t oj = 0; oj < ow; ++oj) checked_pixel(oi, oj);
          continue;
        }
        for (int64_t oj = 0; oj < oj_lo; ++oj) checked_pixel(oi, oj);
        const int64_t ii0 = oi * stride - pad;
        for (int64_t oj = oj_lo; oj <= oj_hi; ++oj) {
          const float* win = xc + ii0 * w + (oj * stride - pad);
          float acc = 0.0f;
          for (int64_t ki = 0; ki < k; ++ki) {
            const float* xrow = win + ki * w;
            const float* wrow = wc + ki * k;
            for (int64_t kj = 0; kj < k; ++kj) acc += xrow[kj] * wrow[kj];
          }
          yc[oi * ow + oj] = ops::detail::EpiActApply(act, acc);
        }
        for (int64_t oj = oj_hi + 1; oj < ow; ++oj) checked_pixel(oi, oj);
      }
    }
  });
  return y;
}

Tensor DepthwiseConv2d::DoBackward(const Tensor& grad_out) {
  MS_CHECK_MSG(cached_x_.ndim() == 4,
               "DepthwiseConv2d::Backward requires a prior Forward");
  const int64_t batch = cached_x_.dim(0);
  const int64_t h = cached_h_;
  const int64_t w = cached_w_;
  const int64_t k = opts_.kernel;
  const int64_t oh = last_oh_;
  const int64_t ow = last_ow_;
  MS_CHECK(grad_out.ndim() == 4 && grad_out.dim(1) == active_channels_ &&
           grad_out.dim(2) == oh && grad_out.dim(3) == ow);

  Tensor grad_in({batch, active_channels_, h, w});
  grad_in.Zero();
  const float* xd = cached_x_.data();
  const float* gd = grad_out.data();
  float* gid = grad_in.data();
  // Parallel over channels: each channel's w_grad_ row is private to its
  // shard and images accumulate in index order, so results are bitwise
  // identical for any thread count. No zero-gradient skip: the scatter must
  // run even for g == 0 so NaN/Inf in x or w still propagate (g * NaN is
  // NaN, not 0).
  ops::ParallelForCompute(active_channels_, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const float* wc = w_.data() + c * k * k;
      float* wg = w_grad_.data() + c * k * k;
      for (int64_t img = 0; img < batch; ++img) {
        const float* xc = xd + (img * active_channels_ + c) * h * w;
        const float* gc = gd + (img * active_channels_ + c) * oh * ow;
        float* gi = gid + (img * active_channels_ + c) * h * w;
        for (int64_t oi = 0; oi < oh; ++oi) {
          for (int64_t oj = 0; oj < ow; ++oj) {
            const float g = gc[oi * ow + oj];
            for (int64_t ki = 0; ki < k; ++ki) {
              const int64_t ii = oi * opts_.stride - opts_.pad + ki;
              if (ii < 0 || ii >= h) continue;
              for (int64_t kj = 0; kj < k; ++kj) {
                const int64_t jj = oj * opts_.stride - opts_.pad + kj;
                if (jj < 0 || jj >= w) continue;
                wg[ki * k + kj] += g * xc[ii * w + jj];
                gi[ii * w + jj] += g * wc[ki * k + kj];
              }
            }
          }
        }
      }
    }
  });
  return grad_in;
}

void DepthwiseConv2d::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name_ + ".w", &w_, &w_grad_, /*no_decay=*/false});
}

int64_t DepthwiseConv2d::FlopsPerSample() const {
  const int64_t out_area = (last_oh_ > 0) ? last_oh_ * last_ow_ : 1;
  return active_channels_ * opts_.kernel * opts_.kernel * out_area;
}

int64_t DepthwiseConv2d::ActiveParams() const {
  return active_channels_ * opts_.kernel * opts_.kernel;
}

}  // namespace ms
