#include "src/nn/norm.h"

#include <cmath>

#include "src/tensor/gemm.h"
#include "src/tensor/gemm_internal.h"

namespace ms {
namespace {

// Area = product of spatial dims after the channel dim; 1 for (B, C) input.
int64_t SpatialArea(const Tensor& x) {
  int64_t area = 1;
  for (int i = 2; i < x.ndim(); ++i) area *= x.dim(i);
  return area;
}

// Mean and 1/std of one (sample, group) slab of `count` floats.
void GroupStats(ops::detail::SumSqF32Fn sumsq_fn, const float* xg,
                int64_t count, float eps, float* mean, float* inv_std) {
  double sum = 0.0, sumsq = 0.0;
  sumsq_fn(xg, count, &sum, &sumsq);
  const double m = sum / static_cast<double>(count);
  double var = sumsq / static_cast<double>(count) - m * m;
  if (var < 0.0) var = 0.0;  // guard the one-pass identity's rounding
  *mean = static_cast<float>(m);
  *inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps);
}

}  // namespace

// ---------------------------------------------------------------- GroupNorm

GroupNorm::GroupNorm(NormOptions opts, std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.channels >= 1);
  spec_ = SliceSpec(opts_.channels,
                    std::min<int64_t>(opts_.groups, opts_.channels));
  active_channels_ = opts_.channels;
  active_groups_ = spec_.num_groups();
  gamma_ = Tensor::Full({opts_.channels}, 1.0f);
  beta_ = Tensor::Zeros({opts_.channels});
  gamma_grad_ = Tensor::Zeros({opts_.channels});
  beta_grad_ = Tensor::Zeros({opts_.channels});
}

void GroupNorm::DoSetSliceRate(double r) {
  if (!opts_.slice) return;
  active_groups_ = spec_.ActiveGroups(r);
  active_channels_ = spec_.GroupBoundary(active_groups_);
}

Tensor GroupNorm::DoForward(const Tensor& x, bool training) {
  MS_CHECK(x.ndim() >= 2);
  MS_CHECK_MSG(x.dim(1) == active_channels_,
               "GroupNorm input channels != active prefix");
  if (!training) return ForwardInference(x);
  const int64_t batch = x.dim(0);
  const int64_t area = SpatialArea(x);
  cached_batch_ = batch;
  cached_area_ = area;
  cached_inv_std_.assign(static_cast<size_t>(batch * active_groups_), 0.0f);

  // Both outputs are fully overwritten below, so neither gets a zero-fill:
  // y is fresh-uninitialized, the xhat cache reuses its warmed buffer.
  Tensor y = Tensor::Uninit(x.shape());
  cached_xhat_.EnsureShape(x.shape());
  const ops::detail::SumSqF32Fn sumsq_fn = ops::detail::ActiveSumSqF32();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t g = 0; g < active_groups_; ++g) {
      const int64_t c0 = spec_.GroupBoundary(g);
      const int64_t c1 = spec_.GroupBoundary(g + 1);
      const int64_t off0 = (b * active_channels_ + c0) * area;
      float mean, inv_std;
      GroupStats(sumsq_fn, x.data() + off0, (c1 - c0) * area, opts_.eps, &mean,
                 &inv_std);
      cached_inv_std_[static_cast<size_t>(b * active_groups_ + g)] = inv_std;

      const float* xg = x.data() + off0;
      float* xh = cached_xhat_.data() + off0;
      float* yo = y.data() + off0;
      for (int64_t c = c0; c < c1; ++c) {
        const float gam = gamma_[c];
        const float bet = beta_[c];
        const int64_t off = (c - c0) * area;
        for (int64_t p = 0; p < area; ++p) {
          const float h = (xg[off + p] - mean) * inv_std;
          xh[off + p] = h;
          yo[off + p] = gam * h + bet;
        }
      }
    }
  }
  return y;
}

Tensor GroupNorm::ForwardInference(const Tensor& x) const {
  const int64_t batch = x.dim(0);
  const int64_t area = SpatialArea(x);
  Tensor y = Tensor::Uninit(x.shape());
  const ops::detail::SumSqF32Fn sumsq_fn = ops::detail::ActiveSumSqF32();
  const ops::detail::NormalizeF32Fn normalize =
      ops::detail::ActiveNormalizeF32(fused_act_);
  const float* xd = x.data();
  float* yd = y.data();
  // Samples are independent and write disjoint planes; statistics and the
  // write loop are the training path's, so outputs match it bit for bit.
  ops::ParallelForCompute(batch, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      for (int64_t g = 0; g < active_groups_; ++g) {
        const int64_t c0 = spec_.GroupBoundary(g);
        const int64_t c1 = spec_.GroupBoundary(g + 1);
        const int64_t off0 = (b * active_channels_ + c0) * area;
        float mean, inv_std;
        GroupStats(sumsq_fn, xd + off0, (c1 - c0) * area, opts_.eps, &mean,
                   &inv_std);
        for (int64_t c = c0; c < c1; ++c) {
          const int64_t off = off0 + (c - c0) * area;
          normalize(xd + off, yd + off, area, mean, inv_std, gamma_[c],
                    beta_[c]);
        }
      }
    }
  });
  return y;
}

Tensor GroupNorm::DoBackward(const Tensor& grad_out) {
  const int64_t batch = cached_batch_;
  const int64_t area = cached_area_;
  MS_CHECK(grad_out.size() == cached_xhat_.size());

  Tensor grad_in(grad_out.shape());
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t g = 0; g < active_groups_; ++g) {
      const int64_t c0 = spec_.GroupBoundary(g);
      const int64_t c1 = spec_.GroupBoundary(g + 1);
      const int64_t count = (c1 - c0) * area;
      const float inv_std =
          cached_inv_std_[static_cast<size_t>(b * active_groups_ + g)];
      const float* go = grad_out.data() + (b * active_channels_ + c0) * area;
      const float* xh = cached_xhat_.data() + (b * active_channels_ + c0) * area;
      float* gi = grad_in.data() + (b * active_channels_ + c0) * area;

      // Accumulate dγ, dβ, and the two reduction terms of the GN backward.
      double sum_dxhat = 0.0;
      double sum_dxhat_xhat = 0.0;
      for (int64_t c = c0; c < c1; ++c) {
        const float gam = gamma_[c];
        const int64_t off = (c - c0) * area;
        double dgam = 0.0, dbet = 0.0;
        for (int64_t p = 0; p < area; ++p) {
          const float gv = go[off + p];
          const float hv = xh[off + p];
          dgam += static_cast<double>(gv) * hv;
          dbet += gv;
          const double dxh = static_cast<double>(gv) * gam;
          sum_dxhat += dxh;
          sum_dxhat_xhat += dxh * hv;
        }
        gamma_grad_[c] += static_cast<float>(dgam);
        beta_grad_[c] += static_cast<float>(dbet);
      }
      const float mean_dxhat =
          static_cast<float>(sum_dxhat / static_cast<double>(count));
      const float mean_dxhat_xhat =
          static_cast<float>(sum_dxhat_xhat / static_cast<double>(count));
      for (int64_t c = c0; c < c1; ++c) {
        const float gam = gamma_[c];
        const int64_t off = (c - c0) * area;
        for (int64_t p = 0; p < area; ++p) {
          const float dxh = go[off + p] * gam;
          gi[off + p] =
              inv_std * (dxh - mean_dxhat - xh[off + p] * mean_dxhat_xhat);
        }
      }
    }
  }
  return grad_in;
}

void GroupNorm::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name_ + ".gamma", &gamma_, &gamma_grad_, /*no_decay=*/true});
  out->push_back({name_ + ".beta", &beta_, &beta_grad_, /*no_decay=*/true});
}

// ---------------------------------------------------------------- BatchNorm

BatchNorm::BatchNorm(NormOptions opts, std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.channels >= 1);
  spec_ = SliceSpec(opts_.channels,
                    std::min<int64_t>(opts_.groups, opts_.channels));
  active_channels_ = opts_.channels;
  gamma_ = Tensor::Full({opts_.channels}, 1.0f);
  beta_ = Tensor::Zeros({opts_.channels});
  gamma_grad_ = Tensor::Zeros({opts_.channels});
  beta_grad_ = Tensor::Zeros({opts_.channels});
  running_mean_ = Tensor::Zeros({opts_.channels});
  running_var_ = Tensor::Full({opts_.channels}, 1.0f);
}

void BatchNorm::DoSetSliceRate(double r) {
  if (!opts_.slice) return;
  active_channels_ = spec_.ActiveWidth(r);
}

Tensor BatchNorm::DoForward(const Tensor& x, bool training) {
  MS_CHECK(x.ndim() >= 2);
  MS_CHECK_MSG(x.dim(1) == active_channels_,
               "BatchNorm input channels != active prefix");
  const int64_t batch = x.dim(0);
  const int64_t area = SpatialArea(x);
  const int64_t count = batch * area;
  cached_batch_ = batch;
  cached_area_ = area;

  // Fully overwritten over the active prefix (== the whole tensor).
  Tensor y = Tensor::Uninit(x.shape());
  if (training) {
    cached_xhat_.EnsureShape(x.shape());
    cached_inv_std_.assign(static_cast<size_t>(active_channels_), 0.0f);
  }
  const ops::detail::NormalizeF32Fn normalize =
      ops::detail::ActiveNormalizeF32(fused_act_);
  for (int64_t c = 0; c < active_channels_; ++c) {
    float mean, inv_std;
    if (training) {
      double m = 0.0;
      for (int64_t b = 0; b < batch; ++b) {
        const float* xc = x.data() + (b * active_channels_ + c) * area;
        for (int64_t p = 0; p < area; ++p) m += xc[p];
      }
      m /= static_cast<double>(count);
      double v = 0.0;
      for (int64_t b = 0; b < batch; ++b) {
        const float* xc = x.data() + (b * active_channels_ + c) * area;
        for (int64_t p = 0; p < area; ++p) {
          const double d = xc[p] - m;
          v += d * d;
        }
      }
      v /= static_cast<double>(count);
      mean = static_cast<float>(m);
      inv_std = 1.0f / std::sqrt(static_cast<float>(v) + opts_.eps);
      running_mean_[c] = (1.0f - opts_.momentum) * running_mean_[c] +
                         opts_.momentum * mean;
      running_var_[c] = (1.0f - opts_.momentum) * running_var_[c] +
                        opts_.momentum * static_cast<float>(v);
      cached_inv_std_[static_cast<size_t>(c)] = inv_std;
    } else {
      mean = running_mean_[c];
      inv_std = 1.0f / std::sqrt(running_var_[c] + opts_.eps);
    }
    const float gam = gamma_[c];
    const float bet = beta_[c];
    for (int64_t b = 0; b < batch; ++b) {
      const int64_t off = (b * active_channels_ + c) * area;
      if (!training) {
        normalize(x.data() + off, y.data() + off, area, mean, inv_std, gam,
                  bet);
        continue;
      }
      const float* xc = x.data() + off;
      float* yc = y.data() + off;
      float* hc = cached_xhat_.data() + off;
      for (int64_t p = 0; p < area; ++p) {
        const float h = (xc[p] - mean) * inv_std;
        hc[p] = h;
        yc[p] = gam * h + bet;
      }
    }
  }
  return y;
}

Tensor BatchNorm::DoBackward(const Tensor& grad_out) {
  const int64_t batch = cached_batch_;
  const int64_t area = cached_area_;
  const int64_t count = batch * area;

  Tensor grad_in(grad_out.shape());
  for (int64_t c = 0; c < active_channels_; ++c) {
    const float gam = gamma_[c];
    const float inv_std = cached_inv_std_[static_cast<size_t>(c)];
    double sum_g = 0.0, sum_gh = 0.0;
    for (int64_t b = 0; b < batch; ++b) {
      const float* gc = grad_out.data() + (b * active_channels_ + c) * area;
      const float* hc = cached_xhat_.data() + (b * active_channels_ + c) * area;
      for (int64_t p = 0; p < area; ++p) {
        sum_g += gc[p];
        sum_gh += static_cast<double>(gc[p]) * hc[p];
      }
    }
    gamma_grad_[c] += static_cast<float>(sum_gh);
    beta_grad_[c] += static_cast<float>(sum_g);
    const float mean_g = static_cast<float>(sum_g / count);
    const float mean_gh = static_cast<float>(sum_gh / count);
    for (int64_t b = 0; b < batch; ++b) {
      const float* gc = grad_out.data() + (b * active_channels_ + c) * area;
      const float* hc = cached_xhat_.data() + (b * active_channels_ + c) * area;
      float* ic = grad_in.data() + (b * active_channels_ + c) * area;
      for (int64_t p = 0; p < area; ++p) {
        ic[p] = gam * inv_std * (gc[p] - mean_g - hc[p] * mean_gh);
      }
    }
  }
  return grad_in;
}

void BatchNorm::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name_ + ".gamma", &gamma_, &gamma_grad_, /*no_decay=*/true});
  out->push_back({name_ + ".beta", &beta_, &beta_grad_, /*no_decay=*/true});
}

// ----------------------------------------------------------- MultiBatchNorm

MultiBatchNorm::MultiBatchNorm(NormOptions opts,
                               const std::vector<double>& rates,
                               std::string name)
    : name_(std::move(name)), rates_(rates) {
  MS_CHECK(!rates_.empty());
  for (size_t i = 0; i < rates_.size(); ++i) {
    norms_.push_back(std::make_unique<BatchNorm>(
        opts, name_ + ".bn" + std::to_string(i)));
    norms_.back()->SetSliceRate(rates_[i]);
  }
  active_ = rates_.size() - 1;  // Largest rate by convention (list sorted).
}

void MultiBatchNorm::DoSetSliceRate(double r) {
  // Select the BN whose rate is closest to r.
  size_t best = 0;
  double best_d = 1e9;
  for (size_t i = 0; i < rates_.size(); ++i) {
    const double d = std::abs(rates_[i] - r);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  active_ = best;
  norms_[active_]->SetSliceRate(r);
}

Tensor MultiBatchNorm::DoForward(const Tensor& x, bool training) {
  return norms_[active_]->Forward(x, training);
}

Tensor MultiBatchNorm::DoBackward(const Tensor& grad_out) {
  return norms_[active_]->Backward(grad_out);
}

void MultiBatchNorm::CollectParams(std::vector<ParamRef>* out) {
  for (auto& n : norms_) n->CollectParams(out);
}

int64_t MultiBatchNorm::ActiveParams() const {
  return norms_[active_]->ActiveParams();
}

}  // namespace ms
