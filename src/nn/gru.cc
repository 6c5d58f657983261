#include "src/nn/gru.h"

#include <cmath>

#include "src/tensor/scratch.h"
#include "src/tensor/tensor_ops.h"

namespace ms {
namespace {

inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

constexpr int kGateR = 0;
constexpr int kGateZ = 1;
constexpr int kGateN = 2;

}  // namespace

Gru::Gru(GruOptions opts, Rng* rng, std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.input_size >= 1 && opts_.hidden_size >= 1);
  in_spec_ = SliceSpec(opts_.input_size,
                       std::min<int64_t>(opts_.groups, opts_.input_size));
  hidden_spec_ = SliceSpec(opts_.hidden_size,
                           std::min<int64_t>(opts_.groups, opts_.hidden_size));
  active_in_ = opts_.input_size;
  active_hidden_ = opts_.hidden_size;

  const float bound = 1.0f / std::sqrt(static_cast<float>(opts_.hidden_size));
  wx_ = Tensor::RandUniform({3 * opts_.hidden_size, opts_.input_size}, rng,
                            -bound, bound);
  wh_ = Tensor::RandUniform({3 * opts_.hidden_size, opts_.hidden_size}, rng,
                            -bound, bound);
  bx_ = Tensor::Zeros({3 * opts_.hidden_size});
  bh_ = Tensor::Zeros({3 * opts_.hidden_size});
  wx_grad_ = Tensor::Zeros(wx_.shape());
  wh_grad_ = Tensor::Zeros(wh_.shape());
  bx_grad_ = Tensor::Zeros(bx_.shape());
  bh_grad_ = Tensor::Zeros(bh_.shape());
  std::vector<int64_t> in_k_ends, hidden_k_ends;
  for (int64_t g = 1; g <= in_spec_.num_groups(); ++g) {
    in_k_ends.push_back(in_spec_.GroupBoundary(g));
  }
  for (int64_t g = 1; g <= hidden_spec_.num_groups(); ++g) {
    hidden_k_ends.push_back(hidden_spec_.GroupBoundary(g));
  }
  const int64_t hid = opts_.hidden_size;
  for (int gate = 0; gate < 3; ++gate) {
    wx_mm_[gate] = SlicedMatmul(SlicedMatmul::Role::kRight, &wx_,
                                gate * hid * opts_.input_size, hid,
                                opts_.input_size, in_k_ends);
    wh_mm_[gate] = SlicedMatmul(SlicedMatmul::Role::kRight, &wh_,
                                gate * hid * hid, hid, hid, hidden_k_ends);
  }
}

void Gru::DoSetSliceRate(double r) {
  active_in_ =
      opts_.slice_in ? in_spec_.ActiveWidth(r) : in_spec_.full_width();
  active_hidden_ = opts_.slice_out ? hidden_spec_.ActiveWidth(r)
                                   : hidden_spec_.full_width();
  if (opts_.rescale) {
    rescale_x_ = static_cast<float>(in_spec_.full_width()) /
                 static_cast<float>(active_in_);
    rescale_h_ = static_cast<float>(hidden_spec_.full_width()) /
                 static_cast<float>(active_hidden_);
  } else {
    rescale_x_ = rescale_h_ = 1.0f;
  }
}

void Gru::GateGemm(const SlicedMatmul& mm, const Tensor& bias, int gate,
                   int64_t k, float rescale, const float* in, int64_t batch,
                   float* z) const {
  ops::Epilogue epi;
  epi.bias = bias.data() + gate * opts_.hidden_size;  // per hidden unit
  mm.Apply(batch, active_hidden_, k, rescale, in, 0.0f, z, epi);
}

Tensor Gru::DoForward(const Tensor& x, bool training) {
  MS_CHECK(x.ndim() == 3);
  const int64_t t_steps = x.dim(0);
  const int64_t batch = x.dim(1);
  MS_CHECK_MSG(x.dim(2) == active_in_, "Gru input width != active_in");
  const int64_t m = active_in_;
  const int64_t n = active_hidden_;

  // Only backward reads the input copy.
  if (training) cached_x_ = x;
  cached_t_ = t_steps;
  cached_b_ = batch;
  const int64_t bn = batch * n;

  // Pack each gate's Wx/Wh once up front (a cache hit in steady state);
  // all T timesteps below reuse the panels.
  for (int gate = 0; gate < 3; ++gate) {
    wx_mm_[gate].Prepare(precision_, training);
    wh_mm_[gate].Prepare(precision_, training);
  }

  // Gate pre-activations and the zero initial state live on the arena; the
  // per-step caches in steps_ are resized in place, so warmed-up iterations
  // (fixed t_steps/batch) reuse all their storage and allocate nothing.
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  float* xr = arena.Alloc(bn);
  float* xz = arena.Alloc(bn);
  float* xn = arena.Alloc(bn);
  float* hr = arena.Alloc(bn);
  float* hz = arena.Alloc(bn);
  float* hn = arena.Alloc(bn);
  const float* zeros = arena.AllocZeroed(bn);

  if (steps_.size() < static_cast<size_t>(t_steps)) {
    steps_.resize(static_cast<size_t>(t_steps));
  }

  Tensor out = Tensor::Uninit({t_steps, batch, n});
  for (int64_t t = 0; t < t_steps; ++t) {
    const float* xt = x.data() + t * batch * m;
    const float* h_prev = (t == 0) ? zeros : out.data() + (t - 1) * bn;
    GateGemm(wx_mm_[kGateR], bx_, kGateR, m, rescale_x_, xt, batch, xr);
    GateGemm(wx_mm_[kGateZ], bx_, kGateZ, m, rescale_x_, xt, batch, xz);
    GateGemm(wx_mm_[kGateN], bx_, kGateN, m, rescale_x_, xt, batch, xn);
    GateGemm(wh_mm_[kGateR], bh_, kGateR, n, rescale_h_, h_prev, batch, hr);
    GateGemm(wh_mm_[kGateZ], bh_, kGateZ, n, rescale_h_, h_prev, batch, hz);
    GateGemm(wh_mm_[kGateN], bh_, kGateN, n, rescale_h_, h_prev, batch, hn);

    float* h_out = out.data() + t * bn;
    StepCache& sc = steps_[static_cast<size_t>(t)];
    sc.r.EnsureShape({batch, n});
    sc.z.EnsureShape({batch, n});
    sc.n.EnsureShape({batch, n});
    sc.hn.EnsureShape({batch, n});
    sc.h.EnsureShape({batch, n});
    std::copy(hn, hn + bn, sc.hn.data());
    for (int64_t idx = 0; idx < bn; ++idx) {
      const float rv = Sigmoid(xr[idx] + hr[idx]);
      const float zv = Sigmoid(xz[idx] + hz[idx]);
      const float nv = std::tanh(xn[idx] + rv * hn[idx]);
      const float hv = (1.0f - zv) * nv + zv * h_prev[idx];
      sc.r[idx] = rv;
      sc.z[idx] = zv;
      sc.n[idx] = nv;
      sc.h[idx] = hv;
      h_out[idx] = hv;
    }
  }
  return out;
}

Tensor Gru::DoBackward(const Tensor& grad_out) {
  const int64_t t_steps = cached_t_;
  const int64_t batch = cached_b_;
  const int64_t m = active_in_;
  const int64_t n = active_hidden_;
  MS_CHECK(grad_out.ndim() == 3 && grad_out.dim(0) == t_steps &&
           grad_out.dim(1) == batch && grad_out.dim(2) == n);

  MS_CHECK_MSG(cached_x_.ndim() == 3,
               "Gru::Backward requires a prior Forward");
  // dx/dh consume W; pack once, reuse across the reverse sweep.
  for (int gate = 0; gate < 3; ++gate) {
    wx_mm_[gate].Prepare(Precision::kFp32, /*training=*/true);
    wh_mm_[gate].Prepare(Precision::kFp32, /*training=*/true);
  }
  Tensor grad_in({t_steps, batch, m});
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  const int64_t bn = batch * n;
  float* dh_next = arena.AllocZeroed(bn);
  // Pre-activation grads for the three input paths and three hidden paths.
  float* dxr = arena.Alloc(bn);
  float* dxz = arena.Alloc(bn);
  float* dxn = arena.Alloc(bn);
  float* dhr = arena.Alloc(bn);
  float* dhz = arena.Alloc(bn);
  float* dhn = arena.Alloc(bn);

  for (int64_t t = t_steps - 1; t >= 0; --t) {
    const StepCache& sc = steps_[static_cast<size_t>(t)];
    const float* h_prev =
        (t > 0) ? steps_[static_cast<size_t>(t - 1)].h.data() : nullptr;

    for (int64_t idx = 0; idx < batch * n; ++idx) {
      const float dh = grad_out[t * batch * n + idx] + dh_next[idx];
      const float rv = sc.r[idx];
      const float zv = sc.z[idx];
      const float nv = sc.n[idx];
      const float hp = h_prev ? h_prev[idx] : 0.0f;
      const float hnv = sc.hn[idx];

      const float dz = dh * (hp - nv);
      const float dn = dh * (1.0f - zv);
      float dh_prev_direct = dh * zv;

      const float dn_pre = dn * (1.0f - nv * nv);
      // n path: xn gets dn_pre; (r * hn) gets dn_pre.
      dxn[idx] = dn_pre;
      const float dr = dn_pre * hnv;
      dhn[idx] = dn_pre * rv;

      const float dz_pre = dz * zv * (1.0f - zv);
      const float dr_pre = dr * rv * (1.0f - rv);
      dxz[idx] = dz_pre;
      dxr[idx] = dr_pre;
      dhz[idx] = dz_pre;
      dhr[idx] = dr_pre;

      dh_next[idx] = dh_prev_direct;  // recurrent-path grads added below.
    }

    const float* xt = cached_x_.data() + t * batch * m;
    float* dxt = grad_in.data() + t * batch * m;
    std::fill(dxt, dxt + batch * m, 0.0f);

    const float* dx_gates[3] = {dxr, dxz, dxn};
    const float* dh_gates[3] = {dhr, dhz, dhn};
    for (int gate = 0; gate < 3; ++gate) {
      const float* dzx = dx_gates[gate];
      const float* dzh = dh_gates[gate];
      float* wxg = wx_grad_.data() + gate * opts_.hidden_size *
                                         opts_.input_size;
      float* whg = wh_grad_.data() + gate * opts_.hidden_size *
                                         opts_.hidden_size;
      float* bxg = bx_grad_.data() + gate * opts_.hidden_size;
      float* bhg = bh_grad_.data() + gate * opts_.hidden_size;

      // Input path.
      ops::Gemm(true, false, n, m, batch, rescale_x_, dzx, n, xt, m, 1.0f,
                wxg, opts_.input_size);
      for (int64_t b = 0; b < batch; ++b) {
        const float* row = dzx + b * n;
        for (int64_t j = 0; j < n; ++j) bxg[j] += row[j];
      }
      wx_mm_[gate].ApplyTransposed(batch, n, m, rescale_x_, dzx, 1.0f, dxt);

      // Hidden path.
      if (h_prev != nullptr) {
        ops::Gemm(true, false, n, n, batch, rescale_h_, dzh, n, h_prev, n,
                  1.0f, whg, opts_.hidden_size);
      }
      for (int64_t b = 0; b < batch; ++b) {
        const float* row = dzh + b * n;
        for (int64_t j = 0; j < n; ++j) bhg[j] += row[j];
      }
      wh_mm_[gate].ApplyTransposed(batch, n, n, rescale_h_, dzh, 1.0f,
                                   dh_next);
    }
  }
  return grad_in;
}

void Gru::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name_ + ".wx", &wx_, &wx_grad_, /*no_decay=*/false});
  out->push_back({name_ + ".wh", &wh_, &wh_grad_, /*no_decay=*/false});
  out->push_back({name_ + ".bx", &bx_, &bx_grad_, /*no_decay=*/true});
  out->push_back({name_ + ".bh", &bh_, &bh_grad_, /*no_decay=*/true});
}

int64_t Gru::FlopsPerSample() const {
  return 3 * (active_in_ * active_hidden_ + active_hidden_ * active_hidden_);
}

int64_t Gru::ActiveParams() const {
  return 3 * (active_in_ * active_hidden_ +
              active_hidden_ * active_hidden_ + 2 * active_hidden_);
}

}  // namespace ms
