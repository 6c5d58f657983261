#include "src/nn/lstm.h"

#include <cmath>

#include "src/tensor/scratch.h"
#include "src/tensor/tensor_ops.h"

namespace ms {

Lstm::Lstm(LstmOptions opts, Rng* rng, std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.input_size >= 1 && opts_.hidden_size >= 1);
  in_spec_ = SliceSpec(opts_.input_size,
                       std::min<int64_t>(opts_.groups, opts_.input_size));
  hidden_spec_ = SliceSpec(opts_.hidden_size,
                           std::min<int64_t>(opts_.groups, opts_.hidden_size));
  active_in_ = opts_.input_size;
  active_hidden_ = opts_.hidden_size;

  const float bound =
      1.0f / std::sqrt(static_cast<float>(opts_.hidden_size));
  wx_ = Tensor::RandUniform({4 * opts_.hidden_size, opts_.input_size}, rng,
                            -bound, bound);
  wh_ = Tensor::RandUniform({4 * opts_.hidden_size, opts_.hidden_size}, rng,
                            -bound, bound);
  b_ = Tensor::Zeros({4 * opts_.hidden_size});
  // Forget-gate bias init to 1: standard trick for gradient flow.
  for (int64_t i = opts_.hidden_size; i < 2 * opts_.hidden_size; ++i) {
    b_[i] = 1.0f;
  }
  wx_grad_ = Tensor::Zeros(wx_.shape());
  wh_grad_ = Tensor::Zeros(wh_.shape());
  b_grad_ = Tensor::Zeros(b_.shape());
  std::vector<int64_t> in_k_ends, hidden_k_ends;
  for (int64_t g = 1; g <= in_spec_.num_groups(); ++g) {
    in_k_ends.push_back(in_spec_.GroupBoundary(g));
  }
  for (int64_t g = 1; g <= hidden_spec_.num_groups(); ++g) {
    hidden_k_ends.push_back(hidden_spec_.GroupBoundary(g));
  }
  const int64_t hid = opts_.hidden_size;
  for (int gate = 0; gate < 4; ++gate) {
    wx_mm_[gate] = SlicedMatmul(SlicedMatmul::Role::kRight, &wx_,
                                gate * hid * opts_.input_size, hid,
                                opts_.input_size, in_k_ends);
    wh_mm_[gate] = SlicedMatmul(SlicedMatmul::Role::kRight, &wh_,
                                gate * hid * hid, hid, hid, hidden_k_ends);
  }
}

void Lstm::DoSetSliceRate(double r) {
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

void Lstm::GateGemm(int gate, const float* x, const float* h,
                    int64_t batch, float* z) const {
  const int64_t m = active_in_;
  const int64_t n = active_hidden_;
  // Only the *second* (recurrent, beta = 1) GEMM carries the epilogue: its
  // merge sees the completed pre-activation, so bias-then-nonlinearity at
  // C-writeback is the same float sequence as separate post-passes.
  ops::Epilogue epi;
  epi.bias = b_.data() + gate * opts_.hidden_size;  // per hidden unit
  epi.act = (gate == 2) ? ops::EpiAct::kTanh : ops::EpiAct::kSigmoid;
  // z(B, n) = rescale_x * x(B, m) * Wx[0:n, 0:m]^T
  // z = act(z + rescale_h * h(B, n) * Wh[0:n, 0:n]^T + b)
  wx_mm_[gate].Apply(batch, n, m, rescale_x_, x, 0.0f, z);
  wh_mm_[gate].Apply(batch, n, n, rescale_h_, h, 1.0f, z, epi);
}

Tensor Lstm::DoForward(const Tensor& x, bool training) {
  MS_CHECK(x.ndim() == 3);
  const int64_t t_steps = x.dim(0);
  const int64_t batch = x.dim(1);
  MS_CHECK_MSG(x.dim(2) == active_in_, "Lstm input width != active_in");
  const int64_t m = active_in_;
  const int64_t n = active_hidden_;

  // Only backward reads the input copy.
  if (training) cached_x_ = x;
  cached_t_ = t_steps;
  cached_b_ = batch;
  const int64_t bn = batch * n;

  // Pack each gate's Wx/Wh once up front (a cache hit in steady state);
  // every one of the T timesteps below then reuses the panels.
  for (int gate = 0; gate < 4; ++gate) {
    wx_mm_[gate].Prepare(precision_, training);
    wh_mm_[gate].Prepare(precision_, training);
  }

  // Gate pre-activations and the zero initial state live on the arena; the
  // per-step caches in steps_ are resized in place, so warmed-up iterations
  // (fixed t_steps/batch) reuse all their storage and allocate nothing.
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  float* zi = arena.Alloc(bn);
  float* zf = arena.Alloc(bn);
  float* zg = arena.Alloc(bn);
  float* zo = arena.Alloc(bn);
  const float* zeros = arena.AllocZeroed(bn);

  if (steps_.size() < static_cast<size_t>(t_steps)) {
    steps_.resize(static_cast<size_t>(t_steps));
  }

  Tensor out = Tensor::Uninit({t_steps, batch, n});
  const float* c_prev = zeros;
  for (int64_t t = 0; t < t_steps; ++t) {
    const float* xt = x.data() + t * batch * m;
    const float* h_prev = (t == 0) ? zeros : out.data() + (t - 1) * bn;
    GateGemm(0, xt, h_prev, batch, zi);
    GateGemm(1, xt, h_prev, batch, zf);
    GateGemm(2, xt, h_prev, batch, zg);
    GateGemm(3, xt, h_prev, batch, zo);

    float* h_out = out.data() + t * bn;
    StepCache& sc = steps_[static_cast<size_t>(t)];
    sc.i.EnsureShape({batch, n});
    sc.f.EnsureShape({batch, n});
    sc.g.EnsureShape({batch, n});
    sc.o.EnsureShape({batch, n});
    sc.c.EnsureShape({batch, n});
    sc.tanh_c.EnsureShape({batch, n});
    sc.h.EnsureShape({batch, n});
    for (int64_t idx = 0; idx < bn; ++idx) {
      const float iv = zi[idx];
      const float fv = zf[idx];
      const float gv = zg[idx];
      const float ov = zo[idx];
      const float cv = fv * c_prev[idx] + iv * gv;
      const float tc = std::tanh(cv);
      sc.i[idx] = iv;
      sc.f[idx] = fv;
      sc.g[idx] = gv;
      sc.o[idx] = ov;
      sc.c[idx] = cv;
      sc.tanh_c[idx] = tc;
      const float hv = ov * tc;
      sc.h[idx] = hv;
      h_out[idx] = hv;
    }
    c_prev = sc.c.data();
  }
  return out;
}

Tensor Lstm::DoBackward(const Tensor& grad_out) {
  const int64_t t_steps = cached_t_;
  const int64_t batch = cached_b_;
  const int64_t m = active_in_;
  const int64_t n = active_hidden_;
  MS_CHECK(grad_out.ndim() == 3 && grad_out.dim(0) == t_steps &&
           grad_out.dim(1) == batch && grad_out.dim(2) == n);

  MS_CHECK_MSG(cached_x_.ndim() == 3,
               "Lstm::Backward requires a prior Forward");
  // dx/dh consume W (untransposed); pack once, reuse across the T-step
  // reverse sweep.
  for (int gate = 0; gate < 4; ++gate) {
    wx_mm_[gate].Prepare(Precision::kFp32, /*training=*/true);
    wh_mm_[gate].Prepare(Precision::kFp32, /*training=*/true);
  }
  Tensor grad_in({t_steps, batch, m});
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  const int64_t bn = batch * n;
  float* dh_next = arena.AllocZeroed(bn);
  float* dc_next = arena.AllocZeroed(bn);
  float* dzi = arena.Alloc(bn);
  float* dzf = arena.Alloc(bn);
  float* dzg = arena.Alloc(bn);
  float* dzo = arena.Alloc(bn);

  for (int64_t t = t_steps - 1; t >= 0; --t) {
    const StepCache& sc = steps_[static_cast<size_t>(t)];
    const float* c_prev =
        (t > 0) ? steps_[static_cast<size_t>(t - 1)].c.data() : nullptr;
    const float* h_prev =
        (t > 0) ? steps_[static_cast<size_t>(t - 1)].h.data() : nullptr;

    for (int64_t idx = 0; idx < batch * n; ++idx) {
      const float dh = grad_out[t * batch * n + idx] + dh_next[idx];
      const float iv = sc.i[idx];
      const float fv = sc.f[idx];
      const float gv = sc.g[idx];
      const float ov = sc.o[idx];
      const float tc = sc.tanh_c[idx];
      const float dov = dh * tc;
      float dc = dh * ov * (1.0f - tc * tc) + dc_next[idx];
      const float div = dc * gv;
      const float dgv = dc * iv;
      const float cp = c_prev ? c_prev[idx] : 0.0f;
      const float dfv = dc * cp;
      dc_next[idx] = dc * fv;
      dzi[idx] = div * iv * (1.0f - iv);
      dzf[idx] = dfv * fv * (1.0f - fv);
      dzg[idx] = dgv * (1.0f - gv * gv);
      dzo[idx] = dov * ov * (1.0f - ov);
    }

    const float* xt = cached_x_.data() + t * batch * m;
    float* dxt = grad_in.data() + t * batch * m;
    std::fill(dxt, dxt + batch * m, 0.0f);
    std::fill(dh_next, dh_next + bn, 0.0f);

    const float* dzs[4] = {dzi, dzf, dzg, dzo};
    for (int gate = 0; gate < 4; ++gate) {
      const float* dz = dzs[gate];
      float* wxg =
          wx_grad_.data() + gate * opts_.hidden_size * opts_.input_size;
      float* whg =
          wh_grad_.data() + gate * opts_.hidden_size * opts_.hidden_size;
      float* bg = b_grad_.data() + gate * opts_.hidden_size;
      // dWx[0:n, 0:m] += rescale_x * dz^T(n, B) * x(B, m)
      ops::Gemm(true, false, n, m, batch, rescale_x_, dz, n, xt, m, 1.0f,
                wxg, opts_.input_size);
      if (h_prev != nullptr) {
        ops::Gemm(true, false, n, n, batch, rescale_h_, dz, n, h_prev, n,
                  1.0f, whg, opts_.hidden_size);
      }
      for (int64_t bi = 0; bi < batch; ++bi) {
        const float* row = dz + bi * n;
        for (int64_t j = 0; j < n; ++j) bg[j] += row[j];
      }
      // dx += rescale_x * dz(B, n) * Wx[0:n, 0:m]
      wx_mm_[gate].ApplyTransposed(batch, n, m, rescale_x_, dz, 1.0f, dxt);
      // dh_prev += rescale_h * dz(B, n) * Wh[0:n, 0:n]
      wh_mm_[gate].ApplyTransposed(batch, n, n, rescale_h_, dz, 1.0f,
                                   dh_next);
    }
  }
  return grad_in;
}

void Lstm::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name_ + ".wx", &wx_, &wx_grad_, /*no_decay=*/false});
  out->push_back({name_ + ".wh", &wh_, &wh_grad_, /*no_decay=*/false});
  out->push_back({name_ + ".b", &b_, &b_grad_, /*no_decay=*/true});
}

int64_t Lstm::FlopsPerSample() const {
  // Per timestep: 4 gate GEMMs over input and hidden contributions.
  return 4 * (active_in_ * active_hidden_ + active_hidden_ * active_hidden_);
}

int64_t Lstm::ActiveParams() const {
  return 4 * (active_in_ * active_hidden_ +
              active_hidden_ * active_hidden_ + active_hidden_);
}

}  // namespace ms
