#include "src/nn/conv2d.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/scratch.h"

namespace ms {

namespace {
// Fixed shard count for the weight-gradient reduction in DoBackward. A
// constant (rather than the pool size) keeps the accumulation order — and
// therefore the bitwise result — independent of the thread count.
constexpr int64_t kGradShards = 8;

// The depthwise shape: each channel's k x k filter touches only that
// channel. `s` gives the shape; its planes are not used.
void DepthwiseForward(const ops::ConvPlanes& s, int64_t batch,
                      const float* xd, const float* wd, ops::EpiAct act,
                      float* yd) {
  const int64_t k = s.kernel, h = s.h, w = s.w, oh = s.out_h, ow = s.out_w;
  const int64_t stride = s.stride;
  const int64_t pad = s.pad;
  // Interior outputs — those whose k x k window lies fully inside the
  // input — take a bounds-check-free inner loop; only the border rows and
  // columns keep the checked loop. Both variants accumulate in the same
  // (ki, kj) ascending order, so the result is bitwise unchanged.
  const int64_t oi_lo = (pad + stride - 1) / stride;
  const int64_t oi_hi = std::min<int64_t>(oh - 1, (h - k + pad) / stride);
  const int64_t oj_lo = oi_lo;  // same pad/stride in both dimensions
  const int64_t oj_hi = std::min<int64_t>(ow - 1, (w - k + pad) / stride);
  // Each (image, channel) plane is independent; parallelize over the
  // flattened plane index. A planted activation is applied at each output
  // write, the direct-loop analogue of the GEMM epilogue.
  ops::ParallelForCompute(batch * s.channels, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const float* xc = xd + p * h * w;
      const float* wc = wd + (p % s.channels) * k * k;
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
}

// Accumulates into w_grad (channels, k*k) and writes the zeroed gid.
void DepthwiseBackward(const ops::ConvPlanes& s, int64_t batch,
                       const float* xd, const float* wd, const float* gd,
                       float* w_grad, float* gid) {
  const int64_t k = s.kernel, h = s.h, w = s.w, oh = s.out_h, ow = s.out_w;
  const int64_t channels = s.channels;
  // Parallel over channels: each channel's w_grad row is private to its
  // shard and images accumulate in index order, so results are bitwise
  // identical for any thread count. No zero-gradient skip: the scatter must
  // run even for g == 0 so NaN/Inf in x or w still propagate (g * NaN is
  // NaN, not 0).
  ops::ParallelForCompute(channels, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const float* wc = wd + c * k * k;
      float* wg = w_grad + c * k * k;
      for (int64_t img = 0; img < batch; ++img) {
        const float* xc = xd + (img * channels + c) * h * w;
        const float* gc = gd + (img * channels + c) * oh * ow;
        float* gi = gid + (img * channels + c) * h * w;
        for (int64_t oi = 0; oi < oh; ++oi) {
          for (int64_t oj = 0; oj < ow; ++oj) {
            const float g = gc[oi * ow + oj];
            for (int64_t ki = 0; ki < k; ++ki) {
              const int64_t ii = oi * s.stride - s.pad + ki;
              if (ii < 0 || ii >= h) continue;
              for (int64_t kj = 0; kj < k; ++kj) {
                const int64_t jj = oj * s.stride - s.pad + kj;
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
}

}  // namespace

Conv2d::Conv2d(Conv2dOptions opts, Rng* rng, std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.in_channels >= 1 && opts_.out_channels >= 1);
  MS_CHECK(opts_.kernel >= 1 && opts_.stride >= 1 && opts_.pad >= 0);
  MS_CHECK(opts_.branches >= 1);
  MS_CHECK_MSG(opts_.in_channels % opts_.branches == 0 &&
                   opts_.out_channels % opts_.branches == 0,
               "in/out channels must divide by branches");
  MS_CHECK_MSG(!(depthwise() && opts_.bias), "a depthwise conv has no bias");
  in_spec_ = SliceSpec(opts_.in_channels,
                       std::min<int64_t>(opts_.groups, opts_.in_channels));
  out_spec_ = SliceSpec(opts_.out_channels,
                        std::min<int64_t>(opts_.groups, opts_.out_channels));
  active_in_ = opts_.in_channels;
  active_out_ = opts_.out_channels;
  const int64_t in_per_branch = opts_.in_channels / opts_.branches;
  const int64_t out_per_branch = opts_.out_channels / opts_.branches;
  if (opts_.branches > 1 && (opts_.slice_in || opts_.slice_out)) {
    // Every rate must keep a prefix of whole branches on both sides.
    MS_CHECK_MSG(opts_.slice_in == opts_.slice_out &&
                     in_spec_.num_groups() == out_spec_.num_groups(),
                 "a branched conv slices its inputs and outputs together");
    for (int64_t g = 1; g <= in_spec_.num_groups(); ++g) {
      const int64_t in_end = in_spec_.GroupBoundary(g);
      const int64_t out_end = out_spec_.GroupBoundary(g);
      MS_CHECK_MSG(in_end % in_per_branch == 0 &&
                       out_end % out_per_branch == 0 &&
                       in_end / in_per_branch == out_end / out_per_branch,
                   "slicing groups must fall on branch boundaries");
    }
  }

  const int64_t kk = opts_.kernel * opts_.kernel;
  const int64_t fan_in = in_per_branch * kk;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  w_ = Tensor::Randn({opts_.out_channels, fan_in}, rng, stddev);
  w_grad_ = Tensor::Zeros({opts_.out_channels, fan_in});
  if (opts_.bias) {
    b_ = Tensor::Zeros({opts_.out_channels});
    b_grad_ = Tensor::Zeros({opts_.out_channels});
  }
  std::vector<int64_t> k_ends{fan_in};
  if (opts_.branches == 1) {
    k_ends.clear();
    for (int64_t g = 1; g <= in_spec_.num_groups(); ++g) {
      k_ends.push_back(in_spec_.GroupBoundary(g) * kk);
    }
  }
  for (int64_t b = 0; b < (depthwise() ? 0 : opts_.branches); ++b) {
    matmuls_.emplace_back(SlicedMatmul::Role::kLeft, &w_,
                          b * out_per_branch * fan_in, out_per_branch, fan_in,
                          k_ends);
  }
  // Full width up front: resizing within it never allocates.
  tap_offsets_.reserve(static_cast<size_t>(opts_.in_channels * kk));
}

void Conv2d::DoSetSliceRate(double r) {
  active_in_ =
      opts_.slice_in ? in_spec_.ActiveWidth(r) : in_spec_.full_width();
  active_out_ =
      opts_.slice_out ? out_spec_.ActiveWidth(r) : out_spec_.full_width();
}

int64_t Conv2d::active_branches() const {
  if (opts_.branches == 1) return 1;
  return active_in_ / (opts_.in_channels / opts_.branches);
}

Tensor Conv2d::DoForward(const Tensor& x, bool training) {
  MS_CHECK(x.ndim() == 4);
  const int64_t batch = x.dim(0);
  MS_CHECK_MSG(x.dim(1) == active_in_, "Conv2d input channels != active_in");
  const int64_t h = x.dim(2);
  const int64_t w = x.dim(3);
  const int64_t m = active_in_;
  const int64_t n = active_out_;
  const ops::ConvPlanes planes(m, h, w, opts_.kernel, opts_.stride,
                               opts_.pad);
  const int64_t oh = planes.out_h;
  const int64_t ow = planes.out_w;
  const int64_t out_area = oh * ow;

  // Only backward reads the input copy. Copy-assign reuses capacity when
  // shapes repeat, so steady-state training forwards stay allocation-free.
  if (training) cached_x_ = x;
  cached_h_ = h;
  cached_w_ = w;
  last_oh_ = oh;
  last_ow_ = ow;

  Tensor y = Tensor::Uninit({batch, n, oh, ow});
  const float* xd = x.data();
  float* yd = y.data();
  if (depthwise()) {
    DepthwiseForward(planes, batch, xd, w_.data(),
                     training ? ops::EpiAct::kNone : fused_act_, yd);
    return y;
  }

  tap_offsets_.resize(static_cast<size_t>(planes.taps()));
  planes.TapOffsets(tap_offsets_.data());
  // Branch b's planes follow branch b-1's: the taps of its first channel
  // sit branch_floats further on, at the offsets of channel 0.
  const int64_t branches = active_branches();
  const int64_t m_branch = m / branches;
  const int64_t n_branch = n / branches;
  const int64_t branch_floats = planes.floats() / branches;

  // Bias (per output channel == C row) always rides the GEMM's
  // C-writeback; a planted activation only at inference.
  ops::Epilogue epi;
  if (!training) epi.act = fused_act_;
  epi.per_row = true;
  // Pack W once, outside the parallel region (workers then only read).
  for (int64_t b = 0; b < branches; ++b) {
    matmuls_[static_cast<size_t>(b)].Prepare(precision_, training);
  }
  // Parallel over images: each worker copies its images, one at a time,
  // into padded planes from its own arena, and each branch's GEMM reads
  // its im2col matrix from there in place; output planes are disjoint.
  // With batch == 1 the single shard runs on the caller, where the GEMM
  // itself may go parallel.
  ops::ParallelForCompute(batch, [&](int64_t b0, int64_t b1) {
    ScratchArena& arena = ScratchArena::ForThread();
    ScratchArena::Scope scope(arena);
    // Zeroed once: every image writes the same interior positions, so the
    // padding stays zero.
    float* buf =
        planes.in_place() ? nullptr : arena.AllocZeroed(planes.floats());
    for (int64_t img = b0; img < b1; ++img) {
      const float* xi = xd + img * m * h * w;
      if (buf != nullptr) planes.Fill(xi, buf);
      const float* base = buf != nullptr ? buf : xi;
      for (int64_t b = 0; b < branches; ++b) {
        // y_img(branch rows, out_area) = W_b[:, 0:m_branch*k*k] * cols_b.
        // The prefix of the full-stride pack keeps the inactive
        // input-channel columns out.
        ops::Epilogue epi_b = epi;
        if (opts_.bias) epi_b.bias = b_.data() + b * n_branch;
        matmuls_[static_cast<size_t>(b)].Apply(
            planes.View(base + b * branch_floats, tap_offsets_.data()),
            n_branch, m_branch * opts_.kernel * opts_.kernel, 0.0f,
            yd + (img * n + b * n_branch) * out_area, epi_b);
      }
    }
  });
  return y;
}

Tensor Conv2d::DoBackward(const Tensor& grad_out) {
  MS_CHECK_MSG(cached_x_.ndim() == 4,
               "Conv2d::Backward requires a prior Forward");
  const int64_t batch = cached_x_.dim(0);
  const int64_t m = active_in_;
  const int64_t n = active_out_;
  const int64_t h = cached_h_;
  const int64_t w = cached_w_;
  const int64_t k = opts_.kernel;
  const int64_t oh = last_oh_;
  const int64_t ow = last_ow_;
  const int64_t out_area = oh * ow;
  MS_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == batch &&
           grad_out.dim(1) == n && grad_out.dim(2) == oh &&
           grad_out.dim(3) == ow);

  Tensor grad_in({batch, m, h, w});
  const float* xd = cached_x_.data();
  const float* gd = grad_out.data();
  float* gid = grad_in.data();
  if (depthwise()) {
    DepthwiseBackward(ops::ConvPlanes(m, h, w, k, opts_.stride, opts_.pad),
                      batch, xd, w_.data(), gd, w_grad_.data(), gid);
    return grad_in;
  }

  const int64_t branches = active_branches();
  const int64_t m_branch = m / branches;
  const int64_t n_branch = n / branches;
  const int64_t col_rows = m_branch * k * k;  // per branch
  const int64_t ld_w = w_.dim(1);

  // dW is a sum over images, so images are split across a *fixed* shard
  // grid; each shard accumulates into a compact private buffer and the
  // shards are reduced serially in index order afterwards. Result is
  // bitwise identical for any thread count (incl. the serial path).
  const int64_t shards = std::min<int64_t>(batch, kGradShards);
  const int64_t chunk = (batch + shards - 1) / shards;
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  const int64_t wg_size = n * col_rows;
  float* wg_shards = arena.Alloc(shards * wg_size);
  float* bg_shards = opts_.bias ? arena.Alloc(shards * n) : nullptr;

  // dcols consumes W_b^T; pack once before the shard fan-out.
  for (int64_t b = 0; b < branches; ++b) {
    matmuls_[static_cast<size_t>(b)].Prepare(Precision::kFp32,
                                             /*training=*/true);
  }
  ops::ParallelForCompute(shards, [&](int64_t s0, int64_t s1) {
    ScratchArena& warena = ScratchArena::ForThread();
    ScratchArena::Scope wscope(warena);
    float* cols = warena.Alloc(col_rows * out_area);
    float* grad_cols = warena.Alloc(col_rows * out_area);
    for (int64_t s = s0; s < s1; ++s) {
      float* wg = wg_shards + s * wg_size;
      std::fill(wg, wg + wg_size, 0.0f);
      float* bg = bg_shards ? bg_shards + s * n : nullptr;
      if (bg) std::fill(bg, bg + n, 0.0f);
      const int64_t img0 = s * chunk;
      const int64_t img1 = std::min<int64_t>(batch, img0 + chunk);
      for (int64_t img = img0; img < img1; ++img) {
        for (int64_t b = 0; b < branches; ++b) {
          const float* g = gd + (img * n + b * n_branch) * out_area;
          const int64_t x_at = (img * m + b * m_branch) * h * w;
          // dW_shard(branch rows, col_rows) += g(n_branch, out_area) * cols^T
          ops::Im2Col(xd + x_at, m_branch, h, w, k, opts_.stride, opts_.pad,
                      cols);
          ops::Gemm(false, true, n_branch, col_rows, out_area, 1.0f, g,
                    out_area, cols, out_area, 1.0f,
                    wg + b * n_branch * col_rows, col_rows);
          // dcols = W_b^T(col_rows, n_branch) * g(n_branch, out_area)
          matmuls_[static_cast<size_t>(b)].ApplyTransposed(
              out_area, n_branch, col_rows, 1.0f, g, 0.0f, grad_cols);
          ops::Col2Im(grad_cols, m_branch, h, w, k, opts_.stride, opts_.pad,
                      gid + x_at);
        }
        if (bg) {
          const float* g = gd + img * n * out_area;
          for (int64_t c = 0; c < n; ++c) {
            const float* plane = g + c * out_area;
            float acc = 0.0f;
            for (int64_t p = 0; p < out_area; ++p) acc += plane[p];
            bg[c] += acc;
          }
        }
      }
    }
  });

  // Reduction into the full-width (strided) gradient tensors, parallel
  // over destination rows. Each row still sums its shards in ascending s
  // — the serial order — so the result is bitwise identical at any
  // thread count.
  float* wgd = w_grad_.data();
  ops::ParallelForCompute(n, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* dst = wgd + r * ld_w;
      for (int64_t s = 0; s < shards; ++s) {
        const float* src = wg_shards + s * wg_size + r * col_rows;
        for (int64_t c = 0; c < col_rows; ++c) dst[c] += src[c];
      }
    }
  });
  if (bg_shards) {
    for (int64_t s = 0; s < shards; ++s) {
      const float* bg = bg_shards + s * n;
      for (int64_t c = 0; c < n; ++c) b_grad_[c] += bg[c];
    }
  }
  return grad_in;
}

void Conv2d::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name_ + ".w", &w_, &w_grad_, /*no_decay=*/false});
  if (opts_.bias) {
    out->push_back({name_ + ".b", &b_, &b_grad_, /*no_decay=*/true});
  }
}

int64_t Conv2d::FlopsPerSample() const {
  const int64_t out_area = (last_oh_ > 0) ? last_oh_ * last_ow_ : 1;
  return active_in_ * active_out_ / active_branches() * opts_.kernel *
         opts_.kernel * out_area;
}

int64_t Conv2d::ActiveParams() const {
  return active_in_ * active_out_ / active_branches() * opts_.kernel *
             opts_.kernel +
         (opts_.bias ? active_out_ : 0);
}

}  // namespace ms
