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
}  // namespace

Conv2d::Conv2d(Conv2dOptions opts, Rng* rng, std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.in_channels >= 1 && opts_.out_channels >= 1);
  MS_CHECK(opts_.kernel >= 1 && opts_.stride >= 1 && opts_.pad >= 0);
  in_spec_ = SliceSpec(opts_.in_channels,
                       std::min<int64_t>(opts_.groups, opts_.in_channels));
  out_spec_ = SliceSpec(opts_.out_channels,
                        std::min<int64_t>(opts_.groups, opts_.out_channels));
  active_in_ = opts_.in_channels;
  active_out_ = opts_.out_channels;

  const int64_t fan_in = opts_.in_channels * opts_.kernel * opts_.kernel;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  w_ = Tensor::Randn({opts_.out_channels, fan_in}, rng, stddev);
  w_grad_ = Tensor::Zeros({opts_.out_channels, fan_in});
  if (opts_.bias) {
    b_ = Tensor::Zeros({opts_.out_channels});
    b_grad_ = Tensor::Zeros({opts_.out_channels});
  }
  const int64_t kk = opts_.kernel * opts_.kernel;
  std::vector<int64_t> in_k_ends;
  for (int64_t g = 1; g <= in_spec_.num_groups(); ++g) {
    in_k_ends.push_back(in_spec_.GroupBoundary(g) * kk);
  }
  matmul_ = SlicedMatmul(SlicedMatmul::Role::kLeft, &w_, 0,
                         opts_.out_channels, fan_in, std::move(in_k_ends));
  // Full width up front: resizing within it never allocates.
  tap_offsets_.reserve(static_cast<size_t>(fan_in));
}

void Conv2d::DoSetSliceRate(double r) {
  active_in_ =
      opts_.slice_in ? in_spec_.ActiveWidth(r) : in_spec_.full_width();
  active_out_ =
      opts_.slice_out ? out_spec_.ActiveWidth(r) : out_spec_.full_width();
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

  tap_offsets_.resize(static_cast<size_t>(planes.taps()));
  planes.TapOffsets(tap_offsets_.data());

  // Bias (per output channel == C row) always rides the GEMM's
  // C-writeback; a planted activation only at inference.
  ops::Epilogue epi;
  if (opts_.bias) epi.bias = b_.data();
  if (!training) epi.act = fused_act_;
  epi.per_row = true;
  Tensor y = Tensor::Uninit({batch, n, oh, ow});
  const float* xd = x.data();
  float* yd = y.data();
  // Pack W once, outside the parallel region (workers then only read).
  matmul_.Prepare(precision_, training);
  // Parallel over images: each worker copies its images, one at a time,
  // into padded planes from its own arena, and the GEMM reads the im2col
  // matrix from there in place; output planes are disjoint. With batch
  // == 1 the single shard runs on the caller, where the GEMM itself may
  // go parallel.
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
      // y_img(n, out_area) = W[0:n, 0:m*k*k] * cols. The prefix of the
      // full-stride pack keeps the inactive input-channel columns out.
      const ops::ColsView cols =
          planes.View(buf != nullptr ? buf : xi, tap_offsets_.data());
      matmul_.Apply(cols, n, planes.taps(), 0.0f, yd + img * n * out_area,
                    epi);
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
  const int64_t col_rows = m * k * k;
  MS_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == batch &&
           grad_out.dim(1) == n && grad_out.dim(2) == oh &&
           grad_out.dim(3) == ow);

  const int64_t ld_w = opts_.in_channels * k * k;
  Tensor grad_in({batch, m, h, w});

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

  const float* xd = cached_x_.data();
  const float* gd = grad_out.data();
  float* gid = grad_in.data();
  // dcols consumes W^T; pack once before the shard fan-out.
  matmul_.Prepare(Precision::kFp32, /*training=*/true);
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
        const float* g = gd + img * n * out_area;
        // dW_shard(n, col_rows) += g(n, out_area) * cols^T
        ops::Im2Col(xd + img * m * h * w, m, h, w, k, opts_.stride,
                    opts_.pad, cols);
        ops::Gemm(false, true, n, col_rows, out_area, 1.0f, g, out_area,
                  cols, out_area, 1.0f, wg, col_rows);
        // dcols = W^T(col_rows, n) * g(n, out_area)
        matmul_.ApplyTransposed(out_area, n, col_rows, 1.0f, g, 0.0f,
                                grad_cols);
        ops::Col2Im(grad_cols, m, h, w, k, opts_.stride, opts_.pad,
                    gid + img * m * h * w);
        if (bg) {
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
  return active_in_ * active_out_ * opts_.kernel * opts_.kernel * out_area;
}

int64_t Conv2d::ActiveParams() const {
  return active_in_ * active_out_ * opts_.kernel * opts_.kernel +
         (opts_.bias ? active_out_ : 0);
}

}  // namespace ms
