#include "src/nn/grouped_conv.h"

#include <cmath>

#include "src/tensor/scratch.h"
#include "src/tensor/tensor_ops.h"

namespace ms {

GroupedConv2d::GroupedConv2d(GroupedConv2dOptions opts, Rng* rng,
                             std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.groups >= 1);
  MS_CHECK_MSG(opts_.in_channels % opts_.groups == 0,
               "in_channels must divide by groups");
  MS_CHECK_MSG(opts_.out_channels % opts_.groups == 0,
               "out_channels must divide by groups");
  in_per_group_ = opts_.in_channels / opts_.groups;
  out_per_group_ = opts_.out_channels / opts_.groups;
  active_groups_ = opts_.groups;

  const int64_t fan_in = in_per_group_ * opts_.kernel * opts_.kernel;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  w_ = Tensor::Randn({opts_.groups, out_per_group_, fan_in}, rng, stddev);
  w_grad_ = Tensor::Zeros(w_.shape());
  for (int64_t g = 0; g < opts_.groups; ++g) {
    matmuls_.emplace_back(SlicedMatmul::Role::kLeft, &w_,
                          g * out_per_group_ * fan_in, out_per_group_, fan_in,
                          std::vector<int64_t>{fan_in});
  }
}

void GroupedConv2d::DoSetSliceRate(double r) {
  if (!opts_.slice) return;
  SliceSpec spec(opts_.groups, opts_.groups);
  active_groups_ = spec.ActiveWidth(r);
}

Tensor GroupedConv2d::DoForward(const Tensor& x, bool training) {
  MS_CHECK(x.ndim() == 4);
  MS_CHECK_MSG(x.dim(1) == active_in(),
               "GroupedConv2d channels != active prefix");
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

  const int64_t out_area = oh * ow;
  const int64_t col_rows = in_per_group_ * k * k;
  // No bias in this layer: the epilogue carries only a planted
  // activation, at inference (see nn/fusion.h).
  ops::Epilogue epi;
  if (!training) epi.act = fused_act_;
  Tensor y = Tensor::Uninit({batch, active_out(), oh, ow});
  const float* xd = x.data();
  float* yd = y.data();
  // Pack the active branches' weights once, before the fan-out.
  for (int64_t g = 0; g < active_groups_; ++g) {
    matmuls_[static_cast<size_t>(g)].Prepare(precision_, training);
  }
  // Parallel over images; groups run serially inside each shard with one
  // arena-backed im2col buffer per worker.
  ops::ParallelForCompute(batch, [&](int64_t b0, int64_t b1) {
    ScratchArena& arena = ScratchArena::ForThread();
    ScratchArena::Scope scope(arena);
    float* cols = arena.Alloc(col_rows * out_area);
    for (int64_t img = b0; img < b1; ++img) {
      for (int64_t g = 0; g < active_groups_; ++g) {
        const float* xg = xd + (img * active_in() + g * in_per_group_) * h * w;
        ops::Im2Col(xg, in_per_group_, h, w, k, opts_.stride, opts_.pad, cols);
        float* yg = yd + (img * active_out() + g * out_per_group_) * out_area;
        matmuls_[static_cast<size_t>(g)].Apply(
            ops::ColsView::Matrix(cols, out_area, out_area), out_per_group_,
            col_rows, 0.0f, yg, epi);
      }
    }
  });
  return y;
}

Tensor GroupedConv2d::DoBackward(const Tensor& grad_out) {
  MS_CHECK_MSG(cached_x_.ndim() == 4,
               "GroupedConv2d::Backward requires a prior Forward");
  const int64_t batch = cached_x_.dim(0);
  const int64_t h = cached_h_;
  const int64_t w = cached_w_;
  const int64_t k = opts_.kernel;
  const int64_t oh = last_oh_;
  const int64_t ow = last_ow_;
  const int64_t out_area = oh * ow;
  const int64_t col_rows = in_per_group_ * k * k;
  MS_CHECK(grad_out.ndim() == 4 && grad_out.dim(1) == active_out() &&
           grad_out.dim(2) == oh && grad_out.dim(3) == ow);

  Tensor grad_in({batch, active_in(), h, w});
  const float* xd = cached_x_.data();
  const float* gd = grad_out.data();
  float* gid = grad_in.data();
  // dcols consumes W_g^T; pack the active branches up front.
  for (int64_t g = 0; g < active_groups_; ++g) {
    matmuls_[static_cast<size_t>(g)].Prepare(Precision::kFp32,
                                             /*training=*/true);
  }
  // Parallel over groups: each group owns a disjoint w_grad_ block and
  // disjoint (img, g) planes of grad_in, and accumulates its images in
  // index order — deterministic for any thread count.
  ops::ParallelForCompute(active_groups_, [&](int64_t g0, int64_t g1) {
    ScratchArena& arena = ScratchArena::ForThread();
    ScratchArena::Scope scope(arena);
    float* cols = arena.Alloc(col_rows * out_area);
    float* grad_cols = arena.Alloc(col_rows * out_area);
    for (int64_t g = g0; g < g1; ++g) {
      float* wg_grad = w_grad_.data() + g * out_per_group_ * col_rows;
      for (int64_t img = 0; img < batch; ++img) {
        const float* xg = xd + (img * active_in() + g * in_per_group_) * h * w;
        const float* gg =
            gd + (img * active_out() + g * out_per_group_) * out_area;
        ops::Im2Col(xg, in_per_group_, h, w, k, opts_.stride, opts_.pad, cols);
        // dW_g += g(out_pg, area) * cols^T(area, col_rows)
        ops::Gemm(false, true, out_per_group_, col_rows, out_area, 1.0f, gg,
                  out_area, cols, out_area, 1.0f, wg_grad, col_rows);
        // dcols = W_g^T * g
        matmuls_[static_cast<size_t>(g)].ApplyTransposed(
            out_area, out_per_group_, col_rows, 1.0f, gg, 0.0f, grad_cols);
        ops::Col2Im(grad_cols, in_per_group_, h, w, k, opts_.stride,
                    opts_.pad,
                    gid + (img * active_in() + g * in_per_group_) * h * w);
      }
    }
  });
  return grad_in;
}

void GroupedConv2d::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name_ + ".w", &w_, &w_grad_, /*no_decay=*/false});
}

int64_t GroupedConv2d::FlopsPerSample() const {
  const int64_t out_area = (last_oh_ > 0) ? last_oh_ * last_ow_ : 1;
  return active_groups_ * in_per_group_ * out_per_group_ * opts_.kernel *
         opts_.kernel * out_area;
}

int64_t GroupedConv2d::ActiveParams() const {
  return active_groups_ * in_per_group_ * out_per_group_ * opts_.kernel *
         opts_.kernel;
}

}  // namespace ms
