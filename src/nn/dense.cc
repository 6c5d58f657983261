#include "src/nn/dense.h"

#include <cmath>

#include "src/tensor/gemm.h"
#include "src/tensor/tensor_ops.h"

namespace ms {

Dense::Dense(DenseOptions opts, Rng* rng, std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.in_features >= 1 && opts_.out_features >= 1);
  MS_CHECK(opts_.in_unit >= 1);
  MS_CHECK_MSG(opts_.in_features % opts_.in_unit == 0,
               "in_features must be a multiple of in_unit");
  const int64_t in_units = opts_.in_features / opts_.in_unit;
  in_spec_ = SliceSpec(in_units, std::min<int64_t>(opts_.groups, in_units));
  out_spec_ = SliceSpec(opts_.out_features,
                        std::min<int64_t>(opts_.groups, opts_.out_features));
  active_in_units_ = in_units;
  active_out_ = opts_.out_features;

  // Kaiming-uniform fan-in init, matching common practice for ReLU nets.
  const float bound =
      std::sqrt(6.0f / static_cast<float>(opts_.in_features));
  w_ = Tensor::RandUniform({opts_.out_features, opts_.in_features}, rng,
                           -bound, bound);
  w_grad_ = Tensor::Zeros({opts_.out_features, opts_.in_features});
  if (opts_.bias) {
    b_ = Tensor::Zeros({opts_.out_features});
    b_grad_ = Tensor::Zeros({opts_.out_features});
  }
  std::vector<int64_t> in_k_ends;
  for (int64_t g = 1; g <= in_spec_.num_groups(); ++g) {
    in_k_ends.push_back(in_spec_.GroupBoundary(g) * opts_.in_unit);
  }
  matmul_ = SlicedMatmul(SlicedMatmul::Role::kRight, &w_, 0,
                         opts_.out_features, opts_.in_features,
                         std::move(in_k_ends));
}

void Dense::DoSetSliceRate(double r) {
  active_in_units_ =
      opts_.slice_in ? in_spec_.ActiveWidth(r) : in_spec_.full_width();
  active_out_ =
      opts_.slice_out ? out_spec_.ActiveWidth(r) : out_spec_.full_width();
  rescale_factor_ =
      opts_.rescale
          ? static_cast<float>(in_spec_.full_width()) /
                static_cast<float>(active_in_units_)
          : 1.0f;
}

Tensor Dense::DoForward(const Tensor& x, bool training) {
  const int64_t m = active_in();
  const int64_t n = active_out_;
  MS_CHECK(x.ndim() == 2);
  MS_CHECK_MSG(x.dim(1) == m, "Dense input width != active_in");
  const int64_t batch = x.dim(0);
  // Only backward reads the input copy.
  if (training) cached_x_ = x;

  // Bias always rides the GEMM's C-writeback; a planted activation only
  // at inference (training runs the activation module, which caches its
  // mask for backward).
  ops::Epilogue epi;
  if (opts_.bias) epi.bias = b_.data();
  if (!training) epi.act = fused_act_;
  Tensor y = Tensor::Uninit({batch, n});
  // y(B,n) = x(B,m) * W[0:n, 0:m]^T
  matmul_.Prepare(precision_, training);
  matmul_.Apply(batch, n, m, rescale_factor_, x.data(), 0.0f, y.data(), epi);
  return y;
}

Tensor Dense::DoBackward(const Tensor& grad_out) {
  const int64_t m = active_in();
  const int64_t n = active_out_;
  MS_CHECK(grad_out.ndim() == 2 && grad_out.dim(1) == n);
  const int64_t batch = grad_out.dim(0);
  MS_CHECK(cached_x_.dim(0) == batch);

  // dW[0:n, 0:m] += g^T(n,B) * x(B,m), scaled by the rescale factor.
  ops::Gemm(/*trans_a=*/true, /*trans_b=*/false, n, m, batch,
            rescale_factor_, grad_out.data(), n, cached_x_.data(), m, 1.0f,
            w_grad_.data(), opts_.in_features);
  if (opts_.bias) {
    // Column-sharded reduction: each task owns columns [j0, j1) and sums
    // rows in ascending i — the serial order — so the result is bitwise
    // identical at any thread count.
    const float* gd = grad_out.data();
    float* bg = b_grad_.data();
    ops::ParallelForCompute(n, [&](int64_t j0, int64_t j1) {
      for (int64_t i = 0; i < batch; ++i) {
        const float* row = gd + i * n;
        for (int64_t j = j0; j < j1; ++j) bg[j] += row[j];
      }
    });
  }

  // dx(B,m) = g(B,n) * W[0:n, 0:m]
  Tensor grad_in({batch, m});
  matmul_.Prepare(Precision::kFp32, /*training=*/true);
  matmul_.ApplyTransposed(batch, n, m, rescale_factor_, grad_out.data(),
                          0.0f, grad_in.data());
  return grad_in;
}

void Dense::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name_ + ".w", &w_, &w_grad_, /*no_decay=*/false});
  if (opts_.bias) {
    out->push_back({name_ + ".b", &b_, &b_grad_, /*no_decay=*/true});
  }
}

int64_t Dense::FlopsPerSample() const {
  return active_in() * active_out_;
}

int64_t Dense::ActiveParams() const {
  return active_in() * active_out_ + (opts_.bias ? active_out_ : 0);
}

}  // namespace ms
