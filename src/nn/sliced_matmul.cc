#include "src/nn/sliced_matmul.h"

#include <utility>

#include "src/util/status.h"

namespace ms {

SlicedMatmul::SlicedMatmul(Role role, const Tensor* w, int64_t offset,
                           int64_t rows, int64_t cols,
                           std::vector<int64_t> k_group_ends)
    : role_(role),
      w_(w),
      offset_(offset),
      rows_(rows),
      cols_(cols),
      k_group_ends_(std::move(k_group_ends)) {
  MS_CHECK(w_ != nullptr && rows_ >= 1 && cols_ >= 1);
  MS_CHECK(!k_group_ends_.empty() && k_group_ends_.back() == cols_);
}

void SlicedMatmul::Prepare(Precision precision, bool training) {
  const float* w = weight();
  // Int8 is inference-only; training always contracts in fp32.
  int8_ = precision == Precision::kInt8 && !training;
  if (int8_) {
    ops::EnsureQuantizedB(/*trans_b=*/true, cols_, rows_, w, cols_,
                          k_group_ends_, &int8_pack_);
  } else if (role_ == Role::kRight) {
    ops::EnsurePackedB(/*trans_b=*/true, cols_, rows_, w, cols_, &fwd_pack_);
  } else {
    ops::EnsurePackedA(/*trans_a=*/false, rows_, cols_, w, cols_,
                       &fwd_pack_);
  }
  if (!training) return;
  if (role_ == Role::kRight) {
    ops::EnsurePackedB(/*trans_b=*/false, rows_, cols_, w, cols_, &bwd_pack_);
  } else {
    ops::EnsurePackedA(/*trans_a=*/true, cols_, rows_, w, cols_, &bwd_pack_);
  }
}

void SlicedMatmul::Apply(int64_t m, int64_t n, int64_t k, float alpha,
                         const float* x, float beta, float* y,
                         const ops::Epilogue& epi) const {
  MS_CHECK(role_ == Role::kRight);
  if (int8_) {
    ops::GemmQuantizedB(false, m, n, k, alpha, x, k, int8_pack_, beta, y, n,
                        epi);
  } else {
    ops::GemmPrepackedB(false, m, n, k, alpha, x, k, fwd_pack_, beta, y, n,
                        epi);
  }
}

void SlicedMatmul::Apply(const ops::ColsView& x, int64_t n, int64_t k,
                         float beta, float* y,
                         const ops::Epilogue& epi) const {
  MS_CHECK(role_ == Role::kLeft);
  const int64_t ldy = x.cols();
  if (int8_) {
    ops::GemmQuantizedWeightA(n, k, int8_pack_, x, beta, y, ldy, epi);
  } else {
    ops::GemmPrepackedA(n, k, fwd_pack_, x, beta, y, ldy, epi);
  }
}

void SlicedMatmul::ApplyTransposed(int64_t m, int64_t n, int64_t k,
                                   float alpha, const float* g, float beta,
                                   float* dx) const {
  if (role_ == Role::kRight) {
    ops::GemmPrepackedB(false, m, k, n, alpha, g, n, bwd_pack_, beta, dx, k);
    return;
  }
  MS_CHECK(alpha == 1.0f);
  ops::GemmPrepackedA(k, m, n, bwd_pack_, false, g, m, beta, dx, m);
}

}  // namespace ms
