// The one weight contraction every GEMM layer runs: a weight matrix W whose
// sliced subnets are prefixes (paper Sec. 3, Eq. 1-2), plus the packed forms
// of W the kernels consume.
//
// W is a row-major (rows x cols) block — out features x in features for
// Dense and the RNN gate blocks, a branch's out channels x its in channels
// * k * k for Conv2d — and a slice rate reads W[:n, :k]. A grouped conv
// has one operator per branch; slicing keeps whole branches, so each is
// used at full extents. Because every pack of W keeps
// the full extents (prepack.h, quant.h), one pack per form serves every
// rate as a prefix. The operator owns those packs:
//   * the fp32 forward pack (W^T as the right operand, W as the left one),
//   * the int8 pack (always W^T quantized per (input group, output unit)),
//   * the fp32 backward pack (W as the right operand, W^T as the left one),
// each re-packed only when the process-wide weight generation advances.
//
// Threading: Prepare() is the only mutating call. Layers call it once per
// forward/backward, before any ParallelForCompute region; Apply() and
// ApplyTransposed() only read the packs and may run on pool workers.
#ifndef MODELSLICING_NN_SLICED_MATMUL_H_
#define MODELSLICING_NN_SLICED_MATMUL_H_

#include <cstdint>
#include <vector>

#include "src/tensor/cols_view.h"
#include "src/tensor/epilogue.h"
#include "src/tensor/prepack.h"
#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"

namespace ms {

class SlicedMatmul {
 public:
  /// Which side of the product W sits on.
  enum class Role : uint8_t {
    kRight,  ///< y = alpha * x . W^T   (Dense, Lstm, Gru)
    kLeft,   ///< y = W . x             (Conv2d, one per branch; im2col x)
  };

  SlicedMatmul() = default;
  /// W is the (rows x cols) block at `w->data() + offset` (leading
  /// dimension cols). `w` is read at every Prepare, so the owning layer may
  /// reassign the tensor. `k_group_ends` are the ascending exclusive ends
  /// of the input slice groups along cols (the int8 scale segments); the
  /// last one must equal cols.
  SlicedMatmul(Role role, const Tensor* w, int64_t offset, int64_t rows,
               int64_t cols, std::vector<int64_t> k_group_ends);

  /// Makes the packs the next calls read current. Apply uses the int8 pack
  /// when `precision` is int8 and `training` is false, else the fp32 one;
  /// `training` also readies the backward pack for ApplyTransposed.
  void Prepare(Precision precision, bool training);

  /// kRight: y[m x n] = alpha * x[m x k] . W[:n, :k]^T + beta * y.
  /// Operands are compact (leading dimension = their column count); `epi`
  /// is applied at C-writeback.
  void Apply(int64_t m, int64_t n, int64_t k, float alpha, const float* x,
             float beta, float* y, const ops::Epilogue& epi = {}) const;

  /// kLeft: y[n x x.cols()] = W[:n, :k] . x + beta * y, with the im2col
  /// matrix x (k x x.cols()) read in place through its view (cols_view.h);
  /// y is compact. `epi` is applied at C-writeback.
  void Apply(const ops::ColsView& x, int64_t n, int64_t k, float beta,
             float* y, const ops::Epilogue& epi = {}) const;

  /// The input gradient of Apply, always fp32:
  /// kRight: dx[m x k] = alpha * g[m x n] . W[:n, :k] + beta * dx
  /// kLeft:  dx[k x m] = W[:n, :k]^T . g[n x m] + beta * dx   (alpha == 1)
  void ApplyTransposed(int64_t m, int64_t n, int64_t k, float alpha,
                       const float* g, float beta, float* dx) const;

 private:
  const float* weight() const { return w_->data() + offset_; }

  Role role_ = Role::kRight;
  const Tensor* w_ = nullptr;
  int64_t offset_ = 0;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> k_group_ends_;

  bool int8_ = false;  ///< Apply reads int8_pack_ (set by Prepare).
  ops::PackedMatrix fwd_pack_;
  ops::QuantizedPack int8_pack_;
  ops::PackedMatrix bwd_pack_;
};

}  // namespace ms

#endif  // MODELSLICING_NN_SLICED_MATMUL_H_
