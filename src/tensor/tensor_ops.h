// Numeric kernels on Tensor: GEMM, im2col-based convolution, pooling,
// elementwise maps and reductions. These are the only hot loops in the
// library; everything else composes them.
#ifndef MODELSLICING_TENSOR_TENSOR_OPS_H_
#define MODELSLICING_TENSOR_TENSOR_OPS_H_

#include <functional>

#include "src/tensor/gemm.h"
#include "src/tensor/tensor.h"

namespace ms {
namespace ops {

/// Convenience GEMM on Tensors; shapes must already agree.
/// a: (M,K) or (K,M) if trans_a; b: (K,N) or (N,K) if trans_b; out: (M,N).
void MatMul(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
            Tensor* out, float beta = 0.0f);

struct Conv2dSpec {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t pad = 1;

  int64_t OutSize(int64_t in) const {
    return (in + 2 * pad - kernel) / stride + 1;
  }
};

/// im2col: x (C,H,W) -> cols (C*k*k, OH*OW). Active channel count may be a
/// prefix slice of the full tensor's channel dim (channels <= x channels).
void Im2Col(const float* x, int64_t channels, int64_t h, int64_t w,
            int64_t kernel, int64_t stride, int64_t pad, float* cols);

/// col2im: inverse scatter-add of Im2Col.
void Col2Im(const float* cols, int64_t channels, int64_t h, int64_t w,
            int64_t kernel, int64_t stride, int64_t pad, float* x);

/// 2x2 / kxk average pooling over NCHW. out must be (N,C,OH,OW).
void AvgPool2d(const Tensor& x, int64_t n, int64_t c, int64_t h, int64_t w,
               int64_t kernel, int64_t stride, Tensor* out);
void AvgPool2dBackward(const Tensor& grad_out, int64_t n, int64_t c, int64_t h,
                       int64_t w, int64_t kernel, int64_t stride,
                       Tensor* grad_in);

void MaxPool2d(const Tensor& x, int64_t n, int64_t c, int64_t h, int64_t w,
               int64_t kernel, int64_t stride, Tensor* out,
               std::vector<int32_t>* argmax);
/// The same maxima without argmax, over `planes` contiguous (H, W) input
/// planes into as many (OH, OW) output planes: the inference form.
void MaxPool2dPlanes(const float* x, int64_t planes, int64_t h, int64_t w,
                     int64_t kernel, int64_t stride, float* out);
/// images = N*C; in_area = H*W; out_area = OH*OW. argmax holds per-image
/// spatial indices produced by MaxPool2d.
void MaxPool2dBackward(const Tensor& grad_out,
                       const std::vector<int32_t>& argmax, int64_t images,
                       int64_t in_area, int64_t out_area, Tensor* grad_in);

/// Elementwise helpers.
void Add(const Tensor& a, const Tensor& b, Tensor* out);
void AddInPlace(Tensor* a, const Tensor& b);
void Scale(Tensor* a, float s);
void Axpy(float alpha, const Tensor& x, Tensor* y);  // y += alpha * x

float SumSquares(const Tensor& a);
float Max(const Tensor& a);
float Mean(const Tensor& a);

/// Row-wise softmax over a (rows, cols) matrix.
void SoftmaxRows(const Tensor& logits, int64_t rows, int64_t cols,
                 Tensor* probs);

/// argmax per row of a (rows, cols) matrix.
void ArgmaxRows(const Tensor& m, int64_t rows, int64_t cols,
                std::vector<int>* out);

}  // namespace ops
}  // namespace ms

#endif  // MODELSLICING_TENSOR_TENSOR_OPS_H_
