#include "src/tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/tensor/gemm_internal.h"

namespace ms {
namespace ops {

// Gemm / GemmRef live in gemm.cc (packed, cache-blocked, thread-parallel
// kernel layer). This file keeps the Tensor-level convenience wrappers and
// the remaining im2col/pooling/elementwise kernels.

void MatMul(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
            Tensor* out, float beta) {
  MS_CHECK(a.ndim() == 2 && b.ndim() == 2 && out->ndim() == 2);
  const int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const int64_t ka = trans_a ? a.dim(0) : a.dim(1);
  const int64_t kb = trans_b ? b.dim(1) : b.dim(0);
  const int64_t n = trans_b ? b.dim(0) : b.dim(1);
  MS_CHECK_MSG(ka == kb, "MatMul inner dims mismatch");
  MS_CHECK(out->dim(0) == m && out->dim(1) == n);
  Gemm(trans_a, trans_b, m, n, ka, 1.0f, a.data(), a.dim(1), b.data(),
       b.dim(1), beta, out->data(), n);
}

void Im2Col(const float* x, int64_t channels, int64_t h, int64_t w,
            int64_t kernel, int64_t stride, int64_t pad, float* cols) {
  const int64_t oh = (h + 2 * pad - kernel) / stride + 1;
  const int64_t ow = (w + 2 * pad - kernel) / stride + 1;
  const int64_t out_area = oh * ow;
  for (int64_t c = 0; c < channels; ++c) {
    const float* xc = x + c * h * w;
    for (int64_t ki = 0; ki < kernel; ++ki) {
      for (int64_t kj = 0; kj < kernel; ++kj) {
        float* dst = cols + ((c * kernel + ki) * kernel + kj) * out_area;
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * stride - pad + ki;
          if (ii < 0 || ii >= h) {
            std::memset(dst + oi * ow, 0,
                        static_cast<size_t>(ow) * sizeof(float));
            continue;
          }
          const float* src_row = xc + ii * w;
          float* dst_row = dst + oi * ow;
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * stride - pad + kj;
            dst_row[oj] = (jj >= 0 && jj < w) ? src_row[jj] : 0.0f;
          }
        }
      }
    }
  }
}

void Col2Im(const float* cols, int64_t channels, int64_t h, int64_t w,
            int64_t kernel, int64_t stride, int64_t pad, float* x) {
  const int64_t oh = (h + 2 * pad - kernel) / stride + 1;
  const int64_t ow = (w + 2 * pad - kernel) / stride + 1;
  const int64_t out_area = oh * ow;
  std::memset(x, 0, static_cast<size_t>(channels * h * w) * sizeof(float));
  for (int64_t c = 0; c < channels; ++c) {
    float* xc = x + c * h * w;
    for (int64_t ki = 0; ki < kernel; ++ki) {
      for (int64_t kj = 0; kj < kernel; ++kj) {
        const float* src = cols + ((c * kernel + ki) * kernel + kj) * out_area;
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * stride - pad + ki;
          if (ii < 0 || ii >= h) continue;
          float* dst_row = xc + ii * w;
          const float* src_row = src + oi * ow;
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * stride - pad + kj;
            if (jj >= 0 && jj < w) dst_row[jj] += src_row[oj];
          }
        }
      }
    }
  }
}

void AvgPool2d(const Tensor& x, int64_t n, int64_t c, int64_t h, int64_t w,
               int64_t kernel, int64_t stride, Tensor* out) {
  const int64_t oh = (h - kernel) / stride + 1;
  const int64_t ow = (w - kernel) / stride + 1;
  MS_CHECK(out->size() == n * c * oh * ow);
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  for (int64_t img = 0; img < n * c; ++img) {
    const float* src = x.data() + img * h * w;
    float* dst = out->data() + img * oh * ow;
    for (int64_t oi = 0; oi < oh; ++oi) {
      for (int64_t oj = 0; oj < ow; ++oj) {
        float acc = 0.0f;
        for (int64_t ki = 0; ki < kernel; ++ki) {
          const float* row = src + (oi * stride + ki) * w + oj * stride;
          for (int64_t kj = 0; kj < kernel; ++kj) acc += row[kj];
        }
        dst[oi * ow + oj] = acc * inv;
      }
    }
  }
}

void AvgPool2dBackward(const Tensor& grad_out, int64_t n, int64_t c,
                       int64_t h, int64_t w, int64_t kernel, int64_t stride,
                       Tensor* grad_in) {
  const int64_t oh = (h - kernel) / stride + 1;
  const int64_t ow = (w - kernel) / stride + 1;
  MS_CHECK(grad_in->size() == n * c * h * w);
  grad_in->Zero();
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  for (int64_t img = 0; img < n * c; ++img) {
    const float* gsrc = grad_out.data() + img * oh * ow;
    float* gdst = grad_in->data() + img * h * w;
    for (int64_t oi = 0; oi < oh; ++oi) {
      for (int64_t oj = 0; oj < ow; ++oj) {
        const float g = gsrc[oi * ow + oj] * inv;
        for (int64_t ki = 0; ki < kernel; ++ki) {
          float* row = gdst + (oi * stride + ki) * w + oj * stride;
          for (int64_t kj = 0; kj < kernel; ++kj) row[kj] += g;
        }
      }
    }
  }
}

namespace {

// Window maximum per output of `planes` (H, W) planes; records the
// winning spatial index when kArgmax. Both forms fold the taps in the
// same order as `if (v > best)`, written as selects so the data-dependent
// compare is no branch: ties keep the earlier element and a NaN never
// wins.
template <bool kArgmax>
void MaxPoolPlanes(const float* x, int64_t planes, int64_t h, int64_t w,
                   int64_t kernel, int64_t stride, float* out,
                   int32_t* argmax) {
  const int64_t oh = (h - kernel) / stride + 1;
  const int64_t ow = (w - kernel) / stride + 1;
  for (int64_t img = 0; img < planes; ++img) {
    const float* src = x + img * h * w;
    float* dst = out + img * oh * ow;
    for (int64_t oi = 0; oi < oh; ++oi) {
      for (int64_t oj = 0; oj < ow; ++oj) {
        float best = -std::numeric_limits<float>::infinity();
        int32_t best_idx = 0;
        for (int64_t ki = 0; ki < kernel; ++ki) {
          for (int64_t kj = 0; kj < kernel; ++kj) {
            const int64_t idx = (oi * stride + ki) * w + (oj * stride + kj);
            const float v = src[idx];
            const bool take = v > best;
            best = take ? v : best;
            if constexpr (kArgmax) {
              best_idx = take ? static_cast<int32_t>(idx) : best_idx;
            }
          }
        }
        dst[oi * ow + oj] = best;
        if constexpr (kArgmax) argmax[img * oh * ow + oi * ow + oj] = best_idx;
      }
    }
  }
}

}  // namespace

void MaxPool2d(const Tensor& x, int64_t n, int64_t c, int64_t h, int64_t w,
               int64_t kernel, int64_t stride, Tensor* out,
               std::vector<int32_t>* argmax) {
  const int64_t oh = (h - kernel) / stride + 1;
  const int64_t ow = (w - kernel) / stride + 1;
  MS_CHECK(out->size() == n * c * oh * ow);
  argmax->assign(static_cast<size_t>(out->size()), 0);
  MaxPoolPlanes<true>(x.data(), n * c, h, w, kernel, stride, out->data(),
                      argmax->data());
}

void MaxPool2dPlanes(const float* x, int64_t planes, int64_t h, int64_t w,
                     int64_t kernel, int64_t stride, float* out) {
  static const detail::MaxPool2x2Fn pool2x2 = detail::Avx2MaxPool2x2();
  if (kernel == 2 && stride == 2 && pool2x2 != nullptr) {
    pool2x2(x, planes, h, w, out);
    return;
  }
  MaxPoolPlanes<false>(x, planes, h, w, kernel, stride, out, nullptr);
}

void MaxPool2dBackward(const Tensor& grad_out,
                       const std::vector<int32_t>& argmax, int64_t images,
                       int64_t in_area, int64_t out_area, Tensor* grad_in) {
  MS_CHECK(static_cast<int64_t>(argmax.size()) == grad_out.size());
  MS_CHECK(grad_out.size() == images * out_area);
  MS_CHECK(grad_in->size() == images * in_area);
  grad_in->Zero();
  for (int64_t img = 0; img < images; ++img) {
    const float* g = grad_out.data() + img * out_area;
    const int32_t* am = argmax.data() + img * out_area;
    float* gi = grad_in->data() + img * in_area;
    for (int64_t i = 0; i < out_area; ++i) gi[am[i]] += g[i];
  }
}

void Add(const Tensor& a, const Tensor& b, Tensor* out) {
  MS_CHECK(a.size() == b.size() && a.size() == out->size());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  for (int64_t i = 0; i < a.size(); ++i) po[i] = pa[i] + pb[i];
}

void AddInPlace(Tensor* a, const Tensor& b) {
  MS_CHECK(a->size() == b.size());
  float* pa = a->data();
  const float* pb = b.data();
  for (int64_t i = 0; i < b.size(); ++i) pa[i] += pb[i];
}

void Scale(Tensor* a, float s) {
  float* pa = a->data();
  for (int64_t i = 0; i < a->size(); ++i) pa[i] *= s;
}

void Axpy(float alpha, const Tensor& x, Tensor* y) {
  MS_CHECK(x.size() == y->size());
  const float* px = x.data();
  float* py = y->data();
  for (int64_t i = 0; i < x.size(); ++i) py[i] += alpha * px[i];
}

float SumSquares(const Tensor& a) {
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * a[i];
  }
  return static_cast<float>(acc);
}

float Max(const Tensor& a) {
  MS_CHECK(a.size() > 0);
  float best = a[0];
  for (int64_t i = 1; i < a.size(); ++i) best = std::max(best, a[i]);
  return best;
}

float Mean(const Tensor& a) {
  MS_CHECK(a.size() > 0);
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) acc += a[i];
  return static_cast<float>(acc / static_cast<double>(a.size()));
}

void SoftmaxRows(const Tensor& logits, int64_t rows, int64_t cols,
                 Tensor* probs) {
  MS_CHECK(logits.size() >= rows * cols && probs->size() >= rows * cols);
  for (int64_t r = 0; r < rows; ++r) {
    const float* in = logits.data() + r * cols;
    float* out = probs->data() + r * cols;
    float max_v = in[0];
    for (int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, in[c]);
    double sum = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      out[c] = std::exp(in[c] - max_v);
      sum += out[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t c = 0; c < cols; ++c) out[c] *= inv;
  }
}

void ArgmaxRows(const Tensor& m, int64_t rows, int64_t cols,
                std::vector<int>* out) {
  out->assign(static_cast<size_t>(rows), 0);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = m.data() + r * cols;
    int best = 0;
    for (int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = static_cast<int>(c);
    }
    (*out)[static_cast<size_t>(r)] = best;
  }
}

namespace detail {

// Lane j accumulates elements p ≡ j mod 4, the lanes fold pairwise, the
// scalar tail comes last: SumSqF32Avx2's decomposition, so the two
// flavors produce the same doubles bit for bit.
void SumSqF32Portable(const float* v, int64_t n, double* sum, double* sumsq) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  double q[4] = {0.0, 0.0, 0.0, 0.0};
  int64_t p = 0;
  for (; p + 4 <= n; p += 4) {
    for (int j = 0; j < 4; ++j) {
      const double x = static_cast<double>(v[p + j]);
      s[j] += x;
      q[j] += x * x;
    }
  }
  double ts = (s[0] + s[1]) + (s[2] + s[3]);
  double tq = (q[0] + q[1]) + (q[2] + q[3]);
  for (; p < n; ++p) {
    const double x = static_cast<double>(v[p]);
    ts += x;
    tq += x * x;
  }
  *sum = ts;
  *sumsq = tq;
}

SumSqF32Fn ActiveSumSqF32() {
  static const SumSqF32Fn fn = [] {
    const SumSqF32Fn avx2 = Avx2SumSqF32();
    return avx2 != nullptr ? avx2 : &SumSqF32Portable;
  }();
  return fn;
}

namespace {

// The activation is resolved at compile time so the loop stays
// branch-free.
template <EpiAct Act>
void NormalizePlane(const float* __restrict__ x, float* __restrict__ y,
                    int64_t n, float mean, float inv_std, float gam,
                    float bet) {
  for (int64_t p = 0; p < n; ++p) {
    const float h = (x[p] - mean) * inv_std;
    y[p] = EpiActApplyCT<Act>(gam * h + bet);
  }
}

}  // namespace

NormalizeF32Fn NormalizeF32Portable(EpiAct act) {
  switch (act) {
    case EpiAct::kRelu:
      return &NormalizePlane<EpiAct::kRelu>;
    case EpiAct::kSigmoid:
      return &NormalizePlane<EpiAct::kSigmoid>;
    case EpiAct::kTanh:
      return &NormalizePlane<EpiAct::kTanh>;
    case EpiAct::kNone:
      break;
  }
  return &NormalizePlane<EpiAct::kNone>;
}

NormalizeF32Fn ActiveNormalizeF32(EpiAct act) {
  const NormalizeF32Fn avx2 = Avx2NormalizeF32(act);
  return avx2 != nullptr ? avx2 : NormalizeF32Portable(act);
}

}  // namespace detail

}  // namespace ops
}  // namespace ms
