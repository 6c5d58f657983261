#include "src/tensor/cols_view.h"

#include <algorithm>
#include <cstring>

#include "src/util/status.h"

namespace ms {
namespace ops {

ConvPlanes::ConvPlanes(int64_t channels, int64_t h, int64_t w,
                       int64_t kernel, int64_t stride, int64_t pad)
    : channels(channels),
      h(h),
      w(w),
      kernel(kernel),
      stride(stride),
      pad(pad),
      out_h((h + 2 * pad - kernel) / stride + 1),
      out_w((w + 2 * pad - kernel) / stride + 1),
      phases(std::min(stride, kernel)),
      // Tap ki reads phase row oi + ki / stride, so the last output row
      // needs (kernel - 1) / stride rows below it.
      plane_h(out_h + (kernel - 1) / stride),
      plane_w(out_w + (kernel - 1) / stride) {
  MS_CHECK(out_h >= 1 && out_w >= 1);
}

void ConvPlanes::TapOffsets(int64_t* off) const {
  const int64_t plane = plane_h * plane_w;
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t ki = 0; ki < kernel; ++ki) {
      for (int64_t kj = 0; kj < kernel; ++kj) {
        const int64_t phase = (ki % stride) * phases + kj % stride;
        *off++ = (c * phases * phases + phase) * plane +
                 (ki / stride) * plane_w + kj / stride;
      }
    }
  }
}

void ConvPlanes::Fill(const float* x, float* planes) const {
  const int64_t plane = plane_h * plane_w;
  // Phase index range [lo, hi) whose padded coordinate i * stride + r
  // lands inside an input extent n.
  auto range = [&](int64_t r, int64_t n, int64_t limit, int64_t* lo,
                   int64_t* hi) {
    const int64_t first = pad - r;  // padded offset of input index 0
    *lo = first <= 0 ? 0 : (first + stride - 1) / stride;
    const int64_t last = n - 1 + pad - r;
    *hi = last < 0 ? 0 : std::min(limit, last / stride + 1);
  };
  for (int64_t c = 0; c < channels; ++c) {
    const float* xc = x + c * h * w;
    for (int64_t a = 0; a < phases; ++a) {
      int64_t u0, u1;
      range(a, h, plane_h, &u0, &u1);
      for (int64_t b = 0; b < phases; ++b) {
        int64_t v0, v1;
        range(b, w, plane_w, &v0, &v1);
        if (v1 <= v0) continue;
        float* dst = planes + (c * phases * phases + a * phases + b) * plane;
        for (int64_t u = u0; u < u1; ++u) {
          const float* src =
              xc + (u * stride + a - pad) * w + v0 * stride + b - pad;
          float* row = dst + u * plane_w + v0;
          if (stride == 1) {
            std::memcpy(row, src, static_cast<size_t>(v1 - v0) * sizeof(float));
          } else {
            for (int64_t v = 0; v < v1 - v0; ++v) row[v] = src[v * stride];
          }
        }
      }
    }
  }
}

}  // namespace ops
}  // namespace ms
