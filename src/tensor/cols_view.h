// The right operand of a conv-shaped product y = W . B, read in place.
//
// A convolution is a GEMM against its im2col matrix B: one row per
// (input channel, kernel row, kernel column) tap, one column per output
// pixel. Materialising B copies every input value k*k times, and the GEMM
// then copies B again into its panels. ColsView instead describes where
// each row of B already lies in memory, so the packers read it straight
// from the input.
//
// ConvPlanes lays an image out so that every row of B is one contiguous
// run: the active input channels are copied once into zero-padded planes,
// and a stride-s conv splits each padded plane into s x s phase planes
// (rows and columns taken every s-th, from each start). Tap (c, ki, kj)
// then starts at a fixed offset of the planes, and output pixel (oi, oj)
// sits at oi * pitch + oj from that start for every tap. The columns of
// that "wide" grid with oj >= out_w fall between two output rows; the
// fp32 packer carries them through the microkernel and the merge drops
// them.
#ifndef MODELSLICING_TENSOR_COLS_VIEW_H_
#define MODELSLICING_TENSOR_COLS_VIEW_H_

#include <cstdint>

namespace ms {
namespace ops {

/// B (rows x out_h*out_w) of a conv-shaped product, read in place. Column
/// oi * out_w + oj of row p is row(p)[oi * pitch + oj].
struct ColsView {
  const float* base = nullptr;
  /// Row p starts at base + row_off[p]; nullptr means base + p * ld.
  const int64_t* row_off = nullptr;
  int64_t ld = 0;
  int64_t out_h = 1;
  int64_t out_w = 0;
  int64_t pitch = 0;

  /// A plain row-major (rows x n) matrix with leading dimension ld.
  static ColsView Matrix(const float* b, int64_t ld, int64_t n) {
    return {b, nullptr, ld, 1, n, n};
  }

  /// Columns of B: one per output pixel.
  int64_t cols() const { return out_h * out_w; }
  /// Extent of the wide grid q = oi * pitch + oj over every pixel.
  int64_t wide_cols() const { return (out_h - 1) * pitch + out_w; }
  const float* row(int64_t p) const {
    return base + (row_off != nullptr ? row_off[p] : p * ld);
  }
};

/// The padded phase-plane layout of one image for a conv with the given
/// shape (kernel, stride >= 1, pad >= 0), and the im2col view over it.
struct ConvPlanes {
  ConvPlanes(int64_t channels, int64_t h, int64_t w, int64_t kernel,
             int64_t stride, int64_t pad);

  int64_t channels, h, w, kernel, stride, pad;
  int64_t out_h, out_w;
  /// Phase planes per axis: min(stride, kernel), the residues taps use.
  int64_t phases;
  /// Extent of one phase plane; plane_w is the view's pitch.
  int64_t plane_h, plane_w;

  /// Stride 1 without padding: the image itself is the layout, no copy.
  bool in_place() const { return stride == 1 && pad == 0; }
  /// Floats of the planes of one image.
  int64_t floats() const {
    return channels * phases * phases * plane_h * plane_w;
  }
  /// Rows of the im2col matrix: channels * kernel * kernel.
  int64_t taps() const { return channels * kernel * kernel; }

  /// off[p] for p = (c * kernel + ki) * kernel + kj, the im2col row order.
  void TapOffsets(int64_t* off) const;
  /// Copies image x (channels, h, w) into the interior of `planes`. The
  /// padding positions are never written: zero them once per buffer, and
  /// every later image of the same shape keeps them.
  void Fill(const float* x, float* planes) const;
  /// The im2col matrix of the image in `planes` (or of x itself when
  /// in_place()); `off` from TapOffsets.
  ColsView View(const float* planes, const int64_t* off) const {
    return {planes, off, 0, out_h, out_w, plane_w};
  }
};

}  // namespace ops
}  // namespace ms

#endif  // MODELSLICING_TENSOR_COLS_VIEW_H_
