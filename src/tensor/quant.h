// Per-group symmetric int8 weight quantization with dynamic per-row
// activation quantization — the second elastic axis next to the slice rate.
//
// Scale layout (the part that makes quantization commute with slicing):
// the contraction dimension K of op(B) is partitioned into the layer's
// input slice-group segments, and every (segment, output column) gets its
// own symmetric scale max|w|/127 computed over THAT segment only. A slice
// rate selects whole output columns (an n-prefix) and whole input segments
// (a k-prefix on group boundaries), so the quantized values and scales of
// the sliced operating point are byte-identical to quantizing the sliced
// weights from scratch: one int8 pack serves every trained rate, the same
// share-one-artifact trick prepack.h plays with the fp32 panels.
//
// Panel format: op(B) columns in panels of 16, segment-major inside each
// panel. A segment of k_g rows is padded to ceil(k_g/4) k-QUADS of 64
// bytes, quad-major [c0k0, c0k1, c0k2, c0k3, c1k0, ...] — exactly the
// operand shape the u8·s8 maddubs/madd kernel consumes (see
// detail::Int8SkinnyFn). The portable kernel computes the same exact
// integer contraction, so results are identical bits either way.
//
// Activations are quantized dynamically and ASYMMETRICALLY to 7 bits: one
// affine (min, scale) per op(A) row over the active K prefix, codes in
// [0, 127]. The 7-bit bound is what makes the maddubs pair sums provably
// saturation-free (2 * 127 * 127 = 32258 < 32767); the affine offset is
// exact because a = a_min + a_scale * q folds through the contraction as
// a zero-point correction against the per-(segment, column) sum of
// quantized weights, which QuantizePackB precomputes alongside the
// scales. Two quantizers produce the same codes: a row quantizer for
// op(A) rows in memory, and a vertical column quantizer for columns (the
// transposed flavor and the conv operand), which takes min/max down 8
// columns at a time and transposes quads of codes into each column's row.
//
// Dequant epilogue: the s32 tile of segment g folds back as
// C += b_scale[g][j] * (alpha * a_scale[i] * acc
//                       + alpha * a_min[i] * colsum[g][j]),
// segments accumulated in ascending g (fixed order -> bitwise
// thread-count invariance), then merged with beta in {0, 1}.
//
// Staleness: EnsureQuantized* shares prepack.h's process-wide weight
// generation — SGD::Step, CopyParams, LoadParams and the mutable_weight
// accessors all bump it, so a quantized pack can never serve stale
// weights, and steady-state serving never re-quantizes (prepack.h's
// PackStats counts int8 packs next to the fp32 ones; the benches and CI
// gate on their sum).
#ifndef MODELSLICING_TENSOR_QUANT_H_
#define MODELSLICING_TENSOR_QUANT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/cols_view.h"
#include "src/tensor/epilogue.h"

namespace ms {

/// Numeric precision of a layer's inference path. A second elastic axis
/// next to the slice rate: serving picks (rate, precision) jointly.
enum class Precision : uint8_t { kFp32 = 0, kInt8 = 1 };

/// "fp32" / "int8".
const char* PrecisionName(Precision p);

/// Parses "fp32" / "int8" (case-sensitive). Returns false on anything else.
bool ParsePrecision(const std::string& s, Precision* out);

namespace ops {

/// A weight matrix quantized to int8 and packed into segment-aligned
/// 16-column panels. Movable, not copyable; default state is empty (never
/// matches, first Ensure* packs). The source is identified by pointer —
/// a cache key only, never dereferenced outside QuantizePackB/Ensure*.
class QuantizedPack {
 public:
  QuantizedPack() = default;
  QuantizedPack(QuantizedPack&&) = default;
  QuantizedPack& operator=(QuantizedPack&&) = default;
  QuantizedPack(const QuantizedPack&) = delete;
  QuantizedPack& operator=(const QuantizedPack&) = delete;

  bool empty() const { return !valid_; }
  /// Rows of op(B) (the contraction dimension K).
  int64_t rows() const { return rows_; }
  /// Columns of op(B) (N).
  int64_t cols() const { return cols_; }
  /// Weight generation the pack was built at.
  uint64_t generation() const { return generation_; }
  /// Bytes of quantized panel data (pair padding included).
  int64_t packed_bytes() const { return packed_bytes_; }
  /// Number of K segments (slice groups) the pack is aligned to.
  int64_t num_segments() const {
    return static_cast<int64_t>(seg_ends_.size());
  }
  /// Per-(segment, column) scale; for tests.
  float scale(int64_t segment, int64_t col) const;

 private:
  friend void QuantizePackB(bool, int64_t, int64_t, const float*, int64_t,
                            const std::vector<int64_t>&, QuantizedPack*);
  friend bool EnsureQuantizedB(bool, int64_t, int64_t, const float*, int64_t,
                               const std::vector<int64_t>&, QuantizedPack*);
  friend void GemmQuantizedB(bool, int64_t, int64_t, int64_t, float,
                             const float*, int64_t, const QuantizedPack&,
                             float, float*, int64_t, const Epilogue&);
  friend void GemmQuantizedWeightA(int64_t, int64_t, const QuantizedPack&,
                                   const ColsView&, float, float*, int64_t,
                                   const Epilogue&);

  /// 64-byte-aligned buffer of at least `bytes` (reuses the existing
  /// allocation when large enough).
  int8_t* Reserve(int64_t bytes);

  std::unique_ptr<int8_t[]> storage_;
  int8_t* data_ = nullptr;
  int64_t capacity_ = 0;      // bytes usable at data_
  int64_t packed_bytes_ = 0;  // bytes written by the last pack
  bool valid_ = false;
  bool trans_ = false;  // transpose flag of the packed source
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t ld_ = 0;  // source leading dimension
  const float* src_ = nullptr;
  uint64_t generation_ = 0;
  /// Exclusive K end of each segment in source order (back() == rows_).
  std::vector<int64_t> seg_ends_;
  /// Quad offset of each segment within a panel (size S+1; back() is the
  /// panel's total quad count — panel stride is back()*64 bytes).
  std::vector<int64_t> seg_quad_off_;
  /// Scales, (panel, segment, lane)-major: [(pj*S + g)*16 + c]; dead
  /// lanes (columns past N) hold 0.
  std::vector<float> scales_;
  /// Per-(segment, column) sums of the quantized weights, same indexing
  /// as scales_ — the zero-point correction for the asymmetric
  /// activations (dead lanes hold 0).
  std::vector<int32_t> colsums_;
};

/// Quantizes and packs op(B) (full extents k x n, leading dimension ldb).
/// `k_group_ends` are the ascending exclusive ends of the K slice-group
/// segments; the last entry must equal k. GemmQuantized* may later be
/// called at any k equal to one of these ends (a whole-segment prefix)
/// and any n <= the packed n.
void QuantizePackB(bool trans_b, int64_t k, int64_t n, const float* b,
                   int64_t ldb, const std::vector<int64_t>& k_group_ends,
                   QuantizedPack* pack);

/// QuantizePackB only if `pack` is empty, keyed differently, or stale
/// (weight generation advanced). Returns true when it (re)packed.
bool EnsureQuantizedB(bool trans_b, int64_t k, int64_t n, const float* b,
                      int64_t ldb, const std::vector<int64_t>& k_group_ends,
                      QuantizedPack* pack);

/// C = alpha * op(A) * Bq[:k, :n] + beta * C over the quantized pack,
/// then `epi` at the dequantized-tile merge into C (bitwise identical to
/// the same per-element post-pass, epilogue.h). op(A) is dynamically
/// quantized per row (one affine scale over the active k). k must be one
/// of the pack's segment ends; n any prefix. beta must be 0 or 1 (the
/// only values the layers use). Results are identical at every thread
/// count and kernel flavor (AVX2/portable).
void GemmQuantizedB(bool trans_a, int64_t m, int64_t n, int64_t k,
                    float alpha, const float* a, int64_t lda,
                    const QuantizedPack& bpack, float beta, float* c,
                    int64_t ldc, const Epilogue& epi = {});

/// Conv flavor, weight on the left: C(m, n) = W[:m, :k] * b[:k, :n] +
/// beta * C, where `wpack_t` packs op(B) = W^T — i.e. the SAME
/// QuantizePackB(trans_b=true, K, M, w, K, ends) call the dense layers
/// use. Internally computes C^T = op(b)^T * W^T with per-column (per
/// output pixel) dynamic quantization of b (the column quantizer) and a
/// transposed merge, so one pack format serves both operand roles. beta must be 0 or 1. `epi` is
/// applied at C-writeback (conv bias is the per_row case: one value per
/// output channel / C row).
void GemmQuantizedWeightA(int64_t m, int64_t n, int64_t k,
                          const QuantizedPack& wpack_t, const float* b,
                          int64_t ldb, float beta, float* c, int64_t ldc,
                          const Epilogue& epi = {});

/// The conv form: b (k x b.cols()) is read in place through the view
/// (cols_view.h). Each output pixel is quantized from its own column by
/// the same column quantizer as the form above, so the two agree bit for
/// bit; junk columns of the view's wide grid are never stored.
void GemmQuantizedWeightA(int64_t m, int64_t k, const QuantizedPack& wpack_t,
                          const ColsView& b, float beta, float* c,
                          int64_t ldc, const Epilogue& epi = {});

/// True when the int8 path runs the AVX2 madd kernel in this process.
bool GemmHasInt8Avx2();

/// True when the int8 path runs the AVX-512 VNNI (vpdpbusd) kernel in
/// this process. Implies GemmHasInt8Avx2(); preferred when both hold.
bool GemmHasInt8Vnni();

}  // namespace ops
}  // namespace ms

#endif  // MODELSLICING_TENSOR_QUANT_H_
