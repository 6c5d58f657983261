// Private interface between the GEMM driver (gemm.cc), the optional
// AVX2/FMA translation unit (gemm_avx2.cc, compiled with -mavx2 -mfma only
// when CMake's feature check passes), the prepacked operand cache
// (prepack.cc), which reuses the same panel layout and microkernels so
// prepacked results stay bitwise-equal to Gemm, and the int8, norm and
// pool loops that have an AVX2 twin. Every twin returns the bits of its
// portable loop; the library builds with -ffp-contract=off so that a
// mul+add pair stays two roundings in both.
#ifndef MODELSLICING_TENSOR_GEMM_INTERNAL_H_
#define MODELSLICING_TENSOR_GEMM_INTERNAL_H_

#include <atomic>
#include <cstdint>

#include "src/tensor/cols_view.h"
#include "src/tensor/epilogue.h"

namespace ms {
namespace ops {
namespace detail {

// Fixed block grid. These constants (not the thread count) define the tile
// decomposition, so partitioning is deterministic. Shared by gemm.cc and
// prepack.cc: a prepacked buffer is panel-compatible with the scratch
// buffers Gemm packs per call.
constexpr int64_t kMC = 64;   ///< A rows per packed band
constexpr int64_t kNC = 240;  ///< C cols per grid cell (multiple of 8 & 16)
constexpr int kMaxMr = 8;
constexpr int kMaxNr = 16;
/// Below this many flops (2*m*n*k) packing costs more than it saves; Gemm
/// runs the (bitwise identical) scalar reference instead.
constexpr int64_t kTinyFlops = 1 << 14;
/// Below this many flops the ParallelFor barrier dominates; stay serial.
constexpr int64_t kParallelFlops = 1 << 20;

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

using GemmRefFn = void (*)(bool trans_a, bool trans_b, int64_t m, int64_t n,
                           int64_t k, float alpha, const float* a,
                           int64_t lda, const float* b, int64_t ldb,
                           float beta, float* c, int64_t ldc);

/// A register-tiled microkernel plus the scalar reference implementing the
/// same floating-point contraction (mul+add for the portable kernel,
/// single-rounding fma for the AVX2 kernel), so Gemm and GemmRef stay
/// bitwise identical within a build flavor.
struct MicroKernelDesc {
  int mr;  ///< rows per register tile
  int nr;  ///< cols per register tile
  /// acc[mr*nr] (row-major, stride nr) = sum over p of apanel * bpanel,
  /// accumulated in increasing p. apanel: k*mr floats, panel-major
  /// (p-th group holds mr row values, alpha pre-applied, zero padded).
  /// bpanel: k*nr floats (p-th group holds nr column values, zero padded).
  void (*kernel)(int64_t k, const float* apanel, const float* bpanel,
                 float* acc);
  GemmRefFn ref;
  /// Skinny-M fast path (1 <= m <= skinny_max_m): contracts op(A) rows read
  /// directly from the caller's matrix — no A packing — against one packed
  /// k*nr B panel. acc is m x nr, row-major, stride nr. Per-element
  /// contraction identical to `kernel` (t_p = (alpha*a_p)*b_p in
  /// increasing p), so Gemm / GemmPrepackedB stay bitwise equal.
  void (*skinny)(int64_t k, int m, bool trans_a, const float* a, int64_t lda,
                 float alpha, const float* bpanel, float* acc);
  /// Largest m GemmPrepackedB routes through `skinny` (<= kMaxMr). Above
  /// it the general packed walk wins: the AVX2 skinny kernel holds only 4
  /// rows of accumulators per pass, so m in (4, 8] would re-stream every B
  /// panel, while the portable kernel keeps all 8 rows in one pass.
  int skinny_max_m;
};

/// The AVX2/FMA kernel, or nullptr when not compiled in (MS_ENABLE_AVX2
/// off / unsupported compiler) or the CPU lacks AVX2+FMA at runtime.
const MicroKernelDesc* Avx2Kernel();

/// Int8 skinny microkernel for the quantized prepacked path (quant.cc).
/// Contracts `quads` k-quads of a segment against one packed 16-column
/// panel segment:
///   acc[i*16 + c] = sum_q sum_{t<4} aq[i][4q+t] * bseg[q][4c+t]
/// aq: m rows at stride lda_q bytes, each row holding 4*quads UNSIGNED
/// activation codes in [0, 127] for this segment (lengths are zero-padded
/// to a quad). bseg: quads * 64 s8 weights, quad-major
/// [c0k0, c0k1, c0k2, c0k3, c1k0, ...], 32-byte aligned. acc: m x 16 s32,
/// row-major, 64-byte aligned. The [0, 127] activation bound makes the
/// u8*s8 maddubs pair sums provably saturation-free (2 * 127 * 127 =
/// 32258 < 32767), so all arithmetic is exact integer math and every
/// implementation returns identical bits.
using Int8SkinnyFn = void (*)(int64_t quads, int m, const uint8_t* aq,
                              int64_t lda_q, const int8_t* bseg,
                              int32_t* acc);

/// The AVX2 int8 kernel (u8*s8 maddubs -> s16, madd(ones) -> s32), or
/// nullptr when not compiled in or the CPU lacks AVX2.
Int8SkinnyFn Avx2Int8Kernel();

/// The AVX-512 VNNI int8 kernel (one non-saturating vpdpbusd u8*s8->s32
/// dot-accumulate per ymm — same exact contraction, a third of the
/// inner-loop uops), or nullptr when the compiler predates the target
/// attribute or the CPU lacks avx512vnni+avx512vl.
Int8SkinnyFn VnniInt8Kernel();

/// min/max over n contiguous floats (n >= 1). Value-equal to the scalar
/// seed-then-compare loop; on a +-0.0 tie the representative may differ
/// in sign, which every downstream use (x - lo, range width) absorbs.
using MinMaxF32Fn = void (*)(const float* v, int64_t n, float* lo,
                             float* hi);

/// out[p] = clamp(lrintf((v[p] - lo) * inv), 0, 127) for n contiguous
/// floats — element-exact to ops' scalar QuantizeValueU7 (vcvtps2dq and
/// lrintf share round-to-nearest-even, and the clamp makes the saturating
/// s16/u8 packs lossless).
using EncodeU7Fn = void (*)(const float* v, int64_t n, float lo, float inv,
                            uint8_t* out);

/// Gathers 8 columns of src (k rows, leading dimension ld) into 8
/// contiguous rows: dst[j*dst_stride + p] = src[p*ld + j] for j < 8,
/// p < k. The conv quantizer's transposed merge writes C through it.
using Transpose8ColFn = void (*)(const float* src, int64_t ld, int64_t k,
                                 float* dst, int64_t dst_stride);

/// One call's worth of column quantization: the columns of b (a conv
/// operand's output pixels) become rows of u7 codes in the segment-padded
/// layout the int8 kernel reads. Pixel i quantizes rows p < k of its
/// column with one affine: lo = min, hi = max over the column (folded in
/// row order as lo = lo < v ? lo : v and hi = hi > v ? hi : v, the
/// operand order of vminps/vmaxps),
/// scale = (hi - lo) / 127, inv = scale > 0 ? 1 / scale : 0, and
/// code = clamp(lrintf((v - lo) * inv), 0, 127). The codes of quad t are
/// rows quad_first[t] + u for u < quad_rows[t] (1..4; the rest of the
/// quad is 0) and land at codes + i*row_bytes + 4*t. aeff[i] =
/// alpha * scale and amineff[i] = alpha * lo feed the dequant epilogue.
struct U7Columns {
  ColsView b;
  int64_t k = 0;
  float alpha = 1.0f;
  const int32_t* quad_first = nullptr;
  const int32_t* quad_rows = nullptr;
  int64_t quads = 0;
  int64_t row_bytes = 0;
  uint8_t* codes = nullptr;
  float* aeff = nullptr;
  float* amineff = nullptr;
};

/// Quantizes pixels [i0, i1) of a U7Columns job, writing only their rows
/// of codes, aeff and amineff (so disjoint ranges may run in parallel).
using U7ColumnsFn = void (*)(const U7Columns& job, int64_t i0, int64_t i1);

/// The portable flavor: a row-major sweep that keeps running min/max
/// arrays over the wide grid, then encodes one row at a time.
void QuantizeColumnsU7(const U7Columns& job, int64_t i0, int64_t i1);

/// Dequant epilogue for one (row-chunk, segment) pair of a 16-column
/// panel: ftile[i*16+c] += gs[c] * (as[i]*acc[i*16+c] + amin[i]*gsum[c])
/// for i < mc, each mul and add rounded on its own in that order.
using Int8EpilogueFn = void (*)(int mc, const int32_t* acc,
                                const float* gs, const int32_t* gsum,
                                const float* as, const float* amin,
                                float* ftile);

/// The portable flavor of the dequant epilogue (and the oracle of the
/// AVX2 one).
void Int8EpiloguePortable(int mc, const int32_t* acc, const float* gs,
                          const int32_t* gsum, const float* as,
                          const float* amin, float* ftile);

/// AVX2 flavors of the activation-quantization loops above (the portable
/// TU can't vectorize them: fp min/max reductions need fast-math and the
/// clamped rounding stays scalar). nullptr when AVX2 is compiled out or
/// unavailable at runtime.
MinMaxF32Fn Avx2MinMaxF32();
EncodeU7Fn Avx2EncodeU7();
Transpose8ColFn Avx2Transpose8Col();
/// The vector column quantizer: a vertical min/max over 8 wide-grid
/// columns at a time, then 4 rows x 8 columns encoded into one dword per
/// column and an 8x8 dword transpose into the pixels' code rows.
/// Bitwise equal to QuantizeColumnsU7 in codes, aeff and amineff.
U7ColumnsFn Avx2QuantizeColumnsU7();
Int8EpilogueFn Avx2Int8Epilogue();

/// sum and sum-of-squares over n contiguous floats, accumulated in double
/// in a fixed 4-lane-then-fold order (the GroupNorm/BatchNorm statistics
/// reduction). Both flavors use the identical lane decomposition, so the
/// result is deterministic per build flavor and independent of callers.
using SumSqF32Fn = void (*)(const float* v, int64_t n, double* sum,
                            double* sumsq);

/// The portable flavor: the same 4-lane decomposition in plain loops.
void SumSqF32Portable(const float* v, int64_t n, double* sum, double* sumsq);

/// AVX2 flavor of the statistics reduction (4 packed-double lanes per
/// accumulator), or nullptr when AVX2 is compiled out or unavailable.
SumSqF32Fn Avx2SumSqF32();

/// The flavor the norms run: AVX2 when available, else portable.
SumSqF32Fn ActiveSumSqF32();

/// y[p] = act(gam * ((x[p] - mean) * inv_std) + bet) for n contiguous
/// floats: the GroupNorm/BatchNorm inference write loop. The sub, the two
/// muls and the add round one by one, in that order (the training
/// forward's expressions), and act is EpiActApplyCT's.
using NormalizeF32Fn = void (*)(const float* x, float* y, int64_t n,
                                float mean, float inv_std, float gam,
                                float bet);

/// The portable loop for `act` (and the oracle of the AVX2 one).
NormalizeF32Fn NormalizeF32Portable(EpiAct act);

/// AVX2 flavor for kRelu and kNone: 8 floats per step, ReLU as
/// max(v, 0), a masked tail. nullptr for kSigmoid/kTanh, or when AVX2 is
/// compiled out or unavailable.
NormalizeF32Fn Avx2NormalizeF32(EpiAct act);

/// The flavor the norms run for `act`.
NormalizeF32Fn ActiveNormalizeF32(EpiAct act);

/// 2x2 / stride-2 max pool over `planes` contiguous (h, w) planes into
/// (h/2, w/2) planes (h, w >= 2). Each output folds its taps from -inf in
/// the order (0,0), (0,1), (1,0), (1,1) as `if (v > best) best = v`, so
/// ties keep the earlier tap and a NaN never wins.
using MaxPool2x2Fn = void (*)(const float* x, int64_t planes, int64_t h,
                              int64_t w, float* out);

/// AVX2 flavor (even/odd column deinterleave, 4 outputs per step, masked
/// tail), or nullptr when AVX2 is compiled out or unavailable. The
/// portable twin is MaxPool2dPlanes's generic loop.
MaxPool2x2Fn Avx2MaxPool2x2();

/// The kernel Gemm dispatches to in this process (AVX2 when available,
/// else the portable 4x8). Prepacked buffers are laid out for this
/// kernel's mr/nr.
const MicroKernelDesc& ActiveKernel();

/// Packs op(A) rows [i0, i0+rows) into ceil(rows/mr) panels of k*mr
/// (panel-major, alpha pre-applied, padding rows zeroed).
void PackABand(bool trans_a, const float* a, int64_t lda, int64_t i0,
               int64_t rows, int64_t k, float alpha, int mr, float* out);

/// Packs op(B) columns [j0, j0+cols) (cols <= nr) into one k*nr panel
/// (padding columns zeroed).
void PackBPanel(bool trans_b, const float* b, int64_t ldb, int64_t j0,
                int64_t cols, int64_t k, int nr, float* dst);

/// Merges the live (rows x cols) region of a microkernel accumulator tile
/// into C with the shared beta semantics (beta == 0 never reads C).
void MergeTile(const float* acc, int nr, int64_t i0, int64_t rows,
               int64_t j0, int64_t cols, float beta, float* c, int64_t ldc);

/// MergeTile plus the fused epilogue, applied per element to the merged
/// value while the tile is hot. Bitwise identical to MergeTile followed by
/// a post-pass over the same region (see epilogue.h).
void MergeTileEpi(const float* acc, int nr, int64_t i0, int64_t rows,
                  int64_t j0, int64_t cols, float beta, float* c,
                  int64_t ldc, const Epilogue& epi);

/// Process-wide counters behind ops::GetPackStats (prepack.h): prepack.cc
/// bumps the fp32 half, quant.cc the int8 half.
struct PackCounters {
  std::atomic<uint64_t> packs{0};
  std::atomic<uint64_t> packed_floats{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> prepacked_calls{0};
  std::atomic<uint64_t> quant_packs{0};
  std::atomic<uint64_t> quant_packed_bytes{0};
  std::atomic<uint64_t> quant_hits{0};
  std::atomic<uint64_t> quantized_calls{0};
};
inline PackCounters g_pack_counters;

}  // namespace detail
}  // namespace ops
}  // namespace ms

#endif  // MODELSLICING_TENSOR_GEMM_INTERNAL_H_
