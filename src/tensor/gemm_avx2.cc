// AVX2/FMA 6x16 GEMM microkernel and the AVX2 twins of the int8, norm and
// pool loops. This translation unit is the only one compiled with -mavx2
// -mfma; everything here is gated behind a runtime __builtin_cpu_supports
// check so an AVX2-enabled build still runs (on the portable kernels) on
// machines without the instructions. Like the whole library it builds with
// -ffp-contract=off: only the explicit fma intrinsics fuse.
#include "src/tensor/gemm_internal.h"

#if defined(MS_GEMM_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/tensor/scratch.h"

// The VNNI int8 kernel needs the avx512vnni+avx512vl target attribute and
// _mm256_dpbusd_epi32; both landed in gcc 9 / clang 9. Older compilers
// just skip the flavor (runtime dispatch falls back to maddubs).
#if (defined(__clang__) && __clang_major__ >= 9) || \
    (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 9)
#define MS_GEMM_VNNI 1
#endif

namespace ms {
namespace ops {
namespace detail {
namespace {

constexpr int kMr = 6;
constexpr int kNr = 16;

// acc[6][16] = sum_p apanel(p, 0..5) x bpanel(p, 0..15), contracted with
// fma: one rounding per multiply-add, accumulated in increasing p. 12 ymm
// accumulators + 2 B vectors + 1 broadcast stay within the 16 registers.
void MicroKernel6x16(int64_t k, const float* ap, const float* bp,
                     float* acc) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_load_ps(bp);
    const __m256 b1 = _mm256_load_ps(bp + 8);
    bp += kNr;
    __m256 a;
    a = _mm256_broadcast_ss(ap + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(ap + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(ap + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(ap + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(ap + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(ap + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
    ap += kMr;
  }
  _mm256_store_ps(acc + 0 * kNr, c00);
  _mm256_store_ps(acc + 0 * kNr + 8, c01);
  _mm256_store_ps(acc + 1 * kNr, c10);
  _mm256_store_ps(acc + 1 * kNr + 8, c11);
  _mm256_store_ps(acc + 2 * kNr, c20);
  _mm256_store_ps(acc + 2 * kNr + 8, c21);
  _mm256_store_ps(acc + 3 * kNr, c30);
  _mm256_store_ps(acc + 3 * kNr + 8, c31);
  _mm256_store_ps(acc + 4 * kNr, c40);
  _mm256_store_ps(acc + 4 * kNr + 8, c41);
  _mm256_store_ps(acc + 5 * kNr, c50);
  _mm256_store_ps(acc + 5 * kNr + 8, c51);
}

// Skinny-M kernel (m <= kMaxMr = 8): op(A) rows are read strided from the
// caller's matrix (no packing) against one packed k*16 B panel. Rows go in
// chunks of <= 4 (8 ymm accumulators + 2 B vectors + 1 broadcast per
// chunk), which only reorders whole independent output rows — each
// element's contraction is still acc = fma(alpha*a_p, b_p, acc) in
// increasing p, bitwise equal to MicroKernel6x16 / GemmRefFma.
void SkinnyKernel16(int64_t k, int m, bool trans_a, const float* a,
                    int64_t lda, float alpha, const float* bp, float* acc) {
  for (int i0 = 0; i0 < m; i0 += 4) {
    const int live = m - i0 < 4 ? m - i0 : 4;
    __m256 c0[4], c1[4];
    for (int i = 0; i < live; ++i) {
      c0[i] = _mm256_setzero_ps();
      c1[i] = _mm256_setzero_ps();
    }
    for (int64_t p = 0; p < k; ++p) {
      const __m256 b0 = _mm256_load_ps(bp + p * kNr);
      const __m256 b1 = _mm256_load_ps(bp + p * kNr + 8);
      for (int i = 0; i < live; ++i) {
        const float av =
            trans_a ? a[p * lda + i0 + i] : a[(i0 + i) * lda + p];
        const __m256 avv = _mm256_set1_ps(alpha * av);
        c0[i] = _mm256_fmadd_ps(avv, b0, c0[i]);
        c1[i] = _mm256_fmadd_ps(avv, b1, c1[i]);
      }
    }
    for (int i = 0; i < live; ++i) {
      _mm256_store_ps(acc + (i0 + i) * kNr, c0[i]);
      _mm256_store_ps(acc + (i0 + i) * kNr + 8, c1[i]);
    }
  }
}

// Scalar oracle with the fma contraction: acc = fma(alpha*a, b, acc) in
// increasing p, one beta merge. With -mfma std::fmaf lowers to vfmadd, so
// this matches MicroKernel6x16 bitwise.
void GemmRefFma(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                float alpha, const float* a, int64_t lda, const float* b,
                int64_t ldb, float beta, float* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc = std::fmaf(alpha * av, bv, acc);
      }
      float* cij = c + i * ldc + j;
      *cij = (beta == 0.0f) ? acc
                            : (beta == 1.0f ? *cij + acc
                                            : beta * *cij + acc);
    }
  }
}

// Int8 skinny kernel: 16 panel columns per pass, rows in chunks of <= 4
// (8 ymm s32 accumulators + 2 B vectors + 1 ones vector per chunk). Each
// 64-byte quad-group holds 16 columns x 4 k as s8; one vpbroadcastd
// splats a row's 4 unsigned activation codes into every 32-bit lane, and
// maddubs(u8 a, s8 b) then yields the two k-pair partial sums per column
// in s16. Activations are bounded to [0, 127] by construction (quant.cc
// quantizes rows asymmetrically to 7 bits), so the pair sum is at most
// 2 * 127 * 127 = 32258 < 32767 — maddubs's s16 saturation provably never
// fires. madd against ones widens the two pairs to one s32 per column
// (<= 64516, no overflow). Integer math is exact, so this matches the
// portable loop in quant.cc bit for bit.
// Broadcasts row i's 4 unsigned activation codes for quad p into every
// 32-bit lane.
inline __m256i BroadcastQuad(const uint8_t* aq, int64_t lda_q, int64_t p,
                             int i) {
  int32_t quad;
  __builtin_memcpy(&quad, aq + i * lda_q + 4 * p, sizeof(quad));
  return _mm256_set1_epi32(quad);
}

// One chunk of LIVE rows. The accumulators are NAMED variables behind
// compile-time `LIVE > i` guards, not a __m256i array indexed by a row
// loop: gcc re-rolls the latter and keeps the accumulators on the stack
// (a load + store around every multiply-add), which costs ~3x on the
// quad loop. Named registers pin all 2*LIVE accumulators in ymm.
template <int LIVE>
void Int8Chunk16(int64_t quads, const uint8_t* aq, int64_t lda_q,
                 const int8_t* bseg, int32_t* acc) {
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256i z = _mm256_setzero_si256();
  __m256i c00 = z, c01 = z, c10 = z, c11 = z;
  __m256i c20 = z, c21 = z, c30 = z, c31 = z;
  for (int64_t p = 0; p < quads; ++p) {
    // Columns 0-7 then 8-15 of this quad-group.
    const __m256i b0 = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(bseg + p * 64));
    const __m256i b1 = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(bseg + p * 64 + 32));
    __m256i av = BroadcastQuad(aq, lda_q, p, 0);
    c00 = _mm256_add_epi32(
        c00, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
    c01 = _mm256_add_epi32(
        c01, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
    if (LIVE > 1) {
      av = BroadcastQuad(aq, lda_q, p, 1);
      c10 = _mm256_add_epi32(
          c10, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
      c11 = _mm256_add_epi32(
          c11, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
    }
    if (LIVE > 2) {
      av = BroadcastQuad(aq, lda_q, p, 2);
      c20 = _mm256_add_epi32(
          c20, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
      c21 = _mm256_add_epi32(
          c21, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
    }
    if (LIVE > 3) {
      av = BroadcastQuad(aq, lda_q, p, 3);
      c30 = _mm256_add_epi32(
          c30, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
      c31 = _mm256_add_epi32(
          c31, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
    }
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc), c00);
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 8), c01);
  if (LIVE > 1) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 16), c10);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 24), c11);
  }
  if (LIVE > 2) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 32), c20);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 40), c21);
  }
  if (LIVE > 3) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 48), c30);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 56), c31);
  }
}

void Int8Skinny16(int64_t quads, int m, const uint8_t* aq, int64_t lda_q,
                  const int8_t* bseg, int32_t* acc) {
  for (int i0 = 0; i0 < m; i0 += 4) {
    const uint8_t* a0 = aq + i0 * lda_q;
    int32_t* acc0 = acc + i0 * 16;
    switch (m - i0 < 4 ? m - i0 : 4) {
      case 1: Int8Chunk16<1>(quads, a0, lda_q, bseg, acc0); break;
      case 2: Int8Chunk16<2>(quads, a0, lda_q, bseg, acc0); break;
      case 3: Int8Chunk16<3>(quads, a0, lda_q, bseg, acc0); break;
      default: Int8Chunk16<4>(quads, a0, lda_q, bseg, acc0); break;
    }
  }
}

// VNNI flavor: vpdpbusd fuses the whole maddubs -> madd(ones) -> add
// chain into ONE u8*s8 dot-accumulate per ymm — the quad products are
// summed into s32 with NO intermediate s16 saturation (that is the
// saturating vpdpbusds variant, which this kernel never uses), so the
// result is the exact integer contraction again, bit-identical to both
// kernels above. Same quad-major operands, one third the inner-loop uops.
#if defined(MS_GEMM_VNNI)
// AVX-512VL gives this flavor 32 ymm registers, so the chunk holds up to
// EIGHT rows (16 named accumulators + 2 B vectors + 1 broadcast = 19
// registers) — the maddubs chunk above is capped at 4 rows by AVX2's 16.
// Double the rows per pass means each B panel segment is streamed half as
// often at serving batch sizes.
template <int LIVE>
__attribute__((target("avx512vnni,avx512vl")))
void Int8ChunkVnni16(int64_t quads, const uint8_t* aq, int64_t lda_q,
                     const int8_t* bseg, int32_t* acc) {
  const __m256i z = _mm256_setzero_si256();
  __m256i c00 = z, c01 = z, c10 = z, c11 = z;
  __m256i c20 = z, c21 = z, c30 = z, c31 = z;
  __m256i c40 = z, c41 = z, c50 = z, c51 = z;
  __m256i c60 = z, c61 = z, c70 = z, c71 = z;
  for (int64_t p = 0; p < quads; ++p) {
    const __m256i b0 = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(bseg + p * 64));
    const __m256i b1 = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(bseg + p * 64 + 32));
    __m256i av = BroadcastQuad(aq, lda_q, p, 0);
    c00 = _mm256_dpbusd_epi32(c00, av, b0);
    c01 = _mm256_dpbusd_epi32(c01, av, b1);
    if (LIVE > 1) {
      av = BroadcastQuad(aq, lda_q, p, 1);
      c10 = _mm256_dpbusd_epi32(c10, av, b0);
      c11 = _mm256_dpbusd_epi32(c11, av, b1);
    }
    if (LIVE > 2) {
      av = BroadcastQuad(aq, lda_q, p, 2);
      c20 = _mm256_dpbusd_epi32(c20, av, b0);
      c21 = _mm256_dpbusd_epi32(c21, av, b1);
    }
    if (LIVE > 3) {
      av = BroadcastQuad(aq, lda_q, p, 3);
      c30 = _mm256_dpbusd_epi32(c30, av, b0);
      c31 = _mm256_dpbusd_epi32(c31, av, b1);
    }
    if (LIVE > 4) {
      av = BroadcastQuad(aq, lda_q, p, 4);
      c40 = _mm256_dpbusd_epi32(c40, av, b0);
      c41 = _mm256_dpbusd_epi32(c41, av, b1);
    }
    if (LIVE > 5) {
      av = BroadcastQuad(aq, lda_q, p, 5);
      c50 = _mm256_dpbusd_epi32(c50, av, b0);
      c51 = _mm256_dpbusd_epi32(c51, av, b1);
    }
    if (LIVE > 6) {
      av = BroadcastQuad(aq, lda_q, p, 6);
      c60 = _mm256_dpbusd_epi32(c60, av, b0);
      c61 = _mm256_dpbusd_epi32(c61, av, b1);
    }
    if (LIVE > 7) {
      av = BroadcastQuad(aq, lda_q, p, 7);
      c70 = _mm256_dpbusd_epi32(c70, av, b0);
      c71 = _mm256_dpbusd_epi32(c71, av, b1);
    }
  }
  const __m256i cs[16] = {c00, c01, c10, c11, c20, c21, c30, c31,
                          c40, c41, c50, c51, c60, c61, c70, c71};
  for (int i = 0; i < LIVE; ++i) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + i * 16),
                       cs[2 * i]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + i * 16 + 8),
                       cs[2 * i + 1]);
  }
}

__attribute__((target("avx512vnni,avx512vl")))
void Int8SkinnyVnni16(int64_t quads, int m, const uint8_t* aq,
                      int64_t lda_q, const int8_t* bseg, int32_t* acc) {
  for (int i0 = 0; i0 < m; i0 += 8) {
    const uint8_t* a0 = aq + i0 * lda_q;
    int32_t* acc0 = acc + i0 * 16;
    switch (m - i0 < 8 ? m - i0 : 8) {
      case 1: Int8ChunkVnni16<1>(quads, a0, lda_q, bseg, acc0); break;
      case 2: Int8ChunkVnni16<2>(quads, a0, lda_q, bseg, acc0); break;
      case 3: Int8ChunkVnni16<3>(quads, a0, lda_q, bseg, acc0); break;
      case 4: Int8ChunkVnni16<4>(quads, a0, lda_q, bseg, acc0); break;
      case 5: Int8ChunkVnni16<5>(quads, a0, lda_q, bseg, acc0); break;
      case 6: Int8ChunkVnni16<6>(quads, a0, lda_q, bseg, acc0); break;
      case 7: Int8ChunkVnni16<7>(quads, a0, lda_q, bseg, acc0); break;
      default: Int8ChunkVnni16<8>(quads, a0, lda_q, bseg, acc0); break;
    }
  }
}
#endif  // MS_GEMM_VNNI

// 8-wide min/max reduction. Seeds from the first vector (or element) like
// the scalar loop; the overlapping tail load revisits elements, which is
// harmless for min/max.
void MinMaxF32Avx2(const float* v, int64_t n, float* plo, float* phi) {
  if (n >= 8) {
    __m256 lo8 = _mm256_loadu_ps(v);
    __m256 hi8 = lo8;
    int64_t p = 8;
    for (; p + 8 <= n; p += 8) {
      const __m256 x = _mm256_loadu_ps(v + p);
      lo8 = _mm256_min_ps(lo8, x);
      hi8 = _mm256_max_ps(hi8, x);
    }
    if (p < n) {
      const __m256 x = _mm256_loadu_ps(v + n - 8);
      lo8 = _mm256_min_ps(lo8, x);
      hi8 = _mm256_max_ps(hi8, x);
    }
    __m128 lo4 = _mm_min_ps(_mm256_castps256_ps128(lo8),
                            _mm256_extractf128_ps(lo8, 1));
    __m128 hi4 = _mm_max_ps(_mm256_castps256_ps128(hi8),
                            _mm256_extractf128_ps(hi8, 1));
    lo4 = _mm_min_ps(lo4, _mm_movehl_ps(lo4, lo4));
    hi4 = _mm_max_ps(hi4, _mm_movehl_ps(hi4, hi4));
    lo4 = _mm_min_ss(lo4, _mm_shuffle_ps(lo4, lo4, 1));
    hi4 = _mm_max_ss(hi4, _mm_shuffle_ps(hi4, hi4, 1));
    *plo = _mm_cvtss_f32(lo4);
    *phi = _mm_cvtss_f32(hi4);
    return;
  }
  float lo = v[0], hi = v[0];
  for (int64_t p = 1; p < n; ++p) {
    lo = v[p] < lo ? v[p] : lo;
    hi = v[p] > hi ? v[p] : hi;
  }
  *plo = lo;
  *phi = hi;
}

// Clamps q to [0, 127] then packs 4x8 s32 down to 32 u8. The saturating
// packs (s32->s16, s16->u8) are lossless after the clamp; the final
// permute undoes their per-128-lane interleave.
void EncodeU7Avx2(const float* v, int64_t n, float lo, float inv,
                  uint8_t* out) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i v127 = _mm256_set1_epi32(127);
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  const auto enc8 = [&](const float* p) {
    const __m256 x =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(p), vlo), vinv);
    const __m256i q = _mm256_cvtps_epi32(x);
    return _mm256_min_epi32(_mm256_max_epi32(q, zero), v127);
  };
  int64_t p = 0;
  for (; p + 32 <= n; p += 32) {
    const __m256i q0 = enc8(v + p);
    const __m256i q1 = enc8(v + p + 8);
    const __m256i q2 = enc8(v + p + 16);
    const __m256i q3 = enc8(v + p + 24);
    const __m256i w0 = _mm256_packs_epi32(q0, q1);
    const __m256i w1 = _mm256_packs_epi32(q2, q3);
    const __m256i b = _mm256_packus_epi16(w0, w1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + p),
                        _mm256_permutevar8x32_epi32(b, perm));
  }
  for (; p + 8 <= n; p += 8) {
    const __m256i q = enc8(v + p);
    const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                      _mm256_extracti128_si256(q, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + p),
                     _mm_packus_epi16(w, w));
  }
  for (; p < n; ++p) {
    long q = std::lrintf((v[p] - lo) * inv);
    q = q < 0 ? 0 : (q > 127 ? 127 : q);
    out[p] = static_cast<uint8_t>(q);
  }
}

// 8 columns -> 8 contiguous rows via in-register 8x8 transposes; the
// k % 8 tail rows go element-wise.
void Transpose8ColAvx2(const float* src, int64_t ld, int64_t k, float* dst,
                       int64_t dst_stride) {
  int64_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const float* s = src + p * ld;
    const __m256 r0 = _mm256_loadu_ps(s);
    const __m256 r1 = _mm256_loadu_ps(s + ld);
    const __m256 r2 = _mm256_loadu_ps(s + 2 * ld);
    const __m256 r3 = _mm256_loadu_ps(s + 3 * ld);
    const __m256 r4 = _mm256_loadu_ps(s + 4 * ld);
    const __m256 r5 = _mm256_loadu_ps(s + 5 * ld);
    const __m256 r6 = _mm256_loadu_ps(s + 6 * ld);
    const __m256 r7 = _mm256_loadu_ps(s + 7 * ld);
    __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
    __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
    __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
    __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
    __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
    __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
    __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
    _mm256_storeu_ps(dst + 0 * dst_stride + p,
                     _mm256_permute2f128_ps(s0, s4, 0x20));
    _mm256_storeu_ps(dst + 1 * dst_stride + p,
                     _mm256_permute2f128_ps(s1, s5, 0x20));
    _mm256_storeu_ps(dst + 2 * dst_stride + p,
                     _mm256_permute2f128_ps(s2, s6, 0x20));
    _mm256_storeu_ps(dst + 3 * dst_stride + p,
                     _mm256_permute2f128_ps(s3, s7, 0x20));
    _mm256_storeu_ps(dst + 4 * dst_stride + p,
                     _mm256_permute2f128_ps(s0, s4, 0x31));
    _mm256_storeu_ps(dst + 5 * dst_stride + p,
                     _mm256_permute2f128_ps(s1, s5, 0x31));
    _mm256_storeu_ps(dst + 6 * dst_stride + p,
                     _mm256_permute2f128_ps(s2, s6, 0x31));
    _mm256_storeu_ps(dst + 7 * dst_stride + p,
                     _mm256_permute2f128_ps(s3, s7, 0x31));
  }
  for (; p < k; ++p) {
    for (int j = 0; j < 8; ++j) dst[j * dst_stride + p] = src[p * ld + j];
  }
}

// Column quantizer, pass 1: lo and scale of the 8 wide-grid columns of
// each block starting at starts[b], B <= 4 blocks at a time so that B
// independent min/max chains hide the vminps/vmaxps latency (named
// accumulators, as in Int8Chunk16, so they stay in registers). Seeded from
// row 0 and folded as min(lo, v) / max(hi, v), the operand order
// U7Columns documents.
template <int B>
void ColumnMinMax(const float* const* rows, int64_t k, const int64_t* starts,
                  float* lo, float* scale) {
  const auto at = [&](const float* r, int j) {
    return _mm256_loadu_ps(r + starts[j]);
  };
  __m256 lo0 = at(rows[0], 0), hi0 = lo0;
  __m256 lo1 = lo0, hi1 = lo0, lo2 = lo0, hi2 = lo0, lo3 = lo0, hi3 = lo0;
  if (B > 1) hi1 = lo1 = at(rows[0], 1);
  if (B > 2) hi2 = lo2 = at(rows[0], 2);
  if (B > 3) hi3 = lo3 = at(rows[0], 3);
  for (int64_t p = 1; p < k; ++p) {
    const float* r = rows[p];
    const __m256 x0 = at(r, 0);
    lo0 = _mm256_min_ps(lo0, x0);
    hi0 = _mm256_max_ps(hi0, x0);
    if (B > 1) {
      const __m256 x1 = at(r, 1);
      lo1 = _mm256_min_ps(lo1, x1);
      hi1 = _mm256_max_ps(hi1, x1);
    }
    if (B > 2) {
      const __m256 x2 = at(r, 2);
      lo2 = _mm256_min_ps(lo2, x2);
      hi2 = _mm256_max_ps(hi2, x2);
    }
    if (B > 3) {
      const __m256 x3 = at(r, 3);
      lo3 = _mm256_min_ps(lo3, x3);
      hi3 = _mm256_max_ps(hi3, x3);
    }
  }
  const __m256 v127 = _mm256_set1_ps(127.0f);
  const auto put = [&](int j, __m256 l, __m256 h) {
    _mm256_storeu_ps(lo + 8 * j, l);
    _mm256_storeu_ps(scale + 8 * j, _mm256_div_ps(_mm256_sub_ps(h, l), v127));
  };
  put(0, lo0, hi0);
  if (B > 1) put(1, lo1, hi1);
  if (B > 2) put(2, lo2, hi2);
  if (B > 3) put(3, lo3, hi3);
}

// Codes of rows[0..n) (n in 1..4) for the 8 columns at s, one dword per
// column holding its 4 codes in row order: the u8 quad the int8 kernel
// broadcasts. Missing rows give code 0. The two saturating packs and the
// unsigned min clamp each lane to [0, 127] (vcvtps2dq's out-of-range
// value 0x80000000 lands on 0, as lrintf's does in the scalar flavor);
// the byte shuffle turns the packs' row-major bytes into column dwords.
inline __m256i EncodeQuadU7(const float* const* rows, int n, int64_t s,
                            __m256 vlo, __m256 vinv) {
  const auto enc = [&](int u) {
    if (u >= n) return _mm256_setzero_si256();
    return _mm256_cvtps_epi32(
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(rows[u] + s), vlo), vinv));
  };
  const __m256i bytes = _mm256_packus_epi16(_mm256_packs_epi32(enc(0), enc(1)),
                                            _mm256_packs_epi32(enc(2), enc(3)));
  const __m256i by_column = _mm256_setr_epi8(
      0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
      0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  return _mm256_shuffle_epi8(
      _mm256_min_epu8(bytes, _mm256_set1_epi8(127)), by_column);
}

// In-register 8x8 transpose of dwords: lane j of d_u -> lane u of d_j.
inline void Transpose8x8Epi32(__m256i& d0, __m256i& d1, __m256i& d2,
                              __m256i& d3, __m256i& d4, __m256i& d5,
                              __m256i& d6, __m256i& d7) {
  const __m256i t0 = _mm256_unpacklo_epi32(d0, d1);
  const __m256i t1 = _mm256_unpackhi_epi32(d0, d1);
  const __m256i t2 = _mm256_unpacklo_epi32(d2, d3);
  const __m256i t3 = _mm256_unpackhi_epi32(d2, d3);
  const __m256i t4 = _mm256_unpacklo_epi32(d4, d5);
  const __m256i t5 = _mm256_unpackhi_epi32(d4, d5);
  const __m256i t6 = _mm256_unpacklo_epi32(d6, d7);
  const __m256i t7 = _mm256_unpackhi_epi32(d6, d7);
  const __m256i s0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i s1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i s2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i s3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i s4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i s5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i s6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i s7 = _mm256_unpackhi_epi64(t5, t7);
  d0 = _mm256_permute2x128_si256(s0, s4, 0x20);
  d1 = _mm256_permute2x128_si256(s1, s5, 0x20);
  d2 = _mm256_permute2x128_si256(s2, s6, 0x20);
  d3 = _mm256_permute2x128_si256(s3, s7, 0x20);
  d4 = _mm256_permute2x128_si256(s0, s4, 0x31);
  d5 = _mm256_permute2x128_si256(s1, s5, 0x31);
  d6 = _mm256_permute2x128_si256(s2, s6, 0x31);
  d7 = _mm256_permute2x128_si256(s3, s7, 0x31);
}

// The vector column quantizer. Pixels [i0, i1) span the wide-grid columns
// [q0, q1); block b covers the 8 columns from q0 + 8b, except that the
// last block slides back to end at wide_cols() so no load leaves a row.
// Every lane is computed; only lanes that are pixels of this range (not
// the junk columns between output rows, not another range's pixels) are
// stored.
void QuantizeColumnsU7Avx2(const U7Columns& job, int64_t i0, int64_t i1) {
  const ColsView& b = job.b;
  const int64_t wc = b.wide_cols();
  if (wc < 8 || i0 >= i1) {
    QuantizeColumnsU7(job, i0, i1);
    return;
  }
  const auto wide = [&](int64_t i) {
    const int64_t oi = i / b.out_w;
    return oi * b.pitch + (i - oi * b.out_w);
  };
  const int64_t q0 = wide(i0), q1 = wide(i1 - 1) + 1;
  const int64_t blocks = CeilDiv(q1 - q0, 8);
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  float* lo = arena.Alloc(8 * blocks);
  float* scale = arena.Alloc(8 * blocks);
  // Pointer-sized slots: two floats each.
  const float** rows = reinterpret_cast<const float**>(arena.Alloc(2 * job.k));
  int64_t* starts = reinterpret_cast<int64_t*>(arena.Alloc(2 * blocks));
  for (int64_t p = 0; p < job.k; ++p) rows[p] = b.row(p);
  for (int64_t blk = 0; blk < blocks; ++blk) {
    starts[blk] = std::min(q0 + 8 * blk, wc - 8);
  }
  int64_t blk = 0;
  for (; blk + 4 <= blocks; blk += 4) {
    ColumnMinMax<4>(rows, job.k, starts + blk, lo + 8 * blk, scale + 8 * blk);
  }
  for (; blk < blocks; ++blk) {
    ColumnMinMax<1>(rows, job.k, starts + blk, lo + 8 * blk, scale + 8 * blk);
  }

  const int32_t* const quad_first = job.quad_first;
  const int32_t* const quad_rows = job.quad_rows;
  const int64_t quads = job.quads;
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256i tail_mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(quads % 8)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (blk = 0; blk < blocks; ++blk) {
    const int64_t s = starts[blk];
    // Lane j is column s + j; it is stored when it falls in this block's
    // own share [q0 + 8*blk, q1) and is a pixel, not a junk column.
    const int64_t own = q0 + 8 * blk, end = std::min(own + 8, q1);
    uint8_t* dst[8];
    int64_t oi = s / b.pitch, oj = s - oi * b.pitch;
    for (int j = 0; j < 8; ++j, ++oj) {
      if (oj == b.pitch) {
        ++oi;
        oj = 0;
      }
      const int64_t q = s + j;
      if (q < own || q >= end || oj >= b.out_w) {
        dst[j] = nullptr;
        continue;
      }
      const int64_t i = oi * b.out_w + oj;
      job.aeff[i] = job.alpha * scale[8 * blk + j];
      job.amineff[i] = job.alpha * lo[8 * blk + j];
      dst[j] = job.codes + i * job.row_bytes;
    }
    const __m256 vlo = _mm256_loadu_ps(lo + 8 * blk);
    const __m256 vscale = _mm256_loadu_ps(scale + 8 * blk);
    const __m256 vinv =
        _mm256_and_ps(_mm256_cmp_ps(vscale, zero, _CMP_GT_OQ),
                      _mm256_div_ps(one, vscale));
    // Quads past the end encode as 0 and, in the last batch of a row that
    // is not a whole number of batches, are masked out of the store.
    const auto enc = [&](int64_t t) {
      return t < quads ? EncodeQuadU7(rows + quad_first[t], quad_rows[t], s,
                                      vlo, vinv)
                       : _mm256_setzero_si256();
    };
    for (int64_t t0 = 0; t0 < quads; t0 += 8) {
      __m256i d0 = enc(t0), d1 = enc(t0 + 1), d2 = enc(t0 + 2);
      __m256i d3 = enc(t0 + 3), d4 = enc(t0 + 4), d5 = enc(t0 + 5);
      __m256i d6 = enc(t0 + 6), d7 = enc(t0 + 7);
      Transpose8x8Epi32(d0, d1, d2, d3, d4, d5, d6, d7);
      const bool whole = t0 + 8 <= quads;
      const auto store = [&](int j, __m256i v) {
        if (dst[j] == nullptr) return;
        if (whole) {
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst[j] + 4 * t0), v);
        } else {
          _mm256_maskstore_epi32(reinterpret_cast<int*>(dst[j] + 4 * t0),
                                 tail_mask, v);
        }
      };
      store(0, d0);
      store(1, d1);
      store(2, d2);
      store(3, d3);
      store(4, d4);
      store(5, d5);
      store(6, d6);
      store(7, d7);
    }
  }
}

/// Norm-statistics reduction: sum and sum-of-squares accumulated as 4
// packed doubles (lane j holds elements p ≡ j mod 4), folded pairwise at
// the end, scalar tail last. float->double widening is exact, so only the
// documented lane decomposition (not rounding of inputs) distinguishes
// this from a serial scalar loop.
void SumSqF32Avx2(const float* v, int64_t n, double* sum, double* sumsq) {
  __m256d s = _mm256_setzero_pd();
  __m256d q = _mm256_setzero_pd();
  int64_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const __m256d x = _mm256_cvtps_pd(_mm_loadu_ps(v + p));
    s = _mm256_add_pd(s, x);
    q = _mm256_add_pd(q, _mm256_mul_pd(x, x));
  }
  alignas(32) double ls[4], lq[4];
  _mm256_store_pd(ls, s);
  _mm256_store_pd(lq, q);
  double ts = (ls[0] + ls[1]) + (ls[2] + ls[3]);
  double tq = (lq[0] + lq[1]) + (lq[2] + lq[3]);
  for (; p < n; ++p) {
    const double x = static_cast<double>(v[p]);
    ts += x;
    tq += x * x;
  }
  *sum = ts;
  *sumsq = tq;
}

// Mirrors Int8EpiloguePortable op-for-op: mul, mul, add, mul, add per
// element, no fma, so the two flavors return identical bits.
void Int8EpilogueAvx2(int mc, const int32_t* acc, const float* gs,
                      const int32_t* gsum, const float* as,
                      const float* amin, float* ftile) {
  const __m256 gs0 = _mm256_loadu_ps(gs);
  const __m256 gs1 = _mm256_loadu_ps(gs + 8);
  const __m256 gf0 = _mm256_cvtepi32_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(gsum)));
  const __m256 gf1 = _mm256_cvtepi32_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(gsum + 8)));
  for (int i = 0; i < mc; ++i) {
    const __m256 asv = _mm256_set1_ps(as[i]);
    const __m256 amv = _mm256_set1_ps(amin[i]);
    const __m256 a0 = _mm256_cvtepi32_ps(_mm256_load_si256(
        reinterpret_cast<const __m256i*>(acc + i * 16)));
    const __m256 a1 = _mm256_cvtepi32_ps(_mm256_load_si256(
        reinterpret_cast<const __m256i*>(acc + i * 16 + 8)));
    const __m256 t0 = _mm256_add_ps(_mm256_mul_ps(asv, a0),
                                    _mm256_mul_ps(amv, gf0));
    const __m256 t1 = _mm256_add_ps(_mm256_mul_ps(asv, a1),
                                    _mm256_mul_ps(amv, gf1));
    float* f = ftile + i * 16;
    _mm256_storeu_ps(f, _mm256_add_ps(_mm256_loadu_ps(f),
                                      _mm256_mul_ps(gs0, t0)));
    _mm256_storeu_ps(f + 8, _mm256_add_ps(_mm256_loadu_ps(f + 8),
                                          _mm256_mul_ps(gs1, t1)));
  }
}

// Lanes [0, n) set, for the masked tails below.
inline __m256i FirstLanes8(int64_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
inline __m128i FirstLanes4(int64_t n) {
  return _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(n)),
                         _mm_setr_epi32(0, 1, 2, 3));
}

// The norms' write loop, 8 floats per step: sub, mul, mul, add in
// NormalizeF32Portable's order. vmaxps(v, 0) returns its second operand
// unless v > 0, which is EpiRelu's `v > 0 ? v : +0` also for NaN and -0.
// The last n % 8 floats go through one masked load and store, so the 9-
// and 36-float planes of 3x3 and 6x6 maps stay vector code.
template <bool kRelu>
void NormalizeF32Avx2(const float* x, float* y, int64_t n, float mean,
                      float inv_std, float gam, float bet) {
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vinv = _mm256_set1_ps(inv_std);
  const __m256 vgam = _mm256_set1_ps(gam);
  const __m256 vbet = _mm256_set1_ps(bet);
  const auto norm = [&](__m256 v) {
    const __m256 h = _mm256_mul_ps(_mm256_sub_ps(v, vmean), vinv);
    const __m256 o = _mm256_add_ps(_mm256_mul_ps(vgam, h), vbet);
    return kRelu ? _mm256_max_ps(o, _mm256_setzero_ps()) : o;
  };
  int64_t p = 0;
  for (; p + 8 <= n; p += 8) {
    _mm256_storeu_ps(y + p, norm(_mm256_loadu_ps(x + p)));
  }
  if (p < n) {
    const __m256i mask = FirstLanes8(n - p);
    _mm256_maskstore_ps(y + p, mask, norm(_mm256_maskload_ps(x + p, mask)));
  }
}

// 2x2 / stride-2 max pool, 4 outputs per step. The 8 input columns of a
// step split into even and odd taps; each tap folds in as
// _mm_max_ps(tap, best), which keeps best unless tap > best — the scalar
// `if (v > best) best = v`, in the scalar tap order, from -inf. The last
// ow % 4 outputs read their 2, 4 or 6 columns through masked loads.
void MaxPool2x2Avx2(const float* x, int64_t planes, int64_t h, int64_t w,
                    float* out) {
  const int64_t oh = h / 2, ow = w / 2;
  const int64_t full = ow - ow % 4, rem = ow % 4;
  const __m128i lo_mask = FirstLanes4(2 * rem);
  const __m128i hi_mask = FirstLanes4(2 * rem - 4);
  const __m128i out_mask = FirstLanes4(rem);
  const __m128 ninf = _mm_set1_ps(-std::numeric_limits<float>::infinity());
  // Folds one input row's taps into best: lo and hi hold its 8 columns,
  // the even ones are the (., 0) taps of 4 outputs, the odd ones (., 1).
  const auto fold = [](__m128 best, __m128 lo, __m128 hi) {
    best = _mm_max_ps(_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)), best);
    return _mm_max_ps(_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1)), best);
  };
  for (int64_t img = 0; img < planes; ++img) {
    const float* src = x + img * h * w;
    float* dst = out + img * oh * ow;
    for (int64_t oi = 0; oi < oh; ++oi) {
      const float* r0 = src + 2 * oi * w;
      const float* r1 = r0 + w;
      float* d = dst + oi * ow;
      for (int64_t oj = 0; oj < full; oj += 4) {
        const int64_t c = 2 * oj;
        const __m128 top =
            fold(ninf, _mm_loadu_ps(r0 + c), _mm_loadu_ps(r0 + c + 4));
        _mm_storeu_ps(d + oj, fold(top, _mm_loadu_ps(r1 + c),
                                   _mm_loadu_ps(r1 + c + 4)));
      }
      if (rem > 0) {
        const int64_t c = 2 * full;
        const auto fold_tail = [&](__m128 best, const float* r) {
          const __m128 hi = rem > 2 ? _mm_maskload_ps(r + c + 4, hi_mask)
                                    : _mm_setzero_ps();
          return fold(best, _mm_maskload_ps(r + c, lo_mask), hi);
        };
        _mm_maskstore_ps(d + full, out_mask,
                         fold_tail(fold_tail(ninf, r0), r1));
      }
    }
  }
}

}  // namespace

const MicroKernelDesc* Avx2Kernel() {
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  static const MicroKernelDesc desc{kMr, kNr, &MicroKernel6x16,
                                    &GemmRefFma, &SkinnyKernel16, 4};
  return supported ? &desc : nullptr;
}

Int8SkinnyFn Avx2Int8Kernel() {
  // maddubs/madd need AVX2 only (no FMA), so int8 inference can still be
  // vectorized on machines where the fp32 path fell back to portable.
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &Int8Skinny16 : nullptr;
}

Int8SkinnyFn VnniInt8Kernel() {
#if defined(MS_GEMM_VNNI)
  // The ymm (VL) form of vpdpbusd needs both the VNNI and VL halves of
  // AVX-512 at runtime.
  static const bool supported = __builtin_cpu_supports("avx512vnni") &&
                                __builtin_cpu_supports("avx512vl");
  return supported ? &Int8SkinnyVnni16 : nullptr;
#else
  return nullptr;
#endif
}

MinMaxF32Fn Avx2MinMaxF32() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &MinMaxF32Avx2 : nullptr;
}

EncodeU7Fn Avx2EncodeU7() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &EncodeU7Avx2 : nullptr;
}

Transpose8ColFn Avx2Transpose8Col() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &Transpose8ColAvx2 : nullptr;
}

U7ColumnsFn Avx2QuantizeColumnsU7() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &QuantizeColumnsU7Avx2 : nullptr;
}

Int8EpilogueFn Avx2Int8Epilogue() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &Int8EpilogueAvx2 : nullptr;
}

SumSqF32Fn Avx2SumSqF32() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &SumSqF32Avx2 : nullptr;
}

NormalizeF32Fn Avx2NormalizeF32(EpiAct act) {
  static const bool supported = __builtin_cpu_supports("avx2");
  if (!supported) return nullptr;
  switch (act) {
    case EpiAct::kRelu:
      return &NormalizeF32Avx2<true>;
    case EpiAct::kNone:
      return &NormalizeF32Avx2<false>;
    case EpiAct::kSigmoid:
    case EpiAct::kTanh:
      break;
  }
  return nullptr;
}

MaxPool2x2Fn Avx2MaxPool2x2() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &MaxPool2x2Avx2 : nullptr;
}

}  // namespace detail
}  // namespace ops
}  // namespace ms

#else  // !MS_GEMM_AVX2

namespace ms {
namespace ops {
namespace detail {

const MicroKernelDesc* Avx2Kernel() { return nullptr; }

Int8SkinnyFn Avx2Int8Kernel() { return nullptr; }

Int8SkinnyFn VnniInt8Kernel() { return nullptr; }

MinMaxF32Fn Avx2MinMaxF32() { return nullptr; }

EncodeU7Fn Avx2EncodeU7() { return nullptr; }

Transpose8ColFn Avx2Transpose8Col() { return nullptr; }

U7ColumnsFn Avx2QuantizeColumnsU7() { return nullptr; }

Int8EpilogueFn Avx2Int8Epilogue() { return nullptr; }

SumSqF32Fn Avx2SumSqF32() { return nullptr; }

NormalizeF32Fn Avx2NormalizeF32(EpiAct) { return nullptr; }

MaxPool2x2Fn Avx2MaxPool2x2() { return nullptr; }

}  // namespace detail
}  // namespace ops
}  // namespace ms

#endif  // MS_GEMM_AVX2
