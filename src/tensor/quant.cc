// Quantized prepacked operands. See quant.h for the layout/staleness
// story. All contraction arithmetic here is exact integer math; the only
// floating-point work is the quantize pass and the dequant epilogue, both
// of which run in a fixed order so results are bitwise identical at every
// thread count and kernel flavor.
#include "src/tensor/quant.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/tensor/gemm.h"
#include "src/tensor/gemm_internal.h"
#include "src/tensor/prepack.h"
#include "src/tensor/scratch.h"
#include "src/util/status.h"

namespace ms {

const char* PrecisionName(Precision p) {
  return p == Precision::kInt8 ? "int8" : "fp32";
}

bool ParsePrecision(const std::string& s, Precision* out) {
  if (s == "fp32") {
    *out = Precision::kFp32;
    return true;
  }
  if (s == "int8") {
    *out = Precision::kInt8;
    return true;
  }
  return false;
}

namespace ops {
namespace {

/// Quantized panel width. Fixed at 16 (not the active fp32 kernel's nr):
/// the int8 panel feeds one 32-byte madd load per k-pair regardless of
/// which fp32 kernel this process runs.
constexpr int kQNr = 16;
/// Rows of op(A) processed per kernel pass; bounds the accumulator tile.
/// Larger chunks amortize B-panel streaming (every chunk re-reads all
/// panels), which dominates the conv-shaped WeightA path; 32 keeps the
/// acc + ftile scratch at 4 KB total. Chunking does not affect results:
/// the integer contraction is exact per row and the float epilogue order
/// per element is unchanged.
constexpr int kQRowChunk = 32;

detail::PackCounters& g_stats = detail::g_pack_counters;

/// Symmetric round-to-nearest weight quantization; clamped to [-127, 127]
/// so the representable range is sign-symmetric (no -128).
inline int8_t QuantizeValue(float v, float inv_scale) {
  const long q = std::lrintf(v * inv_scale);
  return static_cast<int8_t>(q < -127 ? -127 : (q > 127 ? 127 : q));
}

/// Asymmetric round-to-nearest activation quantization to 7 bits: code =
/// clamp(lrintf((v - lo) * inv_scale), 0, 127). The [0, 127] bound is the
/// saturation-freedom invariant the maddubs kernel relies on. Computed
/// without the out-of-line libm call: inside (0, 127), adding and
/// subtracting 1.5 * 2^23 rounds to an integer in the current rounding
/// mode, as lrintf does; the clamp decides everything else. lrintf's
/// out-of-range result (x >= 2^63, +inf, NaN) is LONG_MIN on x86-64 and
/// clamps to 0.
inline uint8_t QuantizeValueU7(float v, float lo, float inv_scale) {
  const float x = (v - lo) * inv_scale;
  if (!(x > 0.0f)) return 0;
  if (x < 127.0f) {
    constexpr float kRound = 12582912.0f;
    return static_cast<uint8_t>((x + kRound) - kRound);
  }
  return x < 0x1p63f ? 127 : 0;
}

/// Portable int8 kernel: the exact integer contraction of
/// detail::Int8SkinnyFn in plain loops. Bit-identical to the AVX2
/// maddubs/madd kernel by construction (the 7-bit activation bound rules
/// out saturation, and unsaturated integer arithmetic has no rounding).
void Int8SkinnyPortable(int64_t quads, int m, const uint8_t* aq,
                        int64_t lda_q, const int8_t* bseg, int32_t* acc) {
  for (int i = 0; i < m; ++i) {
    int32_t* arow = acc + i * kQNr;
    for (int c = 0; c < kQNr; ++c) arow[c] = 0;
    const uint8_t* ar = aq + i * lda_q;
    for (int64_t p = 0; p < quads; ++p) {
      const int32_t a0 = ar[4 * p];
      const int32_t a1 = ar[4 * p + 1];
      const int32_t a2 = ar[4 * p + 2];
      const int32_t a3 = ar[4 * p + 3];
      const int8_t* bquad = bseg + p * 4 * kQNr;
      for (int c = 0; c < kQNr; ++c) {
        arow[c] += a0 * bquad[4 * c] + a1 * bquad[4 * c + 1] +
                   a2 * bquad[4 * c + 2] + a3 * bquad[4 * c + 3];
      }
    }
  }
}

detail::Int8SkinnyFn ActiveInt8Kernel() {
  // VNNI -> AVX2 maddubs -> portable. All three compute the same exact
  // integer contraction, so the pick is pure speed, never semantics.
  static const detail::Int8SkinnyFn fn = [] {
    if (const detail::Int8SkinnyFn vnni = detail::VnniInt8Kernel()) {
      return vnni;
    }
    const detail::Int8SkinnyFn avx2 = detail::Avx2Int8Kernel();
    return avx2 != nullptr ? avx2 : &Int8SkinnyPortable;
  }();
  return fn;
}

detail::Int8EpilogueFn ActiveInt8Epilogue() {
  static const detail::Int8EpilogueFn fn = [] {
    const detail::Int8EpilogueFn avx2 = detail::Avx2Int8Epilogue();
    return avx2 != nullptr ? avx2 : &detail::Int8EpiloguePortable;
  }();
  return fn;
}

bool WorthParallel(int64_t flops, int64_t tasks) {
  return flops >= detail::kParallelFlops && tasks > 1;
}

/// beta-only merge for k == 0 problems (beta restricted to {0, 1}).
void BetaMergeQ(int64_t m, int64_t n, float beta, float* c, int64_t ldc) {
  if (beta != 0.0f) return;  // beta == 1: C unchanged.
  for (int64_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) row[j] = 0.0f;
  }
}

/// BetaMergeQ followed by the epilogue post-pass (the k == 0 degenerate
/// case of the fused entry points).
void BetaMergeQEpi(int64_t m, int64_t n, float beta, float* c, int64_t ldc,
                   const Epilogue& epi) {
  BetaMergeQ(m, n, beta, c, ldc);
  if (epi.empty()) return;
  for (int64_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) row[j] = detail::EpiApply(epi, i, j, row[j]);
  }
}

/// Quantizes the m rows of a (leading dimension lda) over the first s_act
/// segments into the segment-padded u8 layout: row i at aq + i*row_bytes,
/// segment g's quads at byte offset seg_quad_off[g]*4. One affine (min,
/// scale) per row over the active k, codes in [0, 127]; aeff[i] = alpha *
/// scale[i] and amineff[i] = alpha * min[i] feed the dequant epilogue
/// directly. Padded positions hold code 0 — harmless because the matching
/// weight bytes are 0, so both the integer products and the colsum
/// correction ignore them. Element-exact across the AVX2 and scalar
/// encoders (vcvtps2dq and lrintf share round-to-nearest-even), so the
/// dispatch is pure speed. The columns of a matrix (the conv operand) go
/// through QuantizeColumns instead, with the same math.
void QuantizeRows(const float* a, int64_t lda, int64_t m, float alpha,
                  const std::vector<int64_t>& seg_ends, int64_t s_act,
                  const std::vector<int64_t>& seg_quad_off, uint8_t* aq,
                  float* aeff, float* amineff) {
  const int64_t k = seg_ends[static_cast<size_t>(s_act - 1)];
  const int64_t row_bytes = seg_quad_off.back() * 4;
  const detail::MinMaxF32Fn minmax_fn = detail::Avx2MinMaxF32();
  const detail::EncodeU7Fn encode_fn = detail::Avx2EncodeU7();
  auto quant_rows = [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = a + i * lda;
      float lo = 0.0f, hi = 0.0f;
      if (minmax_fn != nullptr) {
        minmax_fn(arow, k, &lo, &hi);
      } else {
        for (int64_t p = 0; p < k; ++p) {
          const float v = arow[p];
          if (p == 0 || v < lo) lo = v;
          if (p == 0 || v > hi) hi = v;
        }
      }
      const float scale = (hi - lo) / 127.0f;
      aeff[i] = alpha * scale;
      amineff[i] = alpha * lo;
      const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
      uint8_t* row = aq + i * row_bytes;
      for (int64_t g = 0; g < s_act; ++g) {
        const int64_t s0 = g > 0 ? seg_ends[static_cast<size_t>(g - 1)] : 0;
        const int64_t s1 = seg_ends[static_cast<size_t>(g)];
        uint8_t* seg = row + seg_quad_off[static_cast<size_t>(g)] * 4;
        int64_t idx = 0;
        if (encode_fn != nullptr) {
          encode_fn(arow + s0, s1 - s0, lo, inv, seg);
          idx = s1 - s0;
        } else {
          for (int64_t p = s0; p < s1; ++p) {
            seg[idx++] = QuantizeValueU7(arow[p], lo, inv);
          }
        }
        while (idx & 3) seg[idx++] = 0;  // pad segments to a full quad
      }
    }
  };
  // Two passes per element (min/max, encode); weigh them at 6
  // ops/element when deciding to fan out.
  if (WorthParallel(6 * m * k, m)) {
    ParallelForCompute(m, quant_rows);
  } else {
    quant_rows(0, m);
  }
}

/// Quantizes the columns of b over the first s_act segments into the
/// same layout as QuantizeRows (pixel i's codes at codes + i*row_bytes),
/// fanning out over pixels when it pays.
void QuantizeColumns(const ColsView& b, float alpha,
                     const std::vector<int64_t>& seg_ends, int64_t s_act,
                     const std::vector<int64_t>& seg_quad_off,
                     uint8_t* codes, float* aeff, float* amineff) {
  detail::U7Columns job;
  job.b = b;
  job.k = seg_ends[static_cast<size_t>(s_act - 1)];
  job.alpha = alpha;
  job.quads = seg_quad_off[static_cast<size_t>(s_act)];
  job.row_bytes = seg_quad_off.back() * 4;
  job.codes = codes;
  job.aeff = aeff;
  job.amineff = amineff;
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  int32_t* quad_first = reinterpret_cast<int32_t*>(arena.Alloc(job.quads));
  int32_t* quad_rows = reinterpret_cast<int32_t*>(arena.Alloc(job.quads));
  for (int64_t g = 0, t = 0; g < s_act; ++g) {
    const int64_t s1 = seg_ends[static_cast<size_t>(g)];
    for (int64_t p = g > 0 ? seg_ends[static_cast<size_t>(g - 1)] : 0; p < s1;
         p += 4, ++t) {
      quad_first[t] = static_cast<int32_t>(p);
      quad_rows[t] = static_cast<int32_t>(std::min<int64_t>(4, s1 - p));
    }
  }
  job.quad_first = quad_first;
  job.quad_rows = quad_rows;
  static const detail::U7ColumnsFn fn = [] {
    const detail::U7ColumnsFn avx2 = detail::Avx2QuantizeColumnsU7();
    return avx2 != nullptr ? avx2 : &detail::QuantizeColumnsU7;
  }();
  const int64_t n = b.cols();
  // Two passes over the k x n operand (min/max, encode) at a few ops per
  // element; weigh them at 6 ops/element when deciding to fan out.
  if (WorthParallel(6 * n * job.k, n)) {
    ParallelForCompute(n, [&](int64_t i0, int64_t i1) { fn(job, i0, i1); });
  } else {
    fn(job, 0, n);
  }
}

/// Number of whole segments covered by the sliced k; dies unless k lands
/// exactly on a segment boundary (slice rates do by construction).
int64_t ActiveSegments(const std::vector<int64_t>& seg_ends, int64_t k) {
  if (k == 0) return 0;
  int64_t s = 0;
  const int64_t n = static_cast<int64_t>(seg_ends.size());
  while (s < n && seg_ends[static_cast<size_t>(s)] <= k) ++s;
  MS_CHECK_MSG(s >= 1 && seg_ends[static_cast<size_t>(s - 1)] == k,
               "quantized k must land on a slice-group boundary");
  return s;
}

}  // namespace

namespace detail {

void QuantizeColumnsU7(const U7Columns& job, int64_t i0, int64_t i1) {
  if (i0 >= i1) return;
  const ColsView& b = job.b;
  const auto wide = [&](int64_t i) {
    const int64_t oi = i / b.out_w;
    return oi * b.pitch + (i - oi * b.out_w);
  };
  const int64_t q0 = wide(i0), span = wide(i1 - 1) + 1 - q0;
  // fn(i, q) for pixels [i0, i1) in order, q the pixel's wide-grid column
  // relative to q0.
  const auto each_pixel = [&](auto&& fn) {
    for (int64_t i = i0, oj = i0 % b.out_w, q = 0; i < i1; ++i, ++oj, ++q) {
      if (oj == b.out_w) {
        oj = 0;
        q += b.pitch - b.out_w;
      }
      fn(i, q);
    }
  };
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  float* lo = arena.Alloc(span);
  float* hi = arena.Alloc(span);
  // Running min/max over the wide grid, one contiguous row at a time; the
  // junk columns between output rows ride along unused.
  std::copy(b.row(0) + q0, b.row(0) + q0 + span, lo);
  std::copy(b.row(0) + q0, b.row(0) + q0 + span, hi);
  for (int64_t p = 1; p < job.k; ++p) {
    const float* r = b.row(p) + q0;
    for (int64_t q = 0; q < span; ++q) {
      lo[q] = lo[q] < r[q] ? lo[q] : r[q];
      hi[q] = hi[q] > r[q] ? hi[q] : r[q];
    }
  }
  float* inv = hi;  // hi is dead once the pixel's scale is known
  each_pixel([&](int64_t i, int64_t q) {
    const float scale = (hi[q] - lo[q]) / 127.0f;
    job.aeff[i] = job.alpha * scale;
    job.amineff[i] = job.alpha * lo[q];
    inv[q] = scale > 0.0f ? 1.0f / scale : 0.0f;
  });
  for (int64_t t = 0; t < job.quads; ++t) {
    for (int u = 0; u < 4; ++u) {
      uint8_t* codes = job.codes + 4 * t + u;
      if (u >= job.quad_rows[t]) {
        each_pixel([&](int64_t i, int64_t) { codes[i * job.row_bytes] = 0; });
        continue;
      }
      const float* r = b.row(job.quad_first[t] + u) + q0;
      each_pixel([&](int64_t i, int64_t q) {
        codes[i * job.row_bytes] = QuantizeValueU7(r[q], lo[q], inv[q]);
      });
    }
  }
}

void Int8EpiloguePortable(int mc, const int32_t* acc, const float* gs,
                          const int32_t* gsum, const float* as,
                          const float* amin, float* ftile) {
  for (int i = 0; i < mc; ++i) {
    for (int c = 0; c < kQNr; ++c) {
      ftile[i * kQNr + c] +=
          gs[c] * (as[i] * static_cast<float>(acc[i * kQNr + c]) +
                   amin[i] * static_cast<float>(gsum[c]));
    }
  }
}

}  // namespace detail

float QuantizedPack::scale(int64_t segment, int64_t col) const {
  MS_CHECK(valid_ && segment >= 0 &&
           segment < static_cast<int64_t>(seg_ends_.size()) && col >= 0 &&
           col < cols_);
  const int64_t s = static_cast<int64_t>(seg_ends_.size());
  return scales_[static_cast<size_t>(((col / kQNr) * s + segment) * kQNr +
                                     col % kQNr)];
}

int8_t* QuantizedPack::Reserve(int64_t bytes) {
  MS_CHECK(bytes >= 0);
  if (bytes > capacity_) {
    constexpr int64_t kAlign = 64;
    storage_ = std::make_unique<int8_t[]>(static_cast<size_t>(bytes + kAlign));
    const auto addr = reinterpret_cast<uintptr_t>(storage_.get());
    const uintptr_t aligned = (addr + kAlign - 1) & ~(kAlign - 1);
    data_ = reinterpret_cast<int8_t*>(aligned);
    capacity_ = bytes;
  }
  return data_;
}

void QuantizePackB(bool trans_b, int64_t k, int64_t n, const float* b,
                   int64_t ldb, const std::vector<int64_t>& k_group_ends,
                   QuantizedPack* pack) {
  MS_CHECK(pack != nullptr && b != nullptr);
  MS_CHECK(k >= 1 && n >= 1 && ldb >= 1);
  MS_CHECK_MSG(!k_group_ends.empty() && k_group_ends.back() == k,
               "k_group_ends must partition [0, k)");
  const int64_t s_count = static_cast<int64_t>(k_group_ends.size());
  std::vector<int64_t> seg_quad_off(static_cast<size_t>(s_count) + 1, 0);
  for (int64_t g = 0; g < s_count; ++g) {
    const int64_t s0 = g > 0 ? k_group_ends[static_cast<size_t>(g - 1)] : 0;
    const int64_t s1 = k_group_ends[static_cast<size_t>(g)];
    MS_CHECK_MSG(s1 > s0, "k_group_ends must be strictly ascending");
    seg_quad_off[static_cast<size_t>(g + 1)] =
        seg_quad_off[static_cast<size_t>(g)] + (s1 - s0 + 3) / 4;
  }
  const int64_t panel_bytes = seg_quad_off.back() * 4 * kQNr;
  const int64_t n_panels = detail::CeilDiv(n, kQNr);
  const int64_t total = n_panels * panel_bytes;
  int8_t* out = pack->Reserve(total);
  pack->scales_.assign(static_cast<size_t>(n_panels * s_count * kQNr), 0.0f);
  pack->colsums_.assign(static_cast<size_t>(n_panels * s_count * kQNr), 0);

  const auto at = [&](int64_t p, int64_t j) -> float {
    return trans_b ? b[j * ldb + p] : b[p * ldb + j];
  };
  auto pack_range = [&](int64_t p0, int64_t p1) {
    for (int64_t pj = p0; pj < p1; ++pj) {
      const int64_t j0 = pj * kQNr;
      const int64_t live = std::min<int64_t>(kQNr, n - j0);
      int8_t* panel = out + pj * panel_bytes;
      float* pscales = pack->scales_.data() + pj * s_count * kQNr;
      int32_t* psums = pack->colsums_.data() + pj * s_count * kQNr;
      for (int64_t g = 0; g < s_count; ++g) {
        const int64_t s0 =
            g > 0 ? k_group_ends[static_cast<size_t>(g - 1)] : 0;
        const int64_t s1 = k_group_ends[static_cast<size_t>(g)];
        float* gs = pscales + g * kQNr;
        int32_t* gsum = psums + g * kQNr;
        float inv[kQNr];
        for (int64_t c = 0; c < live; ++c) {
          float amax = 0.0f;
          for (int64_t p = s0; p < s1; ++p) {
            const float v = std::fabs(at(p, j0 + c));
            if (v > amax) amax = v;
          }
          gs[c] = amax / 127.0f;
          inv[c] = amax > 0.0f ? 127.0f / amax : 0.0f;
        }
        for (int64_t c = live; c < kQNr; ++c) inv[c] = 0.0f;
        int8_t* seg = panel + seg_quad_off[static_cast<size_t>(g)] * 4 * kQNr;
        const int64_t quads = seg_quad_off[static_cast<size_t>(g + 1)] -
                              seg_quad_off[static_cast<size_t>(g)];
        for (int64_t p = 0; p < quads; ++p) {
          int8_t* dst = seg + p * 4 * kQNr;
          for (int64_t c = 0; c < kQNr; ++c) {
            for (int t = 0; t < 4; ++t) {
              const int64_t kk = s0 + 4 * p + t;
              const int8_t q = (c < live && kk < s1)
                                   ? QuantizeValue(at(kk, j0 + c), inv[c])
                                   : static_cast<int8_t>(0);
              dst[4 * c + t] = q;
              gsum[c] += q;  // zero-point correction operand (pads add 0)
            }
          }
        }
      }
    }
  };
  // Pure data movement: panels land in identical bytes under any
  // partition, so fan out when the matrix is big enough to care.
  if (WorthParallel(2 * k * n, n_panels)) {
    ParallelForCompute(n_panels, pack_range);
  } else {
    pack_range(0, n_panels);
  }

  pack->valid_ = true;
  pack->trans_ = trans_b;
  pack->rows_ = k;
  pack->cols_ = n;
  pack->ld_ = ldb;
  pack->src_ = b;
  pack->packed_bytes_ = total;
  pack->generation_ = WeightGeneration();
  pack->seg_ends_ = k_group_ends;
  pack->seg_quad_off_ = std::move(seg_quad_off);
  g_stats.quant_packs.fetch_add(1, std::memory_order_relaxed);
  g_stats.quant_packed_bytes.fetch_add(static_cast<uint64_t>(total),
                            std::memory_order_relaxed);
}

bool EnsureQuantizedB(bool trans_b, int64_t k, int64_t n, const float* b,
                      int64_t ldb, const std::vector<int64_t>& k_group_ends,
                      QuantizedPack* pack) {
  MS_CHECK(pack != nullptr);
  if (pack->valid_ && pack->trans_ == trans_b && pack->rows_ == k &&
      pack->cols_ == n && pack->ld_ == ldb && pack->src_ == b &&
      pack->generation_ == WeightGeneration() &&
      pack->seg_ends_ == k_group_ends) {
    g_stats.quant_hits.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  QuantizePackB(trans_b, k, n, b, ldb, k_group_ends, pack);
  return true;
}

void GemmQuantizedB(bool trans_a, int64_t m, int64_t n, int64_t k,
                    float alpha, const float* a, int64_t lda,
                    const QuantizedPack& bpack, float beta, float* c,
                    int64_t ldc, const Epilogue& epi) {
  MS_CHECK(bpack.valid_);
  MS_CHECK_MSG(beta == 0.0f || beta == 1.0f,
               "GemmQuantizedB supports beta in {0, 1}");
  MS_CHECK(k <= bpack.rows_ && n <= bpack.cols_);
  if (m <= 0 || n <= 0) return;
  g_stats.quantized_calls.fetch_add(1, std::memory_order_relaxed);
  const int64_t s_act = ActiveSegments(bpack.seg_ends_, k);
  if (s_act == 0) {
    BetaMergeQEpi(m, n, beta, c, ldc, epi);
    return;
  }
  const int64_t s_count = static_cast<int64_t>(bpack.seg_ends_.size());
  const int64_t row_bytes = bpack.seg_quad_off_.back() * 4;
  const int64_t panel_bytes = row_bytes * kQNr;
  const int64_t n_panels = detail::CeilDiv(n, kQNr);
  const detail::Int8SkinnyFn kernel = ActiveInt8Kernel();
  const detail::Int8EpilogueFn epilogue = ActiveInt8Epilogue();

  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  uint8_t* aq = reinterpret_cast<uint8_t*>(
      arena.Alloc(detail::CeilDiv(m * row_bytes, 4)));
  float* aeff = arena.Alloc(m);
  float* amineff = arena.Alloc(m);

  if (trans_a) {
    QuantizeColumns(ColsView::Matrix(a, lda, m), alpha, bpack.seg_ends_,
                    s_act, bpack.seg_quad_off_, aq, aeff, amineff);
  } else {
    QuantizeRows(a, lda, m, alpha, bpack.seg_ends_, s_act,
                 bpack.seg_quad_off_, aq, aeff, amineff);
  }
  const int64_t flops = 2 * m * n * k;

  auto run = [&](int64_t p0, int64_t p1) {
    alignas(64) int32_t acc[kQRowChunk * kQNr];
    float ftile[kQRowChunk * kQNr];
    for (int64_t pj = p0; pj < p1; ++pj) {
      const int8_t* panel = bpack.data_ + pj * panel_bytes;
      const float* pscales = bpack.scales_.data() + pj * s_count * kQNr;
      const int32_t* psums = bpack.colsums_.data() + pj * s_count * kQNr;
      const int64_t j0 = pj * kQNr;
      const int64_t live = std::min<int64_t>(kQNr, n - j0);
      for (int64_t i0 = 0; i0 < m; i0 += kQRowChunk) {
        const int mc = static_cast<int>(std::min<int64_t>(kQRowChunk, m - i0));
        std::fill(ftile, ftile + mc * kQNr, 0.0f);
        for (int64_t g = 0; g < s_act; ++g) {
          const int64_t off = bpack.seg_quad_off_[static_cast<size_t>(g)];
          const int64_t quads =
              bpack.seg_quad_off_[static_cast<size_t>(g + 1)] - off;
          kernel(quads, mc, aq + i0 * row_bytes + off * 4, row_bytes,
                 panel + off * 4 * kQNr, acc);
          const float* gs = pscales + g * kQNr;
          const int32_t* gsum = psums + g * kQNr;
          epilogue(mc, acc, gs, gsum, aeff + i0, amineff + i0, ftile);
        }
        for (int i = 0; i < mc; ++i) {
          float* crow = c + (i0 + i) * ldc + j0;
          const float* frow = ftile + i * kQNr;
          // Plain merge, then the row-specialized epilogue over the hot
          // row — same per-element op order as the scalar EpiApply path.
          if (beta == 0.0f) {
            for (int64_t cc = 0; cc < live; ++cc) crow[cc] = frow[cc];
          } else {
            for (int64_t cc = 0; cc < live; ++cc) crow[cc] += frow[cc];
          }
          if (!epi.empty()) {
            detail::EpiApplyRow(epi, i0 + i, j0, live, crow);
          }
        }
      }
    }
  };
  if (WorthParallel(flops, n_panels)) {
    ParallelForCompute(n_panels, run);
  } else {
    run(0, n_panels);
  }
}

void GemmQuantizedWeightA(int64_t m, int64_t n, int64_t k,
                          const QuantizedPack& wpack_t, const float* b,
                          int64_t ldb, float beta, float* c, int64_t ldc,
                          const Epilogue& epi) {
  GemmQuantizedWeightA(m, k, wpack_t, ColsView::Matrix(b, ldb, n), beta, c,
                       ldc, epi);
}

void GemmQuantizedWeightA(int64_t m, int64_t k, const QuantizedPack& wpack_t,
                          const ColsView& b, float beta, float* c,
                          int64_t ldc, const Epilogue& epi) {
  MS_CHECK(wpack_t.valid_);
  MS_CHECK_MSG(beta == 0.0f || beta == 1.0f,
               "GemmQuantizedWeightA supports beta in {0, 1}");
  MS_CHECK(k <= wpack_t.rows_ && m <= wpack_t.cols_);
  const int64_t n = b.cols();
  if (m <= 0 || n <= 0) return;
  g_stats.quantized_calls.fetch_add(1, std::memory_order_relaxed);
  const int64_t s_act = ActiveSegments(wpack_t.seg_ends_, k);
  if (s_act == 0) {
    BetaMergeQEpi(m, n, beta, c, ldc, epi);
    return;
  }
  const int64_t s_count = static_cast<int64_t>(wpack_t.seg_ends_.size());
  const int64_t row_bytes = wpack_t.seg_quad_off_.back() * 4;
  const int64_t panel_bytes = row_bytes * kQNr;
  const int64_t m_panels = detail::CeilDiv(m, kQNr);
  const detail::Int8SkinnyFn kernel = ActiveInt8Kernel();
  const detail::Int8EpilogueFn epilogue = ActiveInt8Epilogue();
  const detail::Transpose8ColFn tpose = detail::Avx2Transpose8Col();

  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  // "Rows" of the transposed problem are b's columns (output pixels):
  // quantize each column of b over the active k with one dynamic affine.
  uint8_t* bq = reinterpret_cast<uint8_t*>(
      arena.Alloc(detail::CeilDiv(n * row_bytes, 4)));
  float* beff = arena.Alloc(n);
  float* bmineff = arena.Alloc(n);
  QuantizeColumns(b, 1.0f, wpack_t.seg_ends_, s_act, wpack_t.seg_quad_off_,
                  bq, beff, bmineff);
  const int64_t flops = 2 * m * n * k;

  // Pixel chunks own disjoint column ranges of every C row, so the
  // parallel partition below writes disjoint memory.
  const int64_t n_chunks = detail::CeilDiv(n, kQRowChunk);
  auto run = [&](int64_t ch0, int64_t ch1) {
    alignas(64) int32_t acc[kQRowChunk * kQNr];
    float ftile[kQRowChunk * kQNr];
    for (int64_t chunk = ch0; chunk < ch1; ++chunk) {
      const int64_t i0 = chunk * kQRowChunk;
      const int mc = static_cast<int>(std::min<int64_t>(kQRowChunk, n - i0));
      for (int64_t pj = 0; pj < m_panels; ++pj) {
        const int8_t* panel = wpack_t.data_ + pj * panel_bytes;
        const float* pscales = wpack_t.scales_.data() + pj * s_count * kQNr;
        const int32_t* psums =
            wpack_t.colsums_.data() + pj * s_count * kQNr;
        const int64_t j0 = pj * kQNr;
        const int64_t live = std::min<int64_t>(kQNr, m - j0);
        std::fill(ftile, ftile + mc * kQNr, 0.0f);
        for (int64_t g = 0; g < s_act; ++g) {
          const int64_t off = wpack_t.seg_quad_off_[static_cast<size_t>(g)];
          const int64_t quads =
              wpack_t.seg_quad_off_[static_cast<size_t>(g + 1)] - off;
          kernel(quads, mc, bq + i0 * row_bytes + off * 4, row_bytes,
                 panel + off * 4 * kQNr, acc);
          const float* gs = pscales + g * kQNr;
          const int32_t* gsum = psums + g * kQNr;
          epilogue(mc, acc, gs, gsum, beff + i0, bmineff + i0, ftile);
        }
        // Transposed merge: ftile rows are pixels, lanes are W rows (C's
        // rows): C[j0+cc][i0+i] = ftile[i][cc]. Full 8x8 blocks of the
        // overwrite flavor go through the vector transpose straight into
        // C; everything else (beta == 1, ragged edges) stays scalar —
        // same element moves either way. The overwrite epilogue applies in
        // ftile before the transpose (per element, same float either
        // side); the accumulate flavor applies at the scalar merge below.
        if (!epi.empty() && beta == 0.0f) {
          // ftile axes are swapped vs C (rows are pixels / C columns), so
          // flip per_row and the indexing collapses to the same idx per
          // element: per_row bias follows the cc axis (C rows, offset
          // j0), per-column follows the broadcast i0 + i.
          Epilogue epi_t = epi;
          epi_t.per_row = !epi.per_row;
          for (int i = 0; i < mc; ++i) {
            detail::EpiApplyRow(epi_t, i0 + i, j0, live, ftile + i * kQNr);
          }
        }
        int64_t cc0 = 0;
        if (tpose != nullptr && beta == 0.0f) {
          for (; cc0 + 8 <= live; cc0 += 8) {
            int i = 0;
            for (; i + 8 <= mc; i += 8) {
              tpose(ftile + i * kQNr + cc0, kQNr, 8,
                    c + (j0 + cc0) * ldc + i0 + i, ldc);
            }
            for (; i < mc; ++i) {
              for (int64_t cc = cc0; cc < cc0 + 8; ++cc) {
                c[(j0 + cc) * ldc + i0 + i] = ftile[i * kQNr + cc];
              }
            }
          }
        }
        for (int64_t cc = cc0; cc < live; ++cc) {
          float* crow = c + (j0 + cc) * ldc + i0;
          if (beta == 0.0f) {
            for (int i = 0; i < mc; ++i) crow[i] = ftile[i * kQNr + cc];
          } else {
            for (int i = 0; i < mc; ++i) crow[i] += ftile[i * kQNr + cc];
            if (!epi.empty()) {
              // crow runs along C columns with the C row fixed at
              // j0 + cc, which is exactly EpiApplyRow's contract.
              detail::EpiApplyRow(epi, j0 + cc, i0, mc, crow);
            }
          }
        }
      }
    }
  };
  if (WorthParallel(flops, n_chunks)) {
    ParallelForCompute(n_chunks, run);
  } else {
    run(0, n_chunks);
  }
}

bool GemmHasInt8Avx2() { return detail::Avx2Int8Kernel() != nullptr; }

bool GemmHasInt8Vnni() { return detail::VnniInt8Kernel() != nullptr; }

}  // namespace ops
}  // namespace ms
