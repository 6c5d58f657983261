// Prepacked-operand cache. See prepack.h for the layout/staleness story.
// The library builds with -ffp-contract=off: the skinny fallback and merge
// loops here must keep the exact mul+add sequence of the portable
// reference on any -march.
#include "src/tensor/prepack.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/tensor/gemm.h"
#include "src/tensor/gemm_internal.h"
#include "src/tensor/scratch.h"
#include "src/util/status.h"

namespace ms {
namespace ops {
namespace {

std::atomic<uint64_t> g_weight_generation{1};
detail::PackCounters& g_stats = detail::g_pack_counters;

/// Flops above which packing / the panel walk fans out over the pool.
/// Same threshold as the Gemm driver so scheduling stays comparable.
bool WorthParallel(int64_t flops, int64_t tasks) {
  return flops >= detail::kParallelFlops && tasks > 1;
}

/// beta-only merge for k == 0 problems: the exact operation sequence of
/// GemmRef with acc == 0, so -0.0f handling matches bitwise.
void BetaMerge(int64_t m, int64_t n, float beta, float* c, int64_t ldc) {
  const float acc = 0.0f;
  for (int64_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      row[j] = (beta == 0.0f)
                   ? acc
                   : (beta == 1.0f ? row[j] + acc : beta * row[j] + acc);
    }
  }
}

/// BetaMerge then the epilogue post-pass — the k == 0 form of the fused
/// writeback, matching GemmRef on a k == 0 problem bitwise.
void BetaMergeEpi(int64_t m, int64_t n, float beta, float* c, int64_t ldc,
                  const Epilogue& epi) {
  BetaMerge(m, n, beta, c, ldc);
  if (epi.empty()) return;
  for (int64_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      row[j] = detail::EpiApply(epi, i, j, row[j]);
    }
  }
}

}  // namespace

uint64_t WeightGeneration() {
  return g_weight_generation.load(std::memory_order_acquire);
}

void BumpWeightGeneration() {
  g_weight_generation.fetch_add(1, std::memory_order_acq_rel);
}

float* PackedMatrix::Reserve(int64_t floats) {
  MS_CHECK(floats >= 0);
  if (floats > capacity_) {
    constexpr int64_t kAlign = 16;  // floats; 64 bytes
    storage_ = std::make_unique<float[]>(floats + kAlign);
    const auto addr = reinterpret_cast<uintptr_t>(storage_.get());
    const uintptr_t aligned =
        (addr + kAlign * sizeof(float) - 1) & ~(kAlign * sizeof(float) - 1);
    data_ = reinterpret_cast<float*>(aligned);
    capacity_ = floats;
  }
  return data_;
}

// ---------------------------------------------------------------------------
// B role: ceil(n/nr) panels of k*nr floats, panel pj at pj*k*nr. Identical
// bytes to the scratch panels Gemm packs for the full (k x n) problem.

void PackB(bool trans_b, int64_t k, int64_t n, const float* b, int64_t ldb,
           PackedMatrix* pack) {
  MS_CHECK(pack != nullptr && b != nullptr);
  MS_CHECK(k >= 1 && n >= 1 && ldb >= 1);
  const detail::MicroKernelDesc& kd = detail::ActiveKernel();
  const int nr = kd.nr;
  const int64_t n_panels = detail::CeilDiv(n, nr);
  const int64_t total = n_panels * k * nr;
  float* out = pack->Reserve(total);
  auto pack_range = [&](int64_t p0, int64_t p1) {
    for (int64_t pj = p0; pj < p1; ++pj) {
      const int64_t j0 = pj * nr;
      detail::PackBPanel(trans_b, b, ldb, j0, std::min<int64_t>(nr, n - j0),
                         k, nr, out + pj * k * nr);
    }
  };
  // Packing is pure data movement; panels land in identical bytes under
  // any partition, so fan out whenever the matrix is big enough to care.
  if (WorthParallel(2 * k * n, n_panels)) {
    ParallelForCompute(n_panels, pack_range);
  } else {
    pack_range(0, n_panels);
  }
  pack->role_ = PackedMatrix::Role::kB;
  pack->trans_ = trans_b;
  pack->rows_ = k;
  pack->cols_ = n;
  pack->ld_ = ldb;
  pack->panel_ = nr;
  pack->src_ = b;
  pack->packed_floats_ = total;
  pack->generation_ = WeightGeneration();
  g_stats.packs.fetch_add(1, std::memory_order_relaxed);
  g_stats.packed_floats.fetch_add(static_cast<uint64_t>(total),
                            std::memory_order_relaxed);
}

bool EnsurePackedB(bool trans_b, int64_t k, int64_t n, const float* b,
                   int64_t ldb, PackedMatrix* pack) {
  MS_CHECK(pack != nullptr);
  if (pack->role_ == PackedMatrix::Role::kB && pack->trans_ == trans_b &&
      pack->rows_ == k && pack->cols_ == n && pack->ld_ == ldb &&
      pack->src_ == b && pack->generation_ == WeightGeneration()) {
    g_stats.hits.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  PackB(trans_b, k, n, b, ldb, pack);
  return true;
}

void GemmPrepackedB(bool trans_a, int64_t m, int64_t n, int64_t k,
                    float alpha, const float* a, int64_t lda,
                    const PackedMatrix& bpack, float beta, float* c,
                    int64_t ldc, const Epilogue& epi) {
  using detail::CeilDiv;
  MS_CHECK(bpack.role_ == PackedMatrix::Role::kB);
  MS_CHECK(k <= bpack.rows_ && n <= bpack.cols_);
  if (m <= 0 || n <= 0) return;
  g_stats.prepacked_calls.fetch_add(1, std::memory_order_relaxed);
  if (k <= 0) {
    BetaMergeEpi(m, n, beta, c, ldc, epi);
    return;
  }
  const detail::MicroKernelDesc& kd = detail::ActiveKernel();
  const int nr = kd.nr;
  const int mr = kd.mr;
  MS_CHECK(bpack.panel_ == nr);
  // Panel stride uses the PACKED k (full weight), not the sliced k: a
  // k-prefix reads the first k*nr floats of each panel.
  const int64_t pstride = bpack.rows_ * nr;
  const int64_t n_panels = CeilDiv(n, nr);
  const int64_t flops = 2 * m * n * k;

  if (m <= kd.skinny_max_m) {
    // Skinny fast path: no A packing. Each panel yields one m x nr tile;
    // panels are independent, so any partition is bitwise identical.
    auto run = [&](int64_t p0, int64_t p1) {
      alignas(64) float acc[detail::kMaxMr * detail::kMaxNr];
      for (int64_t pj = p0; pj < p1; ++pj) {
        kd.skinny(k, static_cast<int>(m), trans_a, a, lda, alpha,
                  bpack.data_ + pj * pstride, acc);
        const int64_t j0 = pj * nr;
        if (epi.empty()) {
          detail::MergeTile(acc, nr, 0, m, j0,
                            std::min<int64_t>(nr, n - j0), beta, c, ldc);
        } else {
          detail::MergeTileEpi(acc, nr, 0, m, j0,
                               std::min<int64_t>(nr, n - j0), beta, c, ldc,
                               epi);
        }
      }
    };
    if (WorthParallel(flops, n_panels)) {
      ParallelForCompute(n_panels, run);
    } else {
      run(0, n_panels);
    }
    return;
  }

  // General path: pack op(A) per call (it is the activation, different
  // every time), then walk the same fixed cell grid as Gemm against the
  // prepacked panels.
  const int64_t m_bands = CeilDiv(m, detail::kMC);
  const int64_t n_bands = CeilDiv(n, detail::kNC);
  const int64_t band_stride_a = CeilDiv(detail::kMC, mr) * mr * k;

  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  float* apack = arena.Alloc(m_bands * band_stride_a);

  auto pack_a = [&](int64_t b0, int64_t b1) {
    for (int64_t band = b0; band < b1; ++band) {
      const int64_t i0 = band * detail::kMC;
      detail::PackABand(trans_a, a, lda, i0,
                        std::min<int64_t>(detail::kMC, m - i0), k, alpha,
                        mr, apack + band * band_stride_a);
    }
  };
  auto compute_cells = [&](int64_t c0, int64_t c1) {
    alignas(64) float acc[detail::kMaxMr * detail::kMaxNr];
    for (int64_t cell = c0; cell < c1; ++cell) {
      const int64_t bi = cell / n_bands;
      const int64_t bj = cell % n_bands;
      const int64_t i_base = bi * detail::kMC;
      const int64_t rows = std::min<int64_t>(detail::kMC, m - i_base);
      const int64_t j_base = bj * detail::kNC;
      const int64_t cols = std::min<int64_t>(detail::kNC, n - j_base);
      for (int64_t pj = j_base / nr; pj * nr < j_base + cols; ++pj) {
        const float* bpanel = bpack.data_ + pj * pstride;
        const int64_t j0 = pj * nr;
        const int64_t live_cols = std::min<int64_t>(nr, n - j0);
        for (int64_t pi = 0; pi * mr < rows; ++pi) {
          kd.kernel(k, apack + bi * band_stride_a + pi * mr * k, bpanel,
                    acc);
          if (epi.empty()) {
            detail::MergeTile(acc, nr, i_base + pi * mr,
                              std::min<int64_t>(mr, rows - pi * mr), j0,
                              live_cols, beta, c, ldc);
          } else {
            detail::MergeTileEpi(acc, nr, i_base + pi * mr,
                                 std::min<int64_t>(mr, rows - pi * mr), j0,
                                 live_cols, beta, c, ldc, epi);
          }
        }
      }
    }
  };

  if (WorthParallel(flops, m_bands * n_bands)) {
    ParallelForCompute(m_bands, pack_a);
    ParallelForCompute(m_bands * n_bands, compute_cells);
  } else {
    pack_a(0, m_bands);
    compute_cells(0, m_bands * n_bands);
  }
}

// ---------------------------------------------------------------------------
// A role: bands of kMC rows, each band ceil(kMC/mr) panels of mr rows x
// k_full, band stride fixed by the FULL extents so an m-prefix is a prefix
// of bands/panels and a k-prefix is a within-panel row prefix. Panels hold
// 1*w — exactly what Gemm packs for alpha == 1, the only alpha the conv
// layers use.

void PackA(bool trans_a, int64_t m, int64_t k, const float* a, int64_t lda,
           PackedMatrix* pack) {
  MS_CHECK(pack != nullptr && a != nullptr);
  MS_CHECK(m >= 1 && k >= 1 && lda >= 1);
  const detail::MicroKernelDesc& kd = detail::ActiveKernel();
  const int mr = kd.mr;
  const int64_t m_bands = detail::CeilDiv(m, detail::kMC);
  const int64_t band_stride = detail::CeilDiv(detail::kMC, mr) * mr * k;
  const int64_t total = m_bands * band_stride;
  float* out = pack->Reserve(total);
  for (int64_t band = 0; band < m_bands; ++band) {
    const int64_t i0 = band * detail::kMC;
    detail::PackABand(trans_a, a, lda, i0,
                      std::min<int64_t>(detail::kMC, m - i0), k, 1.0f, mr,
                      out + band * band_stride);
  }
  pack->role_ = PackedMatrix::Role::kA;
  pack->trans_ = trans_a;
  pack->rows_ = m;
  pack->cols_ = k;
  pack->ld_ = lda;
  pack->panel_ = mr;
  pack->src_ = a;
  pack->packed_floats_ = total;
  pack->generation_ = WeightGeneration();
  g_stats.packs.fetch_add(1, std::memory_order_relaxed);
  g_stats.packed_floats.fetch_add(static_cast<uint64_t>(total),
                            std::memory_order_relaxed);
}

bool EnsurePackedA(bool trans_a, int64_t m, int64_t k, const float* a,
                   int64_t lda, PackedMatrix* pack) {
  MS_CHECK(pack != nullptr);
  if (pack->role_ == PackedMatrix::Role::kA && pack->trans_ == trans_a &&
      pack->rows_ == m && pack->cols_ == k && pack->ld_ == lda &&
      pack->src_ == a && pack->generation_ == WeightGeneration()) {
    g_stats.hits.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  PackA(trans_a, m, k, a, lda, pack);
  return true;
}

namespace {

void MergeAny(const float* acc, int nr, int64_t i0, int64_t rows, int64_t j0,
              int64_t cols, float beta, float* c, int64_t ldc,
              const Epilogue& epi) {
  if (epi.empty()) {
    detail::MergeTile(acc, nr, i0, rows, j0, cols, beta, c, ldc);
  } else {
    detail::MergeTileEpi(acc, nr, i0, rows, j0, cols, beta, c, ldc, epi);
  }
}

/// One B panel row per tap: the nr floats of the wide grid from j0 are
/// contiguous in the source row, so full panels copy with one fixed-size
/// memcpy per row; the ragged last panel zero-pads like PackBPanel.
template <int NR>
void PackViewPanel(const ColsView& b, int64_t j0, int64_t live, int64_t k,
                   float* dst) {
  if (live == NR) {
    for (int64_t p = 0; p < k; ++p) {
      std::memcpy(dst + p * NR, b.row(p) + j0, NR * sizeof(float));
    }
    return;
  }
  for (int64_t p = 0; p < k; ++p) {
    float* row = dst + p * NR;
    std::memcpy(row, b.row(p) + j0, static_cast<size_t>(live) * sizeof(float));
    std::fill(row + live, row + NR, 0.0f);
  }
}

/// The fixed (kMC x kNC) cell walk shared by both GemmPrepackedA forms, over
/// n B columns: pack_panel(pj, dst) writes B panel pj (k * nr floats), then
/// merge(acc, i0, rows, j0, live) settles each accumulator tile of C rows
/// [i0, i0 + rows) and B columns [j0, j0 + live).
template <class PackPanel, class Merge>
void PrepackedAWalk(int64_t m, int64_t n, int64_t k, const float* apanels,
                    int64_t packed_k, const PackPanel& pack_panel,
                    const Merge& merge) {
  using detail::CeilDiv;
  const detail::MicroKernelDesc& kd = detail::ActiveKernel();
  const int nr = kd.nr;
  const int mr = kd.mr;
  // Within-band panel stride and band stride are fixed by the FULL packed
  // extents; sliced k reads a row prefix of each mr-wide panel.
  const int64_t panel_stride = mr * packed_k;
  const int64_t band_stride = CeilDiv(detail::kMC, mr) * panel_stride;

  const int64_t m_bands = CeilDiv(m, detail::kMC);
  const int64_t n_bands = CeilDiv(n, detail::kNC);
  const int64_t n_panels = CeilDiv(n, nr);
  const int64_t flops = 2 * m * n * k;

  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  float* bpack = arena.Alloc(n_panels * nr * k);

  auto pack_b = [&](int64_t p0, int64_t p1) {
    for (int64_t pj = p0; pj < p1; ++pj) pack_panel(pj, bpack + pj * nr * k);
  };
  auto compute_cells = [&](int64_t c0, int64_t c1) {
    alignas(64) float acc[detail::kMaxMr * detail::kMaxNr];
    for (int64_t cell = c0; cell < c1; ++cell) {
      const int64_t bi = cell / n_bands;
      const int64_t bj = cell % n_bands;
      const int64_t i_base = bi * detail::kMC;
      const int64_t rows = std::min<int64_t>(detail::kMC, m - i_base);
      const int64_t j_base = bj * detail::kNC;
      const int64_t cols = std::min<int64_t>(detail::kNC, n - j_base);
      for (int64_t pj = j_base / nr; pj * nr < j_base + cols; ++pj) {
        const float* bpanel = bpack + pj * nr * k;
        const int64_t j0 = pj * nr;
        const int64_t live_cols = std::min<int64_t>(nr, n - j0);
        for (int64_t pi = 0; pi * mr < rows; ++pi) {
          // Rows past m in the last live panel hold real (full-weight)
          // values rather than Gemm's zero padding; the merge's row count
          // discards them identically.
          kd.kernel(k, apanels + bi * band_stride + pi * panel_stride, bpanel,
                    acc);
          merge(acc, i_base + pi * mr, std::min<int64_t>(mr, rows - pi * mr),
                j0, live_cols);
        }
      }
    }
  };

  if (WorthParallel(flops, m_bands * n_bands)) {
    ParallelForCompute(n_panels, pack_b);
    ParallelForCompute(m_bands * n_bands, compute_cells);
  } else {
    pack_b(0, n_panels);
    compute_cells(0, m_bands * n_bands);
  }
}

}  // namespace

void GemmPrepackedA(int64_t m, int64_t n, int64_t k,
                    const PackedMatrix& apack, bool trans_b, const float* b,
                    int64_t ldb, float beta, float* c, int64_t ldc,
                    const Epilogue& epi) {
  MS_CHECK(apack.role_ == PackedMatrix::Role::kA);
  MS_CHECK(m <= apack.rows_ && k <= apack.cols_);
  if (m <= 0 || n <= 0) return;
  g_stats.prepacked_calls.fetch_add(1, std::memory_order_relaxed);
  if (k <= 0) {
    BetaMergeEpi(m, n, beta, c, ldc, epi);
    return;
  }
  MS_CHECK(apack.panel_ == detail::ActiveKernel().mr);
  const int nr = detail::ActiveKernel().nr;
  PrepackedAWalk(
      m, n, k, apack.data_, apack.cols_,
      [&](int64_t pj, float* dst) {
        const int64_t j0 = pj * nr;
        detail::PackBPanel(trans_b, b, ldb, j0, std::min<int64_t>(nr, n - j0),
                           k, nr, dst);
      },
      [&](const float* acc, int64_t i0, int64_t rows, int64_t j0,
          int64_t live) {
        MergeAny(acc, nr, i0, rows, j0, live, beta, c, ldc, epi);
      });
}

void GemmPrepackedA(int64_t m, int64_t k, const PackedMatrix& apack,
                    const ColsView& b, float beta, float* c, int64_t ldc,
                    const Epilogue& epi) {
  MS_CHECK(apack.role_ == PackedMatrix::Role::kA);
  MS_CHECK(m <= apack.rows_ && k <= apack.cols_);
  const int64_t n = b.cols();
  if (m <= 0 || n <= 0) return;
  g_stats.prepacked_calls.fetch_add(1, std::memory_order_relaxed);
  if (k <= 0) {
    BetaMergeEpi(m, n, beta, c, ldc, epi);
    return;
  }
  MS_CHECK(apack.panel_ == detail::ActiveKernel().mr);
  const int nr = detail::ActiveKernel().nr;
  const int64_t wide = b.wide_cols();
  auto pack_panel = [&](int64_t pj, float* dst) {
    const int64_t j0 = pj * nr;
    const int64_t live = std::min<int64_t>(nr, wide - j0);
    if (nr == 16) {
      PackViewPanel<16>(b, j0, live, k, dst);
    } else {
      PackViewPanel<8>(b, j0, live, k, dst);
    }
  };
  // Wide column q = oi * pitch + oj is output pixel oi * out_w + oj when
  // oj < out_w; the tile merges once per run of such columns.
  auto merge = [&](const float* acc, int64_t i0, int64_t rows, int64_t j0,
                   int64_t live) {
    const int64_t end = j0 + live;
    for (int64_t q = j0; q < end;) {
      const int64_t oi = q / b.pitch;
      const int64_t oj = q - oi * b.pitch;
      if (oj >= b.out_w) {
        q = (oi + 1) * b.pitch;
        continue;
      }
      const int64_t run = std::min(end, oi * b.pitch + b.out_w) - q;
      MergeAny(acc + (q - j0), nr, i0, rows, oi * b.out_w + oj, run, beta, c,
               ldc, epi);
      q += run;
    }
  };
  PrepackedAWalk(m, wide, k, apack.data_, apack.cols_, pack_panel, merge);
}

// ---------------------------------------------------------------------------

PackStats GetPackStats() {
  auto load = [](const std::atomic<uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  PackStats s;
  s.packs = load(g_stats.packs);
  s.packed_floats = load(g_stats.packed_floats);
  s.hits = load(g_stats.hits);
  s.prepacked_calls = load(g_stats.prepacked_calls);
  s.quant_packs = load(g_stats.quant_packs);
  s.quant_packed_bytes = load(g_stats.quant_packed_bytes);
  s.quant_hits = load(g_stats.quant_hits);
  s.quantized_calls = load(g_stats.quantized_calls);
  return s;
}

uint64_t TotalPackCount() {
  const PackStats s = GetPackStats();
  return s.packs + s.quant_packs;
}

void PublishPackMetrics() {
  const PackStats s = GetPackStats();
  auto& registry = obs::MetricsRegistry::Global();
  auto set = [&](const char* name, double v) {
    registry.GetGauge(name)->Set(v);
  };
  set("ms_gemm_pack_count", static_cast<double>(s.packs));
  set("ms_gemm_pack_bytes",
      static_cast<double>(s.packed_floats) * sizeof(float));
  set("ms_gemm_pack_hits", static_cast<double>(s.hits));
  set("ms_gemm_prepacked_calls", static_cast<double>(s.prepacked_calls));
  set("ms_quant_pack_count", static_cast<double>(s.quant_packs));
  set("ms_quant_pack_bytes", static_cast<double>(s.quant_packed_bytes));
  set("ms_quant_pack_hits", static_cast<double>(s.quant_hits));
  set("ms_quant_gemm_calls", static_cast<double>(s.quantized_calls));
}

}  // namespace ops
}  // namespace ms
