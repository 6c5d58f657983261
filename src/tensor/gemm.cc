// Packed, cache-blocked, thread-parallel GEMM driver. See gemm.h for the
// determinism contract and DESIGN.md "Kernel layer" for the layout.
//
// Structure per call (above the tiny-problem GemmRef fallback):
//   1. pack op(A) row bands (kMC rows) into panel-major buffers with alpha
//      pre-applied and rows zero-padded to the microkernel height,
//   2. pack op(B) into nr-wide column panels, zero-padded,
//   3. walk the fixed (band x band) grid of C; each cell runs the
//      microkernel over its tiles and merges into its disjoint C region.
// Phases 1-3 each ParallelFor over the compute pool; every task writes a
// disjoint output range, so results are bitwise independent of the
// partition. The library is compiled with -ffp-contract=off so the portable
// kernel, reference, and skinny kernel keep the exact mul+add sequence on
// any -march. The packing/merge helpers and the block constants live in
// gemm_internal.h so prepack.cc produces panel-compatible buffers.
#include "src/tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "src/tensor/gemm_internal.h"
#include "src/tensor/scratch.h"
#include "src/util/thread_pool.h"

namespace ms {
namespace ops {
namespace {

// ---------------------------------------------------------------------------
// Process-wide compute pool (MS_NUM_THREADS override; 1 disables it). It
// holds ComputeThreads() - 1 workers: the thread that calls ParallelFor
// runs one shard itself, so at most ComputeThreads() threads run shards.

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool_storage;           // guarded by g_pool_mu
std::atomic<ThreadPool*> g_pool{nullptr};
std::atomic<int> g_threads{0};                        // 0 = uninitialized

int EnvThreads() {
  if (const char* env = std::getenv("MS_NUM_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

void InitPoolOnce() {
  if (g_threads.load(std::memory_order_acquire) != 0) return;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_threads.load(std::memory_order_relaxed) != 0) return;
  const int t = EnvThreads();
  if (t > 1) {
    g_pool_storage = std::make_unique<ThreadPool>(t - 1);
    g_pool.store(g_pool_storage.get(), std::memory_order_release);
  }
  g_threads.store(t, std::memory_order_release);
}

ThreadPool* Pool() {
  InitPoolOnce();
  return g_pool.load(std::memory_order_acquire);
}

// Portable register-tiled microkernel; the compiler vectorizes the NR
// loop. Separate mul and add (the library builds with -ffp-contract=off), so
// every element sees the exact acc += (alpha*a)*b sequence of the
// portable GemmRef.
template <int MR, int NR>
void MicroKernelPortable(int64_t k, const float* ap, const float* bp,
                         float* acc) {
  float c[MR][NR] = {};
  for (int64_t p = 0; p < k; ++p) {
    for (int i = 0; i < MR; ++i) {
      const float av = ap[i];
      for (int j = 0; j < NR; ++j) c[i][j] += av * bp[j];
    }
    ap += MR;
    bp += NR;
  }
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < NR; ++j) acc[i * NR + j] = c[i][j];
  }
}

// Portable skinny-M kernel: op(A) rows are read strided from the caller's
// matrix (no packing), alpha rounds once into the broadcast value — the
// same t_p = (alpha*a)*b mul+add sequence as MicroKernelPortable.
template <int NR>
void SkinnyKernelPortable(int64_t k, int m, bool trans_a, const float* a,
                          int64_t lda, float alpha, const float* bp,
                          float* acc) {
  float c[detail::kMaxMr][NR] = {};
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = bp + p * NR;
    for (int i = 0; i < m; ++i) {
      const float av =
          alpha * (trans_a ? a[p * lda + i] : a[i * lda + p]);
      for (int j = 0; j < NR; ++j) c[i][j] += av * brow[j];
    }
  }
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < NR; ++j) acc[i * NR + j] = c[i][j];
  }
}

void GemmRefPortable(bool trans_a, bool trans_b, int64_t m, int64_t n,
                     int64_t k, float alpha, const float* a, int64_t lda,
                     const float* b, int64_t ldb, float beta, float* c,
                     int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += (alpha * av) * bv;
      }
      float* cij = c + i * ldc + j;
      *cij = (beta == 0.0f) ? acc
                            : (beta == 1.0f ? *cij + acc
                                            : beta * *cij + acc);
    }
  }
}

}  // namespace

namespace detail {

const MicroKernelDesc& ActiveKernel() {
  static const MicroKernelDesc desc = [] {
    if (const MicroKernelDesc* avx = Avx2Kernel()) {
      return *avx;
    }
    return MicroKernelDesc{4, 8, &MicroKernelPortable<4, 8>,
                           &GemmRefPortable, &SkinnyKernelPortable<8>, 8};
  }();
  return desc;
}

// ---------------------------------------------------------------------------
// Packing. alpha is applied to A here (rounded once, matching the
// reference's (alpha*a)*b order); padding rows/cols are zero so padded
// lanes never contaminate live outputs.

void PackABand(bool trans_a, const float* a, int64_t lda, int64_t i0,
               int64_t rows, int64_t k, float alpha, int mr, float* out) {
  for (int64_t base = 0; base < rows; base += mr) {
    const int64_t live = std::min<int64_t>(mr, rows - base);
    float* dst = out + (base / mr) * k * mr;
    if (!trans_a) {
      for (int64_t ii = 0; ii < live; ++ii) {
        const float* src = a + (i0 + base + ii) * lda;
        for (int64_t p = 0; p < k; ++p) dst[p * mr + ii] = alpha * src[p];
      }
    } else {
      // A is stored (K, M): a[p * lda + i].
      for (int64_t p = 0; p < k; ++p) {
        const float* src = a + p * lda + i0 + base;
        for (int64_t ii = 0; ii < live; ++ii) {
          dst[p * mr + ii] = alpha * src[ii];
        }
      }
    }
    for (int64_t ii = live; ii < mr; ++ii) {
      for (int64_t p = 0; p < k; ++p) dst[p * mr + ii] = 0.0f;
    }
  }
}

void PackBPanel(bool trans_b, const float* b, int64_t ldb, int64_t j0,
                int64_t cols, int64_t k, int nr, float* dst) {
  if (!trans_b) {
    // B is stored (K, N): b[p * ldb + j].
    for (int64_t p = 0; p < k; ++p) {
      const float* src = b + p * ldb + j0;
      float* row = dst + p * nr;
      for (int64_t jj = 0; jj < cols; ++jj) row[jj] = src[jj];
      for (int64_t jj = cols; jj < nr; ++jj) row[jj] = 0.0f;
    }
  } else {
    // B is stored (N, K): b[j * ldb + p].
    for (int64_t jj = 0; jj < cols; ++jj) {
      const float* src = b + (j0 + jj) * ldb;
      for (int64_t p = 0; p < k; ++p) dst[p * nr + jj] = src[p];
    }
    for (int64_t jj = cols; jj < nr; ++jj) {
      for (int64_t p = 0; p < k; ++p) dst[p * nr + jj] = 0.0f;
    }
  }
}

void MergeTile(const float* acc, int nr, int64_t i0, int64_t rows,
               int64_t j0, int64_t cols, float beta, float* c, int64_t ldc) {
  for (int64_t ii = 0; ii < rows; ++ii) {
    const float* arow = acc + ii * nr;
    float* crow = c + (i0 + ii) * ldc + j0;
    if (beta == 0.0f) {
      for (int64_t jj = 0; jj < cols; ++jj) crow[jj] = arow[jj];
    } else if (beta == 1.0f) {
      for (int64_t jj = 0; jj < cols; ++jj) crow[jj] += arow[jj];
    } else {
      for (int64_t jj = 0; jj < cols; ++jj) {
        crow[jj] = beta * crow[jj] + arow[jj];
      }
    }
  }
}

// Merge + epilogue in one pass over the tile, fully specialized on the
// descriptor config so the hot loops carry no per-element branches and
// stay vectorizable (acc never aliases C — it is the kernel's private
// accumulator — and the Epilogue vectors must not alias C either, per
// the descriptor contract). Per-element op order is exactly the scalar
// path's: beta merge, bias, scale-shift, activation. This TU builds with
// -ffp-contract=off, so none of those steps contract.
template <bool kBias, bool kScale, bool kPerRow, EpiAct Act>
void MergeTileEpiT(const float* __restrict__ acc, int nr, int64_t i0,
                   int64_t rows, int64_t j0, int64_t cols, float beta,
                   float* c, int64_t ldc, const Epilogue& epi) {
  const float* __restrict__ bias_v =
      kBias && !kPerRow ? epi.bias + j0 : nullptr;
  const float* __restrict__ scale_v =
      kScale && !kPerRow ? epi.scale + j0 : nullptr;
  const float* __restrict__ shift_v =
      kScale && !kPerRow ? epi.shift + j0 : nullptr;
  for (int64_t ii = 0; ii < rows; ++ii) {
    const float* __restrict__ arow = acc + ii * nr;
    float* __restrict__ crow = c + (i0 + ii) * ldc + j0;
    const int64_t i = i0 + ii;
    const float bias_c = kBias && kPerRow ? epi.bias[i] : 0.0f;
    const float scale_c = kScale && kPerRow ? epi.scale[i] : 0.0f;
    const float shift_c = kScale && kPerRow ? epi.shift[i] : 0.0f;
    auto apply = [&](int64_t jj, float x) {
      if constexpr (kBias) {
        if constexpr (kPerRow) {
          x += bias_c;
        } else {
          x += bias_v[jj];
        }
      }
      if constexpr (kScale) {
        if constexpr (kPerRow) {
          x = x * scale_c + shift_c;
        } else {
          x = x * scale_v[jj] + shift_v[jj];
        }
      }
      return EpiActApplyCT<Act>(x);
    };
    if (beta == 0.0f) {
      for (int64_t jj = 0; jj < cols; ++jj) crow[jj] = apply(jj, arow[jj]);
    } else if (beta == 1.0f) {
      for (int64_t jj = 0; jj < cols; ++jj) {
        crow[jj] = apply(jj, crow[jj] + arow[jj]);
      }
    } else {
      for (int64_t jj = 0; jj < cols; ++jj) {
        crow[jj] = apply(jj, beta * crow[jj] + arow[jj]);
      }
    }
  }
}

template <bool kBias, bool kScale, bool kPerRow>
void MergeTileEpiAct(const float* acc, int nr, int64_t i0, int64_t rows,
                     int64_t j0, int64_t cols, float beta, float* c,
                     int64_t ldc, const Epilogue& epi) {
  switch (epi.act) {
    case EpiAct::kRelu:
      MergeTileEpiT<kBias, kScale, kPerRow, EpiAct::kRelu>(
          acc, nr, i0, rows, j0, cols, beta, c, ldc, epi);
      break;
    case EpiAct::kSigmoid:
      MergeTileEpiT<kBias, kScale, kPerRow, EpiAct::kSigmoid>(
          acc, nr, i0, rows, j0, cols, beta, c, ldc, epi);
      break;
    case EpiAct::kTanh:
      MergeTileEpiT<kBias, kScale, kPerRow, EpiAct::kTanh>(
          acc, nr, i0, rows, j0, cols, beta, c, ldc, epi);
      break;
    case EpiAct::kNone:
      MergeTileEpiT<kBias, kScale, kPerRow, EpiAct::kNone>(
          acc, nr, i0, rows, j0, cols, beta, c, ldc, epi);
      break;
  }
}

void MergeTileEpi(const float* acc, int nr, int64_t i0, int64_t rows,
                  int64_t j0, int64_t cols, float beta, float* c,
                  int64_t ldc, const Epilogue& epi) {
  // One dispatch per tile, then branch-free specialized loops.
  const int cfg = (epi.bias != nullptr ? 1 : 0) |
                  (epi.scale != nullptr ? 2 : 0) | (epi.per_row ? 4 : 0);
  switch (cfg) {
    case 0:
    case 4:
      MergeTileEpiAct<false, false, false>(acc, nr, i0, rows, j0, cols,
                                           beta, c, ldc, epi);
      break;
    case 1:
      MergeTileEpiAct<true, false, false>(acc, nr, i0, rows, j0, cols, beta,
                                          c, ldc, epi);
      break;
    case 2:
      MergeTileEpiAct<false, true, false>(acc, nr, i0, rows, j0, cols, beta,
                                          c, ldc, epi);
      break;
    case 3:
      MergeTileEpiAct<true, true, false>(acc, nr, i0, rows, j0, cols, beta,
                                         c, ldc, epi);
      break;
    case 5:
      MergeTileEpiAct<true, false, true>(acc, nr, i0, rows, j0, cols, beta,
                                         c, ldc, epi);
      break;
    case 6:
      MergeTileEpiAct<false, true, true>(acc, nr, i0, rows, j0, cols, beta,
                                         c, ldc, epi);
      break;
    default:
      MergeTileEpiAct<true, true, true>(acc, nr, i0, rows, j0, cols, beta,
                                        c, ldc, epi);
      break;
  }
}

}  // namespace detail

int ComputeThreads() {
  InitPoolOnce();
  return g_threads.load(std::memory_order_acquire);
}

void SetComputeThreads(int n) {
  if (n < 1) n = 1;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_pool.store(nullptr, std::memory_order_release);
  g_pool_storage.reset();  // joins the old workers
  if (n > 1) {
    g_pool_storage = std::make_unique<ThreadPool>(n - 1);
    g_pool.store(g_pool_storage.get(), std::memory_order_release);
  }
  g_threads.store(n, std::memory_order_release);
}

bool GemmHasAvx2() { return detail::Avx2Kernel() != nullptr; }

void ParallelForCompute(int64_t n,
                        const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  ThreadPool* pool = Pool();
  if (pool == nullptr || n == 1 || ThreadPool::InWorkerThread()) {
    fn(0, n);
    return;
  }
  pool->ParallelFor(n, fn);
}

void GemmRef(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, int64_t lda, const float* b,
             int64_t ldb, float beta, float* c, int64_t ldc,
             const Epilogue& epi) {
  detail::ActiveKernel().ref(trans_a, trans_b, m, n, k, alpha, a, lda, b,
                             ldb, beta, c, ldc);
  if (epi.empty()) return;
  // Post-pass: each element was merged exactly once above, so applying
  // the epilogue here is bitwise identical to applying it at merge time.
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      crow[j] = detail::EpiApply(epi, i, j, crow[j]);
    }
  }
}

void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, int64_t lda, const float* b,
          int64_t ldb, float beta, float* c, int64_t ldc,
          const Epilogue& epi) {
  using detail::CeilDiv;
  using detail::kMC;
  using detail::kNC;
  if (m <= 0 || n <= 0) return;
  const int64_t flops = 2 * m * n * k;
  if (k <= 0 || flops < detail::kTinyFlops) {
    // Bitwise identical to the packed path (shared per-element contract).
    GemmRef(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
            epi);
    return;
  }

  const detail::MicroKernelDesc& kd = detail::ActiveKernel();
  const int mr = kd.mr;
  const int nr = kd.nr;

  const int64_t m_bands = CeilDiv(m, kMC);
  const int64_t n_bands = CeilDiv(n, kNC);
  const int64_t n_panels = CeilDiv(n, nr);
  const int64_t band_stride_a = CeilDiv(kMC, mr) * mr * k;

  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  float* apack = arena.Alloc(m_bands * band_stride_a);
  float* bpack = arena.Alloc(n_panels * nr * k);

  auto pack_a = [&](int64_t b0, int64_t b1) {
    for (int64_t band = b0; band < b1; ++band) {
      const int64_t i0 = band * kMC;
      detail::PackABand(trans_a, a, lda, i0,
                        std::min<int64_t>(kMC, m - i0), k, alpha, mr,
                        apack + band * band_stride_a);
    }
  };
  auto pack_b = [&](int64_t p0, int64_t p1) {
    for (int64_t pj = p0; pj < p1; ++pj) {
      const int64_t j0 = pj * nr;
      detail::PackBPanel(trans_b, b, ldb, j0,
                         std::min<int64_t>(nr, n - j0), k, nr,
                         bpack + pj * nr * k);
    }
  };
  auto compute_cells = [&](int64_t c0, int64_t c1) {
    alignas(64) float acc[detail::kMaxMr * detail::kMaxNr];
    for (int64_t cell = c0; cell < c1; ++cell) {
      const int64_t bi = cell / n_bands;
      const int64_t bj = cell % n_bands;
      const int64_t i_base = bi * kMC;
      const int64_t rows = std::min<int64_t>(kMC, m - i_base);
      const int64_t j_base = bj * kNC;
      const int64_t cols = std::min<int64_t>(kNC, n - j_base);
      // B panel outer so each k*nr panel stays hot across the A panels.
      for (int64_t pj = j_base / nr; pj * nr < j_base + cols; ++pj) {
        const float* bpanel = bpack + pj * nr * k;
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

  ThreadPool* pool = Pool();
  const bool parallel = pool != nullptr && !ThreadPool::InWorkerThread() &&
                        flops >= detail::kParallelFlops &&
                        m_bands * n_bands > 1;
  if (parallel) {
    pool->ParallelFor(m_bands, pack_a);
    pool->ParallelFor(n_panels, pack_b);
    pool->ParallelFor(m_bands * n_bands, compute_cells);
  } else {
    pack_a(0, m_bands);
    pack_b(0, n_panels);
    compute_cells(0, m_bands * n_bands);
  }
}

}  // namespace ops
}  // namespace ms
