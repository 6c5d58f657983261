// Oracle + staleness suite for the quantized prepacked layer
// (src/tensor/quant.{h,cc}).
//
// The contract under test (quant.h, DESIGN.md §11):
//   * GemmQuantizedB reproduces the exact integer contraction: an
//     independently computed int64 reference over the same quantized
//     values matches within float-epilogue rounding only.
//   * The quantization error against a float64 oracle of the ORIGINAL
//     matrices stays inside the analytic per-element bound.
//   * Slicing a quantized pack (k on a group boundary, n any prefix) is
//     bitwise identical to quantizing the sliced weights from scratch —
//     the per-(segment, column) scale layout is what buys this.
//   * Results are bitwise identical at every thread count, transpose
//     flavor, and beta in {0, 1}; GemmQuantizedWeightA is the same
//     contraction as GemmQuantizedB modulo the transposed merge, and the
//     vector column quantizer returns the scalar one's bits.
//   * EnsureQuantizedB re-packs exactly when the cache key or the
//     process-wide weight generation changed (SGD::Step, LoadParams).
//   * Int8 inference at every trained rate stays within a stated top-1
//     tolerance of fp32 on the seed CNN (module-level sweep).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/evaluator.h"
#include "src/core/trainer.h"
#include "src/models/cnn.h"
#include "src/nn/dense.h"
#include "src/nn/module.h"
#include "src/nn/serialize.h"
#include "src/optim/sgd.h"
#include "src/tensor/cols_view.h"
#include "src/tensor/gemm.h"
#include "src/tensor/gemm_internal.h"
#include "src/tensor/prepack.h"
#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace ms {
namespace {

using ops::EnsureQuantizedB;
using ops::GemmQuantizedB;
using ops::GemmQuantizedWeightA;
using ops::QuantizedPack;
using ops::QuantizePackB;

int8_t QuantRef(float v, float inv_scale) {
  const long q = std::lrintf(v * inv_scale);
  return static_cast<int8_t>(q < -127 ? -127 : (q > 127 ? 127 : q));
}

// Asymmetric 7-bit activation rule (quant.h): code in [0, 127] against a
// per-row affine (lo, scale).
int64_t QuantRefU7(float v, float lo, float inv_scale) {
  const long q = std::lrintf((v - lo) * inv_scale);
  return q < 0 ? 0 : (q > 127 ? 127 : q);
}

// Group ends for k split into `groups` roughly equal segments (the same
// llround boundary rule SliceSpec uses).
std::vector<int64_t> Ends(int64_t k, int64_t groups) {
  std::vector<int64_t> ends;
  for (int64_t g = 1; g <= groups; ++g) {
    ends.push_back(static_cast<int64_t>(
        std::llround(static_cast<double>(k) * g / groups)));
  }
  return ends;
}

struct QuantOracle {
  std::vector<double> exact;  // dequantized integer contraction, fp64
  std::vector<double> truth;  // fp64 contraction of the original floats
  std::vector<double> bound;  // analytic |quantized - truth| bound
};

// Recomputes, in plain test-local code, everything GemmQuantizedB is
// specified to do: per-(segment, column) weight scales over op(B), per-row
// asymmetric 7-bit activation affines over op(A)'s active k, lrintf
// quantization, exact int64 contraction with the zero-point colsum
// correction, fp64 dequant. Also the fp64 truth and the analytic error
// bound sum_p (0.5*as_i*(|b| + 0.5*bs_g) + 0.5*bs_g*|a|).
QuantOracle Oracle(bool trans_a, bool trans_b, int64_t m, int64_t n,
                   int64_t k, float alpha, const float* a, int64_t lda,
                   const float* b, int64_t ldb,
                   const std::vector<int64_t>& ends) {
  auto av = [&](int64_t i, int64_t p) {
    return trans_a ? a[p * lda + i] : a[i * lda + p];
  };
  auto bv = [&](int64_t p, int64_t j) {
    return trans_b ? b[j * ldb + p] : b[p * ldb + j];
  };
  const int64_t groups = static_cast<int64_t>(ends.size());
  QuantOracle out;
  out.exact.assign(static_cast<size_t>(m * n), 0.0);
  out.truth.assign(static_cast<size_t>(m * n), 0.0);
  out.bound.assign(static_cast<size_t>(m * n), 0.0);
  // Weight scales per (segment, column), over the FULL segment.
  std::vector<float> bscale(static_cast<size_t>(groups * n), 0.0f);
  for (int64_t g = 0; g < groups; ++g) {
    const int64_t s0 = g > 0 ? ends[static_cast<size_t>(g - 1)] : 0;
    const int64_t s1 = ends[static_cast<size_t>(g)];
    for (int64_t j = 0; j < n; ++j) {
      float amax = 0.0f;
      for (int64_t p = s0; p < s1; ++p) {
        amax = std::max(amax, std::fabs(bv(p, j)));
      }
      bscale[static_cast<size_t>(g * n + j)] = amax / 127.0f;
    }
  }
  for (int64_t i = 0; i < m; ++i) {
    float lo = 0.0f, hi = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float v = av(i, p);
      if (p == 0 || v < lo) lo = v;
      if (p == 0 || v > hi) hi = v;
    }
    const float ascale = (hi - lo) / 127.0f;
    const float ainv = ascale > 0.0f ? 1.0f / ascale : 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      double exact = 0.0, truth = 0.0, bound = 0.0;
      for (int64_t g = 0; g < groups; ++g) {
        const int64_t s0 = g > 0 ? ends[static_cast<size_t>(g - 1)] : 0;
        const int64_t s1 = std::min(ends[static_cast<size_t>(g)], k);
        if (s0 >= k) break;
        const float bs = bscale[static_cast<size_t>(g * n + j)];
        const float binv = bs > 0.0f ? 1.0f / bs : 0.0f;
        int64_t acc = 0, csum = 0;
        for (int64_t p = s0; p < s1; ++p) {
          const float afv = av(i, p);
          const float bfv = bv(p, j);
          const int64_t bq = QuantRef(bfv, binv);
          acc += QuantRefU7(afv, lo, ainv) * bq;
          csum += bq;
          truth += static_cast<double>(alpha) * afv * bfv;
          bound += 0.5 * ascale * (std::fabs(bfv) + 0.5 * bs) +
                   0.5 * bs * std::fabs(afv);
        }
        // The zero-point correction: a = lo + ascale * q folds through the
        // contraction as lo * sum of quantized weights.
        exact += static_cast<double>(alpha) * bs *
                 (static_cast<double>(ascale) * static_cast<double>(acc) +
                  static_cast<double>(lo) * static_cast<double>(csum));
      }
      out.exact[static_cast<size_t>(i * n + j)] = exact;
      out.truth[static_cast<size_t>(i * n + j)] = truth;
      out.bound[static_cast<size_t>(i * n + j)] =
          std::fabs(static_cast<double>(alpha)) * bound;
    }
  }
  return out;
}

TEST(QuantPack, RoundTripWithinHalfScale) {
  ops::SetComputeThreads(1);
  Rng rng(11);
  const int64_t k = 37, n = 23;
  Tensor b = Tensor::Randn({k, n}, &rng);
  const std::vector<int64_t> ends = Ends(k, 4);
  QuantizedPack pack;
  QuantizePackB(false, k, n, b.data(), n, ends, &pack);
  EXPECT_EQ(pack.rows(), k);
  EXPECT_EQ(pack.cols(), n);
  EXPECT_EQ(pack.num_segments(), 4);
  // Every scale admits reconstruction within half a quantization step, and
  // each (segment, column) scale is exactly max|w|/127 over that segment.
  for (int64_t g = 0; g < 4; ++g) {
    const int64_t s0 = g > 0 ? ends[static_cast<size_t>(g - 1)] : 0;
    const int64_t s1 = ends[static_cast<size_t>(g)];
    for (int64_t j = 0; j < n; ++j) {
      float amax = 0.0f;
      for (int64_t p = s0; p < s1; ++p) {
        amax = std::max(amax, std::fabs(b.data()[p * n + j]));
      }
      EXPECT_FLOAT_EQ(pack.scale(g, j), amax / 127.0f);
      const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
      for (int64_t p = s0; p < s1; ++p) {
        const float v = b.data()[p * n + j];
        const float rec = static_cast<float>(QuantRef(v, inv)) *
                          pack.scale(g, j);
        EXPECT_LE(std::fabs(rec - v), 0.5f * pack.scale(g, j) + 1e-7f);
      }
    }
  }
}

TEST(QuantGemm, ExactIntegerContractionAndErrorBound) {
  ops::SetComputeThreads(1);
  Rng rng(13);
  const int64_t kfull = 70, nfull = 250;
  const std::vector<int64_t> ends = Ends(kfull, 5);
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      for (const int64_t m : {1, 5, 8, 13, 96}) {
        const int64_t lda = (trans_a ? m : kfull) + 3;
        const int64_t ldb = (trans_b ? kfull : nfull) + 2;
        Tensor a = Tensor::Randn({trans_a ? kfull : m, lda}, &rng);
        Tensor b = Tensor::Randn({trans_b ? nfull : kfull, ldb}, &rng);
        QuantizedPack pack;
        QuantizePackB(trans_b, kfull, nfull, b.data(), ldb, ends, &pack);
        for (const float alpha : {1.0f, 0.37f}) {
          // Slice both extents: k to a group boundary, n to any prefix.
          for (const int64_t k : {ends[1], kfull}) {
            for (const int64_t n : {int64_t{7}, nfull}) {
              Tensor c({m, n});
              GemmQuantizedB(trans_a, m, n, k, alpha, a.data(), lda, pack,
                             0.0f, c.data(), n);
              const QuantOracle o = Oracle(trans_a, trans_b, m, n, k, alpha,
                                           a.data(), lda, b.data(), ldb,
                                           ends);
              for (int64_t i = 0; i < m * n; ++i) {
                const double got = c.data()[i];
                // Float epilogue rounding only vs the exact contraction.
                EXPECT_NEAR(got, o.exact[static_cast<size_t>(i)],
                            1e-4 * (1.0 + std::fabs(o.exact[i])))
                    << "i=" << i << " m=" << m << " k=" << k << " n=" << n;
                // Analytic quantization-error bound vs fp64 truth.
                EXPECT_LE(std::fabs(got - o.truth[static_cast<size_t>(i)]),
                          o.bound[static_cast<size_t>(i)] + 1e-5)
                    << "i=" << i << " m=" << m << " k=" << k << " n=" << n;
              }
            }
          }
        }
      }
    }
  }
}

TEST(QuantGemm, BetaOneAccumulates) {
  ops::SetComputeThreads(1);
  Rng rng(17);
  const int64_t m = 6, k = 24, n = 18;
  const std::vector<int64_t> ends = Ends(k, 3);
  Tensor a = Tensor::Randn({m, k}, &rng);
  Tensor b = Tensor::Randn({k, n}, &rng);
  QuantizedPack pack;
  QuantizePackB(false, k, n, b.data(), n, ends, &pack);
  Tensor c0({m, n}), c1 = Tensor::Randn({m, n}, &rng);
  Tensor c1_copy({m, n});
  std::memcpy(c1_copy.data(), c1.data(),
              static_cast<size_t>(m * n) * sizeof(float));
  GemmQuantizedB(false, m, n, k, 1.0f, a.data(), k, pack, 0.0f, c0.data(), n);
  GemmQuantizedB(false, m, n, k, 1.0f, a.data(), k, pack, 1.0f, c1.data(), n);
  for (int64_t i = 0; i < m * n; ++i) {
    EXPECT_FLOAT_EQ(c1.data()[i], c1_copy.data()[i] + c0.data()[i]);
  }
}

TEST(QuantGemm, SlicingAPackEqualsQuantizingTheSlice) {
  ops::SetComputeThreads(1);
  Rng rng(19);
  const int64_t kfull = 64, nfull = 48, m = 5;
  const std::vector<int64_t> ends = Ends(kfull, 4);
  Tensor b = Tensor::Randn({nfull, kfull}, &rng);  // packed as trans_b
  Tensor a = Tensor::Randn({m, kfull}, &rng);
  QuantizedPack full;
  QuantizePackB(true, kfull, nfull, b.data(), kfull, ends, &full);
  for (int64_t g = 1; g <= 4; ++g) {
    const int64_t k = ends[static_cast<size_t>(g - 1)];
    const int64_t n = nfull - 5 * g;  // any column prefix
    // Quantize the sliced weights from scratch: only the first g groups,
    // only the first n columns. Note ld stays kfull (same storage).
    std::vector<int64_t> sub_ends(ends.begin(), ends.begin() + g);
    QuantizedPack sliced;
    QuantizePackB(true, k, n, b.data(), kfull, sub_ends, &sliced);
    // Scales agree per (segment, column)...
    for (int64_t gg = 0; gg < g; ++gg) {
      for (int64_t j = 0; j < n; ++j) {
        EXPECT_EQ(full.scale(gg, j), sliced.scale(gg, j));
      }
    }
    // ...and the sliced outputs are bitwise identical.
    Tensor c_full({m, n}), c_sliced({m, n});
    GemmQuantizedB(false, m, n, k, 1.0f, a.data(), kfull, full, 0.0f,
                   c_full.data(), n);
    GemmQuantizedB(false, m, n, k, 1.0f, a.data(), kfull, sliced, 0.0f,
                   c_sliced.data(), n);
    EXPECT_EQ(std::memcmp(c_full.data(), c_sliced.data(),
                          static_cast<size_t>(m * n) * sizeof(float)),
              0)
        << "g=" << g;
  }
}

TEST(QuantGemm, BitwiseIdenticalAcrossThreadCounts) {
  Rng rng(23);
  const int64_t m = 96, kfull = 128, nfull = 250;
  const std::vector<int64_t> ends = Ends(kfull, 4);
  Tensor a = Tensor::Randn({m, kfull}, &rng);
  Tensor b = Tensor::Randn({nfull, kfull}, &rng);
  Tensor cols = Tensor::Randn({kfull, m}, &rng);
  QuantizedPack pack;
  QuantizePackB(true, kfull, nfull, b.data(), kfull, ends, &pack);
  Tensor ref({m, nfull}), ref_wa({nfull, m});
  bool have_ref = false;
  for (const int threads : {1, 2, 8}) {
    ops::SetComputeThreads(threads);
    // Repack under this thread count too: packing must also be invariant.
    QuantizedPack tpack;
    QuantizePackB(true, kfull, nfull, b.data(), kfull, ends, &tpack);
    Tensor c({m, nfull}), c_wa({nfull, m});
    GemmQuantizedB(false, m, nfull, kfull, 1.0f, a.data(), kfull, tpack,
                   0.0f, c.data(), nfull);
    GemmQuantizedWeightA(nfull, m, kfull, tpack, cols.data(), m, 0.0f,
                         c_wa.data(), m);
    if (!have_ref) {
      std::memcpy(ref.data(), c.data(),
                  static_cast<size_t>(m * nfull) * sizeof(float));
      std::memcpy(ref_wa.data(), c_wa.data(),
                  static_cast<size_t>(m * nfull) * sizeof(float));
      have_ref = true;
    } else {
      EXPECT_EQ(std::memcmp(c.data(), ref.data(),
                            static_cast<size_t>(m * nfull) * sizeof(float)),
                0)
          << "threads=" << threads;
      EXPECT_EQ(std::memcmp(c_wa.data(), ref_wa.data(),
                            static_cast<size_t>(m * nfull) * sizeof(float)),
                0)
          << "threads=" << threads << " (WeightA)";
    }
  }
  ops::SetComputeThreads(1);
}

TEST(QuantGemm, WeightAMatchesTransposedBFlavor) {
  // C(m, n) = W * cols via the conv driver must equal the dense driver's
  // C^T = cols^T x W^T elementwise (same pack, same quantize rule).
  ops::SetComputeThreads(1);
  Rng rng(29);
  const int64_t channels = 40, pixels = 33, kfull = 54;
  const std::vector<int64_t> ends = Ends(kfull, 3);
  Tensor w = Tensor::Randn({channels, kfull}, &rng);
  Tensor cols = Tensor::Randn({kfull, pixels}, &rng);
  QuantizedPack pack;
  QuantizePackB(true, kfull, channels, w.data(), kfull, ends, &pack);
  for (const int64_t k : {ends[0], kfull}) {
    Tensor c_wa({channels, pixels});
    GemmQuantizedWeightA(channels, pixels, k, pack, cols.data(), pixels,
                         0.0f, c_wa.data(), pixels);
    Tensor ct({pixels, channels});
    GemmQuantizedB(true, pixels, channels, k, 1.0f, cols.data(), pixels,
                   pack, 0.0f, ct.data(), channels);
    // The row quantizer on the explicitly transposed operand shares no
    // code with the column quantizer both calls above run.
    Tensor cols_t({pixels, kfull});
    for (int64_t p = 0; p < kfull; ++p) {
      for (int64_t px = 0; px < pixels; ++px) {
        cols_t.data()[px * kfull + p] = cols.data()[p * pixels + px];
      }
    }
    Tensor ct_rows({pixels, channels});
    GemmQuantizedB(false, pixels, channels, k, 1.0f, cols_t.data(), kfull,
                   pack, 0.0f, ct_rows.data(), channels);
    for (int64_t ch = 0; ch < channels; ++ch) {
      for (int64_t px = 0; px < pixels; ++px) {
        EXPECT_EQ(c_wa.data()[ch * pixels + px],
                  ct.data()[px * channels + ch])
            << "k=" << k << " ch=" << ch << " px=" << px;
        EXPECT_EQ(c_wa.data()[ch * pixels + px],
                  ct_rows.data()[px * channels + ch])
            << "rows k=" << k << " ch=" << ch << " px=" << px;
      }
    }
  }
}

// Quad table of the first `groups` segments of `ends`, as the quantizer
// builds it: quad t covers rows first[t] .. first[t] + rows[t].
void QuadTable(const std::vector<int64_t>& ends, size_t groups,
               std::vector<int32_t>* first, std::vector<int32_t>* rows) {
  first->clear();
  rows->clear();
  for (size_t g = 0; g < groups; ++g) {
    const int64_t s1 = ends[g];
    for (int64_t p = g > 0 ? ends[g - 1] : 0; p < s1; p += 4) {
      first->push_back(static_cast<int32_t>(p));
      rows->push_back(static_cast<int32_t>(std::min<int64_t>(4, s1 - p)));
    }
  }
}

// The vector column quantizer against the scalar one in the same process:
// codes, aeff and amineff bitwise equal, and the same bytes left untouched
// (both buffers start from one fill pattern), over matrix and conv views
// (27 taps, groups not a multiple of 4 taps, junk columns, phase planes,
// the 1x1 pad-0 view over the input itself, a view narrower than one
// vector), random, constant and +-0 columns, whole and split pixel ranges.
TEST(QuantColumns, VectorFlavorMatchesScalarBitwise) {
  const ops::detail::U7ColumnsFn vec = ops::detail::Avx2QuantizeColumnsU7();
  if (vec == nullptr) GTEST_SKIP() << "no AVX2 column quantizer here";
  Rng rng(31);
  struct Case {
    int64_t channels, h, w, kernel, stride, pad, groups;
    bool matrix;
  };
  const Case cases[] = {
      {3, 7, 6, 3, 1, 1, 3, false},   {8, 7, 6, 3, 1, 0, 4, false},
      {8, 7, 6, 3, 2, 1, 4, false},   {8, 7, 5, 1, 1, 0, 4, false},
      {4, 3, 3, 3, 1, 1, 2, false},   {2, 2, 2, 1, 1, 0, 2, false},
      {16, 12, 12, 3, 1, 1, 4, false}, {54, 1, 33, 1, 1, 0, 3, true},
  };
  for (const Case& cs : cases) {
    const ops::ConvPlanes pl(cs.channels, cs.h, cs.w, cs.kernel, cs.stride,
                             cs.pad);
    const int64_t taps = pl.taps();
    std::vector<int64_t> ends = Ends(taps, cs.groups);
    for (int pattern = 0; pattern < 5; ++pattern) {
      // 0 random, 1 constant, 2 +-0, 3 random with constant channel 0,
      // 4 ranges so narrow that the scale is subnormal or its inverse
      // overflows.
      Tensor x = Tensor::Randn({cs.channels, cs.h, cs.w}, &rng);
      for (int64_t e = 0; e < x.size(); ++e) {
        const bool chan0 = e < cs.h * cs.w;
        if (pattern == 1 || (pattern == 3 && chan0)) x.data()[e] = -1.5f;
        if (pattern == 2) x.data()[e] = (e % 3) != 0 ? -0.0f : 0.0f;
        if (pattern == 4) x.data()[e] *= (e % 2) != 0 ? 1e-37f : 1e-40f;
      }
      std::vector<int64_t> off(static_cast<size_t>(taps));
      pl.TapOffsets(off.data());
      std::vector<float> planes(static_cast<size_t>(pl.floats()), 0.0f);
      ops::ColsView view;
      if (cs.matrix) {
        // The 54 x 33 matrix the transposed GemmQuantizedB flavor reads.
        view = ops::ColsView::Matrix(x.data(), cs.w, cs.w);
      } else if (pl.in_place()) {
        view = pl.View(x.data(), off.data());
      } else {
        pl.Fill(x.data(), planes.data());
        view = pl.View(planes.data(), off.data());
      }
      const int64_t n = view.cols();
      for (size_t groups = 1; groups <= ends.size(); ++groups) {
        std::vector<int32_t> first, rows;
        QuadTable(ends, groups, &first, &rows);
        const int64_t row_bytes = 4 * ((taps + 3) / 4 + cs.groups);
        ops::detail::U7Columns job;
        job.b = view;
        job.k = ends[groups - 1];
        job.alpha = 0.5f;
        job.quad_first = first.data();
        job.quad_rows = rows.data();
        job.quads = static_cast<int64_t>(first.size());
        job.row_bytes = row_bytes;
        std::vector<uint8_t> codes[2];
        std::vector<float> aeff[2], amineff[2];
        for (int f = 0; f < 2; ++f) {
          codes[f].assign(static_cast<size_t>(n * row_bytes), 0xAB);
          aeff[f].assign(static_cast<size_t>(n), -7.0f);
          amineff[f].assign(static_cast<size_t>(n), -7.0f);
          job.codes = codes[f].data();
          job.aeff = aeff[f].data();
          job.amineff = amineff[f].data();
          const ops::detail::U7ColumnsFn fn =
              f == 0 ? &ops::detail::QuantizeColumnsU7 : vec;
          if (pattern % 2 == 0) {
            fn(job, 0, n);
          } else {
            // Uneven shards, as a ParallelFor partition cuts them.
            const int64_t a = n / 3, b = n - n / 5;
            fn(job, 0, a);
            fn(job, a, b);
            fn(job, b, n);
          }
        }
        const std::string at = "taps " + std::to_string(taps) + " k " +
                               std::to_string(job.k) + " pattern " +
                               std::to_string(pattern);
        EXPECT_EQ(codes[0], codes[1]) << at;
        EXPECT_EQ(0, std::memcmp(aeff[0].data(), aeff[1].data(),
                                 static_cast<size_t>(n) * sizeof(float)))
            << at;
        EXPECT_EQ(0, std::memcmp(amineff[0].data(), amineff[1].data(),
                                 static_cast<size_t>(n) * sizeof(float)))
            << at;
      }
    }
  }
}

// The dequant epilogue, AVX2 against the portable loop: identical bits
// on random tiles (accumulators of either sign up to the kernel's range,
// scales across magnitudes, every chunk height). A contracted mul+add in
// either flavor shows up here as ulp-level mismatches on most tiles.
TEST(QuantEpilogue, Avx2MatchesPortableBitwise) {
  const ops::detail::Int8EpilogueFn vec = ops::detail::Avx2Int8Epilogue();
  if (vec == nullptr) GTEST_SKIP() << "no AVX2 dequant epilogue here";
  Rng rng(32);
  constexpr int kRows = 32, kCols = 16;
  alignas(64) int32_t acc[kRows * kCols];
  float gs[kCols], as[kRows], amin[kRows];
  int32_t gsum[kCols];
  float ftile[2][kRows * kCols];
  int mismatched = 0;
  for (int tile = 0; tile < 1000; ++tile) {
    const int mc = 1 + tile % kRows;
    for (int i = 0; i < kRows * kCols; ++i) {
      acc[i] = static_cast<int32_t>(rng.UniformInt(2 * 64516 + 1)) - 64516;
      ftile[0][i] = ftile[1][i] = static_cast<float>(rng.Uniform(-8.0, 8.0));
    }
    for (int c = 0; c < kCols; ++c) {
      gs[c] = static_cast<float>(rng.Uniform(1e-4, 1e-1));
      gsum[c] = static_cast<int32_t>(rng.UniformInt(2 * 8128 + 1)) - 8128;
    }
    for (int i = 0; i < kRows; ++i) {
      as[i] = static_cast<float>(rng.Uniform(1e-3, 1.0)) * (i % 3 ? 1 : 1e3f);
      amin[i] = static_cast<float>(rng.Uniform(-5.0, 5.0));
    }
    ops::detail::Int8EpiloguePortable(mc, acc, gs, gsum, as, amin, ftile[0]);
    vec(mc, acc, gs, gsum, as, amin, ftile[1]);
    if (std::memcmp(ftile[0], ftile[1], sizeof(ftile[0])) != 0) ++mismatched;
  }
  EXPECT_EQ(mismatched, 0) << "of 1000 tiles";
}

TEST(QuantEnsure, CacheKeyAndGenerationSemantics) {
  ops::SetComputeThreads(1);
  Rng rng(31);
  const int64_t k = 32, n = 20;
  const std::vector<int64_t> ends = Ends(k, 4);
  Tensor b = Tensor::Randn({n, k}, &rng);
  Tensor b2 = Tensor::Randn({n, k}, &rng);
  QuantizedPack pack;
  const ops::PackStats before = ops::GetPackStats();
  EXPECT_TRUE(EnsureQuantizedB(true, k, n, b.data(), k, ends, &pack));
  EXPECT_FALSE(EnsureQuantizedB(true, k, n, b.data(), k, ends, &pack));
  EXPECT_FALSE(EnsureQuantizedB(true, k, n, b.data(), k, ends, &pack));
  ops::PackStats after = ops::GetPackStats();
  EXPECT_EQ(after.quant_packs - before.quant_packs, 1u);
  EXPECT_EQ(after.quant_hits - before.quant_hits, 2u);
  // A generation bump makes the same key stale.
  ops::BumpWeightGeneration();
  EXPECT_TRUE(EnsureQuantizedB(true, k, n, b.data(), k, ends, &pack));
  EXPECT_EQ(pack.generation(), ops::WeightGeneration());
  // Different source pointer, extents, or segmentation all repack.
  EXPECT_TRUE(EnsureQuantizedB(true, k, n, b2.data(), k, ends, &pack));
  EXPECT_TRUE(EnsureQuantizedB(true, k, n - 4, b2.data(), k, ends, &pack));
  EXPECT_TRUE(EnsureQuantizedB(true, k, n, b2.data(), k, Ends(k, 2), &pack));
}

TEST(QuantStaleness, SgdStepAndLoadParamsInvalidate) {
  ops::SetComputeThreads(1);
  Rng rng(37);
  const int64_t out = 24, in = 32;
  const std::vector<int64_t> ends = Ends(in, 4);
  Tensor w = Tensor::Randn({out, in}, &rng);
  Tensor g = Tensor::Randn({out, in}, &rng);
  QuantizedPack pack;
  ASSERT_TRUE(EnsureQuantizedB(true, in, out, w.data(), in, ends, &pack));
  ASSERT_FALSE(EnsureQuantizedB(true, in, out, w.data(), in, ends, &pack));
  Sgd sgd({{"w", &w, &g, false}}, SgdOptions{});
  sgd.Step();
  // The in-place update must invalidate, and the refreshed pack must see
  // the NEW weights (fresh quantization, not the stale bytes).
  EXPECT_TRUE(EnsureQuantizedB(true, in, out, w.data(), in, ends, &pack));
  EXPECT_FLOAT_EQ(pack.scale(0, 0), [&] {
    float amax = 0.0f;
    for (int64_t p = 0; p < ends[0]; ++p) {
      amax = std::max(amax, std::fabs(w.data()[p]));
    }
    return amax / 127.0f;
  }());

  // LoadParams bumps the generation too (serialize.cc contract).
  DenseOptions dopts;
  dopts.in_features = 12;
  dopts.out_features = 8;
  Dense dense(dopts, &rng, "d");
  std::vector<ParamRef> params;
  dense.CollectParams(&params);
  const std::string path = "quant_test_ckpt.bin";
  ASSERT_TRUE(SaveParams(params, path).ok());
  ASSERT_FALSE(EnsureQuantizedB(true, in, out, w.data(), in, ends, &pack));
  ASSERT_TRUE(LoadParams(params, path).ok());
  EXPECT_TRUE(EnsureQuantizedB(true, in, out, w.data(), in, ends, &pack));
  std::remove(path.c_str());
}

SyntheticImageOptions QuantImages() {
  SyntheticImageOptions opts;
  opts.num_classes = 5;
  opts.modes_per_class = 2;
  opts.channels = 3;
  opts.height = 8;
  opts.width = 8;
  opts.train_size = 600;
  opts.test_size = 300;
  opts.noise = 0.4;
  opts.max_shift = 1;
  opts.seed = 11;
  return opts;
}

CnnConfig QuantVgg() {
  CnnConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 5;
  cfg.base_width = 8;
  cfg.stages = 2;
  cfg.blocks_per_stage = 2;
  cfg.slice_groups = 4;
  cfg.norm = NormKind::kGroup;
  cfg.seed = 9;
  return cfg;
}

// Int8 top-1 stays within this tolerance of fp32 at every trained rate
// (stated in EXPERIMENTS.md). Dynamic per-row activation + per-group
// weight quantization keeps the gap well under a point on the seed CNN;
// the slack absorbs decision-boundary flips on a 300-sample test set.
constexpr float kInt8AccuracyTolerance = 0.08f;

TEST(QuantModules, Int8AccuracySweepTracksFp32AtEveryRate) {
  ops::SetComputeThreads(1);
  auto split = MakeSyntheticImages(QuantImages()).MoveValueOrDie();
  auto config = SliceConfig::Make(0.25, 0.25).MoveValueOrDie();
  auto net = MakeVggSmall(QuantVgg()).MoveValueOrDie();
  RandomStaticScheduler sched(config, /*include_min=*/true,
                              /*include_max=*/true);
  ImageTrainOptions topts;
  topts.epochs = 6;
  topts.batch_size = 32;
  topts.sgd.lr = 0.05;
  topts.augment = false;
  topts.seed = 33;
  TrainImageClassifier(net.get(), split.train, &sched, topts, nullptr);

  for (const double rate : config.rates()) {
    net->SetPrecision(Precision::kFp32);
    const float fp32 = EvalAccuracy(net.get(), split.test, rate);
    net->SetPrecision(Precision::kInt8);
    const float int8 = EvalAccuracy(net.get(), split.test, rate);
    EXPECT_NEAR(int8, fp32, kInt8AccuracyTolerance) << "rate=" << rate;
    // The trained net is well above chance at every rate; int8 must not
    // collapse it.
    EXPECT_GT(int8, 0.4f) << "rate=" << rate;
  }
  net->SetPrecision(Precision::kFp32);
}

TEST(QuantModules, SteadyStateInt8ForwardNeverRequantizes) {
  ops::SetComputeThreads(1);
  Rng rng(41);
  auto net = MakeVggSmall(QuantVgg()).MoveValueOrDie();
  net->SetPrecision(Precision::kInt8);
  Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);
  // Warm up every rate once: packs are full-size, so later rate switches
  // and repeat forwards must all be cache hits.
  const double rates[] = {1.0, 0.5, 0.25};
  for (const double r : rates) {
    net->SetSliceRate(r);
    (void)net->Forward(x, /*training=*/false);
  }
  const uint64_t packs = ops::TotalPackCount();
  const ops::PackStats warm = ops::GetPackStats();
  for (int iter = 0; iter < 3; ++iter) {
    for (const double r : rates) {
      net->SetSliceRate(r);
      (void)net->Forward(x, /*training=*/false);
    }
  }
  EXPECT_EQ(ops::TotalPackCount(), packs);
  const ops::PackStats steady = ops::GetPackStats();
  EXPECT_GT(steady.quant_hits, warm.quant_hits);
  EXPECT_GT(steady.quantized_calls, warm.quantized_calls);
}

TEST(QuantMisc, PrecisionNamesRoundTrip) {
  EXPECT_STREQ(PrecisionName(Precision::kFp32), "fp32");
  EXPECT_STREQ(PrecisionName(Precision::kInt8), "int8");
  Precision p = Precision::kFp32;
  EXPECT_TRUE(ParsePrecision("int8", &p));
  EXPECT_EQ(p, Precision::kInt8);
  EXPECT_TRUE(ParsePrecision("fp32", &p));
  EXPECT_EQ(p, Precision::kFp32);
  EXPECT_FALSE(ParsePrecision("int4", &p));
  EXPECT_FALSE(ParsePrecision("", &p));
}

}  // namespace
}  // namespace ms
