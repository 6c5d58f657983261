// Oracle + staleness suite for the prepacked-operand layer
// (src/tensor/prepack.{h,cc}).
//
// The contract under test (prepack.h, DESIGN.md "Prepacked operands"):
//   * GemmPrepackedB/GemmPrepackedA are bitwise-equal to Gemm for every
//     transpose flavor, alpha/beta, leading-dim padding, slice prefix
//     (rows and columns of the packed operand), and thread count.
//   * One full-size pack serves every slice-rate prefix without repacking.
//   * The skinny-M fast path (M <= 8, no A packing) is part of the same
//     bitwise contract.
//   * EnsurePacked* re-packs exactly when the cache key (pointer, shape,
//     ld, transpose) or the process-wide weight generation changed; the
//     generation is bumped by SGD::Step, CopyParams, and LoadParams.
//   * SGD::Step's sharded update and Dense's parallel b_grad loop
//     are bitwise identical at any thread count.
//   * SlicedMatmul (src/nn/sliced_matmul.h), the layers' one weight
//     operator, is bitwise-equal to the entry point it routes to for both
//     operand roles, both precisions, every lattice rate and any thread
//     count, and Prepare repacks exactly when the weight generation moved.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/nn/dense.h"
#include "src/nn/module.h"
#include "src/nn/serialize.h"
#include "src/nn/sliced_matmul.h"
#include "src/optim/sgd.h"
#include "src/tensor/gemm.h"
#include "src/tensor/prepack.h"
#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace ms {
namespace {

// Runs GemmPrepackedB against a pack of the FULL b source and expects
// bitwise equality with the equivalent Gemm call at (possibly sliced)
// extents m/n/k. The full (m, ldc) block is compared so padding columns
// are covered too.
void ExpectPrepackedBMatchesGemm(bool trans_a, bool trans_b, int64_t m,
                                 int64_t n, int64_t k, float alpha,
                                 const Tensor& a, int64_t lda,
                                 const Tensor& b, int64_t ldb, float beta,
                                 const Tensor& c0,
                                 const ops::PackedMatrix& pack) {
  Tensor c = c0;
  Tensor c_gemm = c0;
  ops::GemmPrepackedB(trans_a, m, n, k, alpha, a.data(), lda, pack, beta,
                      c.data(), c0.dim(1));
  ops::Gemm(trans_a, trans_b, m, n, k, alpha, a.data(), lda, b.data(), ldb,
            beta, c_gemm.data(), c0.dim(1));
  ASSERT_EQ(std::memcmp(c.data(), c_gemm.data(),
                        static_cast<size_t>(m * c0.dim(1)) * sizeof(float)),
            0)
      << "ta=" << trans_a << " tb=" << trans_b << " m=" << m << " n=" << n
      << " k=" << k << " alpha=" << alpha << " beta=" << beta;
}

TEST(PrepackedB, AllTransposeFlavorsBitwiseEqualGemm) {
  ops::SetComputeThreads(1);
  Rng rng(31);
  // N straddles the kNC=240 block; K straddles kMC=64.
  const int64_t kfull = 70, nfull = 250;
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const int64_t ldb = (tb ? kfull : nfull) + 3;
      Tensor b = Tensor::Randn({tb ? nfull : kfull, ldb}, &rng);
      // alpha lives on the A side of the prepacked call, so ONE pack must
      // serve every alpha (and every m/beta) below.
      ops::PackedMatrix pack;
      ops::PackB(tb, kfull, nfull, b.data(), ldb, &pack);
      EXPECT_EQ(pack.rows(), kfull);
      EXPECT_EQ(pack.cols(), nfull);
      for (const int64_t m : {1, 5, 8, 13, 96}) {
        const int64_t lda = (ta ? m : kfull) + 2;
        Tensor a = Tensor::Randn({ta ? kfull : m, lda}, &rng);
        for (const auto [alpha, beta] :
             {std::pair<float, float>{1.0f, 0.0f}, {0.5f, 1.0f},
              {-2.0f, 0.5f}, {0.0f, -1.0f}}) {
          Tensor c0 = Tensor::Randn({m, nfull + 5}, &rng);
          ExpectPrepackedBMatchesGemm(ta, tb, m, nfull, kfull, alpha, a, lda,
                                      b, ldb, beta, c0, pack);
        }
      }
    }
  }
}

TEST(PrepackedB, RatePrefixesShareOnePack) {
  ops::SetComputeThreads(1);
  Rng rng(47);
  const int64_t kfull = 96, nfull = 240;
  const int64_t ldb = kfull;  // tb=true: B is (nfull, kfull), Dense layout
  Tensor b = Tensor::Randn({nfull, ldb}, &rng);
  ops::PackedMatrix pack;
  ops::PackB(true, kfull, nfull, b.data(), ldb, &pack);
  const uint64_t packs_before = ops::TotalPackCount();
  for (const double rate : {0.25, 0.5, 0.75, 1.0}) {
    const int64_t k = static_cast<int64_t>(kfull * rate);
    const int64_t n = static_cast<int64_t>(nfull * rate);
    for (const int64_t m : {4, 32}) {  // skinny and general paths
      Tensor a = Tensor::Randn({m, k}, &rng);
      Tensor c0 = Tensor::Randn({m, n}, &rng);
      ExpectPrepackedBMatchesGemm(false, true, m, n, k, 1.25f, a, k, b, ldb,
                                  0.0f, c0, pack);
    }
  }
  // Every rate was served by the one pack built above.
  EXPECT_EQ(ops::TotalPackCount(), packs_before);
}

TEST(PrepackedB, SkinnyPathBitwiseStableAcrossThreadCounts) {
  Rng rng(53);
  // n large enough that the skinny path parallelizes over column panels.
  const int64_t kfull = 64, nfull = 480;
  for (const bool ta : {false, true}) {
    const int64_t ldb = nfull + 1;
    Tensor b = Tensor::Randn({kfull, ldb}, &rng);
    ops::PackedMatrix pack;
    ops::PackB(false, kfull, nfull, b.data(), ldb, &pack);
    for (int64_t m = 1; m <= 8; ++m) {
      const int64_t lda = (ta ? m : kfull) + 1;
      Tensor a = Tensor::Randn({ta ? kfull : m, lda}, &rng);
      Tensor c0 = Tensor::Randn({m, nfull}, &rng);
      std::vector<Tensor> results;
      for (const int threads : {1, 2, 8}) {
        ops::SetComputeThreads(threads);
        Tensor c = c0;
        ops::GemmPrepackedB(ta, m, nfull, kfull, 0.75f, a.data(), lda, pack,
                            1.0f, c.data(), nfull);
        results.push_back(std::move(c));
      }
      ops::SetComputeThreads(1);
      for (size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(std::memcmp(results[0].data(), results[i].data(),
                              static_cast<size_t>(m * nfull) * sizeof(float)),
                  0)
            << "ta=" << ta << " m=" << m << " thread variant " << i;
      }
      ExpectPrepackedBMatchesGemm(ta, false, m, nfull, kfull, 0.75f, a, lda,
                                  b, ldb, 1.0f, c0, pack);
    }
  }
}

TEST(PrepackedB, GeneralPathBitwiseStableAcrossThreadCounts) {
  Rng rng(59);
  // Engages the parallel path (2*m*n*k >= 1<<20) with remainder tiles.
  const int64_t m = 150, nfull = 250, kfull = 70;
  for (const bool tb : {false, true}) {
    const int64_t ldb = (tb ? kfull : nfull) + 1;
    Tensor b = Tensor::Randn({tb ? nfull : kfull, ldb}, &rng);
    ops::PackedMatrix pack;
    ops::PackB(tb, kfull, nfull, b.data(), ldb, &pack);
    Tensor a = Tensor::Randn({m, kfull}, &rng);
    Tensor c0 = Tensor::Randn({m, nfull}, &rng);
    std::vector<Tensor> results;
    for (const int threads : {1, 2, 8}) {
      ops::SetComputeThreads(threads);
      Tensor c = c0;
      ops::GemmPrepackedB(false, m, nfull, kfull, 0.5f, a.data(), kfull,
                          pack, 1.0f, c.data(), nfull);
      results.push_back(std::move(c));
    }
    ops::SetComputeThreads(1);
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(std::memcmp(results[0].data(), results[i].data(),
                            static_cast<size_t>(m * nfull) * sizeof(float)),
                0)
          << "tb=" << tb << " thread variant " << i;
    }
    ExpectPrepackedBMatchesGemm(false, tb, m, nfull, kfull, 0.5f, a, kfull,
                                b, ldb, 1.0f, c0, pack);
  }
}

TEST(PrepackedA, FlavorsAndPrefixesBitwiseEqualGemm) {
  ops::SetComputeThreads(1);
  Rng rng(61);
  const int64_t mfull = 96, kfull = 70, n = 130;
  for (const bool ta : {false, true}) {
    const int64_t lda = (ta ? mfull : kfull) + 2;
    Tensor a = Tensor::Randn({ta ? kfull : mfull, lda}, &rng);
    ops::PackedMatrix pack;
    ops::PackA(ta, mfull, kfull, a.data(), lda, &pack);
    EXPECT_EQ(pack.rows(), mfull);
    EXPECT_EQ(pack.cols(), kfull);
    for (const bool tb : {false, true}) {
      const int64_t ldb = (tb ? kfull : n) + 1;
      Tensor b = Tensor::Randn({tb ? n : kfull, ldb}, &rng);
      // Both dimensions of op(A) sliced: out-channel and fan-in prefixes.
      for (const auto [m, k] : {std::pair<int64_t, int64_t>{mfull, kfull},
                                {24, kfull},
                                {mfull, 35},
                                {24, 35},
                                {1, 1}}) {
        for (const float beta : {0.0f, 0.5f}) {
          Tensor c0 = Tensor::Randn({m, n + 3}, &rng);
          Tensor c = c0;
          Tensor c_gemm = c0;
          ops::GemmPrepackedA(m, n, k, pack, tb, b.data(), ldb, beta,
                              c.data(), n + 3);
          ops::Gemm(ta, tb, m, n, k, 1.0f, a.data(), lda, b.data(), ldb,
                    beta, c_gemm.data(), n + 3);
          ASSERT_EQ(
              std::memcmp(c.data(), c_gemm.data(),
                          static_cast<size_t>(m * (n + 3)) * sizeof(float)),
              0)
              << "ta=" << ta << " tb=" << tb << " m=" << m << " k=" << k
              << " beta=" << beta;
        }
      }
    }
  }
}

TEST(EnsurePacked, CacheKeyAndGenerationSemantics) {
  ops::SetComputeThreads(1);
  Rng rng(67);
  const int64_t k = 24, n = 40;
  Tensor b = Tensor::Randn({n, k}, &rng);
  Tensor b2 = b;
  ops::PackedMatrix pack;
  EXPECT_TRUE(pack.empty());
  // First call packs; an identical second call is a cache hit.
  EXPECT_TRUE(ops::EnsurePackedB(true, k, n, b.data(), k, &pack));
  EXPECT_FALSE(pack.empty());
  const ops::PackStats before = ops::GetPackStats();
  EXPECT_FALSE(ops::EnsurePackedB(true, k, n, b.data(), k, &pack));
  EXPECT_EQ(ops::GetPackStats().hits, before.hits + 1);
  EXPECT_EQ(ops::GetPackStats().packs, before.packs);
  // A generation bump makes the same key stale.
  const uint64_t gen = ops::WeightGeneration();
  ops::BumpWeightGeneration();
  EXPECT_GT(ops::WeightGeneration(), gen);
  EXPECT_TRUE(ops::EnsurePackedB(true, k, n, b.data(), k, &pack));
  EXPECT_EQ(pack.generation(), ops::WeightGeneration());
  // A different source pointer, extent, or transpose flavor repacks.
  EXPECT_TRUE(ops::EnsurePackedB(true, k, n, b2.data(), k, &pack));
  EXPECT_TRUE(ops::EnsurePackedB(true, k, n - 8, b2.data(), k, &pack));
  EXPECT_TRUE(ops::EnsurePackedB(false, n, k, b2.data(), k, &pack));
}

TEST(Staleness, SgdStepInvalidatesPacks) {
  ops::SetComputeThreads(1);
  Rng rng(71);
  const int64_t out = 32, in = 48;
  Tensor w = Tensor::Randn({out, in}, &rng);
  Tensor g = Tensor::Randn({out, in}, &rng);
  ops::PackedMatrix pack;
  ASSERT_TRUE(ops::EnsurePackedB(true, in, out, w.data(), in, &pack));
  ASSERT_FALSE(ops::EnsurePackedB(true, in, out, w.data(), in, &pack));

  Sgd sgd({{"w", &w, &g, false}}, SgdOptions{});
  sgd.Step();
  // The update mutated w in place under the pack; Ensure must notice.
  EXPECT_TRUE(ops::EnsurePackedB(true, in, out, w.data(), in, &pack));
  const int64_t batch = 4;
  Tensor x = Tensor::Randn({batch, in}, &rng);
  Tensor y({batch, out});
  Tensor y_gemm({batch, out});
  ops::GemmPrepackedB(false, batch, out, in, 1.0f, x.data(), in, pack, 0.0f,
                      y.data(), out);
  ops::Gemm(false, true, batch, out, in, 1.0f, x.data(), in, w.data(), in,
            0.0f, y_gemm.data(), out);
  EXPECT_EQ(std::memcmp(y.data(), y_gemm.data(),
                        static_cast<size_t>(batch * out) * sizeof(float)),
            0);
}

TEST(Staleness, CopyParamsAndLoadParamsBumpGeneration) {
  Rng rng(73);
  DenseOptions opts;
  opts.in_features = 12;
  opts.out_features = 8;
  Dense src(opts, &rng, "d");
  Dense dst(opts, &rng, "d");

  const uint64_t gen_before_copy = ops::WeightGeneration();
  ASSERT_TRUE(CopyParams(&src, &dst).ok());
  EXPECT_GT(ops::WeightGeneration(), gen_before_copy);

  std::vector<ParamRef> params;
  src.CollectParams(&params);
  const std::string path = "prepack_test_ckpt.bin";
  ASSERT_TRUE(SaveParams(params, path).ok());
  const uint64_t gen_before_load = ops::WeightGeneration();
  ASSERT_TRUE(LoadParams(params, path).ok());
  EXPECT_GT(ops::WeightGeneration(), gen_before_load);
  std::remove(path.c_str());
}

TEST(Sgd, StepBitwiseIdenticalAcrossThreadCounts) {
  // Three parameters whose sizes straddle the fixed shard width (1 << 14):
  // multi-shard, single-shard, and tiny-tail cases.
  const std::vector<int64_t> sizes = {40000, 1000, 17};
  SgdOptions opts;
  opts.lr = 0.05;
  opts.momentum = 0.9;
  opts.weight_decay = 1e-4;

  std::vector<Tensor> reference;
  for (const int threads : {1, 2, 8}) {
    ops::SetComputeThreads(threads);
    Rng rng(79);
    std::vector<Tensor> ws, gs;
    std::vector<ParamRef> params;
    ws.reserve(sizes.size());
    gs.reserve(sizes.size());
    for (const int64_t n : sizes) {
      ws.push_back(Tensor::Randn({n}, &rng));
      gs.push_back(Tensor::Randn({n}, &rng));
    }
    for (size_t i = 0; i < sizes.size(); ++i) {
      params.push_back({"p" + std::to_string(i), &ws[i], &gs[i], i == 2});
    }
    Sgd sgd(params, opts);
    sgd.Step();
    // Second step with fresh grads exercises nonzero velocity.
    Rng grng(83);
    for (auto& g : gs) g = Tensor::Randn(g.shape(), &grng);
    sgd.Step();
    if (threads == 1) {
      reference = std::move(ws);
    } else {
      for (size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_EQ(std::memcmp(reference[i].data(), ws[i].data(),
                              static_cast<size_t>(sizes[i]) * sizeof(float)),
                  0)
            << "param " << i << " threads " << threads;
      }
    }
  }
  ops::SetComputeThreads(1);
}

TEST(Dense, ForwardBackwardBitwiseAcrossThreadCounts) {
  DenseOptions opts;
  opts.in_features = 96;
  opts.out_features = 64;
  const int64_t batch = 33;

  Tensor y_ref, gi_ref, wg_ref, bg_ref;
  for (const int threads : {1, 2, 8}) {
    ops::SetComputeThreads(threads);
    Rng rng(89);
    Dense d(opts, &rng);
    Tensor x = Tensor::Randn({batch, opts.in_features}, &rng);
    Tensor g = Tensor::Randn({batch, opts.out_features}, &rng);
    Tensor y = d.Forward(x, /*training=*/true);
    Tensor gi = d.Backward(g);
    std::vector<ParamRef> params;
    d.CollectParams(&params);
    ASSERT_EQ(params.size(), 2u);
    if (threads == 1) {
      y_ref = y;
      gi_ref = gi;
      wg_ref = *params[0].grad;
      bg_ref = *params[1].grad;
    } else {
      EXPECT_EQ(std::memcmp(y_ref.data(), y.data(),
                            static_cast<size_t>(y.size()) * sizeof(float)),
                0)
          << "forward, threads " << threads;
      EXPECT_EQ(std::memcmp(gi_ref.data(), gi.data(),
                            static_cast<size_t>(gi.size()) * sizeof(float)),
                0)
          << "grad_in, threads " << threads;
      EXPECT_EQ(std::memcmp(wg_ref.data(), params[0].grad->data(),
                            static_cast<size_t>(wg_ref.size()) *
                                sizeof(float)),
                0)
          << "w_grad, threads " << threads;
      EXPECT_EQ(std::memcmp(bg_ref.data(), params[1].grad->data(),
                            static_cast<size_t>(bg_ref.size()) *
                                sizeof(float)),
                0)
          << "b_grad, threads " << threads;
    }
  }
  ops::SetComputeThreads(1);
}

// ---------------------------------------------------------------------------
// SlicedMatmul: W is (rows x cols) = (32 x 48) with four input groups, the
// extents every lattice rate of a 4-group layer reads a prefix of.

constexpr int64_t kMmRows = 32;
constexpr int64_t kMmCols = 48;
const std::vector<int64_t> kMmEnds = {12, 24, 36, 48};

void ExpectSameBits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           static_cast<size_t>(got.size()) * sizeof(float)))
      << what;
}

TEST(SlicedMatmul, MatchesDirectEntryPointsAtEveryRate) {
  Rng rng(71);
  Tensor w = Tensor::Randn({kMmRows, kMmCols}, &rng);
  ops::Epilogue epi;
  Tensor bias = Tensor::Randn({kMmRows}, &rng);
  epi.bias = bias.data();
  epi.act = ops::EpiAct::kRelu;
  // Reference packs built with the direct calls the operator routes to.
  ops::PackedMatrix ref_bt, ref_b, ref_a, ref_at;
  ops::QuantizedPack ref_q;
  ops::EnsurePackedB(true, kMmCols, kMmRows, w.data(), kMmCols, &ref_bt);
  ops::EnsurePackedB(false, kMmRows, kMmCols, w.data(), kMmCols, &ref_b);
  ops::EnsurePackedA(false, kMmRows, kMmCols, w.data(), kMmCols, &ref_a);
  ops::EnsurePackedA(true, kMmCols, kMmRows, w.data(), kMmCols, &ref_at);
  ops::EnsureQuantizedB(true, kMmCols, kMmRows, w.data(), kMmCols, kMmEnds,
                        &ref_q);
  const int64_t m = 6;  // batch rows (right role) / output pixels (left)
  for (const auto role :
       {SlicedMatmul::Role::kRight, SlicedMatmul::Role::kLeft}) {
    const bool right = role == SlicedMatmul::Role::kRight;
    epi.per_row = !right;  // bias per output unit: C column or C row
    const float alpha = right ? 0.75f : 1.0f;
    SlicedMatmul mm(role, &w, 0, kMmRows, kMmCols, kMmEnds);
    for (const Precision p : {Precision::kFp32, Precision::kInt8}) {
      for (int g = 1; g <= 4; ++g) {  // rates 0.25, 0.5, 0.75, 1.0
        const int64_t n = kMmRows * g / 4;
        const int64_t k = kMmEnds[static_cast<size_t>(g - 1)];
        Tensor x = Tensor::Randn({right ? m : k, right ? k : m}, &rng);
        Tensor gy = Tensor::Randn({right ? m : n, right ? n : m}, &rng);
        Tensor y_fp32({right ? m : n, right ? n : m});
        Tensor y_ref = y_fp32;
        Tensor dx_ref({right ? m : k, right ? k : m});
        if (right) {
          ops::GemmPrepackedB(false, m, n, k, alpha, x.data(), k, ref_bt,
                              0.0f, y_fp32.data(), n, epi);
        } else {
          ops::GemmPrepackedA(n, m, k, ref_a, false, x.data(), m, 0.0f,
                              y_fp32.data(), m, epi);
        }
        if (p == Precision::kFp32) {
          y_ref = y_fp32;
        } else if (right) {
          ops::GemmQuantizedB(false, m, n, k, alpha, x.data(), k, ref_q,
                              0.0f, y_ref.data(), n, epi);
        } else {
          ops::GemmQuantizedWeightA(n, m, k, ref_q, x.data(), m, 0.0f,
                                    y_ref.data(), m, epi);
        }
        if (right) {
          ops::GemmPrepackedB(false, m, k, n, alpha, gy.data(), n, ref_b,
                              0.0f, dx_ref.data(), k);
        } else {
          ops::GemmPrepackedA(k, m, n, ref_at, false, gy.data(), m, 0.0f,
                              dx_ref.data(), m);
        }
        for (int threads : {1, 4}) {
          ops::SetComputeThreads(threads);
          // The left role takes its operand as a (plain-matrix) view.
          auto apply = [&](Tensor* y) {
            if (right) {
              mm.Apply(m, n, k, alpha, x.data(), 0.0f, y->data(), epi);
            } else {
              mm.Apply(ops::ColsView::Matrix(x.data(), m, m), n, k, 0.0f,
                       y->data(), epi);
            }
          };
          mm.Prepare(p, /*training=*/false);
          Tensor y(y_ref.shape());
          apply(&y);
          ExpectSameBits(y, y_ref, "SlicedMatmul::Apply");
          // Training contracts in fp32 whatever the precision.
          mm.Prepare(p, /*training=*/true);
          apply(&y);
          ExpectSameBits(y, y_fp32, "SlicedMatmul::Apply in training");
          Tensor dx(dx_ref.shape());
          mm.ApplyTransposed(m, n, k, alpha, gy.data(), 0.0f, dx.data());
          ExpectSameBits(dx, dx_ref, "SlicedMatmul::ApplyTransposed");
        }
      }
    }
  }
  ops::SetComputeThreads(1);
}

TEST(SlicedMatmul, PrepareRepacksOnlyAfterAGenerationBump) {
  Rng rng(72);
  // Two gate blocks stacked in one tensor: the operator views the second.
  Tensor w = Tensor::Randn({2 * kMmRows, kMmCols}, &rng);
  for (const auto role :
       {SlicedMatmul::Role::kRight, SlicedMatmul::Role::kLeft}) {
    SlicedMatmul mm(role, &w, kMmRows * kMmCols, kMmRows, kMmCols, kMmEnds);
    for (const Precision p : {Precision::kFp32, Precision::kInt8}) {
      mm.Prepare(p, /*training=*/false);
      ops::BumpWeightGeneration();
      const uint64_t before = ops::TotalPackCount();
      mm.Prepare(p, /*training=*/false);
      EXPECT_EQ(ops::TotalPackCount(), before + 1) << "repack once";
      mm.Prepare(p, /*training=*/false);
      EXPECT_EQ(ops::TotalPackCount(), before + 1) << "no bump, no pack";
    }
    // Training readies the fp32 forward and backward packs together.
    mm.Prepare(Precision::kFp32, /*training=*/true);
    ops::BumpWeightGeneration();
    const uint64_t before = ops::TotalPackCount();
    mm.Prepare(Precision::kFp32, /*training=*/true);
    EXPECT_EQ(ops::TotalPackCount(), before + 2);
    mm.Prepare(Precision::kFp32, /*training=*/true);
    EXPECT_EQ(ops::TotalPackCount(), before + 2);
  }
}

}  // namespace
}  // namespace ms
