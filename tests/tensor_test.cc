// Unit tests for the Tensor container and numeric kernels.
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/tensor/gemm_internal.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace ms {
namespace {

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(2), 4);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
  EXPECT_EQ(t.ShapeString(), "[2, 3, 4]");
}

TEST(Tensor, FromVectorAndFill) {
  Tensor t = Tensor::FromVector({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.at2(0, 1), 2.0f);
  EXPECT_EQ(t.at2(1, 0), 3.0f);
  t.Fill(7.0f);
  EXPECT_EQ(t.at2(1, 1), 7.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::FromVector({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.at2(2, 1), 5.0f);
  t.Reshape({6});
  EXPECT_EQ(t.dim(0), 6);
  EXPECT_EQ(t[4], 4.0f);
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  Rng rng1(99), rng2(99);
  Tensor a = Tensor::Randn({16}, &rng1);
  Tensor b = Tensor::Randn({16}, &rng2);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// Reference matmul for verification.
void NaiveMatMul(const Tensor& a, bool ta, const Tensor& b, bool tb,
                 Tensor* c) {
  const int64_t m = c->dim(0);
  const int64_t n = c->dim(1);
  const int64_t k = ta ? a.dim(0) : a.dim(1);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a.at2(p, i) : a.at2(i, p);
        const float bv = tb ? b.at2(j, p) : b.at2(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c->at2(i, j) = static_cast<float>(acc);
    }
  }
}

class MatMulTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(MatMulTest, MatchesNaive) {
  const auto [ta, tb] = GetParam();
  Rng rng(7);
  const int64_t m = 9, n = 11, k = 6;
  Tensor a = ta ? Tensor::Randn({k, m}, &rng) : Tensor::Randn({m, k}, &rng);
  Tensor b = tb ? Tensor::Randn({n, k}, &rng) : Tensor::Randn({k, n}, &rng);
  Tensor got({m, n});
  Tensor want({m, n});
  ops::MatMul(a, ta, b, tb, &got);
  NaiveMatMul(a, ta, b, tb, &want);
  for (int64_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-4f) << "flat index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposes, MatMulTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()));

TEST(Gemm, BetaAccumulates) {
  Rng rng(8);
  Tensor a = Tensor::Randn({3, 4}, &rng);
  Tensor b = Tensor::Randn({4, 5}, &rng);
  Tensor c0({3, 5});
  ops::MatMul(a, false, b, false, &c0);
  Tensor c1 = c0;
  ops::MatMul(a, false, b, false, &c1, /*beta=*/1.0f);
  for (int64_t i = 0; i < c0.size(); ++i) {
    EXPECT_NEAR(c1[i], 2.0f * c0[i], 1e-4f);
  }
}

TEST(Gemm, PrefixSliceUsesFullRowStride) {
  // Simulates Dense slicing: use only the top-left (n x m) block of W.
  Rng rng(9);
  const int64_t full_in = 8, full_out = 6, m = 5, n = 4;
  Tensor w = Tensor::Randn({full_out, full_in}, &rng);
  Tensor x = Tensor::Randn({2, m}, &rng);
  Tensor y({2, n});
  ops::Gemm(false, true, 2, n, m, 1.0f, x.data(), m, w.data(), full_in, 0.0f,
            y.data(), n);
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (int64_t j = 0; j < m; ++j) {
        acc += static_cast<double>(x.at2(b, j)) * w.at2(i, j);
      }
      EXPECT_NEAR(y.at2(b, i), acc, 1e-4);
    }
  }
}

TEST(Im2Col, IdentityKernelReproducesInput) {
  // 1x1 kernel, stride 1, no pad: cols == input.
  Rng rng(10);
  Tensor x = Tensor::Randn({3, 4, 4}, &rng);
  Tensor cols({3, 16});
  ops::Im2Col(x.data(), 3, 4, 4, 1, 1, 0, cols.data());
  for (int64_t i = 0; i < x.size(); ++i) EXPECT_EQ(cols[i], x[i]);
}

TEST(Im2Col, PaddingProducesZeros) {
  Tensor x = Tensor::Full({1, 2, 2}, 1.0f);
  // 3x3 kernel, pad 1: corner patches include padded zeros.
  Tensor cols({9, 4});
  ops::Im2Col(x.data(), 1, 2, 2, 3, 1, 1, cols.data());
  // Top-left kernel position at output (0,0) reads the padded corner.
  EXPECT_EQ(cols.at2(0, 0), 0.0f);
  // Center kernel position reads the image.
  EXPECT_EQ(cols.at2(4, 0), 1.0f);
}

TEST(Im2Col, Col2ImIsAdjoint) {
  // <Im2Col(x), c> == <x, Col2Im(c)> — the defining adjoint property that
  // makes the conv backward pass correct.
  Rng rng(11);
  const int64_t ch = 2, h = 5, w = 5, k = 3, stride = 2, pad = 1;
  const int64_t oh = (h + 2 * pad - k) / stride + 1;
  const int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor x = Tensor::Randn({ch, h, w}, &rng);
  Tensor c = Tensor::Randn({ch * k * k, oh * ow}, &rng);
  Tensor cols({ch * k * k, oh * ow});
  ops::Im2Col(x.data(), ch, h, w, k, stride, pad, cols.data());
  Tensor xadj({ch, h, w});
  ops::Col2Im(c.data(), ch, h, w, k, stride, pad, xadj.data());
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cols.size(); ++i) {
    lhs += static_cast<double>(cols[i]) * c[i];
  }
  for (int64_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * xadj[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Pooling, AvgPoolValues) {
  Tensor x = Tensor::FromVector({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y({1, 1, 1, 1});
  ops::AvgPool2d(x, 1, 1, 2, 2, 2, 2, &y);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(Pooling, MaxPoolTracksArgmax) {
  Tensor x = Tensor::FromVector({1, 1, 2, 2}, {1, 9, 3, 4});
  Tensor y({1, 1, 1, 1});
  std::vector<int32_t> argmax;
  ops::MaxPool2d(x, 1, 1, 2, 2, 2, 2, &y, &argmax);
  EXPECT_FLOAT_EQ(y[0], 9.0f);
  ASSERT_EQ(argmax.size(), 1u);
  EXPECT_EQ(argmax[0], 1);

  Tensor g = Tensor::Full({1, 1, 1, 1}, 2.0f);
  Tensor gi({1, 1, 2, 2});
  ops::MaxPool2dBackward(g, argmax, 1, 4, 1, &gi);
  EXPECT_FLOAT_EQ(gi[1], 2.0f);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
}

// Ties and NaN in the training pool (the argmax form) and the inference
// pool: a tie keeps the earlier tap, -0 included; a NaN never wins; a
// window of NaN alone reads -inf with argmax 0.
TEST(Pooling, MaxPoolTiesAndNaNKeepTheEarlierTap) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // Three 2x2 windows: {-0, +0 / NaN, +0}, {NaN x4}, {NaN, -inf / 3, 3}.
  Tensor x = Tensor::FromVector({1, 1, 2, 6}, {-0.0f, 0.0f, nan, nan, nan,
                                               -inf, nan, 0.0f, nan, nan,
                                               3.0f, 3.0f});
  Tensor y({1, 1, 1, 3});
  std::vector<int32_t> argmax;
  ops::MaxPool2d(x, 1, 1, 2, 6, 2, 2, &y, &argmax);
  const float expect[3] = {-0.0f, -inf, 3.0f};
  EXPECT_EQ(0, std::memcmp(y.data(), expect, sizeof(expect)));
  EXPECT_EQ(argmax, (std::vector<int32_t>{0, 0, 10}));
  float planes_out[3];
  ops::MaxPool2dPlanes(x.data(), 1, 2, 6, 2, 2, planes_out);
  EXPECT_EQ(0, std::memcmp(planes_out, expect, sizeof(expect)));
}

// The training pool's selects against the branch they replaced, over
// random windows laced with NaN, -inf and signed zeros, at several kernel
// and stride shapes: the same maxima bit for bit and the same argmax.
TEST(Pooling, MaxPoolArgmaxMatchesBranchingReference) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::infinity(), 0.0f,
                            -0.0f};
  Rng rng(6);
  const int64_t shapes[][4] = {{2, 2, 7, 6}, {3, 1, 7, 6}, {3, 2, 9, 8},
                               {3, 3, 9, 9}, {1, 1, 4, 5}};
  for (const auto& sh : shapes) {
    const int64_t k = sh[0], st = sh[1], h = sh[2], w = sh[3], planes = 2;
    const int64_t oh = (h - k) / st + 1, ow = (w - k) / st + 1;
    Tensor x({1, planes, h, w});
    for (int64_t i = 0; i < x.size(); ++i) {
      x[i] = i % 3 == 0 ? specials[rng.UniformInt(4)]
                        : static_cast<float>(rng.UniformInt(3));
    }
    Tensor y({1, planes, oh, ow});
    std::vector<int32_t> argmax;
    ops::MaxPool2d(x, 1, planes, h, w, k, st, &y, &argmax);
    for (int64_t img = 0; img < planes; ++img) {
      const float* src = x.data() + img * h * w;
      for (int64_t o = 0; o < oh * ow; ++o) {
        const int64_t oi = o / ow, oj = o % ow;
        float best = -std::numeric_limits<float>::infinity();
        int32_t best_idx = 0;
        for (int64_t ki = 0; ki < k; ++ki) {
          for (int64_t kj = 0; kj < k; ++kj) {
            const int64_t idx = (oi * st + ki) * w + oj * st + kj;
            if (src[idx] > best) {
              best = src[idx];
              best_idx = static_cast<int32_t>(idx);
            }
          }
        }
        const int64_t at = img * oh * ow + o;
        EXPECT_EQ(0, std::memcmp(&best, y.data() + at, sizeof(float)))
            << "k " << k << " stride " << st << " output " << at;
        EXPECT_EQ(best_idx, argmax[static_cast<size_t>(at)]);
      }
    }
  }
}

// The AVX2 2x2/stride-2 pool against the scalar loop (the argmax form
// never dispatches to it), bit for bit: even and odd H and W, output rows
// of whole 4-wide steps, masked tails of 1, 2 and 3, and rows that are
// all tail; NaN, -inf and ties between +0 and -0; nothing written past
// the output.
TEST(Pooling, Avx2MaxPool2x2MatchesScalarBitwise) {
  const ops::detail::MaxPool2x2Fn vec = ops::detail::Avx2MaxPool2x2();
  if (vec == nullptr) GTEST_SKIP() << "no AVX2 pool here";
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::infinity(), 0.0f,
                            -0.0f};
  Rng rng(7);
  const int64_t planes = 3;
  for (int64_t h = 2; h <= 7; ++h) {
    for (int64_t w = 2; w <= 19; ++w) {
      for (int pattern = 0; pattern < 3; ++pattern) {
        Tensor x({1, planes, h, w});
        for (int64_t i = 0; i < x.size(); ++i) {
          const bool special = pattern == 2 || (pattern == 1 && i % 3 == 0);
          x[i] = special ? specials[rng.UniformInt(4)]
                         : static_cast<float>(rng.Uniform(-2.0, 2.0));
        }
        const int64_t oh = h / 2, ow = w / 2, n = planes * oh * ow;
        Tensor ref({1, planes, oh, ow});
        std::vector<int32_t> argmax;
        ops::MaxPool2d(x, 1, planes, h, w, 2, 2, &ref, &argmax);
        std::vector<float> got(static_cast<size_t>(n + 4), -7.0f);
        vec(x.data(), planes, h, w, got.data());
        const std::string at = std::to_string(h) + "x" + std::to_string(w) +
                               " pattern " + std::to_string(pattern);
        EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                                 static_cast<size_t>(n) * sizeof(float)))
            << at;
        for (int64_t g = n; g < n + 4; ++g) {
          EXPECT_EQ(got[static_cast<size_t>(g)], -7.0f) << at;
        }
        std::vector<float> dispatched(static_cast<size_t>(n));
        ops::MaxPool2dPlanes(x.data(), planes, h, w, 2, 2, dispatched.data());
        EXPECT_EQ(0, std::memcmp(dispatched.data(), ref.data(),
                                 static_cast<size_t>(n) * sizeof(float)))
            << at;
      }
    }
  }
}

TEST(Elementwise, AddScaleAxpy) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {4, 5, 6});
  Tensor out({3});
  ops::Add(a, b, &out);
  EXPECT_FLOAT_EQ(out[2], 9.0f);
  ops::Scale(&out, 0.5f);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  ops::Axpy(2.0f, a, &out);
  EXPECT_FLOAT_EQ(out[0], 4.5f);
  EXPECT_FLOAT_EQ(ops::Max(out), 10.5f);
  EXPECT_NEAR(ops::Mean(a), 2.0f, 1e-6f);
  EXPECT_NEAR(ops::SumSquares(a), 14.0f, 1e-5f);
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  Tensor logits = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 5, 0});
  Tensor probs({2, 3});
  ops::SoftmaxRows(logits, 2, 3, &probs);
  for (int64_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < 3; ++c) sum += probs.at2(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  EXPECT_GT(probs.at2(0, 2), probs.at2(0, 1));
  std::vector<int> amax;
  ops::ArgmaxRows(probs, 2, 3, &amax);
  EXPECT_EQ(amax[0], 2);
  EXPECT_EQ(amax[1], 1);
}

TEST(Softmax, LargeLogitsAreStable) {
  Tensor logits = Tensor::FromVector({1, 2}, {1000.0f, 999.0f});
  Tensor probs({1, 2});
  ops::SoftmaxRows(logits, 1, 2, &probs);
  EXPECT_FALSE(std::isnan(probs[0]));
  EXPECT_GT(probs[0], probs[1]);
}

}  // namespace
}  // namespace ms
