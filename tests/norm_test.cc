// Behavioural tests for normalization layers under slicing (paper Sec. 3.2).
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/nn/norm.h"
#include "src/tensor/gemm_internal.h"
#include "src/util/rng.h"

namespace ms {
namespace {

TEST(GroupNorm, NormalizesEachGroupToZeroMeanUnitVar) {
  Rng rng(1);
  NormOptions opts;
  opts.channels = 8;
  opts.groups = 4;
  GroupNorm gn(opts);
  Tensor x = Tensor::Randn({2, 8, 3, 3}, &rng, 3.0f);
  // Shift to verify mean removal too.
  for (int64_t i = 0; i < x.size(); ++i) x[i] += 5.0f;
  Tensor y = gn.Forward(x, /*training=*/true);

  const int64_t area = 9;
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t g = 0; g < 4; ++g) {
      double mean = 0.0, var = 0.0;
      const int64_t c0 = g * 2, c1 = c0 + 2;
      for (int64_t c = c0; c < c1; ++c) {
        for (int64_t p = 0; p < area; ++p) {
          mean += y[(b * 8 + c) * area + p];
        }
      }
      mean /= (2 * area);
      for (int64_t c = c0; c < c1; ++c) {
        for (int64_t p = 0; p < area; ++p) {
          const double d = y[(b * 8 + c) * area + p] - mean;
          var += d * d;
        }
      }
      var /= (2 * area);
      EXPECT_NEAR(mean, 0.0, 1e-4);
      EXPECT_NEAR(var, 1.0, 1e-2);
    }
  }
}

TEST(GroupNorm, SlicedForwardMatchesPrefixOfGroups) {
  // Statistics are per-group, so the output of group k is identical whether
  // or not later groups are active — the property that makes GN safe under
  // slicing (unlike BN).
  Rng rng(2);
  NormOptions opts;
  opts.channels = 8;
  opts.groups = 4;
  GroupNorm gn(opts);
  Tensor x_full = Tensor::Randn({3, 8, 2, 2}, &rng);

  gn.SetSliceRate(1.0);
  Tensor y_full = gn.Forward(x_full, true);

  gn.SetSliceRate(0.5);
  Tensor x_half({3, 4, 2, 2});
  for (int64_t b = 0; b < 3; ++b) {
    std::copy(x_full.data() + b * 8 * 4, x_full.data() + b * 8 * 4 + 4 * 4,
              x_half.data() + b * 4 * 4);
  }
  Tensor y_half = gn.Forward(x_half, true);
  for (int64_t b = 0; b < 3; ++b) {
    for (int64_t i = 0; i < 4 * 4; ++i) {
      EXPECT_FLOAT_EQ(y_half[b * 16 + i], y_full[b * 32 + i]);
    }
  }
}

TEST(GroupNorm, TrainEvalIdentical) {
  Rng rng(3);
  NormOptions opts;
  opts.channels = 4;
  opts.groups = 2;
  GroupNorm gn(opts);
  Tensor x = Tensor::Randn({2, 4, 3, 3}, &rng);
  Tensor a = gn.Forward(x, true);
  Tensor b = gn.Forward(x, false);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(BatchNorm, TrainingNormalizesBatchStatistics) {
  Rng rng(4);
  NormOptions opts;
  opts.channels = 4;
  opts.groups = 2;
  BatchNorm bn(opts);
  Tensor x = Tensor::Randn({16, 4, 2, 2}, &rng, 2.0f);
  Tensor y = bn.Forward(x, /*training=*/true);
  // Per-channel batch stats of the output ~ N(0, 1).
  const int64_t area = 4;
  for (int64_t c = 0; c < 4; ++c) {
    double mean = 0.0, var = 0.0;
    for (int64_t b = 0; b < 16; ++b) {
      for (int64_t p = 0; p < area; ++p) mean += y[(b * 4 + c) * area + p];
    }
    mean /= (16 * area);
    for (int64_t b = 0; b < 16; ++b) {
      for (int64_t p = 0; p < area; ++p) {
        const double d = y[(b * 4 + c) * area + p] - mean;
        var += d * d;
      }
    }
    var /= (16 * area);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 2e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeAndDriveEval) {
  Rng rng(5);
  NormOptions opts;
  opts.channels = 2;
  opts.groups = 1;
  opts.momentum = 0.2f;  // lower momentum -> less EMA sampling noise
  BatchNorm bn(opts);
  // Feed a stream with channel means 3 and -1.
  for (int step = 0; step < 60; ++step) {
    Tensor x = Tensor::Randn({32, 2}, &rng);
    for (int64_t b = 0; b < 32; ++b) {
      x.at2(b, 0) += 3.0f;
      x.at2(b, 1) -= 1.0f;
    }
    bn.Forward(x, /*training=*/true);
  }
  // Eval mode must use the running estimates: a sample exactly at the
  // running mean maps to beta (= 0).
  Tensor probe({1, 2});
  probe.at2(0, 0) = 3.0f;
  probe.at2(0, 1) = -1.0f;
  Tensor y = bn.Forward(probe, /*training=*/false);
  EXPECT_NEAR(y.at2(0, 0), 0.0f, 0.3f);
  EXPECT_NEAR(y.at2(0, 1), 0.0f, 0.3f);
}

TEST(BatchNorm, SliceRestrictsActiveChannels) {
  NormOptions opts;
  opts.channels = 8;
  opts.groups = 4;
  BatchNorm bn(opts);
  bn.SetSliceRate(0.5);
  EXPECT_EQ(bn.active_channels(), 4);
  Rng rng(6);
  Tensor x = Tensor::Randn({4, 4, 2, 2}, &rng);
  Tensor y = bn.Forward(x, true);
  EXPECT_EQ(y.dim(1), 4);
}

TEST(MultiBatchNorm, SelectsPerRateStatistics) {
  Rng rng(7);
  NormOptions opts;
  opts.channels = 8;
  opts.groups = 4;
  MultiBatchNorm mbn(opts, {0.5, 1.0});

  // Train the r=0.5 BN on mean-5 data and the r=1.0 BN on mean-0 data.
  for (int step = 0; step < 50; ++step) {
    mbn.SetSliceRate(0.5);
    Tensor x_half = Tensor::Randn({16, 4}, &rng);
    for (int64_t i = 0; i < x_half.size(); ++i) x_half[i] += 5.0f;
    mbn.Forward(x_half, true);

    mbn.SetSliceRate(1.0);
    Tensor x_full = Tensor::Randn({16, 8}, &rng);
    mbn.Forward(x_full, true);
  }

  // Eval: the r=0.5 BN should consider 5.0 "centered".
  mbn.SetSliceRate(0.5);
  Tensor probe = Tensor::Full({1, 4}, 5.0f);
  Tensor y = mbn.Forward(probe, false);
  for (int64_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], 0.0f, 0.3f);

  // While the r=1.0 BN considers 5.0 far off-center.
  mbn.SetSliceRate(1.0);
  Tensor probe_full = Tensor::Full({1, 8}, 5.0f);
  Tensor y_full = mbn.Forward(probe_full, false);
  float max_abs = 0.0f;
  for (int64_t i = 0; i < y_full.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(y_full[i]));
  }
  EXPECT_GT(max_abs, 2.0f);
}

TEST(MultiBatchNorm, NearestRateSelection) {
  NormOptions opts;
  opts.channels = 8;
  opts.groups = 4;
  MultiBatchNorm mbn(opts, {0.25, 0.5, 0.75, 1.0});
  Rng rng(8);
  // 0.6 is closest to 0.5 -> active prefix of 4 channels.
  mbn.SetSliceRate(0.6);
  Tensor x = Tensor::Randn({2, 4}, &rng);  // 0.6 slices the conv to 4 ch...
  // The selected BN was configured at its own rate; verify forward works.
  Tensor y = mbn.Forward(x, true);
  EXPECT_EQ(y.dim(1), 4);
}

bool SameBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

// The statistics reduction, AVX2 against the portable twin: the same
// doubles bit for bit at every length (whole 4-lane steps and scalar
// tails) and over magnitudes that make the lane order matter.
TEST(NormKernels, Avx2SumSqMatchesPortableBitwise) {
  const ops::detail::SumSqF32Fn vec = ops::detail::Avx2SumSqF32();
  if (vec == nullptr) GTEST_SKIP() << "no AVX2 statistics reduction here";
  Rng rng(40);
  for (int64_t n = 0; n <= 70; ++n) {
    std::vector<float> v(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const float scale = i % 7 == 0 ? 1e20f : (i % 5 == 0 ? 1e-30f : 3.0f);
      v[static_cast<size_t>(i)] =
          static_cast<float>(rng.Uniform(-1.0, 1.0)) * scale;
    }
    double s[2], q[2];
    ops::detail::SumSqF32Portable(v.data(), n, &s[0], &q[0]);
    vec(v.data(), n, &s[1], &q[1]);
    EXPECT_EQ(0, std::memcmp(&s[0], &s[1], sizeof(double))) << "n " << n;
    EXPECT_EQ(0, std::memcmp(&q[0], &q[1], sizeof(double))) << "n " << n;
  }
}

// The normalize sweep, AVX2 against the portable loop, bit for bit: every
// plane length 1..40 (whole vectors, masked tails, planes shorter than a
// vector), NaN, +-0, +-inf and subnormal inputs, negative gamma, and no
// write past the plane. Sigmoid and tanh keep the portable loop.
TEST(NormKernels, Avx2NormalizeMatchesPortableBitwise) {
  using ops::EpiAct;
  using ops::detail::NormalizeF32Fn;
  if (ops::detail::Avx2NormalizeF32(EpiAct::kRelu) == nullptr) {
    GTEST_SKIP() << "no AVX2 normalize here";
  }
  EXPECT_EQ(ops::detail::Avx2NormalizeF32(EpiAct::kSigmoid), nullptr);
  EXPECT_EQ(ops::detail::Avx2NormalizeF32(EpiAct::kTanh), nullptr);
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            0.0f, -0.0f, inf, -inf, 1e-40f, -1e-40f,
                            std::numeric_limits<float>::denorm_min()};
  struct Affine {
    float mean, inv_std, gam, bet;
  };
  const Affine affines[] = {{0.3f, 1.7f, 1.0f, 0.0f},
                            {-2.0f, 0.25f, -1.5f, 0.75f},
                            {0.0f, 1.0f, -1.0f, -0.0f},
                            {1e-40f, 3e37f, -0.5f, 1e-39f}};
  Rng rng(41);
  for (EpiAct act : {EpiAct::kNone, EpiAct::kRelu}) {
    const NormalizeF32Fn vec = ops::detail::Avx2NormalizeF32(act);
    const NormalizeF32Fn ref = ops::detail::NormalizeF32Portable(act);
    EXPECT_EQ(ops::detail::ActiveNormalizeF32(act), vec);
    for (int64_t n = 1; n <= 40; ++n) {
      for (const Affine& a : affines) {
        for (int pattern = 0; pattern < 2; ++pattern) {
          std::vector<float> x(static_cast<size_t>(n));
          for (int64_t i = 0; i < n; ++i) {
            x[static_cast<size_t>(i)] =
                pattern == 1 && i % 2 == 0
                    ? specials[static_cast<size_t>(i / 2) % 9]
                    : static_cast<float>(rng.Uniform(-4.0, 4.0));
          }
          std::vector<float> y[2];
          for (int f = 0; f < 2; ++f) {
            y[f].assign(static_cast<size_t>(n + 8), -7.0f);
            (f == 0 ? ref : vec)(x.data(), y[f].data(), n, a.mean, a.inv_std,
                                 a.gam, a.bet);
          }
          EXPECT_TRUE(SameBits(y[0].data(), y[1].data(), n + 8))
              << "act " << static_cast<int>(act) << " n " << n << " gam "
              << a.gam << " pattern " << pattern;
        }
      }
    }
  }
  // ReLU maps NaN and -0 to +0, as EpiRelu does.
  const float in[2] = {std::numeric_limits<float>::quiet_NaN(), -0.0f};
  float out[2] = {1.0f, 1.0f};
  ops::detail::Avx2NormalizeF32(EpiAct::kRelu)(in, out, 2, 0.0f, 1.0f, 1.0f,
                                               0.0f);
  const float zeros[2] = {0.0f, 0.0f};
  EXPECT_TRUE(SameBits(out, zeros, 2));
}

// The norms' inference sweep (statistics, normalize and the fused
// activation, whichever flavor runs) equals the training forward followed
// by the activation, bit for bit, on the 12x12, 6x6 and 3x3 maps of the
// zoo CNNs. One training step with momentum 1 makes BatchNorm's running
// statistics exactly the batch statistics the training forward used.
TEST(NormKernels, InferenceEqualsTrainingForwardThenActivation) {
  using ops::EpiAct;
  Rng rng(42);
  NormOptions opts;
  opts.channels = 8;
  opts.groups = 4;
  opts.momentum = 1.0f;
  const auto check = [&](auto& norm, const Tensor& x, EpiAct act,
                         const std::string& at) {
    std::vector<ParamRef> params;
    norm.CollectParams(&params);
    for (const ParamRef& p : params) {
      for (int64_t c = 0; c < p.param->size(); ++c) {
        (*p.param)[c] = static_cast<float>(rng.Uniform(-2.0, 2.0));
      }
    }
    norm.SetFusedActivation(act);
    Tensor expect = norm.Forward(x, /*training=*/true);
    for (int64_t i = 0; i < expect.size(); ++i) {
      expect[i] = ops::detail::EpiActApply(act, expect[i]);
    }
    const Tensor y = norm.Forward(x, /*training=*/false);
    ASSERT_EQ(y.shape(), expect.shape());
    EXPECT_TRUE(SameBits(y.data(), expect.data(), y.size())) << at;
  };
  for (int64_t hw : {12, 6, 3}) {
    const Tensor x = Tensor::Randn({3, 8, hw, hw}, &rng, 2.0f);
    for (EpiAct act : {EpiAct::kNone, EpiAct::kRelu, EpiAct::kSigmoid,
                       EpiAct::kTanh}) {
      const std::string at = std::to_string(hw) + "x" + std::to_string(hw) +
                             " act " + std::to_string(static_cast<int>(act));
      GroupNorm gn(opts);
      check(gn, x, act, "GroupNorm " + at);
      BatchNorm bn(opts);
      check(bn, x, act, "BatchNorm " + at);
    }
  }
}

}  // namespace
}  // namespace ms
