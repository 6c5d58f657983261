// Slicing-equivalence property extended to the branch-structured layers:
// depthwise and grouped convolutions sliced to rate r must compute exactly
// what standalone layers holding the prefix filters compute, and the GRU
// must match its prefix-copied counterpart.
#include "gtest/gtest.h"
#include "src/nn/conv2d.h"
#include "src/nn/gru.h"
#include "src/util/rng.h"

namespace ms {
namespace {

class SliceEquivalenceExtra : public ::testing::TestWithParam<double> {};

TEST_P(SliceEquivalenceExtra, DepthwiseMatchesPrefixFilters) {
  const double rate = GetParam();
  Rng rng(1);
  Conv2dOptions big_opts;
  big_opts.in_channels = big_opts.out_channels = big_opts.branches = 8;
  big_opts.kernel = 3;
  big_opts.pad = 1;
  big_opts.groups = 4;
  Conv2d big(big_opts, &rng, "big");
  big.SetSliceRate(rate);
  const int64_t c = big.active_in();

  Rng rng2(2);
  Conv2dOptions small_opts = big_opts;
  small_opts.in_channels = small_opts.out_channels = small_opts.branches = c;
  small_opts.groups = 1;
  Conv2d small(small_opts, &rng2, "small");
  std::vector<ParamRef> bp, sp;
  big.CollectParams(&bp);
  small.CollectParams(&sp);
  for (int64_t i = 0; i < c * 9; ++i) {
    (*sp[0].param)[i] = (*bp[0].param)[i];
  }

  Tensor x = Tensor::Randn({2, c, 5, 5}, &rng);
  Tensor yb = big.Forward(x, false);
  Tensor ys = small.Forward(x, false);
  ASSERT_TRUE(yb.SameShape(ys));
  for (int64_t i = 0; i < yb.size(); ++i) {
    EXPECT_FLOAT_EQ(yb[i], ys[i]);
  }
}

TEST_P(SliceEquivalenceExtra, GroupedConvMatchesPrefixBranches) {
  const double rate = GetParam();
  Rng rng(3);
  Conv2dOptions big_opts;
  big_opts.in_channels = 8;
  big_opts.out_channels = 16;
  big_opts.kernel = 3;
  big_opts.pad = 1;
  big_opts.groups = 4;
  big_opts.branches = 4;
  Conv2d big(big_opts, &rng, "big");
  big.SetSliceRate(rate);
  const int64_t k = big.active_branches();

  Rng rng2(4);
  Conv2dOptions small_opts = big_opts;
  small_opts.in_channels = k * 2;   // in_per_group = 2
  small_opts.out_channels = k * 4;  // out_per_group = 4
  small_opts.groups = k;
  small_opts.branches = k;
  Conv2d small(small_opts, &rng2, "small");
  std::vector<ParamRef> bp, sp;
  big.CollectParams(&bp);
  small.CollectParams(&sp);
  // Weight layout (out, in_pg*9), branch-major rows: the prefix of
  // branches copies contiguously.
  ASSERT_LE(sp[0].param->size(), bp[0].param->size());
  for (int64_t i = 0; i < sp[0].param->size(); ++i) {
    (*sp[0].param)[i] = (*bp[0].param)[i];
  }

  Tensor x = Tensor::Randn({2, big.active_in(), 4, 4}, &rng);
  Tensor yb = big.Forward(x, false);
  Tensor ys = small.Forward(x, false);
  ASSERT_TRUE(yb.SameShape(ys));
  for (int64_t i = 0; i < yb.size(); ++i) {
    EXPECT_FLOAT_EQ(yb[i], ys[i]);
  }
}

TEST_P(SliceEquivalenceExtra, GruMatchesPrefixWeights) {
  const double rate = GetParam();
  Rng rng(5);
  GruOptions big_opts;
  big_opts.input_size = 8;
  big_opts.hidden_size = 8;
  big_opts.groups = 4;
  big_opts.rescale = false;
  Gru big(big_opts, &rng, "big");
  big.SetSliceRate(rate);
  const int64_t m = big.active_in();
  const int64_t n = big.active_hidden();

  Rng rng2(6);
  GruOptions small_opts;
  small_opts.input_size = m;
  small_opts.hidden_size = n;
  small_opts.groups = 1;
  small_opts.rescale = false;
  Gru small(small_opts, &rng2, "small");
  std::vector<ParamRef> bp, sp;
  big.CollectParams(&bp);
  small.CollectParams(&sp);
  const int64_t bh = big_opts.hidden_size;
  const int64_t bi = big_opts.input_size;
  for (int gate = 0; gate < 3; ++gate) {
    for (int64_t o = 0; o < n; ++o) {
      for (int64_t i = 0; i < m; ++i) {
        (*sp[0].param)[(gate * n + o) * m + i] =
            (*bp[0].param)[(gate * bh + o) * bi + i];
      }
      for (int64_t i = 0; i < n; ++i) {
        (*sp[1].param)[(gate * n + o) * n + i] =
            (*bp[1].param)[(gate * bh + o) * bh + i];
      }
      (*sp[2].param)[gate * n + o] = (*bp[2].param)[gate * bh + o];
      (*sp[3].param)[gate * n + o] = (*bp[3].param)[gate * bh + o];
    }
  }

  Tensor x = Tensor::Randn({4, 2, m}, &rng);
  Tensor yb = big.Forward(x, false);
  Tensor ys = small.Forward(x, false);
  ASSERT_TRUE(yb.SameShape(ys));
  for (int64_t i = 0; i < yb.size(); ++i) {
    EXPECT_NEAR(yb[i], ys[i], 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, SliceEquivalenceExtra,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace ms
