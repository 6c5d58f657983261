// Gradient checks and branch-semantics tests for the ResNeXt-style grouped
// convolution (Conv2d with branches == slicing groups) under slicing.
#include "gtest/gtest.h"
#include "src/nn/conv2d.h"
#include "tests/gradcheck_util.h"

namespace ms {
namespace {

class GroupedConvGradCheck : public ::testing::TestWithParam<double> {};

TEST_P(GroupedConvGradCheck, Gradients) {
  const double rate = GetParam();
  Rng rng(41);
  Conv2dOptions opts;
  opts.in_channels = 8;
  opts.out_channels = 8;
  opts.kernel = 3;
  opts.pad = 1;
  opts.groups = 4;
  opts.branches = 4;
  Conv2d layer(opts, &rng);
  layer.SetSliceRate(rate);
  Tensor x = Tensor::Randn({2, layer.active_in(), 5, 5}, &rng);
  testing_util::CheckModuleGradients(&layer, x, 401);
}

INSTANTIATE_TEST_SUITE_P(Rates, GroupedConvGradCheck,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

TEST(GroupedConv, BranchesAreIndependent) {
  // Zeroing the input of branch 1 must not change branch 0's output.
  Rng rng(42);
  Conv2dOptions opts;
  opts.in_channels = 4;
  opts.out_channels = 4;
  opts.kernel = 3;
  opts.pad = 1;
  opts.groups = 2;
  opts.branches = 2;
  Conv2d layer(opts, &rng);
  Tensor x = Tensor::Randn({1, 4, 4, 4}, &rng);
  Tensor y_full = layer.Forward(x, false);
  Tensor x_masked = x;
  for (int64_t i = 2 * 16; i < 4 * 16; ++i) x_masked[i] = 0.0f;  // branch 1
  Tensor y_masked = layer.Forward(x_masked, false);
  for (int64_t i = 0; i < 2 * 16; ++i) {   // branch 0 outputs unchanged
    EXPECT_FLOAT_EQ(y_full[i], y_masked[i]);
  }
}

TEST(GroupedConv, CostScalesLinearlyInActiveBranches) {
  Rng rng(43);
  Conv2dOptions opts;
  opts.in_channels = 16;
  opts.out_channels = 16;
  opts.groups = 4;
  opts.branches = 4;
  Conv2d layer(opts, &rng);
  layer.SetSliceRate(1.0);
  Tensor x = Tensor::Randn({1, 16, 4, 4}, &rng);
  layer.Forward(x, false);
  const int64_t full = layer.FlopsPerSample();
  layer.SetSliceRate(0.5);
  Tensor x_half = Tensor::Randn({1, 8, 4, 4}, &rng);
  layer.Forward(x_half, false);
  EXPECT_EQ(layer.FlopsPerSample() * 2, full);
}

TEST(GroupedConvDeathTest, RejectsIndivisibleChannels) {
  Rng rng(46);
  Conv2dOptions opts;
  opts.in_channels = 6;
  opts.out_channels = 8;
  opts.groups = 4;
  opts.branches = 4;  // 6 % 4 != 0
  EXPECT_DEATH(Conv2d layer(opts, &rng), "divide by branches");
}

}  // namespace
}  // namespace ms
