// Death tests: internal invariant violations must abort loudly via MS_CHECK
// rather than corrupt memory — shape mismatches between slices are the most
// dangerous class of bug in a width-dynamic library.
#include "gtest/gtest.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/module.h"
#include "src/nn/norm.h"
#include "src/nn/pooling.h"
#include "src/nn/slice_spec.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace ms {
namespace {

using InvariantsDeathTest = ::testing::Test;

TEST(InvariantsDeathTest, TensorCheckedAccessOutOfBounds) {
  Tensor t({2, 2});
  EXPECT_DEATH(t.at(4), "MS_CHECK failed");
  EXPECT_DEATH(t.at(-1), "MS_CHECK failed");
}

TEST(InvariantsDeathTest, TensorReshapeSizeMismatch) {
  Tensor t({2, 3});
  EXPECT_DEATH(t.Reshape({7}), "MS_CHECK failed");
}

TEST(InvariantsDeathTest, DenseRejectsWrongInputWidth) {
  Rng rng(1);
  DenseOptions opts;
  opts.in_features = 8;
  opts.out_features = 4;
  opts.groups = 4;
  Dense layer(opts, &rng);
  layer.SetSliceRate(0.5);  // expects 4 input features
  Tensor x = Tensor::Randn({2, 8}, &rng);
  EXPECT_DEATH(layer.Forward(x, false), "active_in");
}

TEST(InvariantsDeathTest, ConvRejectsWrongChannelCount) {
  Rng rng(2);
  Conv2dOptions opts;
  opts.in_channels = 8;
  opts.out_channels = 4;
  opts.groups = 4;
  Conv2d layer(opts, &rng);
  layer.SetSliceRate(0.5);
  Tensor x = Tensor::Randn({1, 8, 4, 4}, &rng);
  EXPECT_DEATH(layer.Forward(x, false), "active_in");
}

// A grad_out with fewer images than the training forward cached would be
// read out of bounds. The grouped and depthwise shapes check the batch as
// the plain conv does.
void ExpectConvBackwardRejectsSmallerBatch(int64_t channels_per_branch) {
  Rng rng(8);
  Conv2dOptions opts;
  opts.in_channels = opts.out_channels = 4 * channels_per_branch;
  opts.groups = opts.branches = 4;
  Conv2d layer(opts, &rng);
  Tensor x = Tensor::Randn({3, opts.in_channels, 4, 4}, &rng);
  layer.Forward(x, /*training=*/true);
  Tensor g = Tensor::Randn({1, opts.out_channels, 4, 4}, &rng);
  EXPECT_DEATH(layer.Backward(g), "MS_CHECK failed");
}

TEST(InvariantsDeathTest, GroupedConvBackwardRejectsSmallerBatch) {
  ExpectConvBackwardRejectsSmallerBatch(2);
}

TEST(InvariantsDeathTest, DepthwiseConvBackwardRejectsSmallerBatch) {
  ExpectConvBackwardRejectsSmallerBatch(1);
}

TEST(InvariantsDeathTest, GroupNormRejectsWrongPrefix) {
  NormOptions opts;
  opts.channels = 8;
  opts.groups = 4;
  GroupNorm gn(opts);
  gn.SetSliceRate(0.5);
  Rng rng(3);
  Tensor x = Tensor::Randn({1, 8, 2, 2}, &rng);
  EXPECT_DEATH(gn.Forward(x, true), "active prefix");
}

TEST(InvariantsDeathTest, SliceSpecRejectsInvalidRate) {
  SliceSpec spec(8, 4);
  EXPECT_DEATH(spec.ActiveWidth(0.0), "slice rate");
  EXPECT_DEATH(spec.ActiveWidth(1.5), "slice rate");
}

TEST(InvariantsDeathTest, BatchNormBackwardRequiresTrainingForward) {
  NormOptions opts;
  opts.channels = 4;
  BatchNorm bn(opts);
  Rng rng(4);
  Tensor x = Tensor::Randn({2, 4}, &rng);
  bn.Forward(x, /*training=*/false);
  Tensor g = Tensor::Randn({2, 4}, &rng);
  EXPECT_DEATH(bn.Backward(g), "training-mode Forward");
}

// Backward needs a training-mode Forward, checked once in Module::Backward:
// inference forwards keep no backward state, and only the last Forward
// counts.
TEST(InvariantsDeathTest, GroupNormBackwardRequiresTrainingForward) {
  NormOptions opts;
  opts.channels = 4;
  opts.groups = 2;
  GroupNorm gn(opts);
  Rng rng(5);
  Tensor x = Tensor::Randn({2, 4, 3, 3}, &rng);
  gn.Forward(x, /*training=*/true);
  gn.Forward(x, /*training=*/false);
  EXPECT_DEATH(gn.Backward(x), "training-mode Forward");
}

TEST(InvariantsDeathTest, MaxPoolBackwardRequiresTrainingForward) {
  MaxPool2d pool(2, 2);
  Rng rng(6);
  Tensor x = Tensor::Randn({1, 2, 4, 4}, &rng);
  pool.Forward(x, /*training=*/false);
  Tensor g = Tensor::Randn({1, 2, 2, 2}, &rng);
  EXPECT_DEATH(pool.Backward(g), "training-mode Forward");
}

TEST(InvariantsDeathTest, SequentialBackwardRequiresTrainingForward) {
  NormOptions opts;
  opts.channels = 4;
  Sequential seq;
  seq.Emplace<GroupNorm>(opts);
  seq.Emplace<MaxPool2d>(2, 2);
  Rng rng(7);
  Tensor x = Tensor::Randn({1, 4, 4, 4}, &rng);
  seq.Forward(x, /*training=*/false);
  Tensor g = Tensor::Randn({1, 4, 2, 2}, &rng);
  EXPECT_DEATH(seq.Backward(g), "training-mode Forward");
}

}  // namespace
}  // namespace ms
