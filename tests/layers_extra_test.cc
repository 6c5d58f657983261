// Gradient checks and behavioural tests for the GRU, depthwise convolution,
// embedding, and the MobileNet-style separable model.
#include <memory>

#include "gtest/gtest.h"
#include "src/core/evaluator.h"
#include "src/core/trainer.h"
#include "src/models/cnn.h"
#include "src/nn/conv2d.h"
#include "src/nn/embedding.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "tests/gradcheck_util.h"

namespace ms {
namespace {

using testing_util::CheckModuleGradients;

class ExtraLayerGradCheck : public ::testing::TestWithParam<double> {};

TEST_P(ExtraLayerGradCheck, Gru) {
  const double rate = GetParam();
  Rng rng(31);
  GruOptions opts;
  opts.input_size = 8;
  opts.hidden_size = 8;
  opts.groups = 4;
  Gru layer(opts, &rng);
  layer.SetSliceRate(rate);
  Tensor x = Tensor::Randn({4, 3, layer.active_in()}, &rng);
  testing_util::GradCheckOptions gopts;
  gopts.rtol = 3e-2;
  gopts.atol = 3e-4;
  CheckModuleGradients(&layer, x, 201, gopts);
}

TEST_P(ExtraLayerGradCheck, GruInputUnsliced) {
  const double rate = GetParam();
  Rng rng(32);
  GruOptions opts;
  opts.input_size = 6;
  opts.hidden_size = 8;
  opts.groups = 4;
  opts.slice_in = false;
  opts.rescale = false;
  Gru layer(opts, &rng);
  layer.SetSliceRate(rate);
  Tensor x = Tensor::Randn({3, 2, 6}, &rng);
  testing_util::GradCheckOptions gopts;
  gopts.rtol = 3e-2;
  gopts.atol = 3e-4;
  CheckModuleGradients(&layer, x, 202, gopts);
}

TEST_P(ExtraLayerGradCheck, DepthwiseConv) {
  const double rate = GetParam();
  Rng rng(33);
  Conv2dOptions opts;
  opts.in_channels = opts.out_channels = opts.branches = 8;
  opts.kernel = 3;
  opts.pad = 1;
  opts.groups = 4;
  Conv2d layer(opts, &rng);
  layer.SetSliceRate(rate);
  Tensor x = Tensor::Randn({2, layer.active_in(), 5, 5}, &rng);
  CheckModuleGradients(&layer, x, 203);
}

TEST_P(ExtraLayerGradCheck, DepthwiseConvStrided) {
  const double rate = GetParam();
  Rng rng(34);
  Conv2dOptions opts;
  opts.in_channels = opts.out_channels = opts.branches = 8;
  opts.kernel = 3;
  opts.stride = 2;
  opts.pad = 1;
  opts.groups = 4;
  Conv2d layer(opts, &rng);
  layer.SetSliceRate(rate);
  Tensor x = Tensor::Randn({2, layer.active_in(), 6, 6}, &rng);
  CheckModuleGradients(&layer, x, 204);
}

INSTANTIATE_TEST_SUITE_P(Rates, ExtraLayerGradCheck,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

TEST(DepthwiseConv, CostScalesLinearlyWithRate) {
  // Unlike dense/conv layers (O(r^2)), depthwise cost is O(r): one filter
  // per channel (paper Sec. 3.5's multi-branch suitability).
  Rng rng(35);
  Conv2dOptions opts;
  opts.in_channels = opts.out_channels = opts.branches = 16;
  opts.groups = 8;
  Conv2d layer(opts, &rng);
  layer.SetSliceRate(1.0);
  Tensor x = Tensor::Randn({1, 16, 6, 6}, &rng);
  layer.Forward(x, false);
  const int64_t full = layer.FlopsPerSample();
  layer.SetSliceRate(0.5);
  Tensor x_half = Tensor::Randn({1, 8, 6, 6}, &rng);
  layer.Forward(x_half, false);
  EXPECT_EQ(layer.FlopsPerSample() * 2, full);
}

TEST(Gru, GateCountsDifferFromLstm) {
  Rng rng(36);
  GruOptions gopts;
  gopts.input_size = 8;
  gopts.hidden_size = 8;
  Gru gru(gopts, &rng);
  LstmOptions lopts;
  lopts.input_size = 8;
  lopts.hidden_size = 8;
  Lstm lstm(lopts, &rng);
  // 3 gates vs 4 gates.
  EXPECT_EQ(gru.FlopsPerSample() * 4, lstm.FlopsPerSample() * 3);
}

TEST(Gru, ForwardShapesAndDeterminism) {
  Rng rng(37);
  GruOptions opts;
  opts.input_size = 6;
  opts.hidden_size = 10;
  opts.groups = 2;
  Gru gru(opts, &rng);
  gru.SetSliceRate(0.5);
  Tensor x = Tensor::Randn({5, 3, gru.active_in()}, &rng);
  Tensor y1 = gru.Forward(x, true);
  Tensor y2 = gru.Forward(x, true);
  EXPECT_EQ(y1.shape(), (std::vector<int64_t>{5, 3, gru.active_hidden()}));
  for (int64_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(Embedding, LookupAndGradientScatter) {
  Rng rng(38);
  EmbeddingOptions opts;
  opts.vocab_size = 10;
  opts.dim = 4;
  Embedding embed(opts, &rng);
  std::vector<int> tokens = {3, 7, 3};
  Tensor out = embed.Forward(tokens);
  EXPECT_EQ(out.shape(), (std::vector<int64_t>{3, 4}));
  // Rows 0 and 2 are the same embedding.
  for (int64_t d = 0; d < 4; ++d) {
    EXPECT_EQ(out.at2(0, d), out.at2(2, d));
  }
  // Backward scatters into the right rows; repeated tokens accumulate.
  Tensor grad = Tensor::Full({3, 4}, 1.0f);
  embed.Backward(grad);
  std::vector<ParamRef> params;
  embed.CollectParams(&params);
  ASSERT_EQ(params.size(), 1u);
  const Tensor& g = *params[0].grad;
  for (int64_t d = 0; d < 4; ++d) {
    EXPECT_FLOAT_EQ(g[3 * 4 + d], 2.0f);  // token 3 appears twice
    EXPECT_FLOAT_EQ(g[7 * 4 + d], 1.0f);
    EXPECT_FLOAT_EQ(g[1 * 4 + d], 0.0f);
  }
}

TEST(Embedding, SlicedOutputDim) {
  Rng rng(39);
  EmbeddingOptions opts;
  opts.vocab_size = 6;
  opts.dim = 8;
  opts.groups = 4;
  opts.slice_out = true;
  Embedding embed(opts, &rng);
  embed.SetSliceRate(0.5);
  EXPECT_EQ(embed.active_dim(), 4);
  Tensor out = embed.Forward({0, 1});
  EXPECT_EQ(out.dim(1), 4);
}

TEST(MobileNet, TrainsWithSlicing) {
  SyntheticImageOptions dopts;
  dopts.num_classes = 5;
  dopts.modes_per_class = 2;
  dopts.channels = 3;
  dopts.height = 8;
  dopts.width = 8;
  dopts.train_size = 500;
  dopts.test_size = 200;
  dopts.noise = 0.4;
  dopts.max_shift = 1;
  dopts.seed = 11;
  auto split = MakeSyntheticImages(dopts).MoveValueOrDie();

  CnnConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 5;
  cfg.base_width = 16;
  cfg.stages = 2;
  cfg.blocks_per_stage = 2;
  cfg.slice_groups = 4;
  cfg.norm = NormKind::kGroup;
  cfg.seed = 12;
  auto net = MakeMobileNetSmall(cfg).MoveValueOrDie();

  auto lattice = SliceConfig::Make(0.25, 0.25).MoveValueOrDie();
  RandomStaticScheduler sched(lattice, true, true);
  ImageTrainOptions topts;
  topts.epochs = 8;
  topts.batch_size = 32;
  topts.sgd.lr = 0.05;
  topts.augment = false;
  TrainImageClassifier(net.get(), split.train, &sched, topts);
  EXPECT_GT(EvalAccuracy(net.get(), split.test, 1.0), 0.5f);
  EXPECT_GT(EvalAccuracy(net.get(), split.test, 0.25), 0.35f);
}

TEST(ResNeXt, TrainsWithSlicing) {
  SyntheticImageOptions dopts;
  dopts.num_classes = 5;
  dopts.modes_per_class = 2;
  dopts.channels = 3;
  dopts.height = 8;
  dopts.width = 8;
  dopts.train_size = 500;
  dopts.test_size = 200;
  dopts.noise = 0.4;
  dopts.max_shift = 1;
  dopts.seed = 11;
  auto split = MakeSyntheticImages(dopts).MoveValueOrDie();

  CnnConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 5;
  cfg.base_width = 16;
  cfg.stages = 2;
  cfg.blocks_per_stage = 1;
  cfg.slice_groups = 4;
  cfg.norm = NormKind::kGroup;
  cfg.seed = 15;
  auto net = MakeResNeXtSmall(cfg).MoveValueOrDie();

  auto lattice = SliceConfig::Make(0.25, 0.25).MoveValueOrDie();
  RandomStaticScheduler sched(lattice, true, true);
  ImageTrainOptions topts;
  topts.epochs = 8;
  topts.batch_size = 32;
  topts.sgd.lr = 0.05;
  topts.augment = false;
  TrainImageClassifier(net.get(), split.train, &sched, topts);
  EXPECT_GT(EvalAccuracy(net.get(), split.test, 1.0), 0.5f);
  EXPECT_GT(EvalAccuracy(net.get(), split.test, 0.25), 0.35f);
}

TEST(MobileNet, DepthwiseFlopsScaleLinearly) {
  CnnConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 5;
  cfg.base_width = 16;
  cfg.stages = 1;
  cfg.blocks_per_stage = 1;
  cfg.slice_groups = 4;
  auto net = MakeMobileNetSmall(cfg).MoveValueOrDie();
  Tensor sample({1, 3, 8, 8});
  net->SetSliceRate(1.0);
  net->Forward(sample, false);
  const int64_t full = net->FlopsPerSample();
  net->SetSliceRate(0.5);
  net->Forward(sample, false);
  const int64_t half = net->FlopsPerSample();
  // Mixed linear (depthwise) + quadratic (pointwise/stem) scaling lands
  // strictly between r and r^2 of the full cost.
  EXPECT_GT(half, full / 4);
  EXPECT_LT(half, full);
}

}  // namespace
}  // namespace ms
