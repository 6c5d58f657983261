// Structural tests for the model builders and the zoo: output shapes,
// slicing propagation, parameter sharing and config validation.
#include <memory>

#include "gtest/gtest.h"
#include "src/models/cnn.h"
#include "src/models/mlp.h"
#include "src/models/nnlm.h"
#include "src/models/zoo.h"
#include "src/util/rng.h"

namespace ms {
namespace {

CnnConfig SmallCnn() {
  CnnConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 7;
  cfg.base_width = 8;
  cfg.stages = 2;
  cfg.blocks_per_stage = 1;
  cfg.slice_groups = 4;
  cfg.seed = 1;
  return cfg;
}

TEST(VggSmall, OutputShapeIsClassLogits) {
  auto net = MakeVggSmall(SmallCnn()).MoveValueOrDie();
  Rng rng(2);
  Tensor x = Tensor::Randn({5, 3, 8, 8}, &rng);
  for (double r : {0.25, 0.5, 1.0}) {
    net->SetSliceRate(r);
    Tensor y = net->Forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{5, 7})) << "rate " << r;
  }
}

TEST(ResNet, OutputShapeIsClassLogits) {
  auto net = MakeResNet(SmallCnn()).MoveValueOrDie();
  Rng rng(3);
  Tensor x = Tensor::Randn({4, 3, 8, 8}, &rng);
  for (double r : {0.25, 0.5, 1.0}) {
    net->SetSliceRate(r);
    Tensor y = net->Forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{4, 7})) << "rate " << r;
  }
}

TEST(MobileNet, OutputShapeIsClassLogits) {
  auto net = MakeMobileNetSmall(SmallCnn()).MoveValueOrDie();
  Rng rng(4);
  Tensor x = Tensor::Randn({3, 3, 8, 8}, &rng);
  for (double r : {0.25, 0.5, 1.0}) {
    net->SetSliceRate(r);
    Tensor y = net->Forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{3, 7})) << "rate " << r;
  }
}

TEST(ResNeXt, OutputShapeAndWidthsDivisibleByBranches) {
  auto cfg = SmallCnn();
  cfg.slice_groups = 4;
  auto net = MakeResNeXtSmall(cfg).MoveValueOrDie();
  Rng rng(13);
  Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);
  for (double r : {0.25, 0.5, 1.0}) {
    net->SetSliceRate(r);
    Tensor y = net->Forward(x, true);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 7})) << "rate " << r;
    Tensor g = Tensor::Randn(y.shape(), &rng);
    Tensor gx = net->Backward(g);
    EXPECT_EQ(gx.shape(), x.shape());
  }
}

TEST(Models, BackwardRunsAtEveryRate) {
  for (int kind = 0; kind < 4; ++kind) {
    auto net = (kind == 0   ? MakeVggSmall(SmallCnn())
                : kind == 1 ? MakeResNet(SmallCnn())
                : kind == 2 ? MakeResNeXtSmall(SmallCnn())
                            : MakeMobileNetSmall(SmallCnn()))
                   .MoveValueOrDie();
    Rng rng(5);
    Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);
    for (double r : {0.25, 0.75, 1.0}) {
      net->SetSliceRate(r);
      Tensor y = net->Forward(x, true);
      Tensor g = Tensor::Randn(y.shape(), &rng);
      Tensor gx = net->Backward(g);
      EXPECT_EQ(gx.shape(), x.shape()) << "kind " << kind << " r " << r;
    }
  }
}

TEST(Models, ParamCountMatchesCollectParams) {
  auto net = MakeVggSmall(SmallCnn()).MoveValueOrDie();
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  EXPECT_FALSE(params.empty());
  int64_t total = 0;
  for (const auto& p : params) {
    EXPECT_EQ(p.param->size(), p.grad->size());
    total += p.param->size();
  }
  // Full-rate active params must not exceed the total storage.
  net->SetSliceRate(1.0);
  Rng rng(6);
  Tensor x = Tensor::Randn({1, 3, 8, 8}, &rng);
  net->Forward(x, false);
  EXPECT_LE(net->ActiveParams(), total);
  EXPECT_GT(net->ActiveParams(), total / 2);
}

TEST(Models, SubnetParametersAreSharedPrefixes) {
  // Key slicing property: running at a small rate then at the full rate
  // leaves parameters untouched, and gradients at rate r live only in the
  // active prefix.
  auto net = MakeVggSmall(SmallCnn()).MoveValueOrDie();
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  Rng rng(7);
  Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);

  net->SetSliceRate(0.25);
  Tensor y = net->Forward(x, true);
  Tensor g = Tensor::Full(y.shape(), 1.0f);
  for (auto& p : params) p.grad->Zero();
  net->Backward(g);

  // Some gradient entries must be exactly zero (inactive suffix) and some
  // non-zero (active prefix) for the big conv weights.
  int64_t zeros = 0, nonzeros = 0;
  for (const auto& p : params) {
    for (int64_t i = 0; i < p.grad->size(); ++i) {
      if ((*p.grad)[i] == 0.0f) {
        ++zeros;
      } else {
        ++nonzeros;
      }
    }
  }
  EXPECT_GT(zeros, nonzeros);  // at r=0.25 most parameters are inactive
  EXPECT_GT(nonzeros, 0);
}

TEST(Mlp, RejectsBadConfigs) {
  MlpConfig cfg;
  EXPECT_FALSE(MakeMlp(cfg).ok());  // zero dims
  cfg.in_features = 4;
  cfg.num_classes = 3;
  cfg.hidden = {};
  EXPECT_FALSE(MakeMlp(cfg).ok());
  cfg.hidden = {0};
  EXPECT_FALSE(MakeMlp(cfg).ok());
}

TEST(Cnn, RejectsBadConfigs) {
  CnnConfig cfg = SmallCnn();
  cfg.num_classes = 1;
  EXPECT_FALSE(MakeVggSmall(cfg).ok());
  cfg = SmallCnn();
  cfg.width_mult = 0.0;
  EXPECT_FALSE(MakeResNet(cfg).ok());
  cfg = SmallCnn();
  cfg.norm = NormKind::kMultiBatch;  // without rates
  EXPECT_FALSE(MakeVggSmall(cfg).ok());
}

TEST(Zoo, AllModelsBuildAndForward) {
  for (const auto& name : ListZooModels()) {
    const ZooEntry entry = GetZooModel(name).MoveValueOrDie();
    auto net = (entry.is_resnet ? MakeResNet(entry.config)
                                : MakeVggSmall(entry.config))
                   .MoveValueOrDie();
    const auto dopts = ZooDatasetOptions(entry.dataset);
    Rng rng(8);
    Tensor x = Tensor::Randn({1, dopts.channels, dopts.height, dopts.width},
                             &rng);
    net->SetSliceRate(0.5);
    Tensor y = net->Forward(x, false);
    EXPECT_EQ(y.dim(1), entry.config.num_classes) << name;
  }
  EXPECT_FALSE(GetZooModel("nope").ok());
}

TEST(Nnlm, LogitShapeAndFlopsMonotone) {
  NnlmConfig cfg;
  cfg.vocab_size = 30;
  cfg.embed_dim = 16;
  cfg.hidden = 16;
  cfg.num_layers = 2;
  cfg.slice_groups = 4;
  cfg.dropout = 0.0;
  auto model = Nnlm::Make(cfg).MoveValueOrDie();
  std::vector<int> tokens(4 * 3, 1);
  int64_t prev_flops = 0;
  for (double r : {0.25, 0.5, 0.75, 1.0}) {
    model->SetSliceRate(r);
    Tensor logits = model->Forward(tokens, 4, 3, false);
    EXPECT_EQ(logits.shape(), (std::vector<int64_t>{12, 30}));
    EXPECT_GT(model->FlopsPerToken(), prev_flops);
    prev_flops = model->FlopsPerToken();
  }
}

TEST(ScaledWidth, RoundsAndClamps) {
  EXPECT_EQ(ScaledWidth(16, 0.5), 8);
  EXPECT_EQ(ScaledWidth(16, 1.0), 16);
  EXPECT_EQ(ScaledWidth(3, 0.01), 1);  // clamped to >= 1
  EXPECT_EQ(ScaledWidth(10, 0.25), 3); // round(2.5) == 3 (llround up)
}

}  // namespace
}  // namespace ms
