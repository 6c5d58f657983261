// Oracle suite for fused GEMM epilogues (src/tensor/epilogue.h) and the
// activation footprint of inference forwards.
//
// The contract under test:
//   * Every GEMM entry point (Gemm, GemmPrepackedB, GemmPrepackedA,
//     GemmQuantizedB, GemmQuantizedWeightA) called with an epilogue is
//     bitwise identical to the same call without one followed by the same
//     per-element post-pass (detail::EpiApply), for every epilogue shape
//     (bias per-row/per-col, scale-shift, each activation), transpose
//     combination, slice prefix, and thread count. GemmRef with an
//     epilogue is the independent oracle for Gemm.
//   * An inference forward leaves no tensor live once its output is gone,
//     and a vgg13 forward's activation peak rises with the slice rate.
//   * Whole zoo models run bitwise identically to a parameter-copied twin
//     whose fusion marks were cleared, at several slice rates, both
//     precisions, and in training as well as inference forwards.
//   * Layer biases ride the GEMM epilogue in training too, bitwise equal
//     to the GEMM followed by a separate bias pass.
//   * The conv forward, which reads its im2col matrix in place, equals
//     Im2Col + the matrix entry points bit for bit, in both precisions.
//
// This TU applies detail::EpiApply as a reference post-pass; its
// scale-shift is a contractible mul+add, so tests/CMakeLists.txt compiles
// this file with -ffp-contract=off (matching the library).
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/models/cnn.h"
#include "src/models/mlp.h"
#include "src/models/zoo.h"
#include "src/nn/activations.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/fusion.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "src/nn/norm.h"
#include "src/nn/pooling.h"
#include "src/nn/residual.h"
#include "src/nn/serialize.h"
#include "src/nn/slice_spec.h"
#include "src/tensor/epilogue.h"
#include "src/tensor/gemm.h"
#include "src/tensor/prepack.h"
#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace ms {
namespace {

using ops::Epilogue;
using ops::EpiAct;

// Restores the global thread count on scope exit so a failing ASSERT
// cannot leak state into later tests.
struct GlobalStateGuard {
  int threads = ops::ComputeThreads();
  ~GlobalStateGuard() { ops::SetComputeThreads(threads); }
};

// Reference post-pass over the logical (m, n) block of C. Same scalar
// helper the kernels call at merge time; this TU builds contract-off.
void ApplyEpilogueReference(const Epilogue& e, int64_t m, int64_t n,
                            float* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      c[i * ldc + j] = ops::detail::EpiApply(e, i, j, c[i * ldc + j]);
    }
  }
}

struct EpiConfig {
  bool bias = false;
  bool scale_shift = false;
  bool per_row = false;
  EpiAct act = EpiAct::kNone;
};

// All epilogue shapes a layer can request, plus the empty descriptor
// (which must degrade to the unfused kernel exactly).
std::vector<EpiConfig> AllEpiConfigs() {
  std::vector<EpiConfig> out;
  for (int bias = 0; bias < 2; ++bias) {
    for (int ss = 0; ss < 2; ++ss) {
      for (int pr = 0; pr < 2; ++pr) {
        for (EpiAct act :
             {EpiAct::kNone, EpiAct::kRelu, EpiAct::kSigmoid, EpiAct::kTanh}) {
          if (pr == 1 && bias == 0 && ss == 0) continue;  // per_row is moot
          out.push_back({bias != 0, ss != 0, pr != 0, act});
        }
      }
    }
  }
  return out;
}

// Vectors sized for the larger of the two C extents so one config serves
// both per_row and per_column indexing.
struct EpiVectors {
  Tensor bias, scale, shift;
  Epilogue Build(const EpiConfig& cfg) const {
    Epilogue e;
    if (cfg.bias) e.bias = bias.data();
    if (cfg.scale_shift) {
      e.scale = scale.data();
      e.shift = shift.data();
    }
    e.per_row = cfg.per_row;
    e.act = cfg.act;
    return e;
  }
};

EpiVectors MakeEpiVectors(int64_t extent, Rng* rng) {
  EpiVectors v;
  v.bias = Tensor::Randn({extent}, rng, 0.5f);
  v.scale = Tensor::Randn({extent}, rng, 0.7f);
  v.shift = Tensor::Randn({extent}, rng, 0.3f);
  return v;
}

void ExpectBitwise(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           static_cast<size_t>(got.size()) * sizeof(float)))
      << what;
}

// ---------------------------------------------------------------------------
// Gemm vs the GemmRef oracle and vs unfused + reference post-pass.
// ---------------------------------------------------------------------------

TEST(FusedGemm, GemmMatchesOracleEverywhere) {
  GlobalStateGuard guard;
  Rng rng(401);
  struct Shape {
    int64_t m, n, k;
  };
  const Shape shapes[] = {{5, 7, 9}, {17, 33, 24}, {48, 31, 32}};
  for (const Shape& s : shapes) {
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        const int64_t lda = ta ? s.m + 2 : s.k + 2;
        const int64_t ldb = tb ? s.k + 1 : s.n + 1;
        const int64_t ldc = s.n + 3;
        Tensor a = Tensor::Randn({(ta ? s.k : s.m), lda}, &rng);
        Tensor b = Tensor::Randn({(tb ? s.n : s.k), ldb}, &rng);
        Tensor c0 = Tensor::Randn({s.m, ldc}, &rng);
        EpiVectors vecs = MakeEpiVectors(std::max(s.m, s.n), &rng);
        for (const EpiConfig& cfg : AllEpiConfigs()) {
          const Epilogue epi = vecs.Build(cfg);
          for (float beta : {0.0f, 0.5f}) {
            // Unfused + post-pass reference.
            Tensor c_post = c0;
            ops::Gemm(ta, tb, s.m, s.n, s.k, 1.0f, a.data(), lda, b.data(),
                      ldb, beta, c_post.data(), ldc);
            ApplyEpilogueReference(epi, s.m, s.n, c_post.data(), ldc);
            // Independent scalar oracle.
            Tensor c_ref = c0;
            ops::GemmRef(ta, tb, s.m, s.n, s.k, 1.0f, a.data(), lda,
                         b.data(), ldb, beta, c_ref.data(), ldc, epi);
            ExpectBitwise(c_ref, c_post, "GemmRef vs unfused+post-pass");
            for (int threads : {1, 3}) {
              ops::SetComputeThreads(threads);
              Tensor c = c0;
              ops::Gemm(ta, tb, s.m, s.n, s.k, 1.0f, a.data(), lda,
                        b.data(), ldb, beta, c.data(), ldc, epi);
              ExpectBitwise(c, c_ref, "Gemm vs GemmRef");
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Prepacked flavors, including slice prefixes of the packed extents.
// ---------------------------------------------------------------------------

TEST(FusedGemm, PrepackedBMatchesUnfusedPlusPostPass) {
  GlobalStateGuard guard;
  Rng rng(402);
  const int64_t m = 21, n_full = 40, k_full = 48;
  for (int tb = 0; tb < 2; ++tb) {
    const int64_t ldb = tb ? k_full : n_full;
    Tensor a = Tensor::Randn({m, k_full}, &rng);
    Tensor b = Tensor::Randn({(tb ? n_full : k_full), ldb}, &rng);
    ops::PackedMatrix pack;
    ops::EnsurePackedB(tb, k_full, n_full, b.data(), ldb, &pack);
    EpiVectors vecs = MakeEpiVectors(std::max(m, n_full), &rng);
    for (int64_t n : {n_full, n_full / 2}) {
      Tensor c0 = Tensor::Randn({m, n}, &rng);
      for (const EpiConfig& cfg : AllEpiConfigs()) {
        const Epilogue epi = vecs.Build(cfg);
        for (float beta : {0.0f, 1.0f}) {
          Tensor c_ref = c0;
          ops::GemmPrepackedB(false, m, n, k_full, 1.0f, a.data(), k_full,
                              pack, beta, c_ref.data(), n);
          ApplyEpilogueReference(epi, m, n, c_ref.data(), n);
          for (int threads : {1, 3}) {
            ops::SetComputeThreads(threads);
            Tensor c = c0;
            ops::GemmPrepackedB(false, m, n, k_full, 1.0f, a.data(),
                                k_full, pack, beta, c.data(), n, epi);
            ExpectBitwise(c, c_ref, "GemmPrepackedB");
          }
        }
      }
    }
  }
}

TEST(FusedGemm, PrepackedAMatchesUnfusedPlusPostPass) {
  GlobalStateGuard guard;
  Rng rng(403);
  const int64_t m = 24, n = 33, k = 40;
  for (int ta = 0; ta < 2; ++ta) {
    const int64_t lda = ta ? m : k;
    Tensor a = Tensor::Randn({(ta ? k : m), lda}, &rng);
    Tensor b = Tensor::Randn({k, n}, &rng);
    ops::PackedMatrix pack;
    ops::EnsurePackedA(ta, m, k, a.data(), lda, &pack);
    Tensor c0 = Tensor::Randn({m, n}, &rng);
    EpiVectors vecs = MakeEpiVectors(std::max(m, n), &rng);
    for (const EpiConfig& cfg : AllEpiConfigs()) {
      const Epilogue epi = vecs.Build(cfg);
      for (float beta : {0.0f, 1.0f}) {
        Tensor c_ref = c0;
        ops::GemmPrepackedA(m, n, k, pack, false, b.data(), n, beta,
                            c_ref.data(), n);
        ApplyEpilogueReference(epi, m, n, c_ref.data(), n);
        for (int threads : {1, 3}) {
          ops::SetComputeThreads(threads);
          Tensor c = c0;
          ops::GemmPrepackedA(m, n, k, pack, false, b.data(), n, beta,
                              c.data(), n, epi);
          ExpectBitwise(c, c_ref, "GemmPrepackedA");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Quantized flavors: k must hit a pack segment end, beta in {0, 1}.
// ---------------------------------------------------------------------------

TEST(FusedGemm, QuantizedBMatchesUnfusedPlusPostPass) {
  GlobalStateGuard guard;
  Rng rng(404);
  const int64_t m = 19, n_full = 36, k_full = 48;
  const std::vector<int64_t> ends = {16, 32, 48};
  for (int tb = 0; tb < 2; ++tb) {
    const int64_t ldb = tb ? k_full : n_full;
    Tensor a = Tensor::Randn({m, k_full}, &rng);
    Tensor b = Tensor::Randn({(tb ? n_full : k_full), ldb}, &rng);
    ops::QuantizedPack pack;
    ops::EnsureQuantizedB(tb, k_full, n_full, b.data(), ldb, ends, &pack);
    EpiVectors vecs = MakeEpiVectors(std::max(m, n_full), &rng);
    for (int64_t k : {int64_t{32}, k_full}) {
      for (int64_t n : {n_full, n_full / 2}) {
        Tensor c0 = Tensor::Randn({m, n}, &rng);
        for (const EpiConfig& cfg : AllEpiConfigs()) {
          const Epilogue epi = vecs.Build(cfg);
          for (float beta : {0.0f, 1.0f}) {
            Tensor c_ref = c0;
            ops::GemmQuantizedB(false, m, n, k, 1.0f, a.data(), k_full,
                                pack, beta, c_ref.data(), n);
            ApplyEpilogueReference(epi, m, n, c_ref.data(), n);
            for (int threads : {1, 3}) {
              ops::SetComputeThreads(threads);
              Tensor c = c0;
              ops::GemmQuantizedB(false, m, n, k, 1.0f, a.data(), k_full,
                                  pack, beta, c.data(), n, epi);
              ExpectBitwise(c, c_ref, "GemmQuantizedB");
            }
          }
        }
      }
    }
  }
}

TEST(FusedGemm, QuantizedWeightAMatchesUnfusedPlusPostPass) {
  GlobalStateGuard guard;
  Rng rng(405);
  // Conv shape: C(m, n) = W[:m, :k] * b[:k, :n]; the pack holds W^T.
  const int64_t m_full = 24, n = 30, k_full = 32;
  const std::vector<int64_t> ends = {16, 32};
  Tensor w = Tensor::Randn({m_full, k_full}, &rng);
  Tensor b = Tensor::Randn({k_full, n}, &rng);
  ops::QuantizedPack pack;
  // Same call the conv layers make: pack op(B) = W^T via trans_b.
  ops::EnsureQuantizedB(true, k_full, m_full, w.data(), k_full, ends, &pack);
  EpiVectors vecs = MakeEpiVectors(std::max(m_full, n), &rng);
  for (int64_t k : {int64_t{16}, k_full}) {
    Tensor c0 = Tensor::Randn({m_full, n}, &rng);
    for (const EpiConfig& cfg : AllEpiConfigs()) {
      const Epilogue epi = vecs.Build(cfg);
      for (float beta : {0.0f, 1.0f}) {
        Tensor c_ref = c0;
        ops::GemmQuantizedWeightA(m_full, n, k, pack, b.data(), n, beta,
                                  c_ref.data(), n);
        ApplyEpilogueReference(epi, m_full, n, c_ref.data(), n);
        for (int threads : {1, 3}) {
          ops::SetComputeThreads(threads);
          Tensor c = c0;
          ops::GemmQuantizedWeightA(m_full, n, k, pack, b.data(), n, beta,
                                    c.data(), n, epi);
          ExpectBitwise(c, c_ref, "GemmQuantizedWeightA");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Activation footprint (Tensor::LiveBytes / PeakLiveBytes).
// ---------------------------------------------------------------------------

// An inference forward keeps no backward state: once its output is gone,
// no tensor it allocated is still live.
void ExpectInferenceLeavesNothingLive(Module* layer, const Tensor& x,
                                      const std::string& what) {
  const int64_t before = Tensor::LiveBytes();
  {
    Tensor y = layer->Forward(x, /*training=*/false);
    ASSERT_GT(y.size(), 0) << what;
  }
  EXPECT_EQ(Tensor::LiveBytes(), before)
      << what << ": the inference forward left a tensor behind";
}

TEST(ActivationFootprint, InferenceForwardKeepsNoBackwardState) {
  GlobalStateGuard guard;
  ops::SetComputeThreads(1);
  Rng rng(407);
  {
    DenseOptions opts;
    opts.in_features = 24;
    opts.out_features = 16;
    opts.groups = 4;
    opts.bias = true;
    Dense layer(opts, &rng);
    ExpectInferenceLeavesNothingLive(
        &layer, Tensor::Randn({4, 24}, &rng), "Dense");
  }
  {
    Conv2dOptions opts;
    opts.in_channels = 8;
    opts.out_channels = 8;
    opts.groups = 4;
    opts.branches = 4;
    Conv2d layer(opts, &rng);
    ExpectInferenceLeavesNothingLive(
        &layer, Tensor::Randn({2, 8, 6, 6}, &rng), "grouped Conv2d");
  }
  {
    Conv2dOptions opts;
    opts.in_channels = opts.out_channels = opts.branches = 8;
    opts.groups = 4;
    Conv2d layer(opts, &rng);
    ExpectInferenceLeavesNothingLive(
        &layer, Tensor::Randn({2, 8, 6, 6}, &rng), "depthwise Conv2d");
  }
  {
    ReLU layer;
    ExpectInferenceLeavesNothingLive(
        &layer, Tensor::Randn({4, 32}, &rng), "ReLU");
  }
  {
    Tanh layer;
    ExpectInferenceLeavesNothingLive(
        &layer, Tensor::Randn({4, 32}, &rng), "Tanh");
  }
}

// The paper's footprint claim, activation side: one vgg13 batch-1 forward
// peaks higher the wider the slice.
TEST(ActivationFootprint, Vgg13PeakRisesWithSliceRate) {
  GlobalStateGuard guard;
  ops::SetComputeThreads(1);
  const ZooEntry entry = GetZooModel("vgg13").MoveValueOrDie();
  auto net = MakeVggSmall(entry.config).MoveValueOrDie();
  const auto dopts = ZooDatasetOptions(entry.dataset);
  Rng rng(408);
  const Tensor x =
      Tensor::Randn({1, dopts.channels, dopts.height, dopts.width}, &rng);
  int64_t prev_peak = 0;
  for (const double r : {0.25, 0.5, 1.0}) {
    net->SetSliceRate(r);
    // Warm lazy caches first so the measured forward sees only activations.
    net->Forward(x, /*training=*/false);
    const int64_t before = Tensor::LiveBytes();
    Tensor::ResetPeakLiveBytes();
    net->Forward(x, /*training=*/false);
    const int64_t peak = Tensor::PeakLiveBytes() - before;
    EXPECT_EQ(Tensor::LiveBytes(), before) << "r=" << r;
    EXPECT_GT(peak, prev_peak) << "r=" << r;
    prev_peak = peak;
  }
}

// Sequential hands its input to the first child instead of copying it
// (Tensor's copy is deep). At r = 0.25 an mlp's activations are a quarter
// as wide as its 8 x 512 input, so a forward that peaks at the input's
// size has copied it. A Sequential in which no child runs still returns
// its input.
TEST(ActivationFootprint, SequentialForwardHoldsNoCopyOfItsInput) {
  GlobalStateGuard guard;
  ops::SetComputeThreads(1);
  MlpConfig cfg;
  cfg.in_features = 512;
  cfg.hidden = {512, 512};
  cfg.num_classes = 10;
  cfg.group_norm = true;
  auto net = MakeMlp(cfg).MoveValueOrDie();
  Rng rng(409);
  const Tensor x = Tensor::Randn({8, 512}, &rng);
  net->SetSliceRate(0.25);
  net->Forward(x, /*training=*/false);
  const int64_t before = Tensor::LiveBytes();
  Tensor::ResetPeakLiveBytes();
  net->Forward(x, /*training=*/false);
  const int64_t peak = Tensor::PeakLiveBytes() - before;
  EXPECT_EQ(Tensor::LiveBytes(), before);
  EXPECT_GT(peak, 0);
  EXPECT_LT(peak, x.size() * static_cast<int64_t>(sizeof(float)));

  Sequential empty;
  ExpectBitwise(empty.Forward(x, /*training=*/false), x,
                "empty Sequential returns its input");
}

// ---------------------------------------------------------------------------
// Whole-model fused vs unfused bitwise equality across rates/precisions.
// ---------------------------------------------------------------------------

// Test-local inverse of FuseActivations: clears every planted activation
// and bypass mark, so the twin runs the standalone activation modules.
void ClearFusionMarks(Module* m) {
  if (auto* seq = dynamic_cast<Sequential*>(m)) {
    for (size_t i = 0; i < seq->size(); ++i) ClearFusionMarks(seq->child(i));
  } else if (auto* res = dynamic_cast<ResidualBlock*>(m)) {
    ClearFusionMarks(res->body());
  } else if (auto* d = dynamic_cast<Dense*>(m)) {
    d->SetFusedActivation(EpiAct::kNone);
  } else if (auto* c = dynamic_cast<Conv2d*>(m)) {
    c->SetFusedActivation(EpiAct::kNone);
  } else if (auto* gn = dynamic_cast<GroupNorm*>(m)) {
    gn->SetFusedActivation(EpiAct::kNone);
  } else if (auto* bn = dynamic_cast<BatchNorm*>(m)) {
    bn->SetFusedActivation(EpiAct::kNone);
  } else if (auto* mbn = dynamic_cast<MultiBatchNorm*>(m)) {
    mbn->SetFusedActivation(EpiAct::kNone);
  } else if (auto* relu = dynamic_cast<ReLU*>(m)) {
    relu->set_fused(false);
  } else if (auto* th = dynamic_cast<Tanh*>(m)) {
    th->set_fused(false);
  }
}

// `twin` is a second build of `net`'s architecture: it gets net's
// parameters and loses its fusion marks, then both must agree bitwise in
// inference and training forwards at several rates.
void ExpectFusedMatchesUnfused(Module* net, Module* twin, const Tensor& x) {
  ASSERT_TRUE(CopyParams(net, twin).ok());
  ClearFusionMarks(twin);
  twin->SetPrecision(net->precision());
  for (bool training : {false, true}) {
    for (double rate : {1.0, 0.5}) {
      net->SetSliceRate(rate);
      twin->SetSliceRate(rate);
      Tensor y_fused = net->Forward(x, training);
      Tensor y_plain = twin->Forward(x, training);
      ExpectBitwise(y_fused, y_plain,
                    training ? "fused vs unfused training forward"
                             : "fused vs unfused model forward");
    }
  }
}

TEST(ModelFusion, MlpFusedBitwiseEqualsUnfused) {
  GlobalStateGuard guard;
  MlpConfig cfg;
  cfg.in_features = 20;
  cfg.hidden = {32, 24};
  cfg.num_classes = 8;
  cfg.group_norm = true;
  auto net = MakeMlp(cfg).MoveValueOrDie();
  auto twin = MakeMlp(cfg).MoveValueOrDie();
  Rng rng(410);
  Tensor x = Tensor::Randn({5, cfg.in_features}, &rng);
  ExpectFusedMatchesUnfused(net.get(), twin.get(), x);
  // The build-time pass must have fused every Dense/GN -> ReLU pair, and
  // re-running it is a no-op (idempotence).
  EXPECT_EQ(FuseActivations(net.get()), FuseActivations(net.get()));
}

TEST(ModelFusion, VggFusedBitwiseEqualsUnfusedBothPrecisions) {
  GlobalStateGuard guard;
  for (NormKind norm : {NormKind::kGroup, NormKind::kBatch}) {
    CnnConfig cfg;
    cfg.in_channels = 3;
    cfg.num_classes = 10;
    cfg.base_width = 8;
    cfg.stages = 2;
    cfg.blocks_per_stage = 1;
    cfg.slice_groups = 4;
    cfg.norm = norm;
    auto net = MakeVggSmall(cfg).MoveValueOrDie();
    auto twin = MakeVggSmall(cfg).MoveValueOrDie();
    Rng rng(411);
    Tensor x = Tensor::Randn({2, 3, 12, 12}, &rng);
    ExpectFusedMatchesUnfused(net.get(), twin.get(), x);
    net->SetPrecision(Precision::kInt8);
    ExpectFusedMatchesUnfused(net.get(), twin.get(), x);
  }
}

TEST(ModelFusion, LstmFusedBitwiseEqualsUnfusedBothPrecisions) {
  GlobalStateGuard guard;
  Rng rng(412);
  LstmOptions opts;
  opts.input_size = 16;
  opts.hidden_size = 20;
  opts.groups = 4;
  opts.slice_in = false;  // keep the test input full-width at every rate
  Lstm lstm(opts, &rng);
  Lstm twin(opts, &rng);
  Tensor x = Tensor::Randn({6, 3, opts.input_size}, &rng);
  ExpectFusedMatchesUnfused(&lstm, &twin, x);
  lstm.SetPrecision(Precision::kInt8);
  ExpectFusedMatchesUnfused(&lstm, &twin, x);
}

TEST(ModelFusion, GruFusedBitwiseEqualsUnfusedBothPrecisions) {
  GlobalStateGuard guard;
  Rng rng(413);
  GruOptions opts;
  opts.input_size = 14;
  opts.hidden_size = 18;
  opts.groups = 2;
  opts.slice_in = false;  // keep the test input full-width at every rate
  Gru gru(opts, &rng);
  Gru twin(opts, &rng);
  Tensor x = Tensor::Randn({5, 2, opts.input_size}, &rng);
  ExpectFusedMatchesUnfused(&gru, &twin, x);
  gru.SetPrecision(Precision::kInt8);
  ExpectFusedMatchesUnfused(&gru, &twin, x);
}

// Bias rides the GEMM epilogue in training forwards too; it must equal the
// reference GEMM followed by a separate bias pass, bit for bit.
TEST(ModelFusion, TrainingBiasInEpilogueEqualsSeparatePass) {
  GlobalStateGuard guard;
  Rng rng(415);
  DenseOptions dopts;
  dopts.in_features = 24;
  dopts.out_features = 16;
  dopts.groups = 4;
  Dense dense(dopts, &rng);
  dense.SetFusedActivation(EpiAct::kRelu);  // must not apply in training
  for (int64_t o = 0; o < dopts.out_features; ++o) {
    (*dense.mutable_bias())[o] = 0.1f * static_cast<float>(o) - 0.7f;
  }
  Conv2dOptions copts;
  copts.in_channels = 4;
  copts.out_channels = 8;
  copts.groups = 2;
  copts.bias = true;
  Conv2d conv(copts, &rng);
  for (int64_t o = 0; o < copts.out_channels; ++o) {
    (*conv.mutable_bias())[o] = 0.2f * static_cast<float>(o) - 0.5f;
  }
  for (double rate : {1.0, 0.5}) {
    dense.SetSliceRate(rate);
    const int64_t m = dense.active_in(), n = dense.active_out();
    Tensor x = Tensor::Randn({5, m}, &rng);
    Tensor y = dense.Forward(x, /*training=*/true);
    Tensor want({5, n});
    ops::GemmRef(false, true, 5, n, m, 1.0f, x.data(), m,
                 dense.weight().data(), dopts.in_features, 0.0f, want.data(),
                 n);
    for (int64_t i = 0; i < 5; ++i) {
      for (int64_t j = 0; j < n; ++j) want[i * n + j] += dense.bias()[j];
    }
    ExpectBitwise(y, want, "Dense training forward vs GEMM + bias pass");

    conv.SetSliceRate(rate);
    const int64_t ci = conv.active_in(), co = conv.active_out();
    const int64_t col_rows = ci * 9, area = 36;
    Tensor img = Tensor::Randn({1, ci, 6, 6}, &rng);
    Tensor yc = conv.Forward(img, /*training=*/true);
    Tensor cols({col_rows, area});
    ops::Im2Col(img.data(), ci, 6, 6, 3, 1, 1, cols.data());
    Tensor want_c({1, co, 6, 6});
    ops::GemmRef(false, false, co, area, col_rows, 1.0f,
                 conv.weight().data(), copts.in_channels * 9, cols.data(),
                 area, 0.0f, want_c.data(), area);
    for (int64_t c = 0; c < co; ++c) {
      for (int64_t p = 0; p < area; ++p) want_c[c * area + p] += conv.bias()[c];
    }
    ExpectBitwise(yc, want_c, "Conv2d training forward vs GEMM + bias pass");
  }
}

// The conv forward reads its im2col matrix in place from padded input
// planes. It must equal the materialised matrix run through the matrix
// entry points bit for bit: Im2Col + GemmRef in fp32 (training, and
// inference with the fused ReLU), Im2Col + GemmQuantizedWeightA in int8.
// Covers batch, kernel, stride and padding, slice rates, two kMC bands of
// output channels (96 > 64 at r = 1) and 1, 2 and 4 compute threads. With
// two branches, each branch's view starts at its own channels' planes
// (phase planes at stride 2) and is checked against Im2Col of those
// channels and the branch's rows of W.
TEST(ConvForward, InPlaceIm2ColMatchesMaterialisedOracle) {
  GlobalStateGuard guard;
  Rng rng(620);
  constexpr int64_t kIn = 8, kOut = 96, kGroups = 4, kH = 7, kW = 6;
  for (int64_t branches : {1, 2}) {
    for (int64_t kernel : {1, 3}) {
      for (int64_t stride : {1, 2}) {
        for (int64_t pad : {0, 1}) {
          Conv2dOptions o;
          o.in_channels = kIn;
          o.out_channels = kOut;
          o.kernel = kernel;
          o.stride = stride;
          o.pad = pad;
          // Slicing groups fall on branch boundaries.
          o.groups = branches == 1 ? kGroups : branches;
          o.branches = branches;
          o.bias = true;
          Conv2d conv(o, &rng);
          for (int64_t c = 0; c < kOut; ++c) {
            (*conv.mutable_bias())[c] =
                0.05f * static_cast<float>(c % 7) - 0.1f;
          }
          conv.SetFusedActivation(EpiAct::kRelu);
          const int64_t kk = kernel * kernel;
          const int64_t ld_w = kIn / branches * kk;
          const int64_t rows_b = kOut / branches;
          const SliceSpec spec(kIn, kGroups);
          std::vector<int64_t> k_ends;
          if (branches == 1) {
            for (int64_t g = 1; g <= kGroups; ++g) {
              k_ends.push_back(spec.GroupBoundary(g) * kk);
            }
          } else {
            k_ends.push_back(ld_w);
          }
          std::vector<ops::QuantizedPack> qpacks(
              static_cast<size_t>(branches));
          for (int64_t b = 0; b < branches; ++b) {
            ops::EnsureQuantizedB(
                true, ld_w, rows_b, conv.weight().data() + b * rows_b * ld_w,
                ld_w, k_ends, &qpacks[static_cast<size_t>(b)]);
          }
          const int64_t oh = (kH + 2 * pad - kernel) / stride + 1;
          const int64_t ow = (kW + 2 * pad - kernel) / stride + 1;
          const int64_t area = oh * ow;
          for (int64_t batch : {1, 3}) {
            for (double rate : {1.0, 0.5, 0.25}) {
              conv.SetSliceRate(rate);
              const int64_t ci = conv.active_in(), co = conv.active_out();
              const int64_t nb = conv.active_branches();
              const int64_t cib = ci / nb, cob = co / nb;
              const int64_t taps = cib * kk;
              Tensor x = Tensor::Randn({batch, ci, kH, kW}, &rng);
              Tensor cols({taps, area});
              Tensor want_train({batch, co, oh, ow});
              Tensor want_infer({batch, co, oh, ow});
              Tensor want_int8({batch, co, oh, ow});
              for (int64_t img = 0; img < batch; ++img) {
                for (int64_t b = 0; b < nb; ++b) {
                  ops::Im2Col(x.data() + (img * ci + b * cib) * kH * kW, cib,
                              kH, kW, kernel, stride, pad, cols.data());
                  const int64_t at = (img * co + b * cob) * area;
                  const float* wb = conv.weight().data() + b * rows_b * ld_w;
                  Epilogue e;
                  e.bias = conv.bias().data() + b * cob;
                  e.per_row = true;
                  ops::GemmRef(false, false, cob, area, taps, 1.0f, wb, ld_w,
                               cols.data(), area, 0.0f, want_train.data() + at,
                               area, e);
                  e.act = EpiAct::kRelu;
                  ops::GemmRef(false, false, cob, area, taps, 1.0f, wb, ld_w,
                               cols.data(), area, 0.0f, want_infer.data() + at,
                               area, e);
                  ops::GemmQuantizedWeightA(cob, area, taps,
                                            qpacks[static_cast<size_t>(b)],
                                            cols.data(), area, 0.0f,
                                            want_int8.data() + at, area, e);
                }
              }
              const std::string where =
                  "branches" + std::to_string(branches) + " k" +
                  std::to_string(kernel) + " s" + std::to_string(stride) +
                  " p" + std::to_string(pad) + " b" + std::to_string(batch) +
                  " r" + std::to_string(rate);
              for (int threads : {1, 2, 4}) {
                ops::SetComputeThreads(threads);
                const std::string at = where + " t" + std::to_string(threads);
                conv.SetPrecision(Precision::kFp32);
                ExpectBitwise(conv.Forward(x, /*training=*/true), want_train,
                              ("fp32 training " + at).c_str());
                ExpectBitwise(conv.Forward(x, /*training=*/false), want_infer,
                              ("fp32 inference " + at).c_str());
                conv.SetPrecision(Precision::kInt8);
                ExpectBitwise(conv.Forward(x, /*training=*/false), want_int8,
                              ("int8 inference " + at).c_str());
              }
            }
          }
        }
      }
    }
  }
}

// An int8 conv oracle that shares no code with the column quantizer: the
// materialised im2col is transposed, quantized row by row through
// GemmQuantizedB(trans_a = false) with the bias per C^T column, and
// transposed back. Covers the 27-tap stem shape, slice groups whose tap
// count is not a multiple of 4, pixel counts that are not a multiple of 8,
// the junk columns of the wide grid (pad 0) and the phase planes (stride
// 2), the 1x1 pad-0 view that reads the input tensor itself, constant
// columns (scale 0) and +-0 inputs, at 1, 2 and 4 compute threads.
TEST(ConvForward, Int8MatchesRowQuantizedTransposedOracle) {
  GlobalStateGuard guard;
  Rng rng(621);
  struct Shape {
    int64_t in, groups, kernel, stride, pad, h, w;
  };
  const Shape shapes[] = {
      {3, 3, 3, 1, 1, 7, 6},  // 27 taps in groups of 9
      {8, 4, 3, 1, 0, 7, 6},  // groups of 18 taps, junk columns
      {8, 4, 3, 2, 1, 7, 6},  // phase planes
      {8, 4, 1, 1, 0, 7, 5},  // in place, 35 pixels
      {8, 4, 3, 1, 1, 3, 3},  // the last stage's 3x3 maps
  };
  constexpr int64_t kOut = 20;
  for (const Shape& s : shapes) {
    Conv2dOptions o;
    o.in_channels = s.in;
    o.out_channels = kOut;
    o.kernel = s.kernel;
    o.stride = s.stride;
    o.pad = s.pad;
    o.groups = s.groups;
    o.bias = true;
    Conv2d conv(o, &rng);
    for (int64_t c = 0; c < kOut; ++c) {
      (*conv.mutable_bias())[c] = 0.05f * static_cast<float>(c % 7) - 0.1f;
    }
    conv.SetFusedActivation(EpiAct::kRelu);
    conv.SetPrecision(Precision::kInt8);
    const int64_t kk = s.kernel * s.kernel;
    const int64_t ld_w = s.in * kk;
    const SliceSpec spec(s.in, s.groups);
    std::vector<int64_t> k_ends;
    for (int64_t g = 1; g <= s.groups; ++g) {
      k_ends.push_back(spec.GroupBoundary(g) * kk);
    }
    ops::QuantizedPack qpack;
    ops::EnsureQuantizedB(true, ld_w, kOut, conv.weight().data(), ld_w,
                          k_ends, &qpack);
    const int64_t oh = (s.h + 2 * s.pad - s.kernel) / s.stride + 1;
    const int64_t ow = (s.w + 2 * s.pad - s.kernel) / s.stride + 1;
    const int64_t area = oh * ow;
    for (double rate : {1.0, 0.5}) {
      conv.SetSliceRate(rate);
      const int64_t ci = conv.active_in(), co = conv.active_out();
      const int64_t taps = ci * kk;
      const int64_t img_size = ci * s.h * s.w;
      // Image 0 random, image 1 constant, image 2 alternating +0 / -0.
      Tensor x = Tensor::Randn({3, ci, s.h, s.w}, &rng);
      for (int64_t e = 0; e < img_size; ++e) {
        x[img_size + e] = 0.75f;
        x[2 * img_size + e] = (e % 2) != 0 ? -0.0f : 0.0f;
      }
      Tensor cols({taps, area}), cols_t({area, taps}), ct({area, co});
      Tensor want({3, co, oh, ow});
      for (int64_t img = 0; img < 3; ++img) {
        ops::Im2Col(x.data() + img * img_size, ci, s.h, s.w, s.kernel,
                    s.stride, s.pad, cols.data());
        for (int64_t p = 0; p < taps; ++p) {
          for (int64_t j = 0; j < area; ++j) {
            cols_t[j * taps + p] = cols[p * area + j];
          }
        }
        Epilogue e;
        e.bias = conv.bias().data();
        e.per_row = false;
        e.act = EpiAct::kRelu;
        ops::GemmQuantizedB(false, area, co, taps, 1.0f, cols_t.data(), taps,
                            qpack, 0.0f, ct.data(), co, e);
        for (int64_t c = 0; c < co; ++c) {
          for (int64_t j = 0; j < area; ++j) {
            want[(img * co + c) * area + j] = ct[j * co + c];
          }
        }
      }
      for (int threads : {1, 2, 4}) {
        ops::SetComputeThreads(threads);
        const std::string at =
            "in" + std::to_string(s.in) + " k" + std::to_string(s.kernel) +
            " s" + std::to_string(s.stride) + " p" + std::to_string(s.pad) +
            " r" + std::to_string(rate) + " t" + std::to_string(threads);
        ExpectBitwise(conv.Forward(x, /*training=*/false), want,
                      ("int8 vs row-quantized oracle " + at).c_str());
      }
    }
  }
}

// GroupNorm and MaxPool2d run a separate inference path: one parallel
// sweep over samples that keeps no backward state. It must reproduce the
// training forward bit for bit (GroupNorm, also with a fused ReLU against
// the training forward followed by the ReLU module) and the argmax-recording
// ops::MaxPool2d, at every rate, batch size and compute thread count.
TEST(InferencePath, GroupNormAndMaxPoolMatchTrainingForward) {
  GlobalStateGuard guard;
  Rng rng(630);
  NormOptions opts;
  opts.channels = 16;
  opts.groups = 4;
  GroupNorm gn(opts);
  GroupNorm gn_relu(opts);
  gn_relu.SetFusedActivation(EpiAct::kRelu);
  std::vector<ParamRef> params, fused_params;
  gn.CollectParams(&params);
  gn_relu.CollectParams(&fused_params);
  for (size_t i = 0; i < params.size(); ++i) {
    *params[i].param = Tensor::Randn(params[i].param->shape(), &rng);
    *fused_params[i].param = *params[i].param;
  }
  ReLU relu;
  MaxPool2d pool(2, 2);
  for (int threads : {1, 2, 4}) {
    ops::SetComputeThreads(threads);
    for (double rate : {0.25, 0.5, 1.0}) {
      gn.SetSliceRate(rate);
      gn_relu.SetSliceRate(rate);
      const int64_t c = gn.active_channels();
      for (int64_t batch : {1, 3, 8}) {
        const std::string at = " at threads " + std::to_string(threads) +
                               " rate " + std::to_string(rate) + " batch " +
                               std::to_string(batch);
        for (const std::vector<int64_t>& shape :
             {std::vector<int64_t>{batch, c, 7, 5},
              std::vector<int64_t>{batch, c}}) {
          const Tensor x = Tensor::Randn(shape, &rng);
          const Tensor plain = gn.Forward(x, /*training=*/true);
          ExpectBitwise(gn.Forward(x, /*training=*/false), plain,
                        ("GroupNorm inference" + at).c_str());
          ExpectBitwise(gn_relu.Forward(x, /*training=*/false),
                        relu.Forward(plain, /*training=*/true),
                        ("GroupNorm fused ReLU" + at).c_str());
        }
        const Tensor x = Tensor::Randn({batch, c, 7, 5}, &rng);
        Tensor want({batch, c, 3, 2});
        std::vector<int32_t> argmax;
        ops::MaxPool2d(x, batch, c, 7, 5, 2, 2, &want, &argmax);
        ExpectBitwise(pool.Forward(x, /*training=*/false), want,
                      ("MaxPool2d inference" + at).c_str());
      }
    }
  }
}

// Thread-count invariance of the fused model path (the kernel contract
// lifts to whole models because every kernel is thread-invariant).
TEST(ModelFusion, FusedForwardThreadCountInvariant) {
  GlobalStateGuard guard;
  MlpConfig cfg;
  cfg.in_features = 24;
  cfg.hidden = {40};
  cfg.num_classes = 6;
  auto net = MakeMlp(cfg).MoveValueOrDie();
  Rng rng(414);
  Tensor x = Tensor::Randn({7, cfg.in_features}, &rng);
  ops::SetComputeThreads(1);
  Tensor y1 = net->Forward(x, /*training=*/false);
  ops::SetComputeThreads(4);
  Tensor y4 = net->Forward(x, /*training=*/false);
  ExpectBitwise(y4, y1, "fused forward across thread counts");
}

}  // namespace
}  // namespace ms
