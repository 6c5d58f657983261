// Golden bits: the inference logits of five small models, pinned as CRC32s.
//
// "Outputs unchanged" is a check here rather than a claim. For each model
// (zoo vgg13, a ResNeXt with grouped convs, a MobileNet with depthwise
// convs, an MLP with GroupNorm, a two-layer LSTM), every lattice rate and
// both precisions, the test asserts
//   * equal bits at 1, 2 and 4 compute threads;
//   * equal bits when the batch of 8 runs as 3 + 3 + 2;
//   * the CRC32 of the logits equals its committed entry. Int8 has one
//     entry per point, which every kernel (portable, AVX2, VNNI) must hit
//     (ResNeXt excepted, see GoldenRow). Fp32 has one per (point, GEMM
//     flavor): the portable kernel rounds mul and add separately, the AVX2
//     kernel uses fma. A point without an entry fails.
//
// The models are built by the library from its seeded Rng. Every norm's
// gamma/beta, every bias and the inputs are then drawn here from
// Rng::NextU64 and scaled by powers of two, so the values are exact and
// no floating-point expression in this file can be contracted differently
// by another compiler or -mfma (this TU does not get the library's
// -ffp-contract=off). The untrained models' gamma = 1, beta = 0 would hide
// rounding changes in the norms' affine step.
//
// A change that alters numerics on purpose updates the table and says so;
// on a mismatch the test prints the row it computed.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/models/cnn.h"
#include "src/models/mlp.h"
#include "src/models/zoo.h"
#include "src/nn/lstm.h"
#include "src/tensor/gemm.h"
#include "src/tensor/prepack.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace ms {
namespace {

constexpr double kRates[] = {0.25, 0.5, 0.75, 1.0};
constexpr int kThreads[] = {1, 2, 4};
constexpr int64_t kBatch = 8;
constexpr int64_t kSplits[] = {3, 3, 2};

struct GoldenRow {
  const char* model;
  double rate;
  uint32_t int8;  ///< every kernel
  uint32_t fp32_portable;
  uint32_t fp32_avx2;
  /// Nonzero where int8 bits still follow the fp32 GEMM flavor: the int8
  /// column then holds the portable hash and this one the AVX2 hash.
  /// Only ResNeXt has one. ResidualBlock does not pass SetPrecision on to
  /// its body and shortcut, so ResNeXt's "int8" logits come mostly from
  /// fp32 GEMMs.
  uint32_t int8_avx2 = 0;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"vgg13", 0.25, 0x2b6c1978, 0x08ee2ee6, 0x8290752c},
    {"vgg13", 0.5, 0x746ac35a, 0x43b6881a, 0xff6f91e3},
    {"vgg13", 0.75, 0xba64e7a9, 0x6dcd55ab, 0x3a294a36},
    {"vgg13", 1.0, 0xa9fcbbd0, 0xb7160a72, 0xc50e1872},
    {"resnext", 0.25, 0xd38cae6f, 0x534f5790, 0xb8779df3, 0x1c1d1913},
    {"resnext", 0.5, 0x22516ac8, 0xc148a723, 0x5253b327, 0xd414b64a},
    {"resnext", 0.75, 0x8511913e, 0x263bc2d3, 0x350c02fa, 0x2e3644fd},
    {"resnext", 1.0, 0x38300710, 0x77f03591, 0xeca90df9, 0xbe70a8b6},
    {"mobilenet", 0.25, 0x3d7f12eb, 0x3b989a11, 0x2af813e7},
    {"mobilenet", 0.5, 0x3a2db2ff, 0x517232a8, 0xc4c87913},
    {"mobilenet", 0.75, 0x34cfcf83, 0x564f8a72, 0xc92bb263},
    {"mobilenet", 1.0, 0xeefa55be, 0x4c4aea1b, 0x05fc962b},
    {"mlp", 0.25, 0xcfc7c55a, 0xbc25a7a6, 0xdadbb43a},
    {"mlp", 0.5, 0xf73a7054, 0x0cd5308f, 0xcf3c0564},
    {"mlp", 0.75, 0x90b46825, 0x9ed39846, 0xc55e5fa4},
    {"mlp", 1.0, 0xe1c43c03, 0x2ef1e45b, 0x661846b6},
    {"lstm", 0.25, 0x6ad9fe57, 0x41a7ce26, 0x72f16912},
    {"lstm", 0.5, 0x2ac17262, 0xe5ea8a1c, 0xc913d0f5},
    {"lstm", 0.75, 0x0d97588e, 0x8ce8f26c, 0x02642a77},
    {"lstm", 1.0, 0x300b0b54, 0x7af730ee, 0x702a9b38},
};
// clang-format on

// k / 2^shift for a k drawn uniformly from [lo, lo + 2^bits): exact in
// float for the small bit counts used here.
float Draw(Rng* rng, int bits, int64_t lo, int shift) {
  const int64_t k = static_cast<int64_t>(rng->NextU64() >> (64 - bits)) + lo;
  return static_cast<float>(k) / static_cast<float>(int64_t{1} << shift);
}

// gamma in [0.5, 1.5), beta and every bias in [-0.5, 0.5).
void RandomizeAffine(Module* net, uint64_t seed) {
  Rng rng(seed);
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  int randomized = 0;
  for (const ParamRef& p : params) {
    if (!p.no_decay) continue;
    const bool gamma = p.name.size() > 6 &&
                       p.name.compare(p.name.size() - 6, 6, ".gamma") == 0;
    float* v = p.param->data();
    for (int64_t i = 0; i < p.param->size(); ++i) {
      v[i] = gamma ? Draw(&rng, 7, 64, 7) : Draw(&rng, 7, -64, 7);
    }
    ++randomized;
  }
  ASSERT_GT(randomized, 0) << net->name();
  ops::BumpWeightGeneration();
}

// Inputs in [-2, 2) on a 1/64 grid.
Tensor RandomInput(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Uninit(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) t.data()[i] = Draw(&rng, 8, -128, 6);
  return t;
}

struct GoldenModel {
  std::unique_ptr<Module> net;
  Tensor input;
  int batch_dim = 0;  ///< 1 for the time-major LSTM: (T, B, features).
};

CnnConfig BranchyCnn() {
  CnnConfig c;
  c.base_width = 16;
  c.stages = 2;
  c.blocks_per_stage = 1;
  c.slice_groups = 4;  // ResNeXt: 2 and 4 channels per branch.
  c.seed = 5;
  return c;
}

GoldenModel Build(const std::string& name) {
  GoldenModel m;
  if (name == "vgg13") {
    m.net = MakeVggSmall(GetZooModel("vgg13").MoveValueOrDie().config)
                .MoveValueOrDie();
    m.input = RandomInput({kBatch, 3, 12, 12}, 101);
  } else if (name == "resnext") {
    m.net = MakeResNeXtSmall(BranchyCnn()).MoveValueOrDie();
    m.input = RandomInput({kBatch, 3, 12, 12}, 102);
  } else if (name == "mobilenet") {
    m.net = MakeMobileNetSmall(BranchyCnn()).MoveValueOrDie();
    m.input = RandomInput({kBatch, 3, 12, 12}, 103);
  } else if (name == "mlp") {
    MlpConfig c;
    c.in_features = 24;
    c.hidden = {32, 32};
    c.num_classes = 10;
    c.group_norm = true;
    m.net = MakeMlp(c).MoveValueOrDie();
    m.input = RandomInput({kBatch, 24}, 104);
  } else if (name == "lstm") {
    // Two layers as in the NNLM (src/models/nnlm.cc): the first reads an
    // unsliced input.
    Rng rng(6);
    auto seq = std::make_unique<Sequential>("lstm");
    LstmOptions l0;
    l0.input_size = 16;
    l0.hidden_size = 32;
    l0.groups = 8;
    l0.slice_in = false;
    seq->Emplace<Lstm>(l0, &rng, "lstm0");
    LstmOptions l1 = l0;
    l1.input_size = 32;
    l1.slice_in = true;
    seq->Emplace<Lstm>(l1, &rng, "lstm1");
    m.net = std::move(seq);
    m.input = RandomInput({5, kBatch, 16}, 105);
    m.batch_dim = 1;
  }
  RandomizeAffine(m.net.get(), 200 + name.size());
  return m;
}

// Samples [b0, b1) along dimension `dim` (0 or 1) of t.
Tensor SliceBatch(const Tensor& t, int dim, int64_t b0, int64_t b1) {
  std::vector<int64_t> shape = t.shape();
  const int64_t outer = dim == 0 ? 1 : shape[0];
  const int64_t batch = shape[static_cast<size_t>(dim)];
  const int64_t inner = t.size() / (outer * batch);
  shape[static_cast<size_t>(dim)] = b1 - b0;
  Tensor out = Tensor::Uninit(shape);
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(out.data() + o * (b1 - b0) * inner,
                t.data() + (o * batch + b0) * inner,
                static_cast<size_t>((b1 - b0) * inner) * sizeof(float));
  }
  return out;
}

// Writes `part` (samples [b0, b0 + part's batch)) into `whole`.
void PlaceBatch(const Tensor& part, int dim, int64_t b0, Tensor* whole) {
  const int64_t outer = dim == 0 ? 1 : whole->dim(0);
  const int64_t batch = whole->dim(dim);
  const int64_t n = part.dim(dim);
  const int64_t inner = whole->size() / (outer * batch);
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(whole->data() + (o * batch + b0) * inner,
                part.data() + o * n * inner,
                static_cast<size_t>(n * inner) * sizeof(float));
  }
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

uint32_t Hash(const Tensor& t) {
  return Crc32(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
}

const GoldenRow* FindRow(const std::string& model, double rate) {
  for (const GoldenRow& row : kGolden) {
    if (model == row.model && rate == row.rate) return &row;
  }
  return nullptr;
}

class GoldenBits : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { saved_threads_ = ops::ComputeThreads(); }
  void TearDown() override { ops::SetComputeThreads(saved_threads_); }

 private:
  int saved_threads_ = 1;
};

TEST_P(GoldenBits, LogitsHoldAcrossThreadsSplitsAndBuilds) {
  const std::string name = GetParam();
  GoldenModel m = Build(name);
  const bool avx2 = ops::GemmHasAvx2();
  for (double rate : kRates) {
    uint32_t got[2] = {0, 0};  // int8, fp32
    for (Precision prec : {Precision::kInt8, Precision::kFp32}) {
      const bool int8 = prec == Precision::kInt8;
      SCOPED_TRACE(name + " r=" + std::to_string(rate) +
                   (int8 ? " int8" : " fp32"));
      m.net->SetSliceRate(rate);
      m.net->SetPrecision(prec);

      ops::SetComputeThreads(kThreads[0]);
      const Tensor ref = m.net->Forward(m.input, /*training=*/false);
      got[int8 ? 0 : 1] = Hash(ref);
      for (int threads : kThreads) {
        ops::SetComputeThreads(threads);
        EXPECT_TRUE(SameBits(m.net->Forward(m.input, false), ref))
            << threads << " threads";

        Tensor joined = Tensor::Uninit(ref.shape());
        int64_t b0 = 0;
        for (int64_t n : kSplits) {
          const Tensor part = m.net->Forward(
              SliceBatch(m.input, m.batch_dim, b0, b0 + n), false);
          ASSERT_EQ(part.dim(m.batch_dim), n);
          PlaceBatch(part, m.batch_dim, b0, &joined);
          b0 += n;
        }
        EXPECT_TRUE(SameBits(joined, ref))
            << "batch split 3+3+2, " << threads << " threads";
      }
    }
    const GoldenRow* row = FindRow(name, rate);
    char computed[160];
    std::snprintf(computed, sizeof(computed),
                  "computed on %s: int8 0x%08x, fp32 0x%08x",
                  avx2 ? "avx2" : "portable", got[0], got[1]);
    if (row == nullptr) {
      ADD_FAILURE() << "no golden entry; " << computed;
      continue;
    }
    if (row->int8_avx2 != 0) EXPECT_EQ(name, "resnext");
    const uint32_t want_int8 =
        avx2 && row->int8_avx2 != 0 ? row->int8_avx2 : row->int8;
    EXPECT_EQ(got[0], want_int8) << computed;
    EXPECT_EQ(got[1], avx2 ? row->fp32_avx2 : row->fp32_portable)
        << computed;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, GoldenBits,
                         ::testing::Values("vgg13", "resnext", "mobilenet",
                                           "mlp", "lstm"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

}  // namespace
}  // namespace ms
