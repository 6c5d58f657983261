// GEMM kernel microbenchmark: packed/threaded Gemm vs the scalar GemmRef
// oracle across the shapes the layers actually produce — square, skinny
// (im2col panels), and sliced-prefix problems at r in {0.25, 0.5, 1.0}
// where the leading dimensions stay at full width. A second section times
// the prepacked-weight path (prepack.h): serving-shaped skinny batches
// (M <= 8, packed W reused per call, no A packing) and the LSTM recurrent
// reuse case where one packed U serves all T timesteps. A third section
// times the int8 quantized path (quant.h) against the fp32 prepacked
// baseline at matched slice rates, writes bench_results/BENCH_INT8.json
// via MS_BENCH_INT8_OUT, and exits nonzero when the minimum serving-shape
// speedup falls below MS_BENCH_INT8_GATE (the CI acceptance gate). Prints
// GFLOP/s and speedups, and records each configuration as a gauge so the
// MS_BENCH_METRICS_OUT JSONL artifact captures the numbers in CI.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/models/cnn.h"
#include "src/models/mlp.h"
#include "src/nn/activations.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/fusion.h"
#include "src/nn/lstm.h"
#include "src/nn/norm.h"
#include "src/nn/serialize.h"
#include "src/tensor/cols_view.h"
#include "src/tensor/epilogue.h"
#include "src/tensor/gemm.h"
#include "src/tensor/prepack.h"
#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace ms {
namespace {

using Clock = std::chrono::steady_clock;

using GemmFn = void (*)(bool, bool, int64_t, int64_t, int64_t, float,
                        const float*, int64_t, const float*, int64_t, float,
                        float*, int64_t, const ops::Epilogue&);

struct Shape {
  const char* label;
  int64_t m, n, k;
  int64_t lda, ldb;  // 0 = tight
};

double TimeGemm(GemmFn fn, const Shape& s, const Tensor& a, const Tensor& b,
                Tensor* c, double min_seconds) {
  const int64_t lda = s.lda ? s.lda : s.k;
  const int64_t ldb = s.ldb ? s.ldb : s.n;
  // One untimed call to warm caches and the compute pool.
  fn(false, false, s.m, s.n, s.k, 1.0f, a.data(), lda, b.data(), ldb, 0.0f,
     c->data(), s.n, {});
  int iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < min_seconds || iters < 3) {
    fn(false, false, s.m, s.n, s.k, 1.0f, a.data(), lda, b.data(), ldb, 0.0f,
       c->data(), s.n, {});
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return elapsed / iters;
}

/// Best-of-3 timing epochs (each a mean over >= 1 calls): the int8 gate
/// compares two of these per row, so a scheduler stall inside one epoch
/// must not masquerade as a speedup change.
template <typename Call>
double TimeCall(double min_seconds, Call&& call) {
  call();  // warmup
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    int iters = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < min_seconds / 3 || iters < 1) {
      call();
      ++iters;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    }
    const double mean = elapsed / iters;
    if (rep == 0 || mean < best) best = mean;
  }
  return best;
}

/// Clears every activation the fusion pass planted, so the producers write
/// their plain outputs and the ReLU/Tanh modules run again. FuseActivations
/// re-plants them.
void ClearFusionMarks(Module* m) {
  if (auto* seq = dynamic_cast<Sequential*>(m)) {
    for (size_t i = 0; i < seq->size(); ++i) ClearFusionMarks(seq->child(i));
  } else if (auto* d = dynamic_cast<Dense*>(m)) {
    d->SetFusedActivation(ops::EpiAct::kNone);
  } else if (auto* c = dynamic_cast<Conv2d*>(m)) {
    c->SetFusedActivation(ops::EpiAct::kNone);
  } else if (auto* gn = dynamic_cast<GroupNorm*>(m)) {
    gn->SetFusedActivation(ops::EpiAct::kNone);
  } else if (auto* relu = dynamic_cast<ReLU*>(m)) {
    relu->set_fused(false);
  } else if (auto* th = dynamic_cast<Tanh*>(m)) {
    th->set_fused(false);
  }
}

/// The pre-fusion inference forward, rebuilt from public pieces for the
/// fusion section's "unfused" column: every Dense runs its prepacked GEMM
/// with an empty epilogue and then a separate bias pass; every Lstm runs
/// its gate GEMMs, a bias pass and the gate nonlinearities in its
/// pointwise loop; every other module (convs without bias, norms, the
/// standalone ReLU/Tanh modules) runs its own Forward. Walk a model whose
/// fusion marks were cleared, at full rate (where Dense/Lstm rescale by 1).
class UnfusedPipeline {
 public:
  Tensor Forward(Module* m, const Tensor& x) {
    if (auto* seq = dynamic_cast<Sequential*>(m)) {
      Tensor h = x;
      for (size_t i = 0; i < seq->size(); ++i) h = Forward(seq->child(i), h);
      return h;
    }
    if (auto* d = dynamic_cast<Dense*>(m)) return DenseForward(*d, x);
    if (auto* l = dynamic_cast<Lstm*>(m)) return LstmForward(*l, x);
    return m->Forward(x, /*training=*/false);
  }

 private:
  Tensor DenseForward(const Dense& d, const Tensor& x) {
    const DenseOptions& o = d.options();
    std::vector<ops::PackedMatrix>& packs = packs_[&d];
    packs.resize(1);
    ops::EnsurePackedB(true, o.in_features, o.out_features,
                       d.weight().data(), o.in_features, &packs[0]);
    const int64_t batch = x.dim(0);
    const int64_t k = d.active_in();
    const int64_t n = d.active_out();
    Tensor y = Tensor::Uninit({batch, n});
    ops::GemmPrepackedB(false, batch, n, k, 1.0f, x.data(), k, packs[0],
                        0.0f, y.data(), n);
    if (o.bias) {
      for (int64_t i = 0; i < batch; ++i) {
        float* row = y.data() + i * n;
        for (int64_t j = 0; j < n; ++j) row[j] += d.bias()[j];
      }
    }
    return y;
  }

  Tensor LstmForward(Lstm& l, const Tensor& x) {
    std::vector<ParamRef> params;
    l.CollectParams(&params);  // .wx (4H x I), .wh (4H x H), .b (4H)
    const Tensor& wx = *params[0].param;
    const Tensor& wh = *params[1].param;
    const float* bias = params[2].param->data();
    const int64_t hid = wh.dim(1);
    const int64_t in = wx.dim(1);
    std::vector<ops::PackedMatrix>& packs = packs_[&l];
    packs.resize(8);
    for (int gate = 0; gate < 4; ++gate) {
      ops::EnsurePackedB(true, in, hid, wx.data() + gate * hid * in, in,
                         &packs[gate]);
      ops::EnsurePackedB(true, hid, hid, wh.data() + gate * hid * hid, hid,
                         &packs[4 + gate]);
    }
    const int64_t steps = x.dim(0);
    const int64_t batch = x.dim(1);
    const int64_t bn = batch * hid;
    // Gate pre-activations, state, and the seven per-step caches the layer
    // keeps for backward.
    scratch_.resize(static_cast<size_t>((4 + 2 + 7 * steps) * bn));
    float* z = scratch_.data();
    float* c = z + 4 * bn;
    float* zeros = c + bn;
    float* caches = zeros + bn;
    std::fill(c, zeros + bn, 0.0f);
    Tensor out = Tensor::Uninit({steps, batch, hid});
    for (int64_t t = 0; t < steps; ++t) {
      const float* xt = x.data() + t * batch * in;
      const float* h_prev = t == 0 ? zeros : out.data() + (t - 1) * bn;
      for (int gate = 0; gate < 4; ++gate) {
        float* zg = z + gate * bn;
        ops::GemmPrepackedB(false, batch, hid, in, 1.0f, xt, in,
                            packs[gate], 0.0f, zg, hid);
        ops::GemmPrepackedB(false, batch, hid, hid, 1.0f, h_prev, hid,
                            packs[4 + gate], 1.0f, zg, hid);
        for (int64_t i = 0; i < batch; ++i) {
          for (int64_t j = 0; j < hid; ++j) {
            zg[i * hid + j] += bias[gate * hid + j];
          }
        }
      }
      float* h_out = out.data() + t * bn;
      float* sc = caches + 7 * t * bn;
      for (int64_t idx = 0; idx < bn; ++idx) {
        const float iv = ops::detail::EpiSigmoid(z[idx]);
        const float fv = ops::detail::EpiSigmoid(z[bn + idx]);
        const float gv = std::tanh(z[2 * bn + idx]);
        const float ov = ops::detail::EpiSigmoid(z[3 * bn + idx]);
        const float cv = fv * c[idx] + iv * gv;
        const float tc = std::tanh(cv);
        const float hv = ov * tc;
        const float cached[7] = {iv, fv, gv, ov, cv, tc, hv};
        for (int q = 0; q < 7; ++q) sc[q * bn + idx] = cached[q];
        c[idx] = cv;
        h_out[idx] = hv;
      }
    }
    return out;
  }

  std::map<const Module*, std::vector<ops::PackedMatrix>> packs_;
  std::vector<float> scratch_;
};

/// One row of the int8 section: fp32-prepacked vs int8-quantized at a
/// (shape, slice rate) operating point. `serving` rows feed the
/// MS_BENCH_INT8_GATE minimum.
struct Int8Row {
  std::string label;
  double fp32_us = 0.0;
  double int8_us = 0.0;
  bool serving = false;
  double speedup() const { return fp32_us / int8_us; }
};

int Main() {
  const double min_s = bench::FastMode() ? 0.02 : 0.15;
  std::vector<Shape> shapes = {
      {"square-64", 64, 64, 64, 0, 0},
      {"square-128", 128, 128, 128, 0, 0},
      {"square-256", 256, 256, 256, 0, 0},
      {"square-512", 512, 512, 512, 0, 0},
      // Skinny shapes: conv im2col panels (few filter rows, wide output)
      // and batched dense layers (short m).
      {"conv-im2col", 64, 1024, 288, 0, 0},
      {"dense-batch", 32, 512, 512, 0, 0},
      // Sliced-prefix problems: logical extent r * 512, leading dims kept
      // at the full 512 — exactly what SetSliceRate produces.
      {"sliced-r0.25", 128, 128, 128, 512, 512},
      {"sliced-r0.50", 256, 256, 256, 512, 512},
      {"sliced-r1.00", 512, 512, 512, 512, 512},
  };
  const std::vector<int> thread_counts = {1, 2, 4};

  bench::PrintTitle("GEMM kernel: packed/threaded Gemm vs scalar GemmRef");
  std::printf("avx2 microkernel: %s\n\n",
              ops::GemmHasAvx2() ? "active" : "inactive (portable 4x8)");
  std::printf("%-14s %10s %12s", "shape", "ref GF/s", "1T GF/s");
  for (size_t i = 1; i < thread_counts.size(); ++i) {
    std::printf(" %9dT", thread_counts[i]);
  }
  std::printf(" %9s\n", "1T-speedup");
  bench::PrintRule();

  Rng rng(42);
  auto& registry = obs::MetricsRegistry::Global();
  for (const Shape& s : shapes) {
    const int64_t lda = s.lda ? s.lda : s.k;
    const int64_t ldb = s.ldb ? s.ldb : s.n;
    Tensor a = Tensor::Randn({s.m, lda}, &rng);
    Tensor b = Tensor::Randn({s.k, ldb}, &rng);
    Tensor c({s.m, s.n});
    const double flops = 2.0 * static_cast<double>(s.m) * s.n * s.k;

    ops::SetComputeThreads(1);
    const double t_ref = TimeGemm(&ops::GemmRef, s, a, b, &c, min_s);
    const double ref_gfs = flops / t_ref * 1e-9;
    std::printf("%-14s %10.2f", s.label, ref_gfs);
    registry.GetGauge(std::string("bench_gemm.") + s.label + ".ref_gflops")
        ->Set(ref_gfs);

    double one_thread_gfs = 0.0;
    for (const int threads : thread_counts) {
      ops::SetComputeThreads(threads);
      const double t = TimeGemm(&ops::Gemm, s, a, b, &c, min_s);
      const double gfs = flops / t * 1e-9;
      if (threads == 1) one_thread_gfs = gfs;
      std::printf(" %10.2f", gfs);
      registry
          .GetGauge(std::string("bench_gemm.") + s.label + ".gflops_t" +
                    std::to_string(threads))
          ->Set(gfs);
    }
    std::printf(" %8.1fx\n", one_thread_gfs / ref_gfs);
  }

  // -------------------------------------------------------------------------
  // Prepacked weights: y = x * W^T with W packed once (the Dense/LSTM/GRU
  // serving path). Gemm re-packs W every call; GemmPrepackedB reuses the
  // panels, and at M <= 8 also skips packing x. Single-threaded — the
  // serving engine parallelizes across batches, not within them.
  bench::PrintTitle("prepacked W^T (512x512): per-call Gemm vs GemmPrepackedB");
  std::printf("%-14s %10s %12s %9s\n", "shape", "gemm us", "prepacked us",
              "speedup");
  bench::PrintRule();
  ops::SetComputeThreads(1);
  {
    const int64_t n = 512, k = 512;
    Tensor w = Tensor::Randn({n, k}, &rng);  // Dense layout: (out, in)
    ops::PackedMatrix pack;
    ops::PackB(/*trans_b=*/true, k, n, w.data(), k, &pack);
    for (const int64_t m : {1, 2, 4, 8, 32}) {
      Tensor x = Tensor::Randn({m, k}, &rng);
      Tensor y({m, n});
      auto time_loop = [&](auto&& call) {
        call();  // warmup
        int iters = 0;
        const auto start = Clock::now();
        double elapsed = 0.0;
        while (elapsed < min_s || iters < 3) {
          call();
          ++iters;
          elapsed =
              std::chrono::duration<double>(Clock::now() - start).count();
        }
        return elapsed / iters;
      };
      const double t_gemm = time_loop([&] {
        ops::Gemm(false, true, m, n, k, 1.0f, x.data(), k, w.data(), k, 0.0f,
                  y.data(), n);
      });
      const double t_pre = time_loop([&] {
        ops::GemmPrepackedB(false, m, n, k, 1.0f, x.data(), k, pack, 0.0f,
                            y.data(), n);
      });
      const std::string label = "prepack-b" + std::to_string(m);
      std::printf("%-14s %10.1f %12.1f %8.2fx%s\n", label.c_str(),
                  t_gemm * 1e6, t_pre * 1e6, t_gemm / t_pre,
                  m <= 8 ? "  (serving batch)" : "");
      registry.GetGauge("bench_gemm." + label + ".gemm_us")
          ->Set(t_gemm * 1e6);
      registry.GetGauge("bench_gemm." + label + ".prepacked_us")
          ->Set(t_pre * 1e6);
      registry.GetGauge("bench_gemm." + label + ".speedup")
          ->Set(t_gemm / t_pre);
    }
  }

  // LSTM recurrent reuse: per timestep each gate runs z += h * U_g^T with
  // the same U_g — T timesteps amortize one pack per gate. H=512, batch 4.
  {
    const int64_t batch = 4, hidden = 512;
    const int num_gates = 4;
    const int T = bench::FastMode() ? 8 : 32;
    std::vector<Tensor> u;
    std::vector<ops::PackedMatrix> upack(num_gates);
    for (int g = 0; g < num_gates; ++g) {
      u.push_back(Tensor::Randn({hidden, hidden}, &rng));
      ops::PackB(true, hidden, hidden, u[g].data(), hidden, &upack[g]);
    }
    Tensor h = Tensor::Randn({batch, hidden}, &rng);
    Tensor z({batch, hidden});
    auto time_seq = [&](bool prepacked) {
      int iters = 0;
      const auto start = Clock::now();
      double elapsed = 0.0;
      while (elapsed < min_s || iters < 3) {
        for (int t = 0; t < T; ++t) {
          for (int g = 0; g < num_gates; ++g) {
            if (prepacked) {
              ops::GemmPrepackedB(false, batch, hidden, hidden, 1.0f,
                                  h.data(), hidden, upack[g], 0.0f, z.data(),
                                  hidden);
            } else {
              ops::Gemm(false, true, batch, hidden, hidden, 1.0f, h.data(),
                        hidden, u[g].data(), hidden, 0.0f, z.data(), hidden);
            }
          }
        }
        ++iters;
        elapsed = std::chrono::duration<double>(Clock::now() - start).count();
      }
      return elapsed / iters;
    };
    const double t_gemm = time_seq(false);
    const double t_pre = time_seq(true);
    std::printf("%-14s %10.1f %12.1f %8.2fx  (T=%d, 4 gates)\n",
                "lstm-gates", t_gemm * 1e6, t_pre * 1e6, t_gemm / t_pre, T);
    registry.GetGauge("bench_gemm.lstm-gates.gemm_us")->Set(t_gemm * 1e6);
    registry.GetGauge("bench_gemm.lstm-gates.prepacked_us")->Set(t_pre * 1e6);
    registry.GetGauge("bench_gemm.lstm-gates.speedup")->Set(t_gemm / t_pre);
  }
  // -------------------------------------------------------------------------
  // Int8 quantized weights (quant.h): fp32 prepacked vs GemmQuantized* at
  // matched slice rates — the second elastic axis. One quantized pack per
  // weight serves every rate (k is a whole-segment prefix, n/m a column
  // prefix). Rows tagged "serving" are the shapes the scheduler actually
  // dispatches (dense m <= 8; conv C_out >= 128) and feed the
  // MS_BENCH_INT8_GATE geomean + per-row-floor check below;
  // MS_BENCH_INT8_OUT writes the rows as JSONL (the checked-in
  // bench_results/BENCH_INT8.json).
  bench::PrintTitle("int8 quantized W: fp32 prepacked vs GemmQuantized*");
  const char* int8_kernel = ops::GemmHasInt8Vnni()   ? "avx512-vnni"
                            : ops::GemmHasInt8Avx2() ? "avx2-maddubs"
                                                     : "portable";
  std::printf("int8 kernel: %s\n\n", int8_kernel);
  std::printf("%-16s %10s %12s %9s\n", "shape", "fp32 us", "int8 us",
              "speedup");
  bench::PrintRule();
  std::vector<Int8Row> int8_rows;
  const std::vector<double> rates = {0.25, 0.5, 1.0};

  // Dense serving: y = x * W^T, W 512x512 in 8 slice groups, x rows kept at
  // full width (lda = k) exactly as SetSliceRate leaves them.
  {
    const int64_t n = 512, k = 512, groups = 8;
    Tensor w = Tensor::Randn({n, k}, &rng);
    ops::PackedMatrix pack;
    ops::PackB(/*trans_b=*/true, k, n, w.data(), k, &pack);
    std::vector<int64_t> ends;
    for (int64_t g = 1; g <= groups; ++g) ends.push_back(g * k / groups);
    ops::QuantizedPack qpack;
    ops::EnsureQuantizedB(true, k, n, w.data(), k, ends, &qpack);
    for (const double r : rates) {
      const int64_t nr = static_cast<int64_t>(n * r);
      const int64_t kr = static_cast<int64_t>(k * r);
      for (const int64_t m : {1, 2, 4, 8, 32}) {
        Tensor x = Tensor::Randn({m, k}, &rng);
        Tensor y({m, n});
        Int8Row row;
        char label[48];
        std::snprintf(label, sizeof(label), "dense-m%d-r%.2f",
                      static_cast<int>(m), r);
        row.label = label;
        row.serving = m <= 8;
        row.fp32_us = 1e6 * TimeCall(min_s, [&] {
          ops::GemmPrepackedB(false, m, nr, kr, 1.0f, x.data(), k, pack,
                              0.0f, y.data(), n);
        });
        row.int8_us = 1e6 * TimeCall(min_s, [&] {
          ops::GemmQuantizedB(false, m, nr, kr, 1.0f, x.data(), k, qpack,
                              0.0f, y.data(), n);
        });
        int8_rows.push_back(row);
      }
    }
  }

  // Conv serving: C = W * im2col, a mid-network 3x3 layer (C_out=256,
  // C_in=64 => K=576) at 14x14 and 28x28 output maps. The quantized pack
  // is the transposed one the dense path uses (wpack_t packs W^T).
  {
    const int64_t cout = 256, cin = 64, k = cin * 9, groups = 8;
    Tensor w = Tensor::Randn({cout, k}, &rng);
    ops::PackedMatrix wpa;
    ops::PackA(/*trans_a=*/false, cout, k, w.data(), k, &wpa);
    std::vector<int64_t> ends;
    for (int64_t g = 1; g <= groups; ++g) ends.push_back(g * k / groups);
    ops::QuantizedPack qpack;
    ops::EnsureQuantizedB(true, k, cout, w.data(), k, ends, &qpack);
    for (const int64_t npix : {196, 784}) {
      Tensor b = Tensor::Randn({k, npix}, &rng);
      Tensor c({cout, npix});
      for (const double r : rates) {
        const int64_t mr = static_cast<int64_t>(cout * r);
        const int64_t kr = static_cast<int64_t>(k * r);
        Int8Row row;
        char label[48];
        std::snprintf(label, sizeof(label), "conv%d-r%.2f",
                      static_cast<int>(npix), r);
        row.label = label;
        row.serving = mr >= 128;
        row.fp32_us = 1e6 * TimeCall(min_s, [&] {
          ops::GemmPrepackedA(mr, npix, kr, wpa, false, b.data(), npix,
                              0.0f, c.data(), npix);
        });
        row.int8_us = 1e6 * TimeCall(min_s, [&] {
          ops::GemmQuantizedWeightA(mr, npix, kr, qpack, b.data(), npix,
                                    0.0f, c.data(), npix);
        });
        int8_rows.push_back(row);
      }
    }
  }

  // The convs slice-sweep runs: vgg13's 3x3 pad-1 layers read through the
  // conv view (cols_view.h) from one image's padded planes, as
  // Conv2d::DoForward calls them — C_out = C_in = 16 on 12x12 (stage 0)
  // and 64 on 3x3 (stage 2), 8 slice groups. Not serving rows: they report
  // the small-C_out shapes without moving the gate.
  {
    struct VggConv {
      int64_t channels, hw;
    };
    for (const VggConv vc : {VggConv{16, 12}, VggConv{64, 3}}) {
      const int64_t ch = vc.channels, k = ch * 9, groups = 8;
      Tensor w = Tensor::Randn({ch, k}, &rng);
      ops::PackedMatrix wpa;
      ops::PackA(/*trans_a=*/false, ch, k, w.data(), k, &wpa);
      std::vector<int64_t> ends;
      for (int64_t g = 1; g <= groups; ++g) ends.push_back(g * k / groups);
      ops::QuantizedPack qpack;
      ops::EnsureQuantizedB(true, k, ch, w.data(), k, ends, &qpack);
      for (const double r : rates) {
        const int64_t cr = static_cast<int64_t>(ch * r);
        const ops::ConvPlanes planes(cr, vc.hw, vc.hw, 3, 1, 1);
        Tensor x = Tensor::Randn({cr, vc.hw, vc.hw}, &rng);
        std::vector<float> buf(static_cast<size_t>(planes.floats()), 0.0f);
        planes.Fill(x.data(), buf.data());
        std::vector<int64_t> off(static_cast<size_t>(planes.taps()));
        planes.TapOffsets(off.data());
        const ops::ColsView view = planes.View(buf.data(), off.data());
        const int64_t npix = view.cols();
        Tensor c({cr, npix});
        Int8Row row;
        char label[48];
        std::snprintf(label, sizeof(label), "vggconv%d-%dx%d-r%.2f",
                      static_cast<int>(ch), static_cast<int>(vc.hw),
                      static_cast<int>(vc.hw), r);
        row.label = label;
        row.fp32_us = 1e6 * TimeCall(min_s, [&] {
          ops::GemmPrepackedA(cr, planes.taps(), wpa, view, 0.0f, c.data(),
                              npix);
        });
        row.int8_us = 1e6 * TimeCall(min_s, [&] {
          ops::GemmQuantizedWeightA(cr, planes.taps(), qpack, view, 0.0f,
                                    c.data(), npix);
        });
        int8_rows.push_back(row);
      }
    }
  }

  double min_serving = 0.0;
  double log_sum = 0.0;
  int serving_rows = 0;
  for (const Int8Row& row : int8_rows) {
    std::printf("%-16s %10.1f %12.1f %8.2fx%s\n", row.label.c_str(),
                row.fp32_us, row.int8_us, row.speedup(),
                row.serving ? "  (serving)" : "");
    const std::string base = "bench_gemm.int8-" + row.label;
    registry.GetGauge(base + ".fp32_us")->Set(row.fp32_us);
    registry.GetGauge(base + ".int8_us")->Set(row.int8_us);
    registry.GetGauge(base + ".speedup")->Set(row.speedup());
    if (row.serving) {
      min_serving = serving_rows == 0 ? row.speedup()
                                      : std::min(min_serving, row.speedup());
      log_sum += std::log(row.speedup());
      ++serving_rows;
    }
  }
  const double geomean_serving =
      serving_rows > 0 ? std::exp(log_sum / serving_rows) : 0.0;
  std::printf(
      "\nserving-shape int8 speedup: geomean %.2fx, min %.2fx (kernel: %s)\n",
      geomean_serving, min_serving, int8_kernel);
  registry.GetGauge("bench_gemm.int8.geomean_serving_speedup")
      ->Set(geomean_serving);
  registry.GetGauge("bench_gemm.int8.min_serving_speedup")->Set(min_serving);

  if (const char* path = std::getenv("MS_BENCH_INT8_OUT")) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "int8 dump: cannot open %s\n", path);
    } else {
      std::fprintf(f, "{\"type\":\"info\",\"name\":\"bench_gemm.int8.kernel\","
                      "\"value\":\"%s\"}\n", int8_kernel);
      for (const Int8Row& row : int8_rows) {
        std::fprintf(f,
                     "{\"type\":\"gauge\",\"name\":\"bench_gemm.int8-%s"
                     ".fp32_us\",\"value\":%.9g}\n",
                     row.label.c_str(), row.fp32_us);
        std::fprintf(f,
                     "{\"type\":\"gauge\",\"name\":\"bench_gemm.int8-%s"
                     ".int8_us\",\"value\":%.9g}\n",
                     row.label.c_str(), row.int8_us);
        std::fprintf(f,
                     "{\"type\":\"gauge\",\"name\":\"bench_gemm.int8-%s"
                     ".speedup\",\"value\":%.9g,\"serving\":%s}\n",
                     row.label.c_str(), row.speedup(),
                     row.serving ? "true" : "false");
      }
      std::fprintf(f,
                   "{\"type\":\"gauge\",\"name\":\"bench_gemm.int8."
                   "geomean_serving_speedup\",\"value\":%.9g}\n",
                   geomean_serving);
      std::fprintf(f,
                   "{\"type\":\"gauge\",\"name\":\"bench_gemm.int8."
                   "min_serving_speedup\",\"value\":%.9g}\n",
                   min_serving);
      std::fclose(f);
    }
  }

  // The acceptance gate: the serving-shape GEOMEAN must clear the ratio
  // (the ">= 2.5x at matched slice rate" claim), and no single serving
  // row may fall below 0.75x of it (a per-row regression backstop loose
  // enough that shared-runner timing noise cannot trip it on its own).
  int rc = 0;
  if (const char* gate = std::getenv("MS_BENCH_INT8_GATE")) {
    const double want = std::atof(gate);
    const double floor = 0.75 * want;
    if (geomean_serving < want || min_serving < floor) {
      std::fprintf(stderr,
                   "FAIL: serving-shape int8 speedup geomean %.2fx / min "
                   "%.2fx vs gate %.2fx (floor %.2fx)\n",
                   geomean_serving, min_serving, want, floor);
      rc = 1;
    } else {
      std::printf("gate: geomean %.2fx >= %.2fx, min %.2fx >= %.2fx -- pass\n",
                  geomean_serving, want, min_serving, floor);
    }
  }

  // -------------------------------------------------------------------------
  // Fused epilogues and the activation footprint (epilogue.h, fusion.h).
  // Each row times one serving-shaped model forward two ways: "fused" is
  // the model as built, applying bias and planted activations at
  // C-writeback; "unfused" walks a parameter-copied twin with its fusion
  // marks cleared through UnfusedPipeline, the pre-fusion pipeline (GEMM,
  // separate bias loops, standalone ReLU/Tanh passes with their tensor
  // copy). Both compute the same bits (tests/fusion_test.cc). The geomean
  // feeds MS_BENCH_FUSION_GATE; MS_BENCH_FUSION_OUT writes the rows plus
  // the activation footprint at each slice rate as JSONL (the checked-in
  // bench_results/BENCH_FUSION.json).
  bench::PrintTitle("fused epilogues: serving-shape layer fwd, fused vs unfused");
  std::printf("%-16s %12s %14s %9s\n", "layer", "fused ms/s", "unfused ms/s",
              "speedup");
  bench::PrintRule();
  ops::SetComputeThreads(1);

  // Keeps the timed forwards observable so the optimizer cannot drop them.
  static volatile float fusion_sink;

  struct FusionRow {
    std::string label;
    double fused_ms = 0.0;    // per sample
    double unfused_ms = 0.0;  // per sample
    double speedup() const { return unfused_ms / fused_ms; }
  };
  // Layer rows enter the gated geomean; full-model rows are reported (and
  // exported) but stay out of the gate: vgg13's conv GEMMs carry an EMPTY
  // epilogue (bias=false, a norm follows every conv) and are ~90% of its
  // runtime, so the whole-model ratio measures GEMM throughput, not the
  // killed post-GEMM passes the gate is about.
  std::vector<FusionRow> fusion_rows;
  std::vector<FusionRow> model_rows;
  UnfusedPipeline unfused;
  // `twin` is a second build of `net`'s architecture.
  auto time_fusion = [&](const std::string& label, Module* net, Module* twin,
                         const Tensor& x, int64_t samples, bool gated) {
    if (!CopyParams(net, twin).ok()) std::abort();
    ClearFusionMarks(twin);
    FusionRow row;
    row.label = label;
    row.fused_ms = 1e3 *
                   TimeCall(min_s,
                            [&] {
                              Tensor y = net->Forward(x, /*training=*/false);
                              fusion_sink += y.data()[0];
                            }) /
                   samples;
    row.unfused_ms = 1e3 *
                     TimeCall(min_s,
                              [&] {
                                Tensor y = unfused.Forward(twin, x);
                                fusion_sink += y.data()[0];
                              }) /
                     samples;
    (gated ? fusion_rows : model_rows).push_back(row);
  };

  // Dense + ReLU at serving batches: bias and activation fold into the
  // prepacked GEMM's C-writeback; unfused runs the separate bias pass and
  // the standalone ReLU module (tensor copy + pass).
  auto make_dense_relu = [&] {
    auto net = std::make_unique<Sequential>("dense_relu");
    DenseOptions o;
    o.in_features = 512;
    o.out_features = 512;
    o.bias = true;
    net->Emplace<Dense>(o, &rng, "dense");
    net->Emplace<ReLU>();
    FuseActivations(net.get());
    return net;
  };
  auto dense_relu = make_dense_relu();
  auto dense_relu_twin = make_dense_relu();
  Tensor dense_x1 = Tensor::Randn({1, 512}, &rng);
  Tensor dense_x8 = Tensor::Randn({8, 512}, &rng);
  time_fusion("dense512-b1", dense_relu.get(), dense_relu_twin.get(),
              dense_x1, 1, /*gated=*/true);
  time_fusion("dense512-b8", dense_relu.get(), dense_relu_twin.get(),
              dense_x8, 8, /*gated=*/true);

  // GroupNorm + ReLU block tails at vgg13's stage map shapes: fused
  // applies the activation at the norm's own write site (one extra
  // in-cache sweep) instead of the module's copy + pass.
  auto gn_relu_row = [&](int64_t ch, int64_t hw, const char* label) {
    auto make_block = [&] {
      auto block = std::make_unique<Sequential>(label);
      NormOptions n;
      n.channels = ch;
      n.groups = 8;
      block->Emplace<GroupNorm>(n, label);
      block->Emplace<ReLU>();
      FuseActivations(block.get());
      return block;
    };
    auto block = make_block();
    auto twin = make_block();
    Tensor x = Tensor::Randn({1, ch, hw, hw}, &rng);
    time_fusion(label, block.get(), twin.get(), x, 1, /*gated=*/true);
  };
  gn_relu_row(64, 32, "gn64x32x32-b1");
  gn_relu_row(128, 16, "gn128x16x16-b1");

  LstmOptions lcfg;
  lcfg.input_size = 512;
  lcfg.hidden_size = 512;
  lcfg.groups = 8;
  lcfg.slice_in = false;
  Lstm lstm_layer(lcfg, &rng);
  Lstm lstm_twin(lcfg, &rng);
  // One serving step: the four gate activations (sigmoid x3, tanh) fuse
  // into the gate GEMMs' writeback; the libm calls themselves are paid by
  // both paths, so this row prices only the killed pre-activation sweeps.
  Tensor lstm_cell_x = Tensor::Randn({1, 1, 512}, &rng);
  time_fusion("lstm-cell-b1", &lstm_layer, &lstm_twin, lstm_cell_x, 1,
              /*gated=*/true);

  MlpConfig mcfg;
  mcfg.in_features = 512;
  mcfg.hidden = {512, 512};
  mcfg.num_classes = 10;
  mcfg.group_norm = true;
  auto mlp = MakeMlp(mcfg).MoveValueOrDie();
  auto mlp_twin = MakeMlp(mcfg).MoveValueOrDie();
  Tensor mlp_x1 = Tensor::Randn({1, 512}, &rng);
  Tensor mlp_x8 = Tensor::Randn({8, 512}, &rng);
  time_fusion("mlp-b8", mlp.get(), mlp_twin.get(), mlp_x8, 8,
              /*gated=*/true);

  // Full-model rows (reported, ungated).
  CnnConfig vcfg;
  vcfg.in_channels = 3;
  vcfg.num_classes = 10;
  vcfg.base_width = 64;
  vcfg.stages = 3;
  vcfg.blocks_per_stage = 2;
  auto vgg = MakeVggSmall(vcfg).MoveValueOrDie();
  auto vgg_twin = MakeVggSmall(vcfg).MoveValueOrDie();
  Tensor vgg_x = Tensor::Randn({1, 3, 32, 32}, &rng);
  time_fusion("vgg13-b1", vgg.get(), vgg_twin.get(), vgg_x, 1,
              /*gated=*/false);
  time_fusion("mlp-b1", mlp.get(), mlp_twin.get(), mlp_x1, 1,
              /*gated=*/false);
  const int64_t lstm_t = bench::FastMode() ? 4 : 16;
  Tensor lstm_x = Tensor::Randn({lstm_t, 1, 512}, &rng);
  time_fusion("lstm-b1", &lstm_layer, &lstm_twin, lstm_x, 1,
              /*gated=*/false);

  double fusion_log_sum = 0.0;
  auto print_row = [&](const FusionRow& row) {
    std::printf("%-16s %12.3f %14.3f %8.2fx\n", row.label.c_str(),
                row.fused_ms, row.unfused_ms, row.speedup());
    const std::string base = "bench_fusion." + row.label;
    registry.GetGauge(base + ".fused_ms_per_sample")->Set(row.fused_ms);
    registry.GetGauge(base + ".unfused_ms_per_sample")->Set(row.unfused_ms);
    registry.GetGauge(base + ".speedup")->Set(row.speedup());
  };
  for (const FusionRow& row : fusion_rows) {
    print_row(row);
    fusion_log_sum += std::log(row.speedup());
  }
  const double fusion_geomean =
      fusion_rows.empty() ? 0.0
                          : std::exp(fusion_log_sum / fusion_rows.size());
  std::printf("\nfull-model rows (reported, not gated -- conv GEMMs carry "
              "an empty epilogue):\n");
  for (const FusionRow& row : model_rows) print_row(row);
  std::printf("\nfused-epilogue speedup geomean (layer rows): %.2fx\n",
              fusion_geomean);
  registry.GetGauge("bench_fusion.geomean_speedup")->Set(fusion_geomean);

  // Activation footprint vs slice rate, from Tensor's live-byte counter:
  // after a warm forward, reset the high-water mark and run one more; the
  // peak above the bytes already live is what one request at rate r
  // allocates for activations. Weights scale ~r^2, activations ~r — these
  // rows record the activation component of the paper's footprint curve.
  bench::PrintTitle("activation footprint vs slice rate");
  std::printf("%-14s %6s %14s\n", "model", "r", "peak-live KiB");
  bench::PrintRule();
  struct FootprintRow {
    std::string label;
    double rate;
    int64_t peak_live_bytes;
  };
  std::vector<FootprintRow> footprint_rows;
  struct FootprintTarget {
    const char* label;
    Module* net;
    const Tensor* x;
  };
  const FootprintTarget footprint_targets[] = {
      {"vgg13-b1", vgg.get(), &vgg_x},
      {"mlp-b8", mlp.get(), &mlp_x8},
      {"lstm-b1", &lstm_layer, &lstm_x},
  };
  for (const FootprintTarget& target : footprint_targets) {
    for (const double r : {0.25, 0.5, 0.75, 1.0}) {
      target.net->SetSliceRate(r);
      // The warm forward builds lazy caches (weight packs), so the measured
      // one sees only per-request activations.
      {
        Tensor warm = target.net->Forward(*target.x, /*training=*/false);
        fusion_sink += warm.data()[0];
      }
      const int64_t live_before = Tensor::LiveBytes();
      Tensor::ResetPeakLiveBytes();
      {
        Tensor y = target.net->Forward(*target.x, /*training=*/false);
        fusion_sink += y.data()[0];
      }
      const int64_t peak = Tensor::PeakLiveBytes() - live_before;
      std::printf("%-14s %6.2f %14.1f\n", target.label, r, peak / 1024.0);
      char gname[96];
      std::snprintf(gname, sizeof(gname),
                    "bench_fusion.footprint.%s-r%.2f.peak_live_bytes",
                    target.label, r);
      registry.GetGauge(gname)->Set(static_cast<double>(peak));
      footprint_rows.push_back({target.label, r, peak});
    }
    target.net->SetSliceRate(1.0);
  }

  if (const char* path = std::getenv("MS_BENCH_FUSION_OUT")) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "fusion dump: cannot open %s\n", path);
    } else {
      for (const FusionRow& row : fusion_rows) {
        std::fprintf(f,
                     "{\"type\":\"gauge\",\"name\":\"bench_fusion.%s"
                     ".fused_ms_per_sample\",\"value\":%.9g}\n",
                     row.label.c_str(), row.fused_ms);
        std::fprintf(f,
                     "{\"type\":\"gauge\",\"name\":\"bench_fusion.%s"
                     ".unfused_ms_per_sample\",\"value\":%.9g}\n",
                     row.label.c_str(), row.unfused_ms);
        std::fprintf(f,
                     "{\"type\":\"gauge\",\"name\":\"bench_fusion.%s"
                     ".speedup\",\"value\":%.9g}\n",
                     row.label.c_str(), row.speedup());
      }
      std::fprintf(f,
                   "{\"type\":\"gauge\",\"name\":\"bench_fusion."
                   "geomean_speedup\",\"value\":%.9g}\n",
                   fusion_geomean);
      for (const FootprintRow& row : footprint_rows) {
        std::fprintf(f,
                     "{\"type\":\"gauge\",\"name\":\"bench_fusion.footprint."
                     "%s-r%.2f.peak_live_bytes\",\"value\":%lld}\n",
                     row.label.c_str(), row.rate,
                     static_cast<long long>(row.peak_live_bytes));
      }
      std::fclose(f);
    }
  }

  // The fusion acceptance gate: killing the post-GEMM passes must buy at
  // least the given geomean across the serving rows (CI uses 1.15).
  if (const char* gate = std::getenv("MS_BENCH_FUSION_GATE")) {
    const double want = std::atof(gate);
    if (fusion_geomean < want) {
      std::fprintf(stderr,
                   "FAIL: fused-epilogue speedup geomean %.2fx < gate "
                   "%.2fx\n",
                   fusion_geomean, want);
      rc = 1;
    } else {
      std::printf("gate: fusion geomean %.2fx >= %.2fx -- pass\n",
                  fusion_geomean, want);
    }
  }

  ops::PublishPackMetrics();
  return rc;
}

}  // namespace
}  // namespace ms

int main() { return ms::Main(); }
