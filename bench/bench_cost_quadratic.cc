// Microbenchmarks for Eq. 3: measured wall-clock inference time of sliced
// subnets must scale roughly quadratically with the slice rate, matching
// the analytic FLOPs model. Uses google-benchmark.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "src/core/cost_model.h"
#include "src/models/cnn.h"
#include "src/models/mlp.h"
#include "src/tensor/tensor_ops.h"

namespace ms {
namespace {

std::unique_ptr<Sequential> SharedVgg() {
  CnnConfig cfg = bench::StandardVgg();
  cfg.base_width = 32;  // wide enough that GEMM dominates overheads
  return MakeVggSmall(cfg).MoveValueOrDie();
}

// Args: rate in percent, then precision (0 fp32, 1 int8) — the per-rate
// int8/fp32 comparison of the second elastic axis.
void BM_VggForwardAtRate(benchmark::State& state) {
  static std::unique_ptr<Sequential> net = SharedVgg();
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  const Precision precision =
      state.range(1) != 0 ? Precision::kInt8 : Precision::kFp32;
  net->SetSliceRate(rate);
  net->SetPrecision(precision);
  Rng rng(1);
  const int64_t active_in = 3;
  Tensor x = Tensor::Randn({8, active_in, 12, 12}, &rng);
  for (auto _ : state) {
    Tensor y = net->Forward(x, /*training=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["analytic_MFLOPs"] =
      static_cast<double>(net->FlopsPerSample()) / 1e6;
  state.counters["rate"] = rate;
  state.SetLabel(PrecisionName(precision));
}
BENCHMARK(BM_VggForwardAtRate)
    ->ArgsProduct({{25, 50, 75, 100}, {0, 1}})
    ->ArgNames({"rate", "int8"});

void BM_MlpForwardAtRate(benchmark::State& state) {
  MlpConfig cfg;
  cfg.in_features = 256;
  cfg.hidden = {512, 512};
  cfg.num_classes = 10;
  cfg.slice_groups = 8;
  static std::unique_ptr<Sequential> net = MakeMlp(cfg).MoveValueOrDie();
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  net->SetSliceRate(rate);
  Rng rng(2);
  Tensor x = Tensor::Randn({16, 256}, &rng);
  for (auto _ : state) {
    Tensor y = net->Forward(x, /*training=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["analytic_MFLOPs"] =
      static_cast<double>(net->FlopsPerSample()) / 1e6;
  state.counters["rate"] = rate;
}
BENCHMARK(BM_MlpForwardAtRate)->Arg(25)->Arg(50)->Arg(75)->Arg(100);

void BM_GemmKernel(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  Tensor c({n, n});
  for (auto _ : state) {
    ops::MatMul(a, false, b, false, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * n * n * n) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmKernel)->Arg(64)->Arg(128)->Arg(256);

}  // namespace
}  // namespace ms

BENCHMARK_MAIN();
