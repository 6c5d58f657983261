// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace_out <path>]
//   perfbench --list-metrics
//
// Prints one JSON result line last on stdout and exits 0 when every output
// check passed, 1 when one failed, 2 on a usage error. Progress goes to
// stderr. Build and run it through perfbench/run.py.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "perfbench/metric_names.h"
#include "src/models/zoo.h"
#include "perfbench/workloads.h"

namespace perfbench {

std::unique_ptr<ms::Sequential> MakeVgg13(double width_mult) {
  ms::ZooEntry entry = ms::GetZooModel("vgg13").MoveValueOrDie();
  entry.config.width_mult = width_mult;
  return ms::MakeVggSmall(entry.config).MoveValueOrDie();
}

ms::Tensor RandomImages(int64_t batch, SplitMix64* rng) {
  ms::Tensor x({batch, 3, 12, 12});
  float* p = x.data();
  for (int64_t i = 0; i < x.size(); ++i) {
    p[i] = static_cast<float>(rng->Normal());
  }
  return x;
}

bool AllFinite(const ms::Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

double FirstForwardMs(double width_mult, const ms::Tensor& x) {
  std::vector<double> ms_cold;
  for (int i = 0; i < 3; ++i) {
    auto fresh = MakeVgg13(width_mult);
    const double t0 = NowSeconds();
    fresh->Forward(x, false);
    ms_cold.push_back((NowSeconds() - t0) * 1e3);
  }
  return Median(ms_cold);
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <slice-sweep|serve-ramp|"
               "wire-light|train-sliced> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace_out <path>]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

int ListMetrics() {
  for (int trace = 0; trace <= 1; ++trace) {
    for (const std::string& m : DeclaredMetrics(trace == 1)) {
      std::printf("%d %s\n", trace, m.c_str());
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  std::string workload;
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") return ListMetrics();
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace_out") {
      args.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) return Usage();

  Report report;
  if (workload == "slice-sweep") {
    RunSliceSweep(args, &report);
  } else if (workload == "serve-ramp") {
    RunServeRamp(args, &report);
  } else if (workload == "wire-light") {
    RunWireLight(args, &report);
  } else if (workload == "train-sliced") {
    RunTrainSliced(args, &report);
  } else {
    return Usage();
  }

  // The report must carry exactly the declared metrics of this mode.
  const std::vector<std::string> declared = DeclaredMetrics(args.trace);
  const std::set<std::string> want(declared.begin(), declared.end());
  const std::vector<std::string> names = report.names();
  const std::set<std::string> got(names.begin(), names.end());
  if (got != want) report.Fail("emitted metrics differ from the declared set");
  if (report.attempted() < 1) report.Fail("no operation attempted");

  std::cout << report.ToJson() << std::endl;
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
