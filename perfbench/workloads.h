// The four benchmark workloads. Each runs for about `seconds` of measured
// time, checks the program's outputs, and fills `report` with the same
// metrics as every other workload: the end-to-end ones (untraced runs) or
// the per-layer ones (traced runs). NOTES.md beside this directory says
// why each workload exists and what each metric means on it.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/helpers.h"
#include "src/nn/module.h"
#include "src/tensor/tensor.h"

namespace perfbench {

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its span log (Chrome trace JSON).
  std::string trace_path;
};

void RunSliceSweep(const RunArgs& args, Report* report);
void RunServeRamp(const RunArgs& args, Report* report);
void RunWireLight(const RunArgs& args, Report* report);
void RunTrainSliced(const RunArgs& args, Report* report);

// Shared by the workloads.

/// The operating-point lattice the paper trains: {0.25, 0.5, 0.75, 1}.
inline const std::vector<double> kLattice = {0.25, 0.5, 0.75, 1.0};

/// The vgg13 zoo model, optionally widened.
std::unique_ptr<ms::Sequential> MakeVgg13(double width_mult = 1.0);

/// A (batch, 3, 12, 12) input of standard-normal values from `rng`.
ms::Tensor RandomImages(int64_t batch, SplitMix64* rng);

/// True when every element of `t` is finite.
bool AllFinite(const ms::Tensor& t);

/// Median over three fresh vgg13 instances (widened by `width_mult`) of
/// the wall time, in ms, of their first forward of `x` (fp32, r = 1): the
/// lazy work a cold model does once.
double FirstForwardMs(double width_mult, const ms::Tensor& x);

/// Percent by which `traced` exceeds `untraced`.
inline double OverheadPct(double traced, double untraced) {
  return 100.0 * (traced / untraced - 1.0);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
