// The metrics every workload emits, as declared in BENCHMARK.json. A run
// whose report differs from the declared set fails its own check.
#ifndef PERFBENCH_METRIC_NAMES_H_
#define PERFBENCH_METRIC_NAMES_H_

#include <string>
#include <vector>

namespace perfbench {

/// Metric names a run emits untraced (`trace` false: end-to-end) or traced
/// (`trace` true: per-layer). Every workload emits the same set.
std::vector<std::string> DeclaredMetrics(bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_METRIC_NAMES_H_
