#include "perfbench/metric_names.h"

namespace perfbench {

std::vector<std::string> DeclaredMetrics(bool trace) {
  if (!trace) {
    return {"setup_s", "peak_rss_mb", "throughput_sps", "latency_p50_ms"};
  }
  std::vector<std::string> m;
  for (const char* k : {"stem", "conv", "norm", "pool", "head"}) {
    m.push_back(std::string("nn.fwd_us.") + k);
  }
  for (const char* n : {"tensor.gflops", "nn.batch_mean", "nn.rate_share.r025",
                        "nn.rate_share.r050", "nn.rate_share.r075",
                        "nn.rate_share.r100", "models.first_forward_ms",
                        "trace.overhead_pct"}) {
    m.push_back(n);
  }
  return m;
}

}  // namespace perfbench
