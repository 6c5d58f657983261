#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/util/string_util.h"

namespace ms {
namespace obs {

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; map the rest to '_'.
std::string PromName(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out = "_" + out;
  return out;
}

std::string JsonDouble(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  return StrFormat("%.9g", v);
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

Status WriteTextFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const int close_err = std::fclose(f);
  if (written != contents.size() || close_err != 0) {
    return Status::IoError("short write: " + path);
  }
  return Status::OK();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  if (bounds_.empty()) bounds_.push_back(1.0);
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);

  // Detect a geometric (log-bucket) or arithmetic progression so
  // BucketIndex can guess the bucket with one log()/divide instead of a
  // binary search. The default layouts (LatencyBucketsMs, DepthBuckets:
  // ratio 2; RateBuckets: step 1/16) all hit one of these fast paths.
  const size_t n = bounds_.size();
  if (n >= 3) {
    bool geometric = bounds_[0] > 0.0;
    const double ratio = geometric ? bounds_[1] / bounds_[0] : 0.0;
    geometric = geometric && ratio > 1.0;
    bool arithmetic = true;
    const double step = bounds_[1] - bounds_[0];
    for (size_t i = 1; i + 1 < n && (geometric || arithmetic); ++i) {
      if (geometric &&
          std::abs(bounds_[i + 1] / bounds_[i] - ratio) > 1e-9 * ratio) {
        geometric = false;
      }
      if (arithmetic &&
          std::abs((bounds_[i + 1] - bounds_[i]) - step) > 1e-9 * step) {
        arithmetic = false;
      }
    }
    if (geometric) {
      layout_ = Layout::kGeometric;
      inv_b0_ = 1.0 / bounds_[0];
      inv_log_ratio_ = 1.0 / std::log(ratio);
    } else if (arithmetic && step > 0.0) {
      layout_ = Layout::kArithmetic;
      inv_step_ = 1.0 / step;
    }
  }
}

size_t Histogram::BucketIndex(double v) const {
  const size_t n = bounds_.size();
  // The negated comparison routes NaN (and anything <= the first bound)
  // into bucket 0, matching what lower_bound did before.
  if (!(v > bounds_.front())) return 0;
  if (v > bounds_.back()) return n;  // overflow bucket
  size_t g;
  switch (layout_) {
    case Layout::kGeometric:
      g = static_cast<size_t>(std::max(
          0.0, std::floor(std::log(v * inv_b0_) * inv_log_ratio_)));
      break;
    case Layout::kArithmetic:
      g = static_cast<size_t>(
          std::max(0.0, std::ceil((v - bounds_.front()) * inv_step_)));
      break;
    case Layout::kIrregular:
    default:
      return static_cast<size_t>(
          std::lower_bound(bounds_.begin(), bounds_.end(), v) -
          bounds_.begin());
  }
  if (g >= n) g = n - 1;
  // Fix up floating-point error in the guess against the exact bounds; with
  // a correct guess each loop runs zero iterations, and log()'s relative
  // error keeps them O(1) regardless — Observe stays wait-free.
  while (g > 0 && v <= bounds_[g - 1]) --g;
  while (v > bounds_[g]) ++g;
  return g;
}

void Histogram::Observe(double v) {
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // C++20 atomic floating add: wait-free where the hardware supports it,
  // and never a hand-rolled CAS retry loop in our code.
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::mean() const {
  const int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

namespace {

// Shared rank-to-value walk over a consistent bucket snapshot.
double PercentileFromSnapshot(const std::vector<double>& bounds,
                              const std::vector<int64_t>& snapshot,
                              int64_t total, double p) {
  if (total <= 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(total);
  int64_t cum = 0;
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const int64_t in_bucket = snapshot[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= target) {
      // Interpolate inside [lower, upper]. The overflow bucket has no upper
      // bound; report its lower edge (a conservative lower bound).
      const double lower = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
      if (i == bounds.size()) return bounds.back();
      const double upper = bounds[i];
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
    cum += in_bucket;
  }
  return bounds.back();
}

}  // namespace

double Histogram::Percentile(double p) const {
  return Percentiles({p})[0];
}

std::vector<double> Histogram::Percentiles(
    const std::vector<double>& ps) const {
  // One snapshot for every requested percentile: ranking against the
  // snapshot's own total (not count_, which writers may have advanced past
  // the bucket array or vice versa) is what makes the result exact-to-bucket
  // under concurrent Observe calls.
  std::vector<int64_t> snapshot(bounds_.size() + 1);
  int64_t total = 0;
  for (size_t i = 0; i < snapshot.size(); ++i) {
    snapshot[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snapshot[i];
  }
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) {
    out.push_back(PercentileFromSnapshot(bounds_, snapshot, total, p));
  }
  return out;
}

std::vector<double> LatencyBucketsMs() {
  std::vector<double> bounds;
  for (double b = 0.01; b < 2e4; b *= 2.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> RateBuckets() {
  std::vector<double> bounds;
  for (int i = 1; i <= 16; ++i) bounds.push_back(i / 16.0);
  return bounds;
}

std::vector<double> DepthBuckets() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 4096.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

std::string MetricsRegistry::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << "{\"type\":\"counter\",\"name\":\"" << JsonEscape(name)
       << "\",\"value\":" << c->value() << "}\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << "{\"type\":\"gauge\",\"name\":\"" << JsonEscape(name)
       << "\",\"value\":" << JsonDouble(g->value()) << "}\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::vector<double> ps = h->Percentiles({50, 95, 99, 99.9});
    os << "{\"type\":\"histogram\",\"name\":\"" << JsonEscape(name)
       << "\",\"count\":" << h->count()
       << ",\"sum\":" << JsonDouble(h->sum())
       << ",\"mean\":" << JsonDouble(h->mean())
       << ",\"p50\":" << JsonDouble(ps[0])
       << ",\"p95\":" << JsonDouble(ps[1])
       << ",\"p99\":" << JsonDouble(ps[2])
       << ",\"p999\":" << JsonDouble(ps[3]) << ",\"buckets\":[";
    for (size_t i = 0; i < h->num_buckets(); ++i) {
      if (i > 0) os << ",";
      os << "{\"le\":";
      if (i < h->bounds().size()) {
        os << JsonDouble(h->bounds()[i]);
      } else {
        os << "\"+inf\"";
      }
      os << ",\"count\":" << h->bucket_count(i) << "}";
    }
    os << "]}\n";
  }
  return os.str();
}

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    const std::string p = PromName(name);
    os << "# TYPE " << p << " counter\n" << p << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string p = PromName(name);
    os << "# TYPE " << p << " gauge\n"
       << p << " " << JsonDouble(g->value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string p = PromName(name);
    os << "# TYPE " << p << " histogram\n";
    int64_t cum = 0;
    for (size_t i = 0; i < h->bounds().size(); ++i) {
      cum += h->bucket_count(i);
      os << p << "_bucket{le=\"" << JsonDouble(h->bounds()[i]) << "\"} "
         << cum << "\n";
    }
    cum += h->bucket_count(h->bounds().size());
    os << p << "_bucket{le=\"+Inf\"} " << cum << "\n";
    os << p << "_sum " << JsonDouble(h->sum()) << "\n";
    os << p << "_count " << h->count() << "\n";
  }
  return os.str();
}

Status MetricsRegistry::WriteJsonl(const std::string& path) const {
  return WriteTextFile(path, ToJsonl());
}

Status MetricsRegistry::WritePrometheus(const std::string& path) const {
  return WriteTextFile(path, ToPrometheus());
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace ms
