#include "perfbench/helpers.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <set>
#include <sstream>
#include <thread>

namespace perfbench {

uint64_t SplitMix64::NextU64() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  // 53 random bits, shifted by half a step so 0 and 1 never occur.
  return (static_cast<double>(NextU64() >> 11) + 0.5) * 0x1.0p-53;
}

double SplitMix64::Normal() {
  const double u1 = Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  SplitMix64 mix(seed * 0x100000001B3ULL + tag);
  return mix.NextU64();
}

double TriangleRate(double t, double lo, double hi, double period) {
  const double phase = std::fmod(t, period) / period;  // [0, 1)
  const double up = phase < 0.5 ? 2.0 * phase : 2.0 * (1.0 - phase);
  return lo + (hi - lo) * up;
}

std::vector<double> PoissonArrivals(uint64_t seed, double duration,
                                    const std::function<double(double)>& rate,
                                    double max_rate) {
  std::vector<double> out;
  if (duration <= 0.0 || max_rate <= 0.0) return out;
  SplitMix64 rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log(rng.Uniform()) / max_rate;
    if (t >= duration) break;
    // Thinning: keep the candidate with probability rate(t) / max_rate.
    if (rng.Uniform() * max_rate < rate(t)) out.push_back(t);
  }
  return out;
}

std::string RateTag(double rate) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "r%03d",
                static_cast<int>(std::lround(rate * 100.0)));
  return buf;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

void SleepUntil(double t) {
  // A plain sleep, no spinning: the generator must not take a core from the
  // server on a 4-core host. Its wake-up overshoot is counted as lag.
  const double gap = t - NowSeconds();
  if (gap > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(gap));
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return PeakRssMb();
  long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (got != 2) return PeakRssMb();
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int64_t SpanLog::Begin(std::string name, int64_t parent) {
  const double now = NowSeconds();
  return Add(std::move(name), now, now, parent);
}

void SpanLog::End(int64_t index) {
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = now;
}

int64_t SpanLog::Add(std::string name, double start, double end,
                     int64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start, end, parent});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanLog::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    // Clip to the parent: only time inside the parent's interval counts.
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) kids[static_cast<size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = spans_[i].start;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[i] = (spans_[i].end - spans_[i].start) - covered;
  }
  return self;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                 (s.end - s.start) * 1e6, i,
                 static_cast<long long>(s.parent));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void Report::CountAttempts(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::vector<std::string> Report::names() const {
  std::vector<std::string> out;
  for (const Entry& m : metrics_) out.push_back(m.name);
  return out;
}

std::string Report::ToJson() const {
  bool ok = correct_;
  std::set<std::string> seen;
  std::ostringstream metrics;
  metrics.precision(17);
  for (const Entry& m : metrics_) {
    if (!ValidMetricName(m.name) || !std::isfinite(m.value) ||
        !seen.insert(m.name).second) {
      std::fprintf(stderr, "perfbench: bad metric %s = %g\n", m.name.c_str(),
                   m.value);
      ok = false;
      continue;
    }
    metrics << (seen.size() == 1 ? "" : ", ") << '"' << m.name
            << "\": {\"value\": " << m.value << ", \"unit\": \"" << m.unit
            << "\"}";
  }
  std::ostringstream out;
  out << "{\"correct\": " << (ok ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {" << metrics.str() << "}}";
  return out.str();
}

}  // namespace perfbench
