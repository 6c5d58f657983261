// Helpers the benchmark owns outright: its random inputs, its arrival
// generator, its statistics, its span log and its result line. None of them
// call into the library, so a change to the program cannot move the
// workload the benchmark offers it.
#ifndef PERFBENCH_HELPERS_H_
#define PERFBENCH_HELPERS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast and fully specified, so the same seed gives the
/// same stream on every compiler and standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t NextU64();
  /// Uniform in the open interval (0, 1).
  double Uniform();
  /// Standard normal (Box-Muller).
  double Normal();

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the command-line seed and a
/// stream tag (round index, shard index, ...).
uint64_t StreamSeed(uint64_t seed, uint64_t tag);

/// Arrival rate (requests/s) of a repeated triangle: `lo` at phase 0, `hi`
/// at half period, back to `lo` at the full period.
double TriangleRate(double t, double lo, double hi, double period);

/// Open-loop Poisson arrival times in [0, duration) for a time-varying rate
/// `rate(t)` bounded by `max_rate`, drawn by thinning a homogeneous process
/// at `max_rate`. Sorted ascending; seconds from the schedule start.
std::vector<double> PoissonArrivals(uint64_t seed, double duration,
                                    const std::function<double(double)>& rate,
                                    double max_rate);

/// Metric-name tag of a slice rate: "r025", "r050", "r075", "r100".
std::string RateTag(double rate);

/// Percentile `q` in [0, 100] with linear interpolation between closest
/// ranks (the "type 7" rule of numpy's default). NaN for an empty input.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// True when `name` is a valid metric name: [A-Za-z0-9_.-]+, at most 64
/// characters, starting with a letter or a digit.
bool ValidMetricName(const std::string& name);

/// Seconds on the steady clock since an arbitrary process-wide origin.
double NowSeconds();
/// Sleeps until NowSeconds() >= t (returns at once when t has passed).
void SleepUntil(double t);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();
/// Current resident set size of this process, in MiB (the peak so far
/// where /proc is unavailable).
double CurrentRssMb();

/// \brief In-memory span log. A span is a named interval with an optional
/// parent; spans are kept in memory and written out once, at the end.
/// Thread-safe.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< NowSeconds() at entry.
    double end = 0.0;
    int64_t parent = -1;  ///< index of the enclosing span, -1 for a root.
  };

  /// Opens a span and returns its index.
  int64_t Begin(std::string name, int64_t parent = -1);
  void End(int64_t index);
  /// Records a span whose bounds were measured elsewhere.
  int64_t Add(std::string name, double start, double end, int64_t parent = -1);

  std::vector<Span> spans() const;
  /// Self time of every span, indexed like spans(): its duration minus the
  /// part of it that its child spans cover.
  std::vector<double> SelfTimes() const;
  /// Writes the log as a Chrome trace-event JSON file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// \brief The result line: {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
  void CountAttempts(int64_t attempted, int64_t failed);

  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  std::vector<std::string> names() const;
  /// One JSON object on one line. Metric names that fail ValidMetricName,
  /// repeat, or carry a non-finite value make the line report
  /// correct=false.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HELPERS_H_
