#pragma once

// Run settings, metric records, and result output shared by every workload
// of the end-to-end benchmark.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::duration from_seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Command-line settings of one workload run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured window. With tracing on, three quarters of it
  /// run untraced (counters, overhead baseline) and one quarter traced.
  double seconds = 20.0;
  bool trace = false;
  /// Tiny inputs and short phases: same code paths and checks, meaningless
  /// numbers.
  bool smoke = false;
  /// Perturb one served value before it is checked, to prove the checks fire.
  bool corrupt = false;
  /// Where <workload>.json and <workload>.trace.json are written.
  std::string out_dir;
};

/// How a run spends its time (derived from RunOptions).
struct Plan {
  double warmup_s = 0.0;
  double measure_s = 0.0;  // untraced window
  double traced_s = 0.0;   // traced window (0 = no traced phase)
  int setups = 0;          // set-ups timed; setup_s is their median
};

Plan plan_for(const RunOptions& o);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run measured and checked.
class Report {
 public:
  explicit Report(std::string workload);

  /// End-to-end metrics must be set exactly once each (the names are fixed:
  /// see kEndToEnd in report.cpp).
  void end_to_end(const std::string& name, double value);
  /// Per-layer metrics start at 0 (layer not exercised by this workload).
  void layer(const std::string& name, double value);
  /// Context kept in the results file only (sample counts, configuration).
  void detail(const std::string& name, double value, const std::string& unit);

  /// Record a correctness check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);

  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }

  bool correct() const;
  const std::string& workload() const { return workload_; }

  /// Human-readable `workload metric value unit` lines, then the one-line
  /// JSON result (end-to-end metrics, or per-layer ones when `traced`).
  void print(bool traced) const;
  /// <out_dir>/<workload>.json with every metric, check and detail.
  void write(const RunOptions& o) const;

 private:
  std::string workload_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> per_layer_;
  std::vector<Metric> detail_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Whether BENCHMARK.json declares `name` as a per-layer metric.
bool is_per_layer_metric(const std::string& name);

/// Percentile `p` (0-100) of the samples within each `window_s`-long window
/// (at_s[i] is when sample i was taken), then the median over windows with at
/// least `min_samples` samples; the plain percentile when no window has that
/// many. Neighbouring tenants on a shared VM slow whole seconds of a run at a
/// time; this ignores such bursts while they cover a minority of windows.
double windowed_percentile(const std::vector<double>& at_s, const std::vector<double>& v,
                           double p, double window_s, std::size_t min_samples);

/// Peak resident set size of this process (VmHWM), MB.
double peak_rss_mb();
/// Threads this process is running now.
int live_threads();

/// Shortest text that reads back as exactly `v` (JSON has no inf/nan: those
/// print as null).
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace e2e
