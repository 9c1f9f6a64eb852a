#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace willump::common {

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> xs);

/// Unbiased sample standard deviation; 0 for fewer than two samples.
double stddev(std::span<const double> xs);

/// Median (copies and partially sorts); 0 for empty input.
double median(std::vector<double> xs);

/// p-th percentile with linear interpolation, p in [0, 100].
double percentile(std::vector<double> xs, double p);

/// Half-width of the 95% normal-approximation confidence interval for a
/// binomial proportion observed as `accuracy` over `n` trials.
///
/// The paper (§6.3) declares a cascade's accuracy loss "not statistically
/// significant" when it falls inside this interval for the full model's
/// test-set accuracy; we apply the identical criterion.
double binomial_ci95_half_width(double accuracy, std::size_t n);

/// True when |acc_a - acc_b| lies within the 95% CI of acc_b over n trials.
bool accuracy_within_ci95(double acc_a, double acc_b, std::size_t n);

/// Pearson correlation; 0 when either side is constant.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Summary of repeated timing measurements, in the units of the samples.
struct Summary {
  double mean = 0.0;
  double median = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Summary summarize(std::vector<double> samples);

/// Accumulates per-query latency samples and reduces them to exact
/// percentile summaries. Memory grows with every sample, so it suits
/// bounded client-side runs (workloads/traffic counts deadline hits from
/// the exact samples); long-lived accounting uses LatencyHistogram.
///
/// Not internally synchronized: concurrent recorders guard it with their
/// own lock or record into per-thread instances and merge().
class LatencyRecorder {
 public:
  void record(double seconds) { samples_.push_back(seconds); }
  void merge(const LatencyRecorder& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// p-th percentile of the recorded samples, p in [0, 100].
  double percentile(double p) const;

  /// Mean/median/p99/min/max over everything recorded so far.
  Summary summary() const { return summarize(samples_); }

  const std::vector<double>& samples() const { return samples_; }
  void clear() { samples_.clear(); }

 private:
  std::vector<double> samples_;
};

/// Constant-size, mergeable latency histogram (HDR-style log-linear
/// buckets over integer nanoseconds): the serving engine's always-on
/// per-model latency accounting.
///
/// Values below 128 ns get one bucket per nanosecond; above that, every
/// power of two [2^k, 2^(k+1)) is split into 64 equal sub-buckets, up to
/// 2^40 ns (~18 min). Larger values land in the top bucket. A quantile is
/// the midpoint of the bucket holding the nearest-rank sample, clamped to
/// [min, max], so it is within 1/64 of that sample (1 ns below 64 ns); the
/// lowest and highest ranks return min and max. Count, sum (the mean),
/// min and max are exact. `record` is O(1) and never allocates; `merge`
/// is an element-wise add, so per-model histograms combine into server-
/// and fleet-wide distributions.
///
/// Not internally synchronized (same contract as LatencyRecorder).
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per octave
  static constexpr int kRangeBits = 40;     // covers [0, 2^40) ns
  /// Unit buckets [0, 128) plus 64 per octave from 2^7 up to 2^40: 2240.
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kRangeBits - kSubBucketBits + 1) << kSubBucketBits;

  /// Record one latency in seconds; negative values (and NaN) count as 0.
  void record(double seconds);
  void merge(const LatencyHistogram& other);
  void clear() { *this = LatencyHistogram{}; }

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// p-th percentile estimate in seconds, p in [0, 100]; 0 when empty.
  double percentile(double p) const;

  /// Mean/median/p99/min/max over everything recorded so far.
  Summary summary() const;

  /// Per-bucket counts, indexed by bucket_of().
  std::span<const std::uint64_t> buckets() const { return buckets_; }
  /// Bucket index of a value in nanoseconds.
  static std::size_t bucket_of(std::uint64_t ns);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace willump::common
