#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace willump::common {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double rank = (p / 100.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double binomial_ci95_half_width(double accuracy, std::size_t n) {
  if (n == 0) return 1.0;
  const double p = std::clamp(accuracy, 0.0, 1.0);
  return 1.96 * std::sqrt(p * (1.0 - p) / static_cast<double>(n));
}

bool accuracy_within_ci95(double acc_a, double acc_b, std::size_t n) {
  return std::abs(acc_a - acc_b) <= binomial_ci95_half_width(acc_b, n);
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double LatencyRecorder::percentile(double p) const {
  return common::percentile(samples_, p);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  s.mean = mean(samples);
  s.min = *std::min_element(samples.begin(), samples.end());
  s.max = *std::max_element(samples.begin(), samples.end());
  s.median = percentile(samples, 50.0);
  s.p99 = percentile(std::move(samples), 99.0);
  return s;
}

std::size_t LatencyHistogram::bucket_of(std::uint64_t ns) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << kRangeBits;
  if (ns >= kTop) return kBuckets - 1;
  // Values with bit_width <= 7 index their own unit bucket; above that the
  // top 7 bits (a sub-bucket in [64, 128)) select within the octave.
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(ns)) - (kSubBucketBits + 1));
  return (static_cast<std::size_t>(shift) << kSubBucketBits) +
         static_cast<std::size_t>(ns >> shift);
}

namespace {

/// Midpoint of bucket `i`, in nanoseconds.
double bucket_mid_ns(std::size_t i) {
  constexpr int kBits = LatencyHistogram::kSubBucketBits;
  if (i < (std::size_t{2} << kBits)) return static_cast<double>(i) + 0.5;
  // Inverse of bucket_of: sub-bucket `sub` of the octave scaled by 2^shift.
  const int shift = static_cast<int>(i >> kBits) - 1;
  const auto sub = static_cast<double>(i - (static_cast<std::size_t>(shift) << kBits));
  return std::ldexp(sub + 0.5, shift);
}

}  // namespace

void LatencyHistogram::record(double seconds) {
  const double s = seconds > 0.0 ? seconds : 0.0;  // also maps NaN to 0
  // Saturate before the integer conversion (also catches +inf).
  constexpr auto kTop = static_cast<double>(std::uint64_t{1} << kRangeBits);
  ++buckets_[bucket_of(static_cast<std::uint64_t>(std::min(s * 1e9, kTop)))];
  if (count_ == 0 || s < min_) min_ = s;
  if (count_ == 0 || s > max_) max_ = s;
  sum_ += s;
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  // Nearest rank (1-based): the smallest rank covering p percent of samples.
  const double want = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 *
                                static_cast<double>(count_));
  const auto rank = static_cast<std::uint64_t>(want);
  // The extreme ranks are known exactly.
  if (rank <= 1) return min_;
  if (rank >= count_) return max_;
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i + 1 < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) break;
  }
  return std::clamp(bucket_mid_ns(i) * 1e-9, min_, max_);
}

Summary LatencyHistogram::summary() const {
  Summary s;
  if (count_ == 0) return s;
  s.mean = mean();
  s.min = min_;
  s.max = max_;
  s.median = percentile(50.0);
  s.p99 = percentile(99.0);
  return s;
}

}  // namespace willump::common
