#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace willump::common {
namespace {

TEST(Stats, MeanBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, StddevKnownValue) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stddev(xs), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{1.0}), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);
}

TEST(Stats, BinomialCiShrinksWithN) {
  const double w100 = binomial_ci95_half_width(0.9, 100);
  const double w10000 = binomial_ci95_half_width(0.9, 10000);
  EXPECT_GT(w100, w10000);
  EXPECT_NEAR(w10000, 1.96 * std::sqrt(0.9 * 0.1 / 10000.0), 1e-12);
}

TEST(Stats, BinomialCiDegenerate) {
  EXPECT_DOUBLE_EQ(binomial_ci95_half_width(0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_ci95_half_width(1.0, 100), 0.0);
}

TEST(Stats, AccuracyWithinCi) {
  // 90% accuracy over 1000 trials: CI half-width ~ 1.86%.
  EXPECT_TRUE(accuracy_within_ci95(0.89, 0.90, 1000));
  EXPECT_FALSE(accuracy_within_ci95(0.85, 0.90, 1000));
}

TEST(Stats, PearsonPerfectAndInverse) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys{2.0, 4.0, 6.0, 8.0};
  std::vector<double> neg{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> xs{1.0, 1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, SummaryFields) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0, 100.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_GT(s.p99, s.median);
}

TEST(LatencyRecorder, RecordsAndSummarizes) {
  LatencyRecorder rec;
  EXPECT_TRUE(rec.empty());
  for (double v : {4.0, 1.0, 3.0, 2.0}) rec.record(v);
  EXPECT_EQ(rec.count(), 4u);
  EXPECT_DOUBLE_EQ(rec.percentile(50.0), 2.5);
  EXPECT_DOUBLE_EQ(rec.percentile(100.0), 4.0);
  const auto s = rec.summary();
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  rec.clear();
  EXPECT_TRUE(rec.empty());
}

TEST(LatencyRecorder, MergeCombinesSamples) {
  LatencyRecorder a, b;
  a.record(1.0);
  b.record(3.0);
  b.record(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.percentile(50.0), 3.0);
}

/// Seeded log-normal latencies in seconds, centred near 1 ms.
std::vector<double> lognormal_seconds(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::lognormal_distribution<double> dist(std::log(1e-3), 1.0);
  std::vector<double> xs(n);
  for (double& x : xs) x = dist(rng);
  return xs;
}

TEST(LatencyHistogram, QuantilesWithinOneSixtyFourthOfExact) {
  const auto xs = lognormal_seconds(100000, 7);
  LatencyHistogram h;
  for (double x : xs) h.record(x);
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = percentile(xs, p);
    EXPECT_NEAR(h.percentile(p), exact, exact / 64.0) << "p" << p;
  }
  const Summary s = h.summary();
  EXPECT_EQ(s.median, h.percentile(50.0));
  EXPECT_EQ(s.p99, h.percentile(99.0));
}

TEST(LatencyHistogram, CountMeanMinMaxAreExact) {
  const auto xs = lognormal_seconds(100000, 11);
  LatencyHistogram h;
  for (double x : xs) h.record(x);
  EXPECT_EQ(h.count(), xs.size());
  EXPECT_DOUBLE_EQ(h.mean(), mean(xs));
  EXPECT_EQ(h.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(h.max(), *std::max_element(xs.begin(), xs.end()));
  const Summary s = h.summary();
  EXPECT_DOUBLE_EQ(s.mean, mean(xs));
  EXPECT_EQ(s.min, h.min());
  EXPECT_EQ(s.max, h.max());
  // Every quantile is clamped into the exact [min, max].
  EXPECT_EQ(h.percentile(0.0), h.min());
  EXPECT_EQ(h.percentile(100.0), h.max());
}

TEST(LatencyHistogram, MergeEqualsRecordingBothStreams) {
  const auto xs = lognormal_seconds(5000, 1);
  const auto ys = lognormal_seconds(7000, 2);
  LatencyHistogram a, b, both;
  for (double x : xs) {
    a.record(x);
    both.record(x);
  }
  for (double y : ys) {
    b.record(y);
    both.record(y);
  }
  a.merge(b);
  ASSERT_EQ(a.buckets().size(), both.buckets().size());
  EXPECT_TRUE(std::equal(a.buckets().begin(), a.buckets().end(),
                         both.buckets().begin()));
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_NEAR(a.mean(), both.mean(), 1e-12 * both.mean());
  for (double p : {50.0, 99.0}) EXPECT_EQ(a.percentile(p), both.percentile(p));

  LatencyHistogram empty;
  empty.merge(both);  // merging into an empty histogram copies min/max
  EXPECT_EQ(empty.min(), both.min());
  EXPECT_EQ(empty.max(), both.max());
  both.merge(LatencyHistogram{});  // and merging an empty one is a no-op
  EXPECT_EQ(both.count(), a.count());
}

TEST(LatencyHistogram, EdgeInputs) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(50.0), 0.0);
  h.record(0.0);
  h.record(-1.0);  // clamped to 0
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(99.0), 0.0);

  // Beyond 2^40 ns (~18 min): the top bucket, with max still exact.
  const double huge = 3600.0;
  h.record(huge);
  EXPECT_EQ(h.buckets()[LatencyHistogram::kBuckets - 1], 1u);
  EXPECT_EQ(h.max(), huge);
  EXPECT_EQ(h.percentile(100.0), huge);
  EXPECT_DOUBLE_EQ(h.mean(), huge / 3.0);

  // Bucket boundaries: unit buckets below 128 ns, 64 per octave above.
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(127), 127u);
  EXPECT_EQ(LatencyHistogram::bucket_of(128), 128u);
  EXPECT_EQ(LatencyHistogram::bucket_of(129), 128u);
  EXPECT_EQ(LatencyHistogram::bucket_of(130), 129u);
  EXPECT_EQ(LatencyHistogram::bucket_of((std::uint64_t{1} << 40) - 1),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(std::uint64_t{1} << 50),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, ClearEmpties) {
  LatencyHistogram h;
  for (double x : lognormal_seconds(1000, 3)) h.record(x);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(99.0), 0.0);
  EXPECT_TRUE(std::all_of(h.buckets().begin(), h.buckets().end(),
                          [](std::uint64_t c) { return c == 0; }));
  h.record(2e-3);  // min/max restart from the first new sample
  EXPECT_EQ(h.min(), 2e-3);
  EXPECT_EQ(h.max(), 2e-3);
}

}  // namespace
}  // namespace willump::common
