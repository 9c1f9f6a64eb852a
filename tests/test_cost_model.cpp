#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "kernels/autotune.hpp"
#include "test_support.hpp"
#include "workloads/price.hpp"

namespace willump::core {
namespace {

TEST(IfvStats, TotalCostSumsPerGeneratorCosts) {
  IfvStats s;
  s.cost_seconds = {0.25, 0.5, 1.0};
  EXPECT_DOUBLE_EQ(s.total_cost(), 1.75);
}

TEST(IfvStats, EmptyStatsCostZero) {
  IfvStats s;
  EXPECT_DOUBLE_EQ(s.total_cost(), 0.0);
}

TEST(CostModel, OneCostPerGeneratorAllPositive) {
  auto& f = willump::testing::shared_toxic();
  const auto costs = measure_fg_costs(*f.compiled, f.wl.train.inputs);
  ASSERT_EQ(costs.size(), f.compiled->analysis().num_generators());
  for (double c : costs) {
    // measure_fg_costs floors every cost at a small epsilon so
    // cost-effectiveness ratios stay finite.
    EXPECT_GE(c, 1e-9);
  }
  EXPECT_GT(std::accumulate(costs.begin(), costs.end(), 0.0), 0.0);
}

TEST(CostModel, InterpretedExecutorMeasurableToo) {
  auto& f = willump::testing::shared_toxic();
  const auto costs = measure_fg_costs(*f.interpreted, f.wl.train.inputs);
  ASSERT_EQ(costs.size(), f.interpreted->analysis().num_generators());
}

TEST(CostModel, RemoteNetworkRaisesLookupCosts) {
  // The same Credit pipeline measured with local then remote tables: the
  // simulated RTT is a real (spin) wait inside the lookup nodes, so the
  // profiled generator costs must rise.
  workloads::CreditConfig cfg;
  cfg.seed = willump::testing::kCreditSeed;
  cfg.sizes = {.train = 800, .valid = 300, .test = 300};
  cfg.n_clients = 1000;
  auto wl = workloads::make_credit(cfg);
  CompiledExecutor ex(wl.pipeline.graph, analyze_ifvs(wl.pipeline.graph));

  const auto local = measure_fg_costs(ex, wl.train.inputs);
  wl.tables->set_network(workloads::default_remote_network());
  const auto remote = measure_fg_costs(ex, wl.train.inputs);

  ASSERT_EQ(local.size(), remote.size());
  const double local_total =
      std::accumulate(local.begin(), local.end(), 0.0);
  const double remote_total =
      std::accumulate(remote.begin(), remote.end(), 0.0);
  EXPECT_GT(remote_total, local_total);
}

/// The "ops/" entries of a timing table, in timing order.
std::vector<std::string> op_timing_names(
    const std::vector<kernels::VariantTiming>& timings) {
  std::vector<std::string> names;
  for (const auto& t : timings) {
    if (t.name.rfind("ops/", 0) == 0) names.push_back(t.name);
  }
  return names;
}

const std::vector<std::string> kZeroCopyOnly{"ops/zero_copy:off",
                                             "ops/zero_copy:on"};

TEST(CostModel, FeatureOpTuningTimesOnlyZeroCopy) {
  // Price's graph hashes brand/category one-hots and runs TF-IDF on names:
  // zero-copy assembly is still the only op-level choice the tuner times.
  workloads::PriceConfig cfg;
  cfg.sizes = {.train = 500, .valid = 200, .test = 200};
  cfg.name_tfidf_features = 200;
  const auto wl = workloads::make_price(cfg);
  CompiledExecutor ex(wl.pipeline.graph, analyze_ifvs(wl.pipeline.graph));
  std::vector<std::size_t> probe_rows{0, 1, 2, 3};
  ex.probe_layout(wl.train.inputs.select_rows(probe_rows));

  std::vector<std::size_t> rows(64);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  const data::Batch sample = wl.train.inputs.select_rows(rows);

  kernels::AutotuneConfig acfg;
  acfg.reps = 1;
  std::vector<kernels::VariantTiming> timings;
  const kernels::FeatureOpConfig winner =
      tune_feature_ops(ex, sample, acfg, &timings);
  EXPECT_EQ(ex.featureop_config(), winner);
  EXPECT_EQ(op_timing_names(timings), kZeroCopyOnly);
}

TEST(CostModel, OptimizedToxicReportsOnlyZeroCopyOpTimings) {
  auto& f = willump::testing::shared_toxic();
  OptimizeOptions opts;
  opts.cascades = true;
  opts.autotune.reps = 1;
  opts.autotune.sample_rows = 32;
  const auto p =
      WillumpOptimizer::optimize(f.wl.pipeline, f.wl.train, f.wl.valid, opts);
  ASSERT_TRUE(p.autotune_report().tuned_ops);
  EXPECT_EQ(op_timing_names(p.autotune_report().timings), kZeroCopyOnly);
}

TEST(CostModel, CascadeStatsUseMeasuredCosts) {
  // The trained cascade's per-IFV stats come from this cost model: same
  // generator count and the same positivity floor.
  auto& f = willump::testing::shared_toxic();
  ASSERT_TRUE(f.cascade.enabled());
  ASSERT_EQ(f.cascade.stats.cost_seconds.size(),
            f.compiled->analysis().num_generators());
  for (double c : f.cascade.stats.cost_seconds) {
    EXPECT_GE(c, 1e-9);
  }
  EXPECT_DOUBLE_EQ(f.cascade.stats.total_cost(),
                   std::accumulate(f.cascade.stats.cost_seconds.begin(),
                                   f.cascade.stats.cost_seconds.end(), 0.0));
}

}  // namespace
}  // namespace willump::core
