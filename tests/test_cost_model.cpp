#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "test_support.hpp"

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
