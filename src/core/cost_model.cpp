#include "core/cost_model.hpp"

#include <algorithm>
#include <numeric>

namespace willump::core {

double IfvStats::total_cost() const {
  return std::accumulate(cost_seconds.begin(), cost_seconds.end(), 0.0);
}

std::vector<double> measure_fg_costs(const Executor& executor,
                                     const data::Batch& train_inputs) {
  DriverStats drivers;
  ExecOptions opts;
  opts.drivers = &drivers;
  (void)executor.compute_blocks(train_inputs, opts);

  const auto& analysis = executor.analysis();
  std::vector<double> costs(analysis.generators.size(), 0.0);
  for (std::size_t f = 0; f < analysis.generators.size(); ++f) {
    double acc = 0.0;
    for (int node : analysis.generators[f].nodes) {
      const auto i = static_cast<std::size_t>(node);
      if (i < drivers.node_seconds.size()) acc += drivers.node_seconds[i];
    }
    // Floor at a small epsilon so cost-effectiveness ratios stay finite.
    costs[f] = std::max(acc, 1e-9);
  }
  return costs;
}

}  // namespace willump::core
