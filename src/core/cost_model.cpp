#include "core/cost_model.hpp"

#include <algorithm>
#include <numeric>

namespace willump::core {

double IfvStats::total_cost() const {
  return std::accumulate(cost_seconds.begin(), cost_seconds.end(), 0.0);
}

std::vector<double> measure_fg_costs(const Executor& executor,
                                     const data::Batch& train_inputs) {
  runtime::Profiler profiler;
  ExecOptions opts;
  opts.profiler = &profiler;
  (void)executor.compute_blocks(train_inputs, opts);

  const auto& analysis = executor.analysis();
  std::vector<double> costs(analysis.generators.size(), 0.0);
  for (std::size_t f = 0; f < analysis.generators.size(); ++f) {
    double acc = 0.0;
    for (int node : analysis.generators[f].nodes) {
      acc += profiler.total_seconds(node);
    }
    // Floor at a small epsilon so cost-effectiveness ratios stay finite.
    costs[f] = std::max(acc, 1e-9);
  }
  return costs;
}

}  // namespace willump::core
