#pragma once

#include <vector>

#include "core/executors.hpp"

namespace willump::core {

/// Per-IFV statistics driving the cascades optimization (§4.2, stage 1):
/// computational cost (measured) and prediction importance (model-derived,
/// filled in by core/importance).
struct IfvStats {
  std::vector<double> cost_seconds;  // per generator
  std::vector<double> importance;    // per generator

  double total_cost() const;
};

/// Measure each feature generator's computational cost by timing its nodes
/// while computing training-set features (the paper measures node runtimes
/// during model training, §4.2: serve-time costs match because the same
/// pipeline runs at train and serve time).
///
/// Returns per-generator seconds (preprocessing time is excluded: it runs
/// regardless of which IFVs a cascade computes).
std::vector<double> measure_fg_costs(const Executor& executor,
                                     const data::Batch& train_inputs);

}  // namespace willump::core
