#pragma once

#include <string>
#include <vector>

#include "core/executors.hpp"
#include "kernels/autotune.hpp"
#include "models/model.hpp"

namespace willump::core {

struct TrainedCascade;  // cascades.hpp (which includes this header)

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

/// Time kernel-variant candidates for one trained model on a feature-matrix
/// sample and install the fastest (the cost model's measure-then-optimize
/// loop applied to the prediction kernels themselves). Greedy two-stage
/// search: dot-product variant first, then tree variant x block size — the
/// two axes are independent (no model consults both on one path), so greedy
/// equals exhaustive here at a fraction of the measurements. Each timing is
/// a warmup run plus the median of `cfg.reps` timed runs; every candidate
/// is appended to `timings` (names prefixed "<label>/") when non-null.
kernels::KernelConfig tune_model_kernels(
    models::Model& model, const data::FeatureMatrix& x,
    const kernels::AutotuneConfig& cfg, const std::string& label,
    std::vector<kernels::VariantTiming>* timings);

/// Autotune both models of a trained cascade against features computed from
/// a training-set sample (first `cfg.sample_rows` rows): the full model on
/// the full feature matrix, the small model (when present) on the
/// efficient-IFV matrix it serves. Returns the report the WLMP artifact's
/// kernel section persists; when there is nothing to measure (empty
/// training set, zero reps) the models keep their configs and the report
/// says tuned = false.
kernels::AutotuneReport autotune_pipeline_kernels(
    TrainedCascade& cascade, const Executor& executor,
    const data::Batch& train_inputs, const kernels::AutotuneConfig& cfg);

}  // namespace willump::core
