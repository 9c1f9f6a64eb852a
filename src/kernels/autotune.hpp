#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/dispatch.hpp"

namespace willump::serialize {
class Reader;
class Writer;
}

namespace willump::kernels {

/// Knobs for the optimize-time kernel autotuner. It reuses the cost model's
/// measurement discipline (warmup + median of `reps` timed runs) on a
/// training-set sample, so tuning cost stays a small constant on top of the
/// cascade search.
struct AutotuneConfig {
  int reps = 5;                  // timed repetitions per candidate (median)
  std::size_t sample_rows = 256; // rows of the training set to time against
  std::vector<std::uint32_t> tree_blocks = {8, 16, 32, 64};
  /// Also tune the op-level choice (zero-copy assembly) on a compiled
  /// executor. The optimizer turns this off when the caller forced
  /// a FeatureOpConfig.
  bool tune_feature_ops = true;
};

/// One timed candidate, kept for observability (surfaced by benches and
/// persisted in the artifact's kernel section).
struct VariantTiming {
  std::string name;      // e.g. "full/dot:avx512" or "small/tree:blocked/16"
  double seconds = 0.0;  // median wall seconds for one sample-batch predict
};

/// Outcome of tuning one optimized pipeline: the winning config per model
/// plus the full candidate timing table. Serialized as the WLMP artifact's
/// kernel section so a loaded pipeline cold-starts tuned.
struct AutotuneReport {
  bool tuned = false;      // false => defaults in use (tuning skipped/forced)
  KernelConfig full;       // winner for the full (original) model
  bool has_small = false;  // cascades only
  KernelConfig small;      // winner for the small/approximate model
  /// Op-level winners (feature pipeline, not models). tuned_ops says the
  /// `ops` field is meaningful — set both by the op autotuner and by a
  /// forced FeatureOpConfig — and tells artifact load to install it on the
  /// compiled executor.
  bool tuned_ops = false;
  FeatureOpConfig ops;
  std::vector<VariantTiming> timings;
};

/// Dot-product variants worth timing on this CPU (always includes Scalar and
/// Unrolled; AVX tiers only when supported, so tuning never times a variant
/// that would silently downgrade).
std::vector<DotVariant> candidate_dots();

void save_autotune_report(serialize::Writer& w, const AutotuneReport& rep);
AutotuneReport load_autotune_report(serialize::Reader& r);

}  // namespace willump::kernels
