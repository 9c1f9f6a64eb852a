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
  std::vector<VariantTiming> timings;
};

/// Dot-product variants worth timing on this CPU: Unrolled plus the AVX
/// tiers the CPU supports, so tuning never times a variant that would
/// silently downgrade. Scalar stays out: its one-accumulator CSR margin sums
/// in a different order from every other variant's two, so a timing pick of
/// Scalar would change a sparse linear model's bits. Every candidate's
/// csr_margins is bit-identical; Scalar remains the tests' reference order.
std::vector<DotVariant> candidate_dots();

/// Serialize/deserialize a report. Between the kernel configs and the
/// timings the layout keeps the slots of the retired op-level choices (a
/// tuned flag, then 6 bytes in v3 artifacts, 7 in v4): save writes fixed
/// survivor values, load range-checks the bytes (CorruptData) and then
/// ignores them, since every retired choice was bit-exact with the path
/// that now always runs.
void save_autotune_report(serialize::Writer& w, const AutotuneReport& rep);
AutotuneReport load_autotune_report(serialize::Reader& r);

}  // namespace willump::kernels
