#pragma once

// The optimized pipeline's serving calls re-composed from the public calls
// of each layer (executor, cascade models, top-K routing), so a span can sit
// at every layer boundary without instrumenting the library. The composed
// calls must stay bit-identical to OptimizedPipeline::predict / top_k; the
// traced runs check that they are.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace e2e {

/// OptimizedPipeline::predict(batch), layer by layer: cascade (efficient
/// features, small model, remaining features on the hard rows, full model)
/// or plain (features, full model).
std::vector<double> composed_predict(const willump::core::OptimizedPipeline& p,
                                     const willump::data::Batch& batch,
                                     Tracer& t, std::uint64_t call);

/// OptimizedPipeline::top_k(batch, k), layer by layer: filter features and
/// model over the batch, then features and full model over the subset.
std::vector<std::size_t> composed_top_k(const willump::core::OptimizedPipeline& p,
                                        const willump::data::Batch& batch,
                                        std::size_t k, Tracer& t,
                                        std::uint64_t call);

/// Time every feature generator alone (compute_blocks with a one-generator
/// mask, median of `reps`) on `batch`, as "ops.<op tag>" spans. Returns
/// microseconds per row summed over the generators of each root-op tag
/// (tfidf, table_lookup, ...); shared preprocessing counts in each.
std::map<std::string, double> probe_generators(
    const willump::core::OptimizedPipeline& p, const willump::data::Batch& batch,
    int reps, Tracer& t);

/// Per-layer metrics that come from span self times (executors, models,
/// cascade and top-K routing) plus the per-op-tag probe results.
void report_span_layers(const Tracer& t, const std::map<std::string, double>& ops,
                        Report& r);

}  // namespace e2e
