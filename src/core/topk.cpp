#include "core/topk.hpp"

#include <algorithm>
#include <span>

#include "models/metrics.hpp"

namespace willump::core {

std::size_t TopKPipeline::subset_size(std::size_t k, std::size_t n) const {
  const auto by_ck = static_cast<std::size_t>(cfg_.ck * static_cast<double>(k));
  const auto by_frac =
      static_cast<std::size_t>(cfg_.min_subset_frac * static_cast<double>(n));
  return std::min(n, std::max({by_ck, by_frac, k}));
}

namespace {

/// `model`'s scores of the rows `rows` of `batch` (every row when null).
/// Each row range computes its own features and writes its own scores, so
/// the scores have the same bits however the rows are split.
std::vector<double> score_rows(const Executor& executor, const models::Model& model,
                               const data::Batch& batch,
                               const std::vector<std::size_t>* rows,
                               const ExecOptions& opts) {
  std::vector<double> scores(rows != nullptr ? rows->size() : batch.num_rows());
  for_row_ranges(
      executor, opts, scores.size(),
      [&](const ExecOptions& range_opts, std::size_t begin, std::size_t end) {
        data::Batch part;
        const data::Batch& sub =
            rows != nullptr
                ? (part = batch.select_rows(
                       std::span(*rows).subspan(begin, end - begin)))
                : row_range(batch, begin, end, part);
        model.predict_into(executor.compute_matrix(sub, range_opts),
                           std::span(scores).subspan(begin, end - begin));
      });
  return scores;
}

}  // namespace

std::vector<std::size_t> TopKPipeline::top_k(const data::Batch& batch,
                                             std::size_t k, const ExecOptions& opts,
                                             TopKRunStats* stats) const {
  const std::size_t n = batch.num_rows();

  if (!has_filter()) {
    // No filter model available: score everything with the full model.
    const auto scores =
        score_rows(*executor_, *cascade_.full_model, batch, nullptr, opts);
    if (stats != nullptr) *stats = {n, n};
    return models::top_k_indices(scores, k);
  }

  // Filter stage: the approximate pipeline (small model on efficient IFVs)
  // scores every element of the batch.
  ExecOptions eff_opts = opts;
  eff_opts.fg_mask = cascade_.efficient_mask;
  const auto filter_scores =
      score_rows(*executor_, *cascade_.small_model, batch, nullptr, eff_opts);

  // Keep the top max(ck*K, 5%*N) candidates...
  const std::size_t subset = subset_size(k, n);
  const auto candidates = models::top_k_indices(filter_scores, subset);
  if (stats != nullptr) *stats = {n, subset};

  // ...and re-rank only those with the full pipeline.
  const auto full_scores =
      score_rows(*executor_, *cascade_.full_model, batch, &candidates, opts);
  const auto local_top = models::top_k_indices(full_scores, k);

  std::vector<std::size_t> out;
  out.reserve(local_top.size());
  for (std::size_t i : local_top) out.push_back(candidates[i]);
  return out;
}

}  // namespace willump::core
