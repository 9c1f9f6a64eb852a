#include "compose.hpp"

#include "common/stats.hpp"
#include "core/topk.hpp"
#include "models/metrics.hpp"

namespace e2e {

using willump::core::ExecOptions;
using willump::core::OptimizedPipeline;
using willump::data::Batch;
using willump::data::FeatureMatrix;

std::vector<double> composed_predict(const OptimizedPipeline& p, const Batch& batch,
                                     Tracer& t, std::uint64_t call) {
  const std::size_t n = batch.num_rows();
  const willump::core::Executor& exec = p.executor();
  // Same options OptimizedPipeline::predict_into builds (the benchmark's
  // pipelines have no per-input thread pool).
  ExecOptions opts;
  opts.cache = p.cache();
  opts.scratch = willump::core::request_scratch();
  std::vector<double> preds(n);

  if (!p.cascades_enabled()) {
    SpanScope root(t, "pipeline.predict", -1, call, n);
    FeatureMatrix owned;
    const FeatureMatrix* x = &owned;
    {
      SpanScope s(t, "core.executors.rest", root.id(), call, n);
      if (opts.scratch != nullptr) {
        x = &exec.compute_matrix_into(batch, *opts.scratch, opts);
      } else {
        owned = exec.compute_matrix(batch, opts);
      }
    }
    SpanScope s(t, "models.full", root.id(), call, n);
    p.full_model().predict_into(*x, preds);
    return preds;
  }

  // cascade_predict_into, stage by stage.
  const willump::core::TrainedCascade& c = p.cascade();
  SpanScope root(t, "core.cascades", -1, call, n);
  ExecOptions eff_opts = opts;
  eff_opts.fg_mask = c.efficient_mask;
  std::vector<FeatureMatrix> eff_blocks;
  FeatureMatrix x_eff;
  {
    SpanScope s(t, "core.executors.efficient", root.id(), call, n);
    eff_blocks = exec.compute_blocks(batch, eff_opts);
    x_eff = exec.assemble(eff_blocks, c.efficient_mask);
  }
  std::vector<std::uint8_t> hard(n);
  {
    SpanScope s(t, "models.small", root.id(), call, n);
    c.small_model->predict_cascade(x_eff, c.threshold, preds, hard);
  }
  std::vector<std::size_t> hard_rows;
  for (std::size_t i = 0; i < n; ++i) {
    if (hard[i] != 0) hard_rows.push_back(i);
  }
  if (hard_rows.empty()) return preds;

  const Batch hard_batch = batch.select_rows(hard_rows);
  FeatureMatrix x_full;
  {
    SpanScope s(t, "core.executors.rest", root.id(), call, hard_rows.size());
    ExecOptions rest_opts = opts;
    rest_opts.fg_mask = c.inefficient_mask;
    auto blocks = exec.compute_blocks(hard_batch, rest_opts);
    for (std::size_t f = 0; f < blocks.size(); ++f) {
      if (f < c.efficient_mask.size() && c.efficient_mask[f]) {
        blocks[f] = eff_blocks[f].select_rows(hard_rows);
      }
    }
    x_full = exec.assemble(blocks, {});
  }
  std::vector<double> full_preds;
  {
    SpanScope s(t, "models.full", root.id(), call, hard_rows.size());
    full_preds = c.full_model->predict(x_full);
  }
  for (std::size_t i = 0; i < hard_rows.size(); ++i) {
    preds[hard_rows[i]] = full_preds[i];
  }
  return preds;
}

std::vector<std::size_t> composed_top_k(const OptimizedPipeline& p, const Batch& batch,
                                        std::size_t k, Tracer& t, std::uint64_t call) {
  const std::size_t n = batch.num_rows();
  const willump::core::Executor& exec = p.executor();
  ExecOptions opts;
  opts.cache = p.cache();
  const willump::core::TrainedCascade& c = p.cascade();
  const willump::core::TopKPipeline plan(p.executor_ptr(), c, p.topk_config());

  SpanScope root(t, "core.topk", -1, call, n);
  if (!plan.has_filter()) {
    FeatureMatrix x;
    {
      SpanScope s(t, "core.executors.rest", root.id(), call, n);
      x = exec.compute_matrix(batch, opts);
    }
    std::vector<double> scores;
    {
      SpanScope s(t, "models.full", root.id(), call, n);
      scores = c.full_model->predict(x);
    }
    return willump::models::top_k_indices(scores, k);
  }

  ExecOptions eff_opts = opts;
  eff_opts.fg_mask = c.efficient_mask;
  FeatureMatrix x_eff;
  {
    SpanScope s(t, "core.executors.efficient", root.id(), call, n);
    x_eff = exec.compute_matrix(batch, eff_opts);
  }
  std::vector<double> filter_scores;
  {
    SpanScope s(t, "models.small", root.id(), call, n);
    filter_scores = c.small_model->predict(x_eff);
  }
  const auto candidates =
      willump::models::top_k_indices(filter_scores, plan.subset_size(k, n));
  const Batch subset = batch.select_rows(candidates);
  FeatureMatrix x_sub;
  {
    SpanScope s(t, "core.executors.rest", root.id(), call, candidates.size());
    x_sub = exec.compute_matrix(subset, opts);
  }
  std::vector<double> full_scores;
  {
    SpanScope s(t, "models.full", root.id(), call, candidates.size());
    full_scores = c.full_model->predict(x_sub);
  }
  std::vector<std::size_t> out;
  for (std::size_t i : willump::models::top_k_indices(full_scores, k)) {
    out.push_back(candidates[i]);
  }
  return out;
}

std::map<std::string, double> probe_generators(const OptimizedPipeline& p,
                                               const Batch& batch, int reps,
                                               Tracer& t) {
  const willump::core::Executor& exec = p.executor();
  const auto& gens = exec.analysis().generators;
  const double rows = static_cast<double>(batch.num_rows());
  std::map<std::string, double> us_per_row;
  for (std::size_t f = 0; f < gens.size(); ++f) {
    const auto& op = exec.graph().node(gens[f].root).op;
    std::string tag = op != nullptr ? std::string(op->serial_tag()) : "";
    if (tag.empty()) tag = "unknown";
    const std::string span_name = "ops." + tag;
    ExecOptions opts;
    opts.cache = p.cache();
    opts.fg_mask.assign(gens.size(), false);
    opts.fg_mask[f] = true;
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = Clock::now();
      {
        SpanScope s(t, span_name.c_str(), -1, static_cast<std::uint64_t>(f),
                    batch.num_rows());
        (void)exec.compute_blocks(batch, opts);
      }
      times.push_back(seconds_between(t0, Clock::now()));
    }
    us_per_row[tag] += willump::common::median(std::move(times)) * 1e6 / rows;
  }
  return us_per_row;
}

void report_span_layers(const Tracer& t, const std::map<std::string, double>& ops,
                        Report& r) {
  const auto totals = t.totals();
  const auto per = [&](const char* span, bool per_span) {
    const auto it = totals.find(span);
    if (it == totals.end()) return 0.0;
    const double den = per_span ? static_cast<double>(it->second.spans) : it->second.rows;
    return den > 0.0 ? it->second.self_seconds * 1e6 / den : 0.0;
  };
  r.layer("core.executors.efficient_us_per_row", per("core.executors.efficient", false));
  r.layer("core.executors.rest_us_per_row", per("core.executors.rest", false));
  r.layer("models.small.us_per_row", per("models.small", false));
  r.layer("models.full.us_per_row", per("models.full", false));
  r.layer("core.cascades.self_us_per_row", per("core.cascades", false));
  r.layer("core.topk.self_us_per_query", per("core.topk", true));
  for (const auto& [tag, us] : ops) {
    const std::string name = "ops." + tag + ".us_per_row";
    if (is_per_layer_metric(name)) {
      r.layer(name, us);
    } else {
      r.detail(name, us, "us");
    }
  }
}

}  // namespace e2e
