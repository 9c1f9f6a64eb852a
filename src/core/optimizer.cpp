#include "core/optimizer.hpp"

#include <atomic>
#include <stdexcept>

namespace willump::core {

OptimizedPipeline::OptimizedPipeline(Parts parts) {
  if (parts.executor == nullptr) {
    throw std::invalid_argument("OptimizedPipeline: null executor");
  }
  if (parts.cascade.full_model == nullptr) {
    throw std::invalid_argument("OptimizedPipeline: cascade lacks a full model");
  }
  executor_ = std::move(parts.executor);
  cascade_ = std::move(parts.cascade);
  use_cascades_ = parts.use_cascades && cascade_.enabled();
  topk_cfg_ = parts.topk;
  if (parts.feature_cache) {
    cache_ = std::make_shared<FeatureCacheBank>(
        executor_->analysis().num_generators(), parts.cache_capacity);
  }
  if (parts.parallel_threads > 1) {
    pool_ = std::make_shared<runtime::ThreadPool>(parts.parallel_threads - 1);
  }
}

std::size_t OptimizedPipeline::cache_capacity_per_ifv() const {
  if (cache_ == nullptr || cache_->num_caches() == 0) return 0;
  return cache_->cache(0).capacity();
}

std::size_t OptimizedPipeline::parallel_threads() const {
  return pool_ == nullptr ? 0 : pool_->num_threads() + 1;
}

ExecOptions OptimizedPipeline::exec_options() const {
  ExecOptions opts;
  opts.cache = cache_.get();
  opts.pool = pool_.get();
  return opts;
}

std::vector<double> OptimizedPipeline::predict(const data::Batch& batch) const {
  std::vector<double> out(batch.num_rows());
  predict_into(batch, out);
  return out;
}

void OptimizedPipeline::predict_into(const data::Batch& batch,
                                     std::span<double> out) const {
  // Rows are independent and each range writes only its own outputs, so a
  // call split across row helpers gives the serial call's bits.
  for_row_ranges(*executor_, exec_options(), batch.num_rows(),
                 [&](const ExecOptions& opts, std::size_t begin, std::size_t end) {
                   data::Batch part;
                   predict_rows(row_range(batch, begin, end, part), opts,
                                out.subspan(begin, end - begin));
                 });
}

void OptimizedPipeline::predict_rows(const data::Batch& batch, ExecOptions opts,
                                     std::span<double> out) const {
  // Per-worker reusable execution state (thread_local): node store, op
  // staging arena and result matrix keep their capacity across requests, so
  // the steady-state serving path stops allocating.
  ExecScratch& scratch = *request_scratch();
  opts.scratch = &scratch;
  if (cascades_enabled()) {
    // Accumulate run counters locally, then merge atomically: concurrent
    // serving workers and row helpers share one pipeline, and plain
    // increments on the shared counters would race (the executor itself is
    // const and stateless per call; these counters are the only mutable
    // state on this path).
    CascadeRunStats local;
    cascade_predict_into(*executor_, cascade_, batch, opts, out, &local);
    std::atomic_ref<std::size_t>(run_stats_.total_rows)
        .fetch_add(local.total_rows, std::memory_order_relaxed);
    std::atomic_ref<std::size_t>(run_stats_.short_circuited)
        .fetch_add(local.short_circuited, std::memory_order_relaxed);
    return;
  }
  cascade_.full_model->predict_into(
      executor_->compute_matrix_into(batch, scratch, opts), out);
}

double OptimizedPipeline::predict_one(const data::Batch& row) const {
  if (row.num_rows() != 1) {
    throw std::invalid_argument("predict_one: expects a single-row batch");
  }
  return predict(row)[0];
}

std::vector<double> OptimizedPipeline::predict_full(const data::Batch& batch) const {
  const ExecOptions opts = exec_options();
  return cascade_.full_model->predict(executor_->compute_matrix(batch, opts));
}

std::vector<std::size_t> OptimizedPipeline::top_k(const data::Batch& batch,
                                                  std::size_t k) const {
  TopKPipeline pipeline(executor_, cascade_, topk_cfg_);
  return pipeline.top_k(batch, k, exec_options(), &topk_stats_);
}

OptimizedPipeline WillumpOptimizer::optimize(const Pipeline& pipeline,
                                             const LabeledData& train,
                                             const LabeledData& valid,
                                             const OptimizeOptions& opts) {
  // Dataflow stage: infer the IFV structure of the transformation graph.
  IfvAnalysis analysis = analyze_ifvs(pipeline.graph);

  // Compilation stage: pick the engine. The interpreted engine is the
  // unoptimized baseline; the compiled engine applies sorting + fusion +
  // O(1) drivers (§5.2).
  std::shared_ptr<Executor> executor;
  if (opts.compile) {
    executor = std::make_shared<CompiledExecutor>(pipeline.graph, std::move(analysis));
  } else {
    executor =
        std::make_shared<InterpretedExecutor>(pipeline.graph, std::move(analysis));
  }

  // Record the feature-column layout (block widths per IFV).
  std::vector<std::size_t> probe_rows;
  const std::size_t probe_n = std::min<std::size_t>(train.inputs.num_rows(), 8);
  for (std::size_t i = 0; i < probe_n; ++i) probe_rows.push_back(i);
  executor->probe_layout(train.inputs.select_rows(probe_rows));

  OptimizedPipeline out;

  // Optimization stage.
  const bool want_cascades = opts.cascades || opts.topk_filter;
  if (want_cascades) {
    // CascadeTrainer also trains the full model and measures costs.
    out.cascade_ = CascadeTrainer::train(*executor, *pipeline.model_proto, train,
                                         valid, opts.cascade_cfg);
    // Cascades only short-circuit classification pipelines (§6.3); for
    // regression the trained small model still serves as the top-K filter.
    out.use_cascades_ = opts.cascades && pipeline.classification();
  } else {
    out.cascade_.full_model =
        std::shared_ptr<models::Model>(pipeline.model_proto->clone_untrained());
    out.cascade_.full_model->fit(executor->compute_matrix(train.inputs),
                                 train.targets);
    if (opts.parallel_threads > 1) {
      // Static thread assignment needs measured generator costs (§5.2,
      // Parallelization) even when no cascade was trained.
      out.cascade_.stats.cost_seconds = measure_fg_costs(*executor, train.inputs);
    }
  }

  executor->set_fg_costs(out.cascade_.stats.cost_seconds);

  // Kernel selection (DESIGN.md §9): every model keeps the native_config()
  // it was constructed with unless the caller forces one config everywhere.
  // The configs live on the models and serialize with them.
  if (opts.kernel_config.has_value()) {
    out.cascade_.full_model->set_kernel_config(*opts.kernel_config);
    if (out.cascade_.small_model != nullptr) {
      out.cascade_.small_model->set_kernel_config(*opts.kernel_config);
    }
  }

  if (opts.feature_cache) {
    out.cache_ = std::make_shared<FeatureCacheBank>(
        executor->analysis().num_generators(), opts.cache_capacity);
  }
  if (opts.parallel_threads > 1) {
    out.pool_ = std::make_shared<runtime::ThreadPool>(opts.parallel_threads - 1);
  }

  out.topk_cfg_ = opts.topk;
  out.executor_ = std::move(executor);
  return out;
}

}  // namespace willump::core
