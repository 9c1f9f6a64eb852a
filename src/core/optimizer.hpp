#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/cascades.hpp"
#include "core/topk.hpp"
#include "kernels/dispatch.hpp"

namespace willump::core {

/// A user pipeline handed to Willump: a transformation graph plus an
/// untrained model prototype (the paper's "functions from raw inputs to
/// predictions"; see DESIGN.md on the builder-API substitution for the
/// Python AST frontend).
struct Pipeline {
  Graph graph;
  std::shared_ptr<models::Model> model_proto;

  bool classification() const { return model_proto->is_classifier(); }
};

/// Which optimizations to apply — mirrors the paper's evaluated
/// configurations (Python / Willump-compiled / +cascades / +caching /
/// +parallelization).
struct OptimizeOptions {
  /// false = the unoptimized interpreted baseline ("Python").
  bool compile = true;
  /// Automatic end-to-end cascades (§4.2); classification pipelines only.
  bool cascades = false;
  CascadeConfig cascade_cfg;
  /// Feature-level caching (§4.5). capacity 0 = unbounded.
  bool feature_cache = false;
  std::size_t cache_capacity = 0;
  /// Per-input parallelization (§4.4): a pool of this many threads (minus
  /// the caller) runs one call's generators concurrently. Separately, large
  /// compiled predict/top_k calls split their rows across up to cores - 1
  /// short-lived helper threads and then skip this pool (DESIGN.md §13).
  std::size_t parallel_threads = 0;
  /// Build the automatic top-K filter model (§4.3).
  bool topk_filter = false;
  TopKConfig topk;
  /// Force one kernel config on every model (the tests' reference order,
  /// benchmark baselines). Unset, every model keeps its native_config()
  /// (DESIGN.md §9). The configs serialize with the models.
  std::optional<kernels::KernelConfig> kernel_config;
};

/// The optimized pipeline Willump returns: same serving interface as the
/// original ("the optimized pipeline ... has the same signature", §3) plus
/// counters the evaluation reads.
///
/// Thread-safety: predict / predict_one / predict_full are safe to call
/// concurrently on one shared instance — execution state is per-call, the
/// feature cache takes per-IFV locks, the thread pool's fork-join groups
/// are per-call, and cascade run counters merge atomically. top_k is
/// single-caller (its run counters are plain), and the run_stats()/
/// topk_stats() accessors are meant to be read once serving quiesces.
///
/// A large predict / predict_into / top_k call may briefly run up to
/// cores - 1 helper threads, started and joined inside the call
/// (runtime::parallel_rows, DESIGN.md §13); its outputs are the serial
/// call's bits. Calls from serving and thread-pool workers never do.
class OptimizedPipeline {
 public:
  /// Everything a trained pipeline is made of — what WillumpOptimizer
  /// produces and what an artifact round-trips (serialize/artifact.hpp).
  /// The optimizer keeps being the normal way to get one; this constructor
  /// exists so deserialization is not a friend-class backdoor.
  struct Parts {
    std::shared_ptr<const Executor> executor;
    TrainedCascade cascade;  // full_model must be set
    bool use_cascades = false;
    TopKConfig topk;
    bool feature_cache = false;
    std::size_t cache_capacity = 0;
    std::size_t parallel_threads = 0;
  };

  OptimizedPipeline() = default;
  explicit OptimizedPipeline(Parts parts);

  /// Batch prediction (throughput-oriented; Figure 5).
  std::vector<double> predict(const data::Batch& batch) const;

  /// Batch prediction into caller-owned storage (`out.size()` must equal
  /// batch.num_rows()): the serving path, which reuses one per-worker
  /// buffer across requests instead of allocating a result per call.
  void predict_into(const data::Batch& batch, std::span<double> out) const;

  /// Example-at-a-time prediction (latency-oriented; Figure 6).
  double predict_one(const data::Batch& row) const;

  /// Top-K query (§4.3; Table 4).
  std::vector<std::size_t> top_k(const data::Batch& batch, std::size_t k) const;

  /// Full-model scores with no approximation (the "unoptimized query"
  /// accuracy reference of Table 4).
  std::vector<double> predict_full(const data::Batch& batch) const;

  const Executor& executor() const { return *executor_; }
  const TrainedCascade& cascade() const { return cascade_; }
  bool cascades_enabled() const { return use_cascades_ && cascade_.enabled(); }
  const models::Model& full_model() const { return *cascade_.full_model; }

  FeatureCacheBank* cache() const { return cache_.get(); }
  CascadeRunStats& run_stats() const { return run_stats_; }
  TopKRunStats& topk_stats() const { return topk_stats_; }

  /// Tuned-state accessors (what an artifact records; see Parts).
  bool use_cascades() const { return use_cascades_; }
  const TopKConfig& topk_config() const { return topk_cfg_; }
  std::size_t cache_capacity_per_ifv() const;
  /// The parallel_threads the pipeline was optimized with (0 = sequential).
  std::size_t parallel_threads() const;
  std::shared_ptr<const Executor> executor_ptr() const { return executor_; }

 private:
  friend class WillumpOptimizer;

  ExecOptions exec_options() const;

  /// predict_into's serial body over one row range of its batch.
  void predict_rows(const data::Batch& batch, ExecOptions opts,
                    std::span<double> out) const;

  std::shared_ptr<const Executor> executor_;
  TrainedCascade cascade_;  // full_model always set; small only if cascades
  bool use_cascades_ = false;
  TopKConfig topk_cfg_;
  std::shared_ptr<FeatureCacheBank> cache_;
  std::shared_ptr<runtime::ThreadPool> pool_;
  mutable CascadeRunStats run_stats_;
  mutable TopKRunStats topk_stats_;
};

/// Willump's entry point (§3): infer the transformation graph's IFV
/// structure, apply the selected optimizations, train whatever models the
/// optimizations need, and return an optimized pipeline.
class WillumpOptimizer {
 public:
  static OptimizedPipeline optimize(const Pipeline& pipeline,
                                    const LabeledData& train,
                                    const LabeledData& valid,
                                    const OptimizeOptions& opts);
};

}  // namespace willump::core
