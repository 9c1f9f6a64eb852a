#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "core/feature_cache.hpp"
#include "core/graph.hpp"
#include "core/ifv_analysis.hpp"
#include "runtime/row_parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace willump::core {

/// The compiled engine's one execution state. Every compute entry runs on
/// an ExecScratch and rewinds it first:
///  - `arena`: bump allocator for trivially-destructible op staging
///    (bucket arrays, densify buffers); reset per entry, chunks retained;
///  - `store` + `source_bound`: the node store. Values keep their heap
///    capacity across entries; `source_bound` (cleared per entry) marks the
///    sources bound in this entry, so a stale column from an earlier batch
///    or graph is never mistaken for a bound one;
///  - `result`: destination matrix of compute_matrix_into, reused in place.
///
/// A caller that passes none (ExecOptions::scratch == nullptr,
/// Executor::compute_matrix) gets a call-local one, and so does each
/// pooled task; feature-cache misses run on the call's scratch. A
/// call-local arena takes no chunk until an op asks for one.
///
/// Not thread-safe. Never share one scratch between concurrent calls; the
/// serving layer keys them thread_local (see request_scratch()).
struct ExecScratch {
  /// `arena_chunk_bytes` sizes the arena's first chunk: 256 KiB for a
  /// worker's long-lived scratch, kCallLocalChunk for a call-local one,
  /// whose first chunk is then just what the first op asks for.
  explicit ExecScratch(std::size_t arena_chunk_bytes = 1u << 18)
      : arena(arena_chunk_bytes) {}

  static constexpr std::size_t kCallLocalChunk = 0;

  common::Arena arena;
  std::vector<data::Value> store;
  std::vector<std::uint8_t> source_bound;
  std::vector<data::Value> gather_tmp;  // multi-input gather staging
  std::vector<std::size_t> selected;    // plan staging (selected generators)
  data::FeatureMatrix result;

  /// Rewind for a new compute entry over a graph of `graph_size` nodes.
  void begin(std::size_t graph_size) {
    arena.reset();
    if (store.size() != graph_size) {
      store.assign(graph_size, {});
      source_bound.assign(graph_size, 0);
    } else {
      std::fill(source_bound.begin(), source_bound.end(), 0);
    }
  }
};

/// The calling thread's request scratch (thread_local, never null). The
/// serving engine's worker threads each get their own instance lazily, with
/// the default 256 KiB first arena chunk.
ExecScratch* request_scratch();

/// Time accounting of a compiled execution: the marshaling/kernel split, the
/// analog of the paper's Weld-driver overhead measurement (§6.4, "Weld
/// Drivers"), and per-node seconds, the cost model's input (§4.2).
struct DriverStats {
  double driver_seconds = 0.0;  // input gathering + output placement
  double kernel_seconds = 0.0;  // operator kernels
  std::size_t block_entries = 0;
  /// Seconds per node, indexed by node id; a fused chain's time lands on
  /// its last node. Grows to the highest node recorded.
  std::vector<double> node_seconds;

  void add_node_seconds(int node, double seconds) {
    const auto i = static_cast<std::size_t>(node);
    if (i >= node_seconds.size()) node_seconds.resize(i + 1, 0.0);
    node_seconds[i] += seconds;
  }

  double overhead_fraction() const {
    const double total = driver_seconds + kernel_seconds;
    return total > 0.0 ? driver_seconds / total : 0.0;
  }
};

/// Per-call execution options.
struct ExecOptions {
  /// Which feature generators to compute; empty = all. Masked-out
  /// generators produce empty blocks.
  std::vector<bool> fg_mask;
  /// Feature-level caching (§4.5); nullptr disables.
  FeatureCacheBank* cache = nullptr;
  /// Thread pool for per-input parallelization of compiled feature
  /// generators (§4.4); nullptr = sequential.
  runtime::ThreadPool* pool = nullptr;
  /// Driver/kernel split and per-node time accounting; nullptr disables.
  DriverStats* drivers = nullptr;
  /// Reusable execution state for compute_blocks; nullptr = a call-local
  /// one. compute_matrix_into takes its scratch as an argument and
  /// compute_matrix always runs call-local.
  ExecScratch* scratch = nullptr;
};

class Executor;

/// Whether a batch call over `n` rows may split them across row helpers
/// (runtime::parallel_rows): a compiled engine whose generators are all
/// compilable (§4.4 parallelizes no non-compiled code), no feature cache
/// (per-IFV locks; bounded eviction order would follow shard timing), no
/// driver accounting, and n >= runtime::kMinShardedRows.
bool row_shardable(const Executor& executor, const ExecOptions& opts,
                   std::size_t n);

/// Run `body(opts, begin, end)`, a batch call's serial body over the rows
/// [begin, end) that writes only those rows' outputs, over ranges covering
/// [0, n) exactly once. A row_shardable call goes through
/// runtime::parallel_rows without the per-IFV pool and the caller's
/// scratch; any other call is one body(opts, 0, n), with no allocation.
template <class Body>
void for_row_ranges(const Executor& executor, const ExecOptions& opts,
                    std::size_t n, Body&& body) {
  if (!row_shardable(executor, opts, n)) {
    body(opts, std::size_t{0}, n);
    return;
  }
  ExecOptions shard_opts = opts;
  shard_opts.pool = nullptr;
  shard_opts.scratch = nullptr;
  runtime::parallel_rows(
      n, [&](std::size_t begin, std::size_t end) { body(shard_opts, begin, end); });
}

/// The rows [begin, end) of `batch`: `batch` itself when that is every
/// row, else a copy made in `part`.
const data::Batch& row_range(const data::Batch& batch, std::size_t begin,
                             std::size_t end, data::Batch& part);

/// Common machinery of both execution engines: graph + IFV analysis
/// ownership, block assembly, and layout probing.
class Executor {
 public:
  Executor(Graph graph, IfvAnalysis analysis);
  virtual ~Executor() = default;

  /// Compute the feature block of every selected generator. The result is
  /// indexed by generator; unselected generators yield empty matrices.
  virtual std::vector<data::FeatureMatrix> compute_blocks(
      const data::Batch& batch, const ExecOptions& opts) const = 0;

  /// Concatenate selected blocks in canonical order and apply the
  /// post-concatenation commutative chain. With a partial mask, post-chain
  /// ops must be ColumnSliceable (paper: transforms that "commute with
  /// vector concatenation", §5.1).
  data::FeatureMatrix assemble(const std::vector<data::FeatureMatrix>& blocks,
                               const std::vector<bool>& mask) const;

  /// compute_blocks + assemble into `scratch.result` (valid until the next
  /// call with the same scratch). Engines may plan the final matrix
  /// directly (the compiled engine's zero-copy block path); the compiled
  /// engine runs the whole entry on `scratch`, so node values and op
  /// staging reuse the previous entry's capacity. `opts.scratch` is not
  /// read.
  virtual const data::FeatureMatrix& compute_matrix_into(
      const data::Batch& batch, ExecScratch& scratch,
      const ExecOptions& opts = {}) const;

  /// compute_matrix_into on a call-local scratch, returning the matrix.
  data::FeatureMatrix compute_matrix(const data::Batch& batch,
                                     const ExecOptions& opts = {}) const;

  /// Execute once on `probe` to record each generator's block width in the
  /// analysis (cascades need the column layout before training models).
  void probe_layout(const data::Batch& probe);

  /// Restore a previously probed column layout (what an artifact recorded)
  /// instead of re-executing a probe batch. Throws std::invalid_argument
  /// when the vectors do not describe this graph's generators.
  void restore_layout(std::vector<std::size_t> block_cols,
                      std::vector<std::size_t> col_begin);

  const Graph& graph() const { return graph_; }
  const IfvAnalysis& analysis() const { return analysis_; }

  /// Per-generator costs (seconds per training run), used for static
  /// assignment of generators to threads (§5.2, Parallelization).
  void set_fg_costs(std::vector<double> costs) { fg_costs_ = std::move(costs); }
  const std::vector<double>& fg_costs() const { return fg_costs_; }

 protected:
  bool fg_selected(const std::vector<bool>& mask, std::size_t f) const {
    return mask.empty() || (f < mask.size() && mask[f]);
  }

  /// Run the post-concatenation commutative chain over an assembled matrix
  /// (`full` = every generator contributed, so ops see the full layout).
  data::FeatureMatrix apply_post_chain(data::FeatureMatrix m,
                                       const std::vector<bool>& mask,
                                       bool full) const;

  Graph graph_;
  IfvAnalysis analysis_;
  std::vector<double> fg_costs_;
};

/// Reference engine modeling the unoptimized Python baseline: every edge is
/// materialized as boxed per-row objects, compilable operators run
/// row-at-a-time through dictionary-based "frames", and only external-I/O
/// operators (table lookups — the pandas-merge / RPC class) run as batch
/// kernels. See runtime/boxed.hpp for why this is an honest stand-in.
class InterpretedExecutor final : public Executor {
 public:
  InterpretedExecutor(Graph graph, IfvAnalysis analysis)
      : Executor(std::move(graph), std::move(analysis)) {}

  std::vector<data::FeatureMatrix> compute_blocks(
      const data::Batch& batch, const ExecOptions& opts) const override;
};

/// One step of a compiled plan: either a single node or a fused chain of
/// element-wise string ops executed in one pass (loop fusion — the Weld
/// optimization the paper leans on, §5.2).
struct PlanStep {
  std::vector<int> nodes;  // >1 => fused string-map chain
  bool fused() const { return nodes.size() > 1; }
};

/// The compiled plan for one graph: sorted node order (non-compilable
/// "Python" nodes hoisted to their earliest allowable position to minimize
/// language transitions, §5.2 Sorting), per-generator fused steps, and
/// preprocessing steps.
struct CompiledPlan {
  std::vector<int> sorted_order;
  int transitions_before = 0;  // language transitions in plain topo order
  int transitions_after = 0;   // after hoisting
  std::vector<PlanStep> preprocessing;
  std::vector<std::vector<PlanStep>> fg_steps;  // per generator
  std::vector<bool> fg_compilable;              // all nodes compilable?
};

/// Build the compiled plan (sorting + fusion stages of §5.2).
CompiledPlan compile_plan(const Graph& g, const IfvAnalysis& a);

/// Count interpreter<->compiled transitions along an execution order.
int count_language_transitions(const Graph& g, const std::vector<int>& order);

/// Optimized engine (the Weld analog): columnar batch kernels, fused
/// string chains, constant-time "drivers", optional feature-level caching
/// and per-input parallel generator execution.
class CompiledExecutor final : public Executor {
 public:
  CompiledExecutor(Graph graph, IfvAnalysis analysis);

  /// Runs on `opts.scratch`, or on a call-local scratch when it is null.
  std::vector<data::FeatureMatrix> compute_blocks(
      const data::Batch& batch, const ExecOptions& opts) const override;

  /// Zero-copy planned assembly when it applies (see plan_matrix_into),
  /// else compute_blocks + assemble; both produce bit-identical matrices.
  const data::FeatureMatrix& compute_matrix_into(
      const data::Batch& batch, ExecScratch& scratch,
      const ExecOptions& opts = {}) const override;

  const CompiledPlan& plan() const { return plan_; }

 private:
  /// Evaluate a step list over `batch` into the scratch's store.
  void run_steps(std::span<const PlanStep> steps, const data::Batch& batch,
                 ExecScratch& scratch, const ExecOptions& opts) const;

  /// Every selected generator's block, computed on `scratch`.
  std::vector<data::FeatureMatrix> compute_blocks(const data::Batch& batch,
                                                  ExecScratch& scratch,
                                                  const ExecOptions& opts) const;

  /// Compute one generator's block with per-row feature caching; missing
  /// rows are computed on `scratch`.
  data::FeatureMatrix compute_block_cached(const data::Batch& batch,
                                           std::size_t f, ExecScratch& scratch,
                                           const ExecOptions& opts) const;

  /// Plain (uncached) computation of one generator's block given computed
  /// preprocessing values.
  data::FeatureMatrix compute_block_plain(const data::Batch& batch,
                                          std::size_t f, ExecScratch& scratch,
                                          const ExecOptions& opts) const;

  /// Bind source columns and gather a node's operand values from the store
  /// (the run_steps driver stage, reused by the zero-copy planner). The
  /// returned span views store slots directly for single-input nodes (no
  /// Value copies); multi-input nodes stage copies in `scratch.gather_tmp`.
  std::span<const data::Value> gather_inputs(const Node& node,
                                             const data::Batch& batch,
                                             ExecScratch& scratch) const;

  /// Zero-copy planned assembly into `scratch.result`: when the layout is
  /// known and every selected generator ends in a block-kernel op, the
  /// final feature matrix is built once and ops write their column slices
  /// (dense) or stream their CSR rows (sparse) straight into it; mixed
  /// selections run the k-way concat into it. Returns false, having run
  /// nothing, when planning does not apply (empty batch, caching, pooling,
  /// driver accounting, unknown layout, a fused or non-block-kernel
  /// terminal).
  bool plan_matrix_into(const data::Batch& batch, ExecScratch& scratch,
                        const ExecOptions& opts) const;

  CompiledPlan plan_;
};

}  // namespace willump::core
