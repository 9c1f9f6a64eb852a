#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "core/feature_cache.hpp"
#include "core/graph.hpp"
#include "core/ifv_analysis.hpp"
#include "runtime/profiler.hpp"
#include "runtime/row_parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace willump::core {

/// Reusable per-worker execution state. One instance per worker thread; the
/// executor rewinds it at every compute entry so the steady-state request
/// path performs (almost) zero heap allocations:
///  - `arena`: bump allocator for trivially-destructible op staging
///    (densify buffers, hash staging) — reset per entry, chunks retained;
///  - `store` + `source_bound`: the persistent node store. Values keep their
///    heap capacity across requests; `source_bound` (cleared per entry)
///    replaces the fresh-store `empty()` check as the source-bind indicator,
///    so a stale column from the previous batch is never mistaken for a
///    bound one;
///  - `result`: destination matrix of compute_matrix_into, reused in place.
///
/// Not thread-safe. Never share one scratch between concurrent calls; the
/// serving layer keys them thread_local (see request_scratch()).
struct ExecScratch {
  explicit ExecScratch(std::size_t arena_chunk_bytes = 1u << 18)
      : arena(arena_chunk_bytes) {}

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

/// The calling thread's request scratch, or nullptr when arena-path reuse is
/// disabled by set_request_scratch_enabled(false). The serving engine's
/// worker threads each get their own instance lazily, with the default
/// 256 KiB first arena chunk.
ExecScratch* request_scratch();

/// Process-wide switch for the request scratch (on by default; benchmarks
/// toggle it to measure both sides in one process).
void set_request_scratch_enabled(bool enabled);

/// Marshaling/kernel time split of a compiled execution — the analog of the
/// paper's Weld-driver overhead measurement (§6.4, "Weld Drivers").
struct DriverStats {
  double driver_seconds = 0.0;  // input gathering + output placement
  double kernel_seconds = 0.0;  // operator kernels
  std::size_t block_entries = 0;

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
  /// Per-node timing (cost model input); nullptr disables.
  runtime::Profiler* profiler = nullptr;
  /// Driver/kernel split accounting; nullptr disables.
  DriverStats* drivers = nullptr;
  /// Per-worker reusable execution state; nullptr = allocate per call. Only
  /// the serial uncached path uses it (pooled tasks and cached sub-batches
  /// always build private stores); passing one is always safe.
  ExecScratch* scratch = nullptr;
};

class Executor;

/// Whether a batch call over `n` rows may split them across row helpers
/// (runtime::parallel_rows): a compiled engine whose generators are all
/// compilable (§4.4 parallelizes no non-compiled code), no feature cache
/// (per-IFV locks; bounded eviction order would follow shard timing), no
/// profiler or driver accounting, and n >= runtime::kMinShardedRows.
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

  /// compute_blocks + assemble in one call. Virtual so engines can plan the
  /// final matrix directly (the compiled engine's zero-copy block path).
  virtual data::FeatureMatrix compute_matrix(const data::Batch& batch,
                                             const ExecOptions& opts = {}) const;

  /// Allocation-reusing variant: computes the same matrix as compute_matrix
  /// but into `scratch.result` (valid until the next call with the same
  /// scratch) and threads `scratch` through the engine so node values and
  /// op staging reuse the previous request's capacity. Base implementation
  /// moves compute_matrix's result into the slot.
  virtual const data::FeatureMatrix& compute_matrix_into(
      const data::Batch& batch, ExecScratch& scratch,
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

  std::vector<data::FeatureMatrix> compute_blocks(
      const data::Batch& batch, const ExecOptions& opts) const override;

  /// Zero-copy planned assembly: when the layout is known and every
  /// selected generator ends in a block-kernel op, the final feature matrix
  /// is allocated once and ops write their column slices (dense) or stream
  /// their CSR rows (sparse) straight into it — no per-op block, no
  /// concat copy; mixed selections run the k-way concat into it. Falls
  /// back to the reference compute_blocks+assemble path whenever planning
  /// does not apply (empty batch, caching, pooling, profiling, driver
  /// accounting, unknown layout, a non-block-kernel terminal); both paths
  /// produce bit-identical matrices.
  data::FeatureMatrix compute_matrix(const data::Batch& batch,
                                     const ExecOptions& opts = {}) const override;

  /// Zero-copy planning into a persistent destination: the planned matrix is
  /// rebuilt inside `scratch.result` (ensure_dense/ensure_sparse keep the
  /// previous request's heap capacity) and the whole entry runs against the
  /// scratch's node store and arena.
  const data::FeatureMatrix& compute_matrix_into(
      const data::Batch& batch, ExecScratch& scratch,
      const ExecOptions& opts = {}) const override;

  const CompiledPlan& plan() const { return plan_; }

 private:
  /// One compute entry's mutable state: the node store plus the optional
  /// scratch extensions. `source_bound`/`arena`/`gather_tmp` are null on the
  /// fresh-store paths (pooled tasks, cached sub-batches), where the
  /// original `empty()` source-bind check and per-step temporaries apply.
  struct Frame {
    std::vector<data::Value>& store;
    std::vector<std::uint8_t>* source_bound = nullptr;
    common::Arena* arena = nullptr;
    std::vector<data::Value>* gather_tmp = nullptr;
  };

  /// Evaluate a step list over `batch` into the frame's store.
  void run_steps(std::span<const PlanStep> steps, const data::Batch& batch,
                 Frame& frame, const ExecOptions& opts) const;

  /// Compute one generator's block with per-row feature caching.
  data::FeatureMatrix compute_block_cached(const data::Batch& batch,
                                           std::size_t f,
                                           const ExecOptions& opts) const;

  /// Plain (uncached) computation of one generator's block given computed
  /// preprocessing values.
  data::FeatureMatrix compute_block_plain(const data::Batch& batch,
                                          std::size_t f, Frame& frame,
                                          const ExecOptions& opts) const;

  /// Bind source columns and gather a node's operand values from the store
  /// (the run_steps driver stage, reused by the zero-copy planner). The
  /// returned span views store slots directly for single-input nodes (no
  /// Value copies); multi-input nodes stage copies in `tmp`.
  std::span<const data::Value> gather_inputs(const Node& node,
                                             const data::Batch& batch,
                                             Frame& frame,
                                             std::vector<data::Value>& tmp) const;

  /// Attempt the zero-copy planned assembly into `result`; returns false
  /// when planning preconditions fail and the caller must fall back to the
  /// reference compute_blocks+assemble path.
  bool plan_matrix_into(const data::Batch& batch, const ExecOptions& opts,
                        data::FeatureMatrix& result) const;

  CompiledPlan plan_;
};

}  // namespace willump::core
