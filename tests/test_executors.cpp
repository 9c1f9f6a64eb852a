#include "core/executors.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ops/concat.hpp"
#include "ops/lookup.hpp"
#include "ops/scale.hpp"
#include "ops/string_ops.hpp"
#include "ops/tfidf.hpp"
#include "workloads/credit.hpp"
#include "workloads/music.hpp"
#include "workloads/price.hpp"
#include "workloads/product.hpp"
#include "workloads/toxic.hpp"
#include "workloads/tracking.hpp"
#include "test_support.hpp"

namespace willump::core {
namespace {

std::shared_ptr<ops::TfIdfModel> tiny_tfidf(ops::Analyzer a) {
  ops::TfIdfConfig cfg;
  cfg.analyzer = a;
  cfg.min_df = 1;
  if (a == ops::Analyzer::Char) cfg.ngrams = {2, 3};
  return std::make_shared<ops::TfIdfModel>(ops::TfIdfModel::fit(
      {"red fox", "blue fox!", "red dog", "Big Blue Cat"}, cfg));
}

/// The shared test graph: stats + word tfidf (behind lower+strip) + char
/// tfidf (behind lower). `lower` is preprocessing.
Graph make_graph() {
  Graph g;
  const int title = g.add_source("title", data::ColumnType::String);
  const int stats =
      g.add_transform("stats", std::make_shared<ops::StringStatsOp>(), {title});
  const int lower =
      g.add_transform("lower", std::make_shared<ops::LowercaseOp>(), {title});
  const int strip =
      g.add_transform("strip", std::make_shared<ops::StripPunctOp>(), {lower});
  const int word = g.add_transform(
      "word", std::make_shared<ops::TfIdfOp>(tiny_tfidf(ops::Analyzer::Word)),
      {strip});
  const int chars = g.add_transform(
      "char", std::make_shared<ops::TfIdfOp>(tiny_tfidf(ops::Analyzer::Char)),
      {lower});
  const int cat = g.add_transform("concat", std::make_shared<ops::ConcatOp>(),
                                  {stats, word, chars});
  g.set_output(cat);
  return g;
}

data::Batch make_batch() {
  data::Batch b;
  b.add("title", data::Column(data::StringColumn{
                     "Red FOX!", "blue cat", "", "dog dog dog", "Big Blue"}));
  return b;
}

void expect_matrices_equal(const data::FeatureMatrix& a,
                           const data::FeatureMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  const auto da = a.is_dense() ? a.dense() : a.sparse().to_dense();
  const auto db = b.is_dense() ? b.dense() : b.sparse().to_dense();
  for (std::size_t r = 0; r < da.rows(); ++r) {
    for (std::size_t c = 0; c < da.cols(); ++c) {
      ASSERT_NEAR(da(r, c), db(r, c), 1e-12) << "row " << r << " col " << c;
    }
  }
}

TEST(Executors, CompiledMatchesInterpreted) {
  Graph g = make_graph();
  CompiledExecutor compiled(g, analyze_ifvs(g));
  InterpretedExecutor interp(g, analyze_ifvs(g));
  const auto batch = make_batch();
  expect_matrices_equal(compiled.compute_matrix(batch),
                        interp.compute_matrix(batch));
}

TEST(Executors, MaskComputesOnlySelectedBlocks) {
  Graph g = make_graph();
  CompiledExecutor ex(g, analyze_ifvs(g));
  ExecOptions opts;
  opts.fg_mask = {true, false, true};
  const auto blocks = ex.compute_blocks(make_batch(), opts);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_GT(blocks[0].cols(), 0u);
  EXPECT_EQ(blocks[1].cols(), 0u);  // masked out
  EXPECT_GT(blocks[2].cols(), 0u);
}

TEST(Executors, SubsetAssemblyMatchesColumnSliceOfFull) {
  Graph g = make_graph();
  CompiledExecutor ex(g, analyze_ifvs(g));
  const auto batch = make_batch();
  ex.probe_layout(batch);

  const auto full = ex.compute_matrix(batch);
  ExecOptions opts;
  opts.fg_mask = {true, false, true};
  const auto subset = ex.compute_matrix(batch, opts);

  const auto cols = ex.analysis().columns_of(opts.fg_mask);
  ASSERT_EQ(subset.cols(), cols.size());
  const auto df = full.is_dense() ? full.dense() : full.sparse().to_dense();
  const auto ds = subset.is_dense() ? subset.dense() : subset.sparse().to_dense();
  for (std::size_t r = 0; r < df.rows(); ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      ASSERT_NEAR(ds(r, c), df(r, cols[c]), 1e-12);
    }
  }
}

TEST(Executors, ProbeLayoutRecordsWidths) {
  Graph g = make_graph();
  CompiledExecutor ex(g, analyze_ifvs(g));
  ex.probe_layout(make_batch());
  const auto& a = ex.analysis();
  ASSERT_EQ(a.block_cols.size(), 3u);
  EXPECT_EQ(a.block_cols[0], ops::StringStatsOp::kNumFeatures);
  EXPECT_EQ(a.col_begin[0], 0u);
  EXPECT_EQ(a.col_begin[1], a.block_cols[0]);
  EXPECT_EQ(a.total_cols(),
            a.block_cols[0] + a.block_cols[1] + a.block_cols[2]);
}

TEST(Executors, FusionChainsStringMaps) {
  Graph g = make_graph();
  const auto plan = compile_plan(g, analyze_ifvs(g));
  // FG "word" contains strip -> tfidf; strip alone is a 1-node step (lower
  // is preprocessing). Build a graph with lower+strip inside one generator
  // to see a fused chain.
  Graph g2;
  const int t = g2.add_source("t", data::ColumnType::String);
  const int stats = g2.add_transform("stats", std::make_shared<ops::StringStatsOp>(), {t});
  const int lo = g2.add_transform("lo", std::make_shared<ops::LowercaseOp>(), {t});
  const int st = g2.add_transform("st", std::make_shared<ops::StripPunctOp>(), {lo});
  const int w = g2.add_transform(
      "w", std::make_shared<ops::TfIdfOp>(tiny_tfidf(ops::Analyzer::Word)), {st});
  const int cat = g2.add_transform("cat", std::make_shared<ops::ConcatOp>(), {stats, w});
  g2.set_output(cat);

  const auto plan2 = compile_plan(g2, analyze_ifvs(g2));
  // Generator 1 (word) = fused(lo, st) + tfidf.
  ASSERT_EQ(plan2.fg_steps[1].size(), 2u);
  EXPECT_TRUE(plan2.fg_steps[1][0].fused());
  EXPECT_EQ(plan2.fg_steps[1][0].nodes.size(), 2u);
  EXPECT_FALSE(plan2.fg_steps[1][1].fused());
  (void)plan;

  // Fused execution must equal interpreted execution.
  CompiledExecutor compiled(g2, analyze_ifvs(g2));
  InterpretedExecutor interp(g2, analyze_ifvs(g2));
  const auto batch = make_batch();
  data::Batch b2;
  b2.add("t", batch.get("title"));
  expect_matrices_equal(compiled.compute_matrix(b2), interp.compute_matrix(b2));
}

TEST(Executors, SortingHoistsPythonNodes) {
  // Graph where a non-compilable lookup sits late in construction order but
  // can execute early: hoisting should reduce language transitions.
  auto table = std::make_shared<store::FeatureTable>("t", 2);
  table->put(0, data::DenseVector({1.0, 2.0}));
  auto client =
      std::make_shared<store::TableClient>(table, store::NetworkModel{});

  Graph g;
  const int key = g.add_source("key", data::ColumnType::Int);
  const int txt = g.add_source("txt", data::ColumnType::String);
  const int lo = g.add_transform("lo", std::make_shared<ops::LowercaseOp>(), {txt});
  const int w = g.add_transform(
      "w", std::make_shared<ops::TfIdfOp>(tiny_tfidf(ops::Analyzer::Word)), {lo});
  const int lk =
      g.add_transform("lk", std::make_shared<ops::TableLookupOp>(client), {key});
  const int cat = g.add_transform("cat", std::make_shared<ops::ConcatOp>(), {w, lk});
  g.set_output(cat);

  const auto plan = compile_plan(g, analyze_ifvs(g));
  EXPECT_LE(plan.transitions_after, plan.transitions_before);
  // lookup moved before the compilable run: compiled block is contiguous.
  EXPECT_EQ(plan.transitions_after, 1);
}

TEST(Executors, DriverOverheadIsSmallFraction) {
  Graph g = make_graph();
  CompiledExecutor ex(g, analyze_ifvs(g));
  // A reasonably large batch so kernels dominate.
  data::StringColumn col;
  for (int i = 0; i < 2000; ++i) col.push_back("the quick red fox " + std::to_string(i));
  data::Batch batch;
  batch.add("title", data::Column(std::move(col)));

  DriverStats drivers;
  ExecOptions opts;
  opts.drivers = &drivers;
  (void)ex.compute_blocks(batch, opts);
  EXPECT_GT(drivers.block_entries, 0u);
  EXPECT_LT(drivers.overhead_fraction(), 0.2);
}

TEST(Executors, ProfilerRecordsPerNodeCosts) {
  Graph g = make_graph();
  CompiledExecutor ex(g, analyze_ifvs(g));
  DriverStats drivers;
  ExecOptions opts;
  opts.drivers = &drivers;
  (void)ex.compute_blocks(make_batch(), opts);
  // Every generator output node has a recorded time.
  for (const auto& fg : ex.analysis().generators) {
    const auto node = static_cast<std::size_t>(fg.output_node);
    ASSERT_LT(node, drivers.node_seconds.size());
    EXPECT_GT(drivers.node_seconds[node], 0.0);
  }
}

TEST(Executors, ParallelPointwiseMatchesSequential) {
  Graph g = make_graph();
  CompiledExecutor ex(g, analyze_ifvs(g));
  ex.set_fg_costs({1.0, 2.0, 3.0});
  runtime::ThreadPool pool(2);
  const auto batch = make_batch().row(0);

  ExecOptions seq;
  ExecOptions par;
  par.pool = &pool;
  expect_matrices_equal(ex.compute_matrix(batch, seq),
                        ex.compute_matrix(batch, par));
}

TEST(Executors, ParallelBatchMatchesSequential) {
  Graph g = make_graph();
  CompiledExecutor ex(g, analyze_ifvs(g));
  runtime::ThreadPool pool(3);
  const auto batch = make_batch();
  ExecOptions par;
  par.pool = &pool;
  expect_matrices_equal(ex.compute_matrix(batch, {}),
                        ex.compute_matrix(batch, par));
}

TEST(Executors, PostChainAppliedToSubsets) {
  // graph: stats/keyword blocks -> concat -> scale -> output.
  Graph g;
  const int x = g.add_source("x", data::ColumnType::String);
  const int stats = g.add_transform("stats", std::make_shared<ops::StringStatsOp>(), {x});
  const int kw = g.add_transform(
      "kw", std::make_shared<ops::KeywordCountOp>(std::vector<std::string>{"fox"}),
      {x});
  const int cat = g.add_transform("cat", std::make_shared<ops::ConcatOp>(), {stats, kw});
  const std::size_t total = ops::StringStatsOp::kNumFeatures + 2;
  std::vector<double> scale(total);
  for (std::size_t i = 0; i < total; ++i) scale[i] = static_cast<double>(i + 1);
  const int sc = g.add_transform(
      "scale", std::make_shared<ops::ScaleOp>(scale, std::vector<double>(total, 0.0)),
      {cat});
  g.set_output(sc);

  CompiledExecutor ex(g, analyze_ifvs(g));
  data::Batch batch;
  batch.add("x", data::Column(data::StringColumn{"red fox jumps"}));
  ex.probe_layout(batch);

  const auto full = ex.compute_matrix(batch).dense();
  ExecOptions opts;
  opts.fg_mask = {false, true};  // keyword block only (global cols 6,7)
  const auto sub = ex.compute_matrix(batch, opts).dense();
  ASSERT_EQ(sub.cols(), 2u);
  EXPECT_NEAR(sub(0, 0), full(0, ops::StringStatsOp::kNumFeatures), 1e-12);
  EXPECT_NEAR(sub(0, 1), full(0, ops::StringStatsOp::kNumFeatures + 1), 1e-12);
}

TEST(Executors, EmptyBatchProducesEmptyBlocks) {
  Graph g = make_graph();
  CompiledExecutor ex(g, analyze_ifvs(g));
  data::Batch batch;
  batch.add("title", data::Column(data::StringColumn{}));
  const auto m = ex.compute_matrix(batch);
  EXPECT_EQ(m.rows(), 0u);
}

/// Bit-exact equality, storage kind included: the compiled engine must be
/// indistinguishable from the interpreted oracle, not merely close.
void expect_bit_equal(const data::FeatureMatrix& got,
                      const data::FeatureMatrix& ref) {
  ASSERT_EQ(got.rows(), ref.rows());
  ASSERT_EQ(got.cols(), ref.cols());
  ASSERT_EQ(got.is_dense(), ref.is_dense());
  if (got.is_dense()) {
    for (std::size_t r = 0; r < got.rows(); ++r) {
      const auto a = got.dense().row(r);
      const auto b = ref.dense().row(r);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "row " << r;
    }
  } else {
    for (std::size_t r = 0; r < got.rows(); ++r) {
      ASSERT_EQ(got.sparse().row_vector(r), ref.sparse().row_vector(r))
          << "row " << r;
    }
  }
}

/// The six workload pipelines at small split sizes (the graphs are what
/// matters here, not model quality).
std::vector<workloads::Workload> small_workloads() {
  const workloads::SplitSizes sizes{.train = 200, .valid = 60, .test = 60};
  std::vector<workloads::Workload> out;
  out.push_back(workloads::make_toxic({.sizes = sizes}));
  out.push_back(workloads::make_price({.sizes = sizes}));
  out.push_back(workloads::make_music({.sizes = sizes}));
  out.push_back(workloads::make_credit({.sizes = sizes}));
  out.push_back(workloads::make_product({.sizes = sizes}));
  out.push_back(workloads::make_tracking({.sizes = sizes}));
  return out;
}

TEST(Executors, CompiledMatchesInterpretedOracleOnWorkloadGraphs) {
  // One scratch reused across every graph in sequence: slots left stale by
  // a larger batch, a wider mask or another graph must never reach a result.
  ExecScratch reused;
  for (const auto& wl : small_workloads()) {
    SCOPED_TRACE(wl.name);
    const Graph& g = wl.pipeline.graph;
    InterpretedExecutor oracle(g, analyze_ifvs(g));
    CompiledExecutor compiled(g, analyze_ifvs(g));
    const data::Batch& batch = wl.test.inputs;
    compiled.probe_layout(batch);
    ExecOptions full;
    full.fg_mask.assign(compiled.analysis().num_generators(), true);
    const data::FeatureMatrix ref = oracle.compute_matrix(batch, full);
    // assemble's k-way concat is shared by both engines: check it against
    // the test-local pairwise fold on every workload's real blocks.
    expect_bit_equal(ref, testing::pairwise_fold_reference(oracle, batch, full));
    // The compiled engine's planned assembly and its reference
    // compute_blocks + assemble path must both match the oracle.
    expect_bit_equal(compiled.compute_matrix(batch, full), ref);
    expect_bit_equal(
        compiled.assemble(compiled.compute_blocks(batch, full), full.fg_mask),
        ref);

    // The reused scratch: the full batch, then one row, then every
    // generator but the first.
    expect_bit_equal(compiled.compute_matrix_into(batch, reused, full), ref);
    const data::Batch one = batch.row(0);
    expect_bit_equal(compiled.compute_matrix_into(one, reused, full),
                     oracle.compute_matrix(one, full));
    ASSERT_GE(compiled.analysis().num_generators(), 2u);
    ExecOptions partial = full;
    partial.fg_mask[0] = false;
    oracle.restore_layout(compiled.analysis().block_cols,
                          compiled.analysis().col_begin);  // for the post-chain
    expect_bit_equal(compiled.compute_matrix_into(batch, reused, partial),
                     oracle.compute_matrix(batch, partial));
  }
}

}  // namespace
}  // namespace willump::core
