// Row-parallel batch calls: runtime::parallel_rows and the pipelines that
// split their rows through it. The helper is driven directly with a row
// function that spins on the clock, so shards overlap in time. The
// pipeline tests compare sharded calls bit for bit against serial
// references built from 500-row slices, which never shard. This suite is
// labeled `concurrency` and runs under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.hpp"
#include "models/metrics.hpp"
#include "runtime/row_parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "serving/server.hpp"
#include "test_support.hpp"
#include "workloads/credit.hpp"
#include "workloads/price.hpp"

namespace willump {
namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

// Helpers this process may start; with none, parallel_rows never shards.
const std::size_t kBudget = runtime::row_helper_budget();
const std::vector<std::size_t> kBatchRows = {511, 512, 513, 1000, 1500, 8000};
// Serial reference slices: under runtime::kMinShardedRows, so never split.
constexpr std::size_t kSliceRows = 500;
static_assert(kSliceRows < runtime::kMinShardedRows);

// ---------------------------------------------------------------------------
// The row gate.
// ---------------------------------------------------------------------------

TEST(RowGate, TakesTheSmallestOfBudgetAndRows) {
  // toxic-batch's 1500-row call: 5 shards by rows -> 4 helpers.
  EXPECT_EQ(runtime::shard_helpers(1500, 3), 3u);  // budget-bound
  EXPECT_EQ(runtime::shard_helpers(1500, 16), 4u);
  EXPECT_EQ(runtime::shard_helpers(1500, 1), 1u);
  EXPECT_EQ(runtime::shard_helpers(1500, 0), 0u);
  // Under two shards of rows: none.
  EXPECT_EQ(runtime::shard_helpers(0, 3), 0u);
  EXPECT_EQ(runtime::shard_helpers(511, 3), 0u);
  EXPECT_EQ(runtime::shard_helpers(512, 3), 1u);
  EXPECT_EQ(runtime::shard_helpers(1000, 3), 2u);
}

TEST(RowGate, BudgetLeavesTheCallersCore) {
  EXPECT_LT(kBudget, std::max(1u, std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// parallel_rows driven directly.
// ---------------------------------------------------------------------------

/// Busy-wait `us` microseconds per row, by the clock, so a range takes the
/// same wall time however loaded the machine is.
void spin_rows(std::size_t begin, std::size_t end, double us = 4.0) {
  const auto until =
      Clock::now() + std::chrono::duration<double, std::micro>(
                         us * static_cast<double>(end - begin));
  while (Clock::now() < until) {
  }
}

/// Call parallel_rows(n, rows); returns whether the call sharded.
bool call_sharded(std::size_t n, const runtime::RowRangeFn& rows) {
  const std::uint64_t before = runtime::sharded_calls();
  runtime::parallel_rows(n, rows);
  return runtime::sharded_calls() > before;
}

int proc_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(ParallelRows, RangesCoverEveryRowExactlyOnce) {
  if (kBudget == 0) GTEST_SKIP() << "one CPU: parallel_rows never shards";
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{511},
                              std::size_t{512}, std::size_t{513}, std::size_t{1000},
                              std::size_t{1500}, std::size_t{8000}}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<bool> bad_range{false};
    std::mutex mu;
    std::set<std::thread::id> threads;
    const auto rows = [&](std::size_t begin, std::size_t end) {
      // Only an empty batch gets an empty range.
      if (begin > end || end > n || (begin == end && n != 0)) bad_range = true;
      for (std::size_t i = begin; i < end && i < n; ++i) hits[i].fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
      }
      spin_rows(begin, end, 2.0);
    };
    EXPECT_EQ(call_sharded(n, rows), n >= runtime::kMinShardedRows) << n;
    EXPECT_FALSE(bad_range) << n;
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << n << " row " << i;
    EXPECT_EQ(threads.size(),
              1 + runtime::shard_helpers(n, kBudget)) << n;
  }
}

TEST(ParallelRows, RethrowsAShardsExceptionAfterEveryHelperJoined) {
  if (kBudget == 0) GTEST_SKIP() << "one CPU: parallel_rows never shards";
  constexpr std::size_t n = 4096;
  constexpr std::size_t bad_row = 200;  // in the first helper's shard
  const int threads_before = proc_threads();
  std::atomic<std::size_t> rows_done{0};
  std::size_t thrown_rows = 0;
  const std::uint64_t before = runtime::sharded_calls();
  try {
    runtime::parallel_rows(n, [&](std::size_t begin, std::size_t end) {
      if (begin <= bad_row && bad_row < end) {
        thrown_rows = end - begin;
        throw std::runtime_error("bad row");
      }
      spin_rows(begin, end);
      rows_done.fetch_add(end - begin);
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bad row");
  }
  EXPECT_GT(runtime::sharded_calls(), before);
  // Every other shard finished before the exception reached us.
  EXPECT_EQ(rows_done.load() + thrown_rows, n);
  // The helpers are gone: the count returns once the kernel reaps them.
  const auto deadline = Clock::now() + 2s;
  while (proc_threads() != threads_before && Clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(proc_threads(), threads_before);
}

TEST(ParallelRows, NoHelperThreadOutlivesTheCall) {
  if (kBudget == 0) GTEST_SKIP() << "one CPU: parallel_rows never shards";
  const int threads_before = proc_threads();
  ASSERT_GT(threads_before, 0);
  std::atomic<int> threads_during{0};
  ASSERT_TRUE(call_sharded(4096, [&](std::size_t begin, std::size_t end) {
    int seen = proc_threads();
    int prev = threads_during.load();
    while (seen > prev && !threads_during.compare_exchange_weak(prev, seen)) {
    }
    spin_rows(begin, end);
  }));
  EXPECT_GT(threads_during.load(), threads_before);
  const auto deadline = Clock::now() + 2s;
  while (proc_threads() != threads_before && Clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(proc_threads(), threads_before);
}

thread_local bool t_caller = false;

TEST(ParallelRows, ConcurrentCallersShareOneHelperBudget) {
  if (kBudget == 0) GTEST_SKIP() << "one CPU: parallel_rows never shards";
  std::atomic<int> active{0};
  std::atomic<int> most{0};
  const auto rows = [&](std::size_t begin, std::size_t end) {
    if (t_caller) {
      spin_rows(begin, end);
      return;
    }
    const int now = active.fetch_add(1) + 1;
    int prev = most.load();
    while (now > prev && !most.compare_exchange_weak(prev, now)) {
    }
    spin_rows(begin, end);
    active.fetch_sub(1);
  };
  // A call finds the budget empty only while another call holds helpers,
  // so at least one of the callers' calls shards.
  const std::uint64_t before = runtime::sharded_calls();
  std::vector<std::thread> callers;
  for (int c = 0; c < 8; ++c) {
    callers.emplace_back([&] {
      t_caller = true;
      for (int call = 0; call < 4; ++call) runtime::parallel_rows(2048, rows);
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_GT(runtime::sharded_calls(), before);
  EXPECT_GE(most.load(), 1);
  EXPECT_LE(most.load(), static_cast<int>(kBudget));
}

/// Records the threads parallel_rows ran its ranges on, and whether each
/// was marked serial.
struct ThreadLog {
  std::mutex mu;
  std::set<std::thread::id> ids;
  bool all_marked = true;
  void operator()(std::size_t begin, std::size_t end) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
      all_marked = all_marked && runtime::serial_thread();
    }
    spin_rows(begin, end);
  }
};

TEST(ParallelRows, ThreadPoolTasksRunInline) {
  runtime::ThreadPool pool(2);
  ThreadLog log;
  const std::uint64_t before = runtime::sharded_calls();
  const auto worker = pool.submit([&log] {
                            runtime::parallel_rows(
                                4096, [&log](std::size_t b, std::size_t e) { log(b, e); });
                            return std::this_thread::get_id();
                          })
                          .get();
  EXPECT_EQ(runtime::sharded_calls(), before);
  EXPECT_TRUE(log.all_marked);
  ASSERT_EQ(log.ids.size(), 1u);
  EXPECT_EQ(*log.ids.begin(), worker);
}

/// A model whose batch prediction calls parallel_rows over 4096 spinning
/// rows and records the threads it ran on: puts the helper on whatever
/// thread serves the model.
class RowProbeModel final : public models::Model {
 public:
  explicit RowProbeModel(ThreadLog* log) : log_(log) {}
  void fit(const data::FeatureMatrix&, std::span<const double>) override {}
  std::vector<double> predict(const data::FeatureMatrix& x) const override {
    std::vector<double> out(x.rows());
    predict_into(x, out);
    return out;
  }
  void predict_into(const data::FeatureMatrix&, std::span<double> out) const override {
    runtime::parallel_rows(4096, [this](std::size_t b, std::size_t e) { (*log_)(b, e); });
    std::fill(out.begin(), out.end(), 0.0);
  }
  bool is_classifier() const override { return false; }
  std::vector<double> feature_importances() const override { return {}; }
  std::unique_ptr<Model> clone_untrained() const override {
    return std::make_unique<RowProbeModel>(log_);
  }
  std::string name() const override { return "row_probe"; }

 private:
  ThreadLog* log_;
};

TEST(ParallelRows, ServerWorkersRunInline) {
  workloads::CreditConfig cfg;
  cfg.sizes = {.train = 40, .valid = 20, .test = 20};
  const workloads::Workload wl = workloads::make_credit(cfg);
  auto executor = std::make_shared<core::CompiledExecutor>(
      wl.pipeline.graph, core::analyze_ifvs(wl.pipeline.graph));
  executor->probe_layout(wl.train.inputs.select_rows(std::vector<std::size_t>{0, 1}));
  ThreadLog log;
  core::OptimizedPipeline::Parts parts;
  parts.executor = executor;
  parts.cascade.full_model = std::make_shared<RowProbeModel>(&log);
  const core::OptimizedPipeline pipeline(std::move(parts));

  serving::ServerConfig scfg;
  scfg.num_workers = 1;
  serving::Server server(&pipeline, scfg);
  const std::uint64_t before = runtime::sharded_calls();
  EXPECT_EQ(server.submit(wl.test.inputs.row(0)).get(), 0.0);
  server.shutdown();
  EXPECT_EQ(runtime::sharded_calls(), before);
  EXPECT_TRUE(log.all_marked);
  ASSERT_EQ(log.ids.size(), 1u);
  EXPECT_NE(*log.ids.begin(), std::this_thread::get_id());
}

// ---------------------------------------------------------------------------
// Pipelines: sharded calls against serial 500-row slices, bit for bit.
// ---------------------------------------------------------------------------

/// The first `n` rows of `rows` cycled (test splits are smaller than the
/// largest batch).
data::Batch cycled(const data::Batch& rows, std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i % rows.num_rows();
  return rows.select_rows(idx);
}

data::Batch first_rows(const data::Batch& batch, std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return batch.select_rows(idx);
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [](double d) { return std::bit_cast<std::uint64_t>(d); });
  return out;
}

/// `score(slice)` over consecutive kSliceRows-row slices of `batch`.
template <class Score>
std::vector<double> by_slices(const data::Batch& batch, Score score) {
  std::vector<double> out;
  for (std::size_t begin = 0; begin < batch.num_rows(); begin += kSliceRows) {
    std::vector<std::size_t> idx(std::min(kSliceRows, batch.num_rows() - begin));
    std::iota(idx.begin(), idx.end(), begin);
    const std::vector<double> part = score(batch.select_rows(idx));
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

/// Each batch size of kBatchRows: `predict` on the first n rows of `batch`
/// matches the serial slices bit for bit. Returns the sharded calls made.
std::uint64_t expect_predict_matches_slices(const core::OptimizedPipeline& p,
                                            const data::Batch& batch) {
  const auto reference =
      bits(by_slices(batch, [&](const data::Batch& s) { return p.predict(s); }));
  const std::uint64_t before = runtime::sharded_calls();
  for (const std::size_t n : kBatchRows) {
    const auto got = bits(p.predict(first_rows(batch, n)));
    EXPECT_EQ(got, std::vector<std::uint64_t>(reference.begin(), reference.begin() + n))
        << n << " rows";
  }
  return runtime::sharded_calls() - before;
}

struct ToxicPipelines {
  workloads::Workload wl = testing::small_toxic_cached();
  core::OptimizedPipeline cascaded;
  data::Batch batch;

  ToxicPipelines() {
    core::OptimizeOptions opts;
    opts.cascades = true;
    cascaded = core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
    batch = cycled(wl.test.inputs, 8000);
  }
};

ToxicPipelines& toxic() {
  static ToxicPipelines t;
  return t;
}

TEST(RowParallelPipelines, ToxicCascadedPredictIsBitIdentical) {
  auto& t = toxic();
  ASSERT_TRUE(t.cascaded.cascades_enabled());
  // Every batch size but 511 rows shards.
  EXPECT_EQ(expect_predict_matches_slices(t.cascaded, t.batch),
            kBudget > 0 ? kBatchRows.size() - 1 : 0);
}

TEST(RowParallelPipelines, ToxicCascadeRunStatsMatchSerial) {
  auto& t = toxic();
  t.cascaded.run_stats() = {};
  (void)by_slices(t.batch, [&](const data::Batch& s) { return t.cascaded.predict(s); });
  const core::CascadeRunStats serial = t.cascaded.run_stats();
  ASSERT_EQ(serial.total_rows, t.batch.num_rows());
  ASSERT_GT(serial.short_circuited, 0u);
  for (int call = 0; call < 3; ++call) {
    t.cascaded.run_stats() = {};
    (void)t.cascaded.predict(t.batch);
    EXPECT_EQ(t.cascaded.run_stats().total_rows, serial.total_rows);
    EXPECT_EQ(t.cascaded.run_stats().short_circuited, serial.short_circuited);
  }
}

TEST(RowParallelPipelines, InterpretedEngineAndFeatureCacheStaySerial) {
  auto& t = toxic();
  const auto reference = bits(t.cascaded.predict(first_rows(t.batch, 1000)));
  for (const bool interpreted : {true, false}) {
    core::OptimizedPipeline::Parts parts;
    if (interpreted) {
      parts.executor = std::make_shared<core::InterpretedExecutor>(
          t.cascaded.executor().graph(), t.cascaded.executor().analysis());
    } else {
      parts.executor = t.cascaded.executor_ptr();
      parts.feature_cache = true;
    }
    parts.cascade = t.cascaded.cascade();
    parts.use_cascades = true;
    const core::OptimizedPipeline p(std::move(parts));
    const std::uint64_t before = runtime::sharded_calls();
    EXPECT_EQ(bits(p.predict(first_rows(t.batch, 1000))), reference) << interpreted;
    EXPECT_EQ(runtime::sharded_calls(), before) << interpreted;
  }
}

TEST(RowParallelPipelines, CreditPlainPredictIsBitIdenticalAndSerial) {
  workloads::CreditConfig cfg;
  cfg.sizes = {.train = 600, .valid = 200, .test = 1000};
  const workloads::Workload wl = workloads::make_credit(cfg);
  const auto p = core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, {});
  ASSERT_FALSE(p.cascades_enabled());
  // Credit's table lookups are not compiled code (§4.4): it never shards.
  EXPECT_EQ(expect_predict_matches_slices(p, cycled(wl.test.inputs, 8000)), 0u);
}

struct PricePipeline {
  workloads::Workload wl = [] {
    workloads::PriceConfig cfg;
    cfg.sizes = {.train = 800, .valid = 300, .test = 8000};
    return workloads::make_price(cfg);
  }();
  core::OptimizedPipeline pipe = [this] {
    core::OptimizeOptions opts;
    opts.topk_filter = true;
    return core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
  }();
};

PricePipeline& price() {
  static PricePipeline p;
  return p;
}

TEST(RowParallelPipelines, PricePlainPredictIsBitIdentical) {
  auto& p = price();
  ASSERT_FALSE(p.pipe.cascades_enabled());
  EXPECT_EQ(expect_predict_matches_slices(p.pipe, p.wl.test.inputs),
            kBudget > 0 ? kBatchRows.size() - 1 : 0);
}

/// top_k computed stage by stage over serial slices: filter scores, the
/// candidate subset, full scores of the candidates, the final K.
std::vector<std::size_t> serial_top_k(const core::OptimizedPipeline& p,
                                      const data::Batch& batch, std::size_t k) {
  const core::TrainedCascade& c = p.cascade();
  const core::Executor& ex = p.executor();
  core::ExecOptions eff;
  eff.fg_mask = c.efficient_mask;
  const auto filter = by_slices(batch, [&](const data::Batch& s) {
    return c.small_model->predict(ex.compute_matrix(s, eff));
  });
  const core::TopKPipeline plan(p.executor_ptr(), c, p.topk_config());
  const auto candidates =
      models::top_k_indices(filter, plan.subset_size(k, batch.num_rows()));
  const auto full = by_slices(batch.select_rows(candidates), [&](const data::Batch& s) {
    return c.full_model->predict(ex.compute_matrix(s));
  });
  std::vector<std::size_t> out;
  for (const std::size_t i : models::top_k_indices(full, k)) out.push_back(candidates[i]);
  return out;
}

TEST(RowParallelPipelines, PriceTopKMatchesSerialStages) {
  auto& p = price();
  ASSERT_TRUE(p.pipe.cascade().enabled());
  const std::uint64_t before = runtime::sharded_calls();
  for (const std::size_t n : kBatchRows) {
    const data::Batch batch = first_rows(p.wl.test.inputs, n);
    EXPECT_EQ(p.pipe.top_k(batch, 100), serial_top_k(p.pipe, batch, 100)) << n << " rows";
  }
  // At least the filter over every batch but the 511-row one shards.
  if (kBudget > 0) {
    EXPECT_GE(runtime::sharded_calls() - before, kBatchRows.size() - 1);
  }
}

}  // namespace
}  // namespace willump
