// Concurrency surface of the request-level serving engine: future-returning
// ThreadPool::submit, the bounded MPMC RequestQueue, and the multi-model
// registry Server — routing, per-model adaptive micro-batching
// (flush-on-max-batch and flush-on-deadline), AIMD max_batch tuning, the
// async (callback) completion path, work stealing across model shards,
// SLO-class priority/EDF scheduling (including the starvation /
// priority-inversion guarantee, asserted with the CI-based statistical
// criterion), replica groups (least-outstanding balancing, artifact
// cold-start, rolling swap under load), the consistent-hash Router (with
// fleet latency merged across shards), the
// overload pipeline (typed queue-full rejection with a no-blocked-producer
// watchdog, best-effort-shed-first ordering, expired-request drop under a
// machine-calibrated deadline, and a shed-under-open-loop run that loses
// no completion), runtime replica resizing (growth under live traffic,
// retire-on-drain under a saturating open loop with exactly-once
// completion reconciliation, the no-oscillation property of the autoscale
// policy over random stationary loads), the autoscaler controller thread,
// and thread-safe end-to-end caching under concurrent clients. This suite
// is labeled `concurrency` and runs under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/optimizer.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "serving/aimd.hpp"
#include "serving/autoscaler.hpp"
#include "serving/load_control.hpp"
#include "serving/router.hpp"
#include "serving/server.hpp"
#include "serving/slo.hpp"
#include "workloads/credit.hpp"
#include "workloads/toxic.hpp"
#include "workloads/traffic.hpp"

namespace willump {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool::submit
// ---------------------------------------------------------------------------

TEST(ThreadPoolSubmit, DeliversResultThroughFuture) {
  runtime::ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolSubmit, PropagatesExceptionThroughFuture) {
  runtime::ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool stays usable afterwards.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolSubmit, ManyConcurrentSubmitters) {
  runtime::ThreadPool pool(3);
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<int>>> futures(4);
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&pool, &futures, t] {
      for (int i = 0; i < 50; ++i) {
        futures[t].push_back(pool.submit([t, i] { return t * 1000 + i; }));
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(futures[t][static_cast<std::size_t>(i)].get(), t * 1000 + i);
    }
  }
}

TEST(ThreadPoolSubmit, QueuedTasksDrainAtDestruction) {
  std::vector<std::future<int>> futures;
  {
    runtime::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit([i] { return i; }));
    }
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
  }
}

TEST(ThreadPoolSubmit, ZeroSpinBudgetStillDeliversWork) {
  // spin_rounds 0: workers park on the condition variable immediately; the
  // CV path alone must hand off every task.
  runtime::ThreadPool pool(2, /*spin_rounds=*/0);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(pool.submit([i] { return i; }));
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
  }
}

TEST(ThreadPoolSubmit, CoexistsWithRunAll) {
  runtime::ThreadPool pool(2);
  auto f = pool.submit([] { return 7; });
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back([&counter] { ++counter; });
  pool.run_all(std::move(tasks));
  EXPECT_EQ(counter.load(), 10);
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPoolRunAll, ConcurrentCallersDoNotShareState) {
  runtime::ThreadPool pool(2);
  std::vector<std::thread> callers;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&pool, &ok, t] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<int> counter{0};
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 8; ++i) tasks.push_back([&counter] { ++counter; });
        if (t == 0 && round % 3 == 0) {
          // One caller also throws; its exception must not leak into the
          // other callers' run_all.
          tasks.push_back([] { throw std::runtime_error("mine"); });
          EXPECT_THROW(pool.run_all(std::move(tasks)), std::runtime_error);
        } else {
          pool.run_all(std::move(tasks));
        }
        if (counter.load() >= 8) ++ok;
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(ok.load(), 80);
}

// ---------------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------------

TEST(RequestQueue, FifoOrder) {
  runtime::RequestQueue<int> q;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop(), i);
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(RequestQueue, TryPushRespectsCapacity) {
  runtime::RequestQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(3));
}

TEST(RequestQueue, TryPushForReturnsTypedResultAndKeepsItemOnFailure) {
  runtime::RequestQueue<int> q(1);
  int item = 1;
  EXPECT_EQ(q.try_push_for(item, std::chrono::milliseconds(0)),
            runtime::PushResult::kPushed);
  // Full queue, zero wait: immediate kFull, and the caller keeps the item
  // (the serving engine still owns its completion channel after a reject).
  int rejected = 2;
  EXPECT_EQ(q.try_push_for(rejected, std::chrono::milliseconds(0)),
            runtime::PushResult::kFull);
  EXPECT_EQ(rejected, 2);
  // Bounded wait: space appears inside the window and the push lands.
  std::thread consumer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(q.pop(), 1);
  });
  EXPECT_EQ(q.try_push_for(rejected, std::chrono::seconds(5)),
            runtime::PushResult::kPushed);
  consumer.join();
  EXPECT_EQ(q.pop(), 2);
}

TEST(RequestQueue, TryPushForBoundsTheWaitOnAFullQueue) {
  runtime::RequestQueue<int> q(1);
  int head = 7;
  ASSERT_EQ(q.try_push_for(head, std::chrono::milliseconds(0)),
            runtime::PushResult::kPushed);
  int item = 8;
  common::Timer t;
  EXPECT_EQ(q.try_push_for(item, std::chrono::milliseconds(30)),
            runtime::PushResult::kFull);
  const double waited = t.elapsed_seconds();
  EXPECT_GE(waited, 0.020);  // it did wait for space...
  EXPECT_LT(waited, 5.0);    // ...but returned, unlike the blocking push
  q.close();
  EXPECT_EQ(q.try_push_for(item, std::chrono::milliseconds(0)),
            runtime::PushResult::kClosed);
}

TEST(RequestQueue, DrainTakesUpToMaxInFifoOrder) {
  runtime::RequestQueue<int> q;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.push(i));
  std::vector<int> out;
  EXPECT_EQ(q.drain(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.drain(out, 10), 2u);  // takes what is there
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(q.drain(out, 1), 0u);   // empty queue drains nothing
}

TEST(RequestQueue, DrainUnblocksProducers) {
  runtime::RequestQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::thread producer([&q] { EXPECT_TRUE(q.push(3)); });
  std::vector<int> out;
  while (q.drain(out, 4) == 0) std::this_thread::yield();
  producer.join();
  (void)q.drain(out, 4);
  EXPECT_EQ(out.size(), 3u);
}

TEST(RequestQueue, PushBlocksUntilSpace) {
  runtime::RequestQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&q] { EXPECT_TRUE(q.push(2)); });
  EXPECT_EQ(q.pop(), 1);  // unblocks the producer
  producer.join();
  EXPECT_EQ(q.pop(), 2);
}

TEST(RequestQueue, CloseDrainsThenReportsExhaustion) {
  runtime::RequestQueue<int> q;
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // no new work after close
  EXPECT_EQ(q.pop(), 1);    // accepted work still drains
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(RequestQueue, CloseWakesBlockedConsumer) {
  runtime::RequestQueue<int> q;
  std::thread consumer([&q] { EXPECT_EQ(q.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(RequestQueue, PeekFrontReadsHeadWithoutDequeuing) {
  runtime::RequestQueue<int> q;
  EXPECT_EQ(q.peek_front([](const int& v) { return v; }), std::nullopt);
  ASSERT_TRUE(q.push(7));
  ASSERT_TRUE(q.push(8));
  // The peek projects the head (the priority-aware drain reads a deadline
  // this way) and leaves the queue untouched.
  EXPECT_EQ(q.peek_front([](const int& v) { return v * 10; }), 70);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), 7);
  EXPECT_EQ(q.peek_front([](const int& v) { return v; }), 8);
}

TEST(RequestQueue, PopUntilTimesOutOnEmptyQueue) {
  runtime::RequestQueue<int> q;
  common::Timer t;
  EXPECT_EQ(q.pop_until(std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(20)),
            std::nullopt);
  EXPECT_GE(t.elapsed_seconds(), 0.010);
}

TEST(RequestQueue, ManyProducersManyConsumers) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  runtime::RequestQueue<int> q(8);  // small bound: exercises back-pressure
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::vector<int>> got(3);
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&q, &got, c] {
      while (auto v = q.pop()) got[static_cast<std::size_t>(c)].push_back(*v);
    });
  }
  for (auto& p : producers) p.join();
  q.close();
  for (auto& c : consumers) c.join();

  std::vector<int> all;
  for (const auto& g : got) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)], i);  // each item exactly once
  }
}

// ---------------------------------------------------------------------------
// AIMD max_batch controller
// ---------------------------------------------------------------------------

TEST(AimdController, DisabledPinsCap) {
  serving::AimdBatchController c(16, serving::AimdConfig{});
  EXPECT_EQ(c.cap(), 16u);
  c.on_batch(16, /*batch_seconds=*/10.0);  // would be a gross violation
  EXPECT_EQ(c.cap(), 16u);
  EXPECT_EQ(c.counters().observations, 0u);
}

TEST(AimdController, GrowsAdditivelyWhileUnderSlo) {
  serving::AimdConfig cfg;
  cfg.enabled = true;
  cfg.slo_micros = 1e6;  // 1 s: nothing here violates it
  cfg.additive_step = 2;
  cfg.max_batch = 10;
  serving::AimdBatchController c(4, cfg);
  c.on_batch(4, 0.0001);
  EXPECT_EQ(c.cap(), 6u);
  c.on_batch(6, 0.0001);
  EXPECT_EQ(c.cap(), 8u);
  c.on_batch(8, 0.0001);
  c.on_batch(10, 0.0001);  // clamped at max_batch
  EXPECT_EQ(c.cap(), 10u);
  const auto counters = c.counters();
  EXPECT_EQ(counters.increases, 3u);  // the clamped step does not count
  EXPECT_EQ(counters.backoffs, 0u);
  EXPECT_EQ(counters.observations, 4u);
}

TEST(AimdController, BacksOffMultiplicativelyOnViolation) {
  serving::AimdConfig cfg;
  cfg.enabled = true;
  cfg.slo_micros = 100.0;
  cfg.backoff = 0.5;
  cfg.min_batch = 2;
  serving::AimdBatchController c(32, cfg);
  c.on_batch(32, /*batch_seconds=*/0.01);  // 10 ms >> 100 us
  EXPECT_EQ(c.cap(), 16u);
  c.on_batch(16, 0.01);
  EXPECT_EQ(c.cap(), 8u);
  c.on_batch(8, 0.01);
  c.on_batch(4, 0.01);
  EXPECT_EQ(c.cap(), 2u);  // clamped at min_batch
  c.on_batch(2, 0.01);
  EXPECT_EQ(c.cap(), 2u);
  const auto counters = c.counters();
  EXPECT_EQ(counters.backoffs, 4u);  // the clamped decrease does not count
  EXPECT_EQ(counters.increases, 0u);
}

TEST(AimdController, RecoversAfterBackoff) {
  serving::AimdConfig cfg;
  cfg.enabled = true;
  cfg.slo_micros = 1000.0;
  cfg.additive_step = 1;
  serving::AimdBatchController c(8, cfg);
  c.on_batch(8, 0.01);  // violation: 8 -> 4
  EXPECT_EQ(c.cap(), 4u);
  c.on_batch(4, 0.0001);  // under SLO again: probe upward
  c.on_batch(5, 0.0001);
  EXPECT_EQ(c.cap(), 6u);
}

// ---------------------------------------------------------------------------
// Server: multi-model registry over real optimized pipelines
// ---------------------------------------------------------------------------

struct EngineFixture {
  workloads::Workload wl;
  core::OptimizedPipeline pipeline;
};

/// Tiny Toxic workload with cascades on, built once per process. Small
/// enough that the suite stays fast under ThreadSanitizer.
EngineFixture& fixture() {
  static EngineFixture* f = [] {
    workloads::ToxicConfig cfg;
    cfg.seed = 303;
    cfg.sizes = {.train = 600, .valid = 250, .test = 250};
    cfg.word_tfidf_features = 500;
    cfg.char_tfidf_features = 800;
    auto wl = workloads::make_toxic(cfg);
    core::OptimizeOptions opts;
    opts.cascades = true;
    auto pipeline =
        core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
    return new EngineFixture{std::move(wl), std::move(pipeline)};
  }();
  return *f;
}

/// A second, cheap pipeline with a different schema (Credit regression,
/// local tables, no cascades): the registry's routing and misrouting tests
/// need two models whose predictions and input schemas differ.
EngineFixture& credit_fixture() {
  static EngineFixture* f = [] {
    workloads::CreditConfig cfg;
    cfg.seed = 505;
    cfg.sizes = {.train = 400, .valid = 150, .test = 200};
    auto wl = workloads::make_credit(cfg);
    auto pipeline =
        core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, {});
    return new EngineFixture{std::move(wl), std::move(pipeline)};
  }();
  return *f;
}

TEST(Server, SubmitMatchesDirectPrediction) {
  auto& f = fixture();
  serving::Server server(&f.pipeline, {});
  for (std::size_t r = 0; r < 5; ++r) {
    const auto row = f.wl.test.inputs.row(r);
    EXPECT_DOUBLE_EQ(server.submit(row).get(), f.pipeline.predict_one(row));
  }
  EXPECT_EQ(server.stats().queries, 5u);
  EXPECT_EQ(server.stats("default").queries, 5u);
}

TEST(Server, PredictBatchMatchesDirectPrediction) {
  auto& f = fixture();
  serving::Server server(&f.pipeline, {});
  const auto batch = f.wl.test.inputs.select_rows(
      std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7});
  const auto served = server.predict_batch(batch);
  const auto direct = f.pipeline.predict(batch);
  ASSERT_EQ(served.size(), direct.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_DOUBLE_EQ(served[i], direct[i]);
  }
  EXPECT_EQ(server.stats().batches, 1u);
  EXPECT_EQ(server.stats().largest_batch, 8u);
}

TEST(Server, FlushOnMaxBatch) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::ModelConfig model_cfg;
  model_cfg.max_batch = 2;
  model_cfg.max_delay_micros = 5e6;  // 5 s: only the size trigger can flush
  serving::Server server(&f.pipeline, cfg, model_cfg);

  std::vector<std::future<double>> futures;
  for (std::size_t r = 0; r < 4; ++r) {
    futures.push_back(server.submit(f.wl.test.inputs.row(r)));
  }
  common::Timer t;
  for (auto& fut : futures) (void)fut.get();
  // Completion long before the 5 s window proves the size trigger fired.
  EXPECT_LT(t.elapsed_seconds(), 4.0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.rows, 4u);
  EXPECT_EQ(stats.largest_batch, 2u);
}

TEST(Server, FlushOnDeadline) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::ModelConfig model_cfg;
  model_cfg.max_batch = 64;          // never fills from one query
  model_cfg.max_delay_micros = 8e4;  // 80 ms flush window
  serving::Server server(&f.pipeline, cfg, model_cfg);

  common::Timer t;
  (void)server.submit(f.wl.test.inputs.row(0)).get();
  // A lone query cannot complete before its batch's flush deadline.
  EXPECT_GE(t.elapsed_seconds(), 0.05);
  const auto stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.largest_batch, 1u);
}

TEST(Server, ConcurrentClientsMatchSerialPredictions) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 2;
  serving::ModelConfig model_cfg;
  model_cfg.max_batch = 8;
  serving::Server server(&f.pipeline, cfg, model_cfg);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 25;
  std::vector<std::vector<double>> got(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < kPerClient; ++q) {
        const std::size_t r = c + q * kClients;
        got[c].push_back(server.submit(f.wl.test.inputs.row(r)).get());
      }
    });
  }
  for (auto& c : clients) c.join();

  // Row-wise determinism: whatever micro-batch a query landed in, its
  // prediction equals the serial one.
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t q = 0; q < kPerClient; ++q) {
      const std::size_t r = c + q * kClients;
      EXPECT_DOUBLE_EQ(got[c][q], f.pipeline.predict_one(f.wl.test.inputs.row(r)));
    }
  }
  EXPECT_EQ(server.stats().queries, kClients * kPerClient);
  EXPECT_EQ(server.stats().rows, kClients * kPerClient);
  EXPECT_EQ(server.stats().latency_samples, kClients * kPerClient);
}

TEST(Server, CacheHitsUnderConcurrentClients) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 2;
  serving::ModelConfig model_cfg;
  model_cfg.enable_e2e_cache = true;
  serving::Server server(&f.pipeline, cfg, model_cfg);

  // Warm the cache serially so the concurrent phase is all hits.
  constexpr std::size_t kDistinct = 5;
  std::vector<double> expected;
  for (std::size_t r = 0; r < kDistinct; ++r) {
    expected.push_back(server.submit(f.wl.test.inputs.row(r)).get());
  }

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRounds = 10;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t q = 0; q < kRounds; ++q) {
        for (std::size_t r = 0; r < kDistinct; ++r) {
          const double got = server.submit(f.wl.test.inputs.row(r)).get();
          if (got != expected[r]) ++mismatches;
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.queries, kDistinct + kClients * kRounds * kDistinct);
  EXPECT_EQ(stats.cache_hits, kClients * kRounds * kDistinct);
  // Hits are answered before enqueue: the pipeline only ever saw the warmup.
  EXPECT_EQ(stats.rows, kDistinct);

  // Shutdown rejects even queries the cache could answer, and a rejected
  // query is not counted as served.
  server.shutdown();
  EXPECT_THROW((void)server.submit(f.wl.test.inputs.row(0)),
               runtime::QueueClosedError);
  EXPECT_EQ(server.stats().queries, stats.queries);
}

TEST(Server, ZeroWorkersExecutesInline) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 0;  // synchronous-only mode: no threads spawned
  serving::Server server(&f.pipeline, cfg);
  const auto row = f.wl.test.inputs.row(3);
  EXPECT_DOUBLE_EQ(server.submit(row).get(), f.pipeline.predict_one(row));
  EXPECT_EQ(server.stats().batches, 1u);
  server.shutdown();
  EXPECT_THROW((void)server.submit(row), runtime::QueueClosedError);
}

TEST(Server, FullyCachedBatchCountsNoPipelineExecution) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 0;
  serving::ModelConfig model_cfg;
  model_cfg.enable_e2e_cache = true;
  serving::Server server(&f.pipeline, cfg, model_cfg);
  const auto batch =
      f.wl.test.inputs.select_rows(std::vector<std::size_t>{0, 1, 2});
  const auto first = server.predict_batch(batch);
  const auto second = server.predict_batch(batch);  // every row hits
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(second[i], first[i]);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.batches, 1u);  // the second call ran no pipeline batch
  EXPECT_EQ(stats.rows, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_rows(), 3.0);
}

TEST(Server, ShutdownDrainsAcceptedWorkAndRejectsNew) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::ModelConfig model_cfg;
  model_cfg.max_batch = 4;
  serving::Server server(&f.pipeline, cfg, model_cfg);

  std::vector<std::future<double>> futures;
  for (std::size_t r = 0; r < 3; ++r) {
    futures.push_back(server.submit(f.wl.test.inputs.row(r)));
  }
  server.shutdown();
  for (auto& fut : futures) {
    EXPECT_NO_THROW((void)fut.get());  // accepted work was drained
  }
  EXPECT_THROW((void)server.submit(f.wl.test.inputs.row(0)),
               runtime::QueueClosedError);
}

// ---------------------------------------------------------------------------
// Server: registry semantics (registration, routing, misrouting)
// ---------------------------------------------------------------------------

TEST(ServerRegistry, RegistersAndListsModels) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::Server server;
  server.register_model("toxic", &tox.pipeline);
  server.register_model("credit", &cred.pipeline);
  EXPECT_EQ(server.model_names(),
            (std::vector<std::string>{"toxic", "credit"}));
  EXPECT_TRUE(server.has_model("toxic"));
  EXPECT_FALSE(server.has_model("music"));
  EXPECT_EQ(server.stats().models, 2u);
  EXPECT_EQ(server.stats("credit").model, "credit");
}

TEST(ServerRegistry, RejectsDuplicateUnknownAndLateRegistration) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::Server server;
  server.register_model("toxic", &tox.pipeline);
  EXPECT_THROW(server.register_model("toxic", &cred.pipeline),
               std::invalid_argument);
  EXPECT_THROW((void)server.submit("nope", tox.wl.test.inputs.row(0)),
               std::invalid_argument);
  // The first request starts serving and freezes the registry.
  (void)server.submit("toxic", tox.wl.test.inputs.row(0)).get();
  EXPECT_THROW(server.register_model("credit", &cred.pipeline),
               std::logic_error);
}

TEST(ServerRegistry, RoutesConcurrentClientsToTheRightPipeline) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 2;
  serving::Server server(cfg);
  serving::ModelConfig model_cfg;
  model_cfg.max_batch = 4;
  server.register_model("toxic", &tox.pipeline, model_cfg);
  server.register_model("credit", &cred.pipeline, model_cfg);

  constexpr std::size_t kPerClient = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < kPerClient; ++q) {
        const auto row = tox.wl.test.inputs.row(2 * q + static_cast<std::size_t>(c));
        if (server.submit("toxic", row).get() != tox.pipeline.predict_one(row)) {
          ++mismatches;
        }
      }
    });
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < kPerClient; ++q) {
        const auto row =
            cred.wl.test.inputs.row(2 * q + static_cast<std::size_t>(c));
        if (server.submit("credit", row).get() !=
            cred.pipeline.predict_one(row)) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  // Requests never execute against the wrong model's pipeline: every
  // prediction equals its own pipeline's serial answer, and the per-model
  // row counters account for exactly their own traffic.
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats("toxic").rows, 2 * kPerClient);
  EXPECT_EQ(server.stats("credit").rows, 2 * kPerClient);
}

TEST(ServerRegistry, MisroutedRowFailsItsOwnRequestOnly) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::Server server(cfg);
  server.register_model("toxic", &tox.pipeline);
  server.register_model("credit", &cred.pipeline);

  // A credit-schema row sent to the toxic model fails (its columns do not
  // exist there) — through its own future, without killing the worker.
  auto bad = server.submit("toxic", cred.wl.test.inputs.row(0));
  EXPECT_THROW((void)bad.get(), std::exception);
  const auto row = tox.wl.test.inputs.row(1);
  EXPECT_DOUBLE_EQ(server.submit("toxic", row).get(),
                   tox.pipeline.predict_one(row));
}

TEST(ServerRegistry, MisroutedRowDoesNotFailCoalescedBatchMates) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::ModelConfig model_cfg;
  model_cfg.max_batch = 3;
  model_cfg.max_delay_micros = 5e4;  // 50 ms window: the three coalesce
  serving::Server server(cfg);
  server.register_model("toxic", &tox.pipeline, model_cfg);
  server.register_model("credit", &cred.pipeline, model_cfg);

  // good, bad, good submitted back-to-back: whether or not they land in one
  // micro-batch, the malformed row fails alone and its batch-mates still
  // get their own predictions (the engine retries batch-mates individually
  // on a failed combined execution).
  auto good1 = server.submit("toxic", tox.wl.test.inputs.row(0));
  auto bad = server.submit("toxic", cred.wl.test.inputs.row(0));
  auto good2 = server.submit("toxic", tox.wl.test.inputs.row(1));
  EXPECT_DOUBLE_EQ(good1.get(),
                   tox.pipeline.predict_one(tox.wl.test.inputs.row(0)));
  EXPECT_THROW((void)bad.get(), std::exception);
  EXPECT_DOUBLE_EQ(good2.get(),
                   tox.pipeline.predict_one(tox.wl.test.inputs.row(1)));
}

TEST(ServerRegistry, NoStealingWithUncoveredModelIsRejected) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;      // only the first model would get a home worker
  cfg.work_stealing = false;
  serving::Server server(cfg);
  server.register_model("toxic", &tox.pipeline);
  server.register_model("credit", &cred.pipeline);
  // Starting to serve would strand credit's queue forever; the registry
  // rejects the configuration instead of hanging the first credit submit.
  EXPECT_THROW((void)server.submit("toxic", tox.wl.test.inputs.row(0)),
               std::logic_error);
}

TEST(ServerRegistry, MultiModelShutdownDrainsEveryQueue) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;  // one worker homes "toxic"; "credit" drains by steal
  serving::Server server(cfg);
  server.register_model("toxic", &tox.pipeline);
  server.register_model("credit", &cred.pipeline);

  std::vector<std::future<double>> futures;
  for (std::size_t r = 0; r < 3; ++r) {
    futures.push_back(server.submit("toxic", tox.wl.test.inputs.row(r)));
    futures.push_back(server.submit("credit", cred.wl.test.inputs.row(r)));
  }
  server.shutdown();
  for (auto& fut : futures) EXPECT_NO_THROW((void)fut.get());
  EXPECT_EQ(server.stats("toxic").rows, 3u);
  EXPECT_EQ(server.stats("credit").rows, 3u);
}

TEST(ServerRegistry, WorkStealingDrainsModelWithNoHomeWorker) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;  // the single worker homes the first model
  cfg.steal_quantum_micros = 200.0;
  serving::Server server(cfg);
  server.register_model("toxic", &tox.pipeline);
  server.register_model("credit", &cred.pipeline);

  std::vector<std::future<double>> futures;
  for (std::size_t r = 0; r < 5; ++r) {
    futures.push_back(server.submit("credit", cred.wl.test.inputs.row(r)));
  }
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_DOUBLE_EQ(futures[r].get(),
                     cred.pipeline.predict_one(cred.wl.test.inputs.row(r)));
  }
  const auto stats = server.stats("credit");
  EXPECT_EQ(stats.rows, 5u);
  // Credit has no home worker, so every one of its batches was stolen.
  EXPECT_EQ(stats.stolen_batches, stats.batches);
  EXPECT_GT(stats.stolen_batches, 0u);
}

// ---------------------------------------------------------------------------
// Server: async (callback) completion path
// ---------------------------------------------------------------------------

TEST(ServerAsync, CallbackDeliversPrediction) {
  auto& f = fixture();
  serving::Server server(&f.pipeline, {});
  const auto row = f.wl.test.inputs.row(2);

  std::promise<double> got;
  server.submit("default", row,
                [&got](double prediction, std::exception_ptr error) {
                  ASSERT_EQ(error, nullptr);
                  got.set_value(prediction);
                });
  EXPECT_DOUBLE_EQ(got.get_future().get(), f.pipeline.predict_one(row));
  EXPECT_EQ(server.stats().latency_samples, 1u);
}

TEST(ServerAsync, CallbackDeliversErrorForBadRow) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::Server server(&tox.pipeline, {});

  std::promise<bool> errored;
  server.submit("default", cred.wl.test.inputs.row(0),
                [&errored](double, std::exception_ptr error) {
                  errored.set_value(error != nullptr);
                });
  EXPECT_TRUE(errored.get_future().get());
  // The engine survives the failed request.
  const auto row = tox.wl.test.inputs.row(0);
  EXPECT_DOUBLE_EQ(server.submit(row).get(), tox.pipeline.predict_one(row));
}

TEST(ServerAsync, CacheHitCompletesThroughCallback) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  serving::ModelConfig model_cfg;
  model_cfg.enable_e2e_cache = true;
  serving::Server server(&f.pipeline, cfg, model_cfg);
  const auto row = f.wl.test.inputs.row(4);
  const double expected = server.submit(row).get();  // warm the cache

  std::promise<double> got;
  server.submit(row, [&got](double prediction, std::exception_ptr error) {
    ASSERT_EQ(error, nullptr);
    got.set_value(prediction);
  });
  EXPECT_DOUBLE_EQ(got.get_future().get(), expected);
  EXPECT_EQ(server.stats().cache_hits, 1u);
  EXPECT_EQ(server.stats().rows, 1u);  // the hit never reached the pipeline
}

TEST(ServerAsync, ThrowingCallbackDoesNotKillTheWorker) {
  auto& f = fixture();
  serving::Server server(&f.pipeline, {});
  std::promise<void> fired;
  server.submit("default", f.wl.test.inputs.row(0),
                [&fired](double, std::exception_ptr) {
                  fired.set_value();
                  throw std::runtime_error("client bug");
                });
  fired.get_future().wait();
  // The worker that swallowed the throw still serves.
  const auto row = f.wl.test.inputs.row(1);
  EXPECT_DOUBLE_EQ(server.submit(row).get(), f.pipeline.predict_one(row));
}

// ---------------------------------------------------------------------------
// Server: AIMD batch-cap tuning end to end
// ---------------------------------------------------------------------------

TEST(ServerAimd, CapGrowsUnderLightLoad) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::ModelConfig model_cfg;
  model_cfg.max_batch = 4;  // initial cap
  model_cfg.aimd.enabled = true;
  model_cfg.aimd.slo_micros = 60e6;  // 60 s: no batch here violates it
  model_cfg.aimd.additive_step = 2;
  model_cfg.aimd.max_batch = 64;
  serving::Server server(&f.pipeline, cfg, model_cfg);

  ASSERT_EQ(server.current_max_batch("default"), 4u);
  // 40 sequential queries = 40 under-SLO batches: the cap climbs from 4 to
  // the 64 clamp ((64-4)/2 = 30 increases) and stays there.
  for (std::size_t q = 0; q < 40; ++q) {
    (void)server.submit(f.wl.test.inputs.row(q % 50)).get();
  }
  EXPECT_EQ(server.current_max_batch("default"), 64u);
  const auto stats = server.stats("default");
  EXPECT_EQ(stats.current_max_batch, 64u);
  EXPECT_EQ(stats.aimd_increases, 30u);
  EXPECT_EQ(stats.aimd_backoffs, 0u);
}

TEST(ServerAimd, CapBacksOffUnderSloViolations) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::ModelConfig model_cfg;
  model_cfg.max_batch = 32;  // initial cap, deliberately too high for the SLO
  model_cfg.aimd.enabled = true;
  // An SLO no real batch can meet: every execution is a violation, so the
  // controller must walk the cap down to min_batch.
  model_cfg.aimd.slo_micros = 0.001;
  model_cfg.aimd.backoff = 0.5;
  model_cfg.aimd.min_batch = 1;
  serving::Server server(&f.pipeline, cfg, model_cfg);

  for (std::size_t q = 0; q < 12; ++q) {
    (void)server.submit(f.wl.test.inputs.row(q % 50)).get();
  }
  EXPECT_EQ(server.current_max_batch("default"), 1u);
  const auto stats = server.stats("default");
  EXPECT_GT(stats.aimd_backoffs, 0u);
  EXPECT_EQ(stats.aimd_increases, 0u);
}

TEST(ServerAimd, DisabledCapStaysFixed) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::ModelConfig model_cfg;
  model_cfg.max_batch = 16;
  serving::Server server(&f.pipeline, cfg, model_cfg);
  for (std::size_t q = 0; q < 8; ++q) {
    (void)server.submit(f.wl.test.inputs.row(q)).get();
  }
  EXPECT_EQ(server.current_max_batch("default"), 16u);
  EXPECT_EQ(server.stats("default").aimd_increases, 0u);
}

// ---------------------------------------------------------------------------
// Hot-reload: swap_model under live traffic
// ---------------------------------------------------------------------------

TEST(ServerHotReload, SwapUnderLoadDropsNoRequestAndServesBothVersions) {
  auto& f = fixture();
  // Second pipeline version of the same workload, compiled without
  // cascades: same schema, different (full-model-only) predictions.
  static core::OptimizedPipeline* plain = [] {
    auto& fx = fixture();
    return new core::OptimizedPipeline(core::WillumpOptimizer::optimize(
        fx.wl.pipeline, fx.wl.train, fx.wl.valid, {}));
  }();

  serving::ServerConfig cfg;
  cfg.num_workers = 2;
  serving::Server server(cfg);
  serving::ModelConfig mc;
  mc.max_batch = 4;
  server.register_model("m", &f.pipeline, mc);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 60;
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const auto row = f.wl.test.inputs.row((c * kPerClient + i) %
                                              f.wl.test.inputs.num_rows());
        try {
          const double p = server.submit("m", row).get();
          // Every prediction must be one of the two versions' answers —
          // never a torn or mixed result.
          const double old_p = f.pipeline.predict_one(row);
          const double new_p = plain->predict_one(row);
          if (p != old_p && p != new_p) ++errors;
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          ++errors;
        }
      }
    });
  }
  // Swap back and forth while the clients hammer the queue.
  for (int s = 0; s < 6; ++s) {
    server.swap_model(
        "m", std::shared_ptr<const core::OptimizedPipeline>(
                 s % 2 == 0 ? plain : &f.pipeline,
                 [](const core::OptimizedPipeline*) {}));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& t : clients) t.join();
  server.shutdown();
  EXPECT_EQ(completed.load(), kClients * kPerClient);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(server.stats("m").queries, kClients * kPerClient);
}

TEST(ServerHotReload, SwapInvalidatesEndToEndCache) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::Server server(cfg);
  serving::ModelConfig mc;
  mc.enable_e2e_cache = true;
  server.register_model("m", &f.pipeline, mc);

  const auto row = f.wl.test.inputs.row(0);
  (void)server.submit("m", row).get();
  (void)server.submit("m", row).get();
  EXPECT_EQ(server.stats("m").cache_hits, 1u);

  // After the swap the cached prediction belongs to the retired version and
  // must not be served.
  static core::OptimizedPipeline* plain = [] {
    auto& fx = fixture();
    return new core::OptimizedPipeline(core::WillumpOptimizer::optimize(
        fx.wl.pipeline, fx.wl.train, fx.wl.valid, {}));
  }();
  server.swap_model("m", std::shared_ptr<const core::OptimizedPipeline>(
                             plain, [](const core::OptimizedPipeline*) {}));
  EXPECT_EQ(server.submit("m", row).get(), plain->predict_one(row));
  server.shutdown();
}

TEST(ServerHotReload, SwapUnknownModelThrows) {
  auto& f = fixture();
  serving::Server server(serving::ServerConfig{.num_workers = 0});
  server.register_model("m", &f.pipeline);
  EXPECT_THROW(
      server.swap_model("ghost",
                        std::shared_ptr<const core::OptimizedPipeline>(
                            &f.pipeline, [](const core::OptimizedPipeline*) {})),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SLO classes: ordering, derived AIMD targets, deadline accounting
// ---------------------------------------------------------------------------

TEST(SloClass, OrdersByPriorityThenEarliestDeadline) {
  const auto now = std::chrono::steady_clock::now();
  const serving::ScheduleKey high{10, now + std::chrono::seconds(5)};
  const serving::ScheduleKey low_soon{-10, now};
  const serving::ScheduleKey std_soon{0, now + std::chrono::milliseconds(1)};
  const serving::ScheduleKey std_late{0, now + std::chrono::seconds(1)};
  // Priority dominates: a high-class request with a far deadline still
  // beats a low-class request already due.
  EXPECT_TRUE(serving::before(high, low_soon));
  EXPECT_TRUE(serving::before(high, std_soon));
  // Equal priority: earliest absolute deadline first.
  EXPECT_TRUE(serving::before(std_soon, std_late));
  EXPECT_FALSE(serving::before(std_late, std_soon));
}

TEST(SloClass, DerivedBatchTargetIsAFractionOfTheDeadline) {
  serving::SloClass c;
  c.deadline_micros = 10'000.0;
  c.batch_slo_fraction = 0.5;
  EXPECT_DOUBLE_EQ(c.batch_slo_micros(), 5'000.0);
  c.batch_slo_fraction = 2.0;  // clamped to 1: a batch never gets more than
                               // the whole deadline
  EXPECT_DOUBLE_EQ(c.batch_slo_micros(), 10'000.0);
  EXPECT_GT(serving::SloClass::latency_critical().priority,
            serving::SloClass::standard().priority);
  EXPECT_GT(serving::SloClass::standard().priority,
            serving::SloClass::best_effort().priority);
}

TEST(ServerSlo, RejectsNonPositiveDeadline) {
  auto& f = fixture();
  serving::Server server;
  serving::ModelConfig cfg;
  cfg.slo.deadline_micros = 0.0;
  EXPECT_THROW(server.register_model("m", &f.pipeline, cfg),
               std::invalid_argument);
}

TEST(ServerSlo, DeadlineAttainmentCounters) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::ModelConfig mc;
  mc.slo.deadline_micros = 60e6;  // 60 s: every completion meets it
  serving::Server server(&f.pipeline, cfg, mc);
  for (std::size_t q = 0; q < 6; ++q) {
    (void)server.submit(f.wl.test.inputs.row(q)).get();
  }
  const auto stats = server.stats("default");
  EXPECT_EQ(stats.latency_samples, 6u);
  EXPECT_EQ(stats.deadline_hits, 6u);
  EXPECT_DOUBLE_EQ(stats.deadline_attainment(), 1.0);
}

TEST(ServerAimd, BatchTargetDerivesFromClassDeadline) {
  auto& f = fixture();
  // aimd.slo_micros stays 0 (derive): a microscopic class deadline makes
  // every real batch a violation, so the controller must walk the cap to
  // min_batch — proof the deadline, not a hand-set target, is in charge.
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::ModelConfig tight;
  tight.max_batch = 32;
  tight.slo.deadline_micros = 0.002;  // 2 ns deadline -> 1 us derived floor
  tight.aimd.enabled = true;
  serving::Server tight_server(&f.pipeline, cfg, tight);
  for (std::size_t q = 0; q < 12; ++q) {
    (void)tight_server.submit(f.wl.test.inputs.row(q % 50)).get();
  }
  EXPECT_EQ(tight_server.current_max_batch("default"), 1u);
  EXPECT_GT(tight_server.stats("default").aimd_backoffs, 0u);

  // A relaxed deadline derives a generous batch target: the cap only grows.
  serving::ModelConfig relaxed;
  relaxed.max_batch = 4;
  relaxed.slo.deadline_micros = 120e6;  // 2 min deadline -> 60 s batch target
  relaxed.aimd.enabled = true;
  relaxed.aimd.max_batch = 64;
  serving::Server relaxed_server(&f.pipeline, cfg, relaxed);
  for (std::size_t q = 0; q < 12; ++q) {
    (void)relaxed_server.submit(f.wl.test.inputs.row(q % 50)).get();
  }
  EXPECT_GT(relaxed_server.current_max_batch("default"), 4u);
  EXPECT_EQ(relaxed_server.stats("default").aimd_backoffs, 0u);
}

// The starvation / priority-inversion guarantee: a saturating best-effort
// open-loop stream must not push a latency-critical model's completions
// past its deadline. One worker makes the schedule maximally contended —
// FIFO/home-shard scheduling would park the high-class queue behind the
// entire best-effort backlog, while priority/EDF dequeue bounds the
// high-class wait by one in-flight batch. Asserted with the repo's
// CI-based statistical criterion (accuracy_within_ci95), not a hard-coded
// latency bound, so scheduler noise and sanitizer slowdowns are absorbed
// by the binomial confidence interval rather than a fudge factor.
TEST(ServerSlo, SaturatingBestEffortDoesNotStarveLatencyCritical) {
  auto& low = fixture();          // toxic: the expensive best-effort model
  auto& high = credit_fixture();  // credit: the cheap latency-critical model

  // Calibrate the deadline to this machine (and sanitizer): the
  // non-preemptive bound is one in-flight best-effort batch plus the
  // high-class batch itself; give it ~30 batch-times of headroom.
  const std::size_t low_batch_cap = 8;
  common::Timer calib;
  (void)low.pipeline.predict(low.wl.test.inputs.select_rows(
      std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  const double low_batch_seconds = std::max(1e-4, calib.elapsed_seconds());
  const double deadline_micros =
      std::max(0.3e6, 30.0 * low_batch_seconds * 1e6);

  serving::ServerConfig cfg;
  cfg.num_workers = 1;  // every batch contends for the same worker
  serving::Server server(cfg);
  serving::ModelConfig high_cfg;
  high_cfg.slo = serving::SloClass::latency_critical(deadline_micros);
  high_cfg.max_batch = 8;
  serving::ModelConfig low_cfg;
  low_cfg.slo = serving::SloClass::best_effort();
  low_cfg.max_batch = low_batch_cap;
  server.register_model("credit-rt", &high.pipeline, high_cfg);
  server.register_model("toxic-batch", &low.pipeline, low_cfg);

  // Saturate: offer the mixed Poisson stream at ~3x the best-effort
  // model's serial capacity, 85% of it best-effort traffic.
  const double low_row_seconds =
      low_batch_seconds / static_cast<double>(low_batch_cap);
  const double offered_qps = 3.0 / low_row_seconds;
  std::vector<workloads::ModelTraffic> mix(2);
  mix[0] = {.model = "credit-rt", .wl = &high.wl, .zipf_s = 0.0,
            .weight = 0.15, .clients = 0, .deadline_micros = deadline_micros};
  mix[1] = {.model = "toxic-batch", .wl = &low.wl, .zipf_s = 0.0,
            .weight = 0.85, .clients = 0, .deadline_micros = 0.0};
  const auto res =
      workloads::run_mixed_open_loop(server, mix, 320, offered_qps, 0xC1A55);
  server.shutdown();

  const auto& high_res = res.per_model[0].second;
  const auto& low_res = res.per_model[1].second;
  ASSERT_GT(high_res.completed, 20u);
  EXPECT_EQ(res.aggregate.errors, 0u);
  EXPECT_EQ(res.aggregate.completed, 320u);  // saturation drops nothing

  // p99 within deadline, statistically: attainment must be consistent
  // with a 0.99 hit rate at this sample size (paper §6.3 acceptance rule).
  const double att = high_res.attainment();
  EXPECT_TRUE(att >= 0.99 ||
              common::accuracy_within_ci95(att, 0.99, high_res.completed))
      << "latency-critical attainment " << att << " over "
      << high_res.completed << " queries (deadline "
      << deadline_micros / 1e3 << " ms, p99 "
      << high_res.latency.p99 * 1e3 << " ms)";
  // The best-effort stream was genuinely saturating, not idle filler.
  EXPECT_GT(low_res.completed, 150u);
}

// ---------------------------------------------------------------------------
// LoadController: the online latency/queue model behind admission control
// and predictive replica sizing. Fed synthetic timestamps so the queueing
// math is asserted deterministically, independent of machine speed.
// ---------------------------------------------------------------------------

TEST(LoadController, ColdModelAdmitsEverythingAndKeepsCurrentReplicas) {
  serving::LoadControlConfig cfg;
  cfg.enabled = true;
  serving::LoadController lc(cfg, /*deadline_micros=*/1e4);
  EXPECT_FALSE(lc.warmed_up());
  // A cold estimator has a wide CI: it must never self-shed or resize.
  EXPECT_TRUE(lc.admit(/*queue_depth=*/1000, /*replicas=*/1));
  EXPECT_FALSE(lc.overloaded(1));
  EXPECT_EQ(lc.recommended_replicas(3), 3u);
}

TEST(LoadController, EstimatorsTrackServiceTimeAndArrivalRate) {
  serving::LoadControlConfig cfg;
  serving::LoadController lc(cfg, 1e4);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    lc.on_arrival(t0 + std::chrono::milliseconds(i));  // 1 kHz arrivals
    lc.on_batch(8, 8e-4);                              // 100 us per row
  }
  EXPECT_TRUE(lc.warmed_up());
  EXPECT_NEAR(lc.service_seconds_per_row(), 1e-4, 1e-6);
  EXPECT_NEAR(lc.arrival_qps(), 1000.0, 50.0);
}

// The replica-sizing decision uses the CI-based statistical criterion
// against the attainment target, not a hard threshold: one replica at
// rho = 2 is statistically hopeless (grow), and a near-idle stream passes
// at one replica even from a four-replica group (shrink).
TEST(LoadController, RecommendsGrowthUnderOverloadAndShrinkWhenIdle) {
  serving::LoadControlConfig cfg;
  serving::LoadController hot(cfg, /*deadline_micros=*/1e4);  // 10 ms
  const auto t0 = std::chrono::steady_clock::now();
  // 100 us/row service at 20k rows/s offered: rho = 2 at one replica,
  // comfortable (rho ~ 0.67, sojourn far under deadline) at three.
  for (int i = 0; i < 50; ++i) {
    hot.on_arrival(t0 + std::chrono::microseconds(50 * i));
    hot.on_batch(8, 8e-4);
  }
  EXPECT_TRUE(hot.overloaded(1));
  const std::size_t grown = hot.recommended_replicas(1);
  EXPECT_GT(grown, 1u);
  EXPECT_LE(grown, cfg.max_replicas);
  EXPECT_FALSE(hot.overloaded(grown));  // the recommendation is sufficient

  serving::LoadController idle(cfg, 1e4);
  for (int i = 0; i < 50; ++i) {
    idle.on_arrival(t0 + std::chrono::milliseconds(10 * i));  // 100 qps
    idle.on_batch(8, 8e-4);
  }
  EXPECT_FALSE(idle.overloaded(1));
  EXPECT_EQ(idle.recommended_replicas(4), 1u);
}

// ---------------------------------------------------------------------------
// Overload pipeline: admission control, typed shedding, expiry drop
// ---------------------------------------------------------------------------

// A full bounded queue must reject, not block: the old blocking push could
// park a producer indefinitely behind a saturated model. Occupy the
// engine's only worker inside another model's coalescing window, burst
// more submits than the victim's queue holds, and watchdog-assert the
// producer never blocked while every submit still resolved exactly once.
TEST(ServerOverload, QueueFullRejectsInsteadOfBlockingSubmit) {
  auto& victim_f = fixture();
  auto& blocker_f = credit_fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::Server server(cfg);
  serving::ModelConfig blocker_cfg;
  blocker_cfg.max_batch = 64;          // never fills from one query
  blocker_cfg.max_delay_micros = 8e5;  // 800 ms coalescing window
  server.register_model("blocker", &blocker_f.pipeline, blocker_cfg);
  serving::ModelConfig victim_cfg;
  victim_cfg.queue_capacity = 2;
  victim_cfg.max_batch = 1;
  server.register_model("victim", &victim_f.pipeline, victim_cfg);

  // Park the sole worker inside the blocker's flush window.
  auto parked = server.submit("blocker", blocker_f.wl.test.inputs.row(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  // Burst 6 submits at a capacity-2 queue. The old behavior blocked here
  // until the worker drained the queue (~550 ms away); the fixed path
  // returns immediately with typed rejections for the overflow.
  common::Timer watchdog;
  std::vector<std::future<double>> futures;
  for (std::size_t q = 0; q < 6; ++q) {
    futures.push_back(server.submit("victim", victim_f.wl.test.inputs.row(q)));
  }
  EXPECT_LT(watchdog.elapsed_seconds(), 1.0) << "submit blocked the producer";

  std::size_t ok = 0;
  std::size_t queue_full = 0;
  for (auto& fut : futures) {
    try {
      (void)fut.get();
      ++ok;
    } catch (const serving::RejectedError& e) {
      EXPECT_EQ(e.reason(), serving::RejectReason::kQueueFull);
      EXPECT_EQ(e.model(), "victim");
      ++queue_full;
    }
  }
  (void)parked.get();
  server.shutdown();
  EXPECT_EQ(ok + queue_full, 6u);  // every submit resolved exactly once
  EXPECT_EQ(ok, 2u);               // the two that fit the queue completed
  EXPECT_EQ(queue_full, 4u);
  EXPECT_EQ(server.stats("victim").shed_queue_full, 4u);
}

// Shed-lowest-class-first ordering: sustained SLO violations on a
// latency-critical model (its AIMD controller's pressure signal) make a
// load-controlled best-effort model shed its own traffic with the typed
// kShedBestEffort reason — while the critical class itself stays admitted.
TEST(ServerOverload, BestEffortShedsFirstWhenCriticalClassIsUnderPressure) {
  auto& crit = credit_fixture();
  auto& be = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::Server server(cfg);
  serving::ModelConfig crit_cfg;
  // 2 ns deadline: every real batch violates the derived AIMD target, so
  // the controller reports sustained pressure after two batches.
  crit_cfg.slo = serving::SloClass::latency_critical(0.002);
  crit_cfg.aimd.enabled = true;
  server.register_model("credit-rt", &crit.pipeline, crit_cfg);
  serving::ModelConfig be_cfg;
  be_cfg.slo = serving::SloClass::best_effort();
  be_cfg.load_control.enabled = true;
  server.register_model("toxic-be", &be.pipeline, be_cfg);

  // No pressure yet: best-effort traffic completes normally.
  (void)server.submit("toxic-be", be.wl.test.inputs.row(0)).get();

  // Drive the critical model into sustained violation.
  for (std::size_t q = 0; q < 6; ++q) {
    (void)server.submit("credit-rt", crit.wl.test.inputs.row(q)).get();
  }

  // Now best-effort is shed with the typed reason...
  bool shed = false;
  try {
    (void)server.submit("toxic-be", be.wl.test.inputs.row(1)).get();
  } catch (const serving::RejectedError& e) {
    shed = true;
    EXPECT_EQ(e.reason(), serving::RejectReason::kShedBestEffort);
    EXPECT_EQ(e.model(), "toxic-be");
  }
  EXPECT_TRUE(shed);
  // ...while the critical class itself is still admitted and served.
  const auto crit_row = crit.wl.test.inputs.row(7);
  EXPECT_DOUBLE_EQ(server.submit("credit-rt", crit_row).get(),
                   crit.pipeline.predict_one(crit_row));
  server.shutdown();

  const auto be_stats = server.stats("toxic-be");
  EXPECT_EQ(be_stats.shed_best_effort, 1u);
  EXPECT_EQ(be_stats.completions, 1u);  // the pre-pressure query
  EXPECT_EQ(server.stats("credit-rt").shed_best_effort, 0u);
  EXPECT_EQ(server.stats().shed, 1u);
}

// Dead-on-arrival requests are dropped with kExpired before claiming a
// replica, and counted as attainment misses exactly once. The deadline is
// calibrated to this machine (and sanitizer): well above one pipeline
// execution — an unloaded engine would trivially meet it — but well below
// the window the worker is parked for, so expiry at dequeue is certain.
TEST(ServerOverload, ExpiredRequestsDropBeforeExecution) {
  auto& victim_f = fixture();
  auto& blocker_f = credit_fixture();

  common::Timer calib;
  (void)victim_f.pipeline.predict_one(victim_f.wl.test.inputs.row(0));
  const double exec_seconds = std::max(1e-4, calib.elapsed_seconds());
  const double deadline_micros = std::max(0.1e6, 10.0 * exec_seconds * 1e6);
  const double window_micros = 8.0 * deadline_micros;

  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::Server server(cfg);
  serving::ModelConfig blocker_cfg;
  blocker_cfg.max_batch = 64;
  blocker_cfg.max_delay_micros = window_micros;
  server.register_model("blocker", &blocker_f.pipeline, blocker_cfg);
  serving::ModelConfig victim_cfg;
  victim_cfg.slo = serving::SloClass::latency_critical(deadline_micros);
  victim_cfg.max_batch = 1;
  victim_cfg.load_control.enabled = true;
  server.register_model("victim", &victim_f.pipeline, victim_cfg);

  auto parked = server.submit("blocker", blocker_f.wl.test.inputs.row(0));
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::micro>(window_micros / 4));

  // These join the queue with >= 3/4 of the window still to wait — several
  // deadlines past due by the time the worker dequeues them.
  std::vector<std::future<double>> futures;
  for (std::size_t q = 0; q < 3; ++q) {
    futures.push_back(server.submit("victim", victim_f.wl.test.inputs.row(q)));
  }

  std::size_t expired = 0;
  for (auto& fut : futures) {
    try {
      (void)fut.get();
    } catch (const serving::RejectedError& e) {
      EXPECT_EQ(e.reason(), serving::RejectReason::kExpired);
      ++expired;
    }
  }
  (void)parked.get();
  server.shutdown();
  EXPECT_EQ(expired, 3u);
  const auto stats = server.stats("victim");
  EXPECT_EQ(stats.expired, 3u);
  EXPECT_EQ(stats.completions, 0u);
  EXPECT_EQ(stats.deadline_hits, 0u);
  EXPECT_EQ(stats.latency_samples, 3u);  // each miss recorded exactly once
  EXPECT_DOUBLE_EQ(stats.attainment(), 0.0);
  EXPECT_EQ(stats.batches, 0u);  // dropped before any execution
}

// Zero-latency cache hits land in the same per-class outcome rows as
// executed completions, so ModelStats::attainment() divides hits by a
// denominator that is consistent across the cached and executed paths.
TEST(ServerOverload, CacheHitCountsInAttainmentDenominator) {
  auto& f = fixture();
  serving::ModelConfig mc;
  mc.enable_e2e_cache = true;
  mc.slo.deadline_micros = 60e6;  // every completion meets it
  serving::Server server(&f.pipeline, {}, mc);
  const auto row = f.wl.test.inputs.row(2);
  (void)server.submit(row).get();  // executed
  (void)server.submit(row).get();  // zero-latency cache hit
  const auto stats = server.stats("default");
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.completions, 2u);
  EXPECT_EQ(stats.deadline_hits, 2u);
  EXPECT_EQ(stats.latency_samples, 2u);
  EXPECT_DOUBLE_EQ(stats.attainment(), 1.0);
}

// Shed-under-open-loop, in the tsan suite: a saturating Poisson stream
// against a bounded, load-controlled model must lose no completion. Every
// submit resolves exactly once (prediction, typed shed, or expiry), no
// submit blocks past the watchdog, the engine genuinely sheds instead of
// queueing without bound, and the replica-sizing recommendation reflects
// the overload.
TEST(ServerOverload, ShedUnderOpenLoopLosesNoCompletion) {
  auto& f = fixture();
  common::Timer calib;
  (void)f.pipeline.predict(f.wl.test.inputs.select_rows(
      std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  const double batch_seconds = std::max(1e-4, calib.elapsed_seconds());
  const double row_seconds = batch_seconds / 8.0;
  const double deadline_micros = std::max(0.2e6, 20.0 * batch_seconds * 1e6);

  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::ModelConfig mc;
  mc.slo = serving::SloClass::latency_critical(deadline_micros);
  mc.max_batch = 8;
  mc.queue_capacity = 16;
  mc.load_control.enabled = true;
  serving::Server server(&f.pipeline, cfg, mc);

  std::vector<workloads::ModelTraffic> mix(1);
  mix[0] = {.model = "default", .wl = &f.wl, .zipf_s = 0.0, .weight = 1.0,
            .clients = 0, .deadline_micros = deadline_micros};
  constexpr std::size_t kQueries = 240;
  const double offered_qps = 4.0 / row_seconds;  // ~4x serial capacity
  const auto res =
      workloads::run_mixed_open_loop(server, mix, kQueries, offered_qps, 0x5EED);
  server.shutdown();

  const auto& agg = res.aggregate;
  EXPECT_EQ(agg.completed + agg.errors + agg.rejected + agg.expired, kQueries);
  EXPECT_EQ(agg.errors, 0u);  // overload is typed, never an execution error
  EXPECT_GT(agg.completed, 0u);
  EXPECT_GT(agg.rejected + agg.expired, 0u);  // 4x overload must shed
  EXPECT_LT(agg.max_submit_seconds, 1.0);     // no blocked producer

  // Client-side and engine-side accounting agree outcome for outcome.
  const auto stats = server.stats("default");
  EXPECT_EQ(stats.completions + stats.expired + stats.total_shed(), kQueries);
  EXPECT_EQ(agg.completed, stats.completions);
  EXPECT_EQ(agg.rejected, stats.total_shed());
  EXPECT_EQ(agg.expired, stats.expired);
}

// ---------------------------------------------------------------------------
// Replica groups: balancing, artifact cold start, rolling swap under load
// ---------------------------------------------------------------------------

TEST(ReplicaGroup, RegistersCountsAndGrowsAtRuntime) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::Server server(cfg);
  serving::ModelConfig mc;
  mc.replicas = 2;
  server.register_model("m", &f.pipeline, mc);
  EXPECT_EQ(server.replica_count("m"), 2u);
  server.add_replica("m", server.pipeline_snapshot("m"));
  EXPECT_EQ(server.replica_count("m"), 3u);
  EXPECT_THROW(server.replica_count("ghost"), std::invalid_argument);

  // Unlike registration (frozen by the first request), the replica group
  // stays runtime-mutable — it is the autoscaler's actuation surface. The
  // no-argument overload clones the live pipeline's parts (no registered
  // artifact here), and the new slot serves identical predictions.
  (void)server.submit("m", f.wl.test.inputs.row(0)).get();
  server.add_replica("m");
  EXPECT_EQ(server.replica_count("m"), 4u);
  const auto row = f.wl.test.inputs.row(1);
  EXPECT_DOUBLE_EQ(server.submit("m", row).get(), f.pipeline.predict_one(row));

  const auto stats = server.stats("m");
  EXPECT_EQ(stats.replicas, 4u);
  // Only post-start growth is a *resize*; pre-start setup is not.
  EXPECT_EQ(stats.scale_ups, 1u);
  EXPECT_EQ(stats.scale_downs, 0u);
  EXPECT_EQ(stats.draining, 0u);
}

TEST(ReplicaGroup, RetireBelowOneReplicaThrows) {
  auto& f = fixture();
  serving::Server server(serving::ServerConfig{.num_workers = 0});
  server.register_model("m", &f.pipeline);
  EXPECT_THROW(server.retire_replica("m"), std::logic_error);
  EXPECT_THROW(server.retire_replica("ghost"), std::invalid_argument);
  EXPECT_EQ(server.replica_count("m"), 1u);
}

// Retire-on-drain under saturating open-loop traffic, in the tsan suite:
// shrinking the group 3 -> 1 while a Poisson stream overloads the engine
// must lose no completion — every submit resolves exactly once
// (prediction, typed shed, or expiry), the drained replicas are freed once
// their in-flight batches resolve, and client-side and engine-side
// accounting reconcile outcome for outcome. Mirrors
// ServerOverload.ShedUnderOpenLoopLosesNoCompletion with the resize storm
// layered on top.
TEST(ReplicaGroup, RetireUnderOpenLoopDrainsAndLosesNoCompletion) {
  auto& f = fixture();
  common::Timer calib;
  (void)f.pipeline.predict(f.wl.test.inputs.select_rows(
      std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  const double batch_seconds = std::max(1e-4, calib.elapsed_seconds());
  const double row_seconds = batch_seconds / 8.0;
  const double deadline_micros = std::max(0.2e6, 20.0 * batch_seconds * 1e6);

  serving::ServerConfig cfg;
  cfg.num_workers = 2;
  serving::ModelConfig mc;
  mc.slo = serving::SloClass::latency_critical(deadline_micros);
  mc.max_batch = 8;
  mc.queue_capacity = 16;
  mc.load_control.enabled = true;
  mc.replicas = 3;
  serving::Server server(&f.pipeline, cfg, mc);

  std::vector<workloads::ModelTraffic> mix(1);
  mix[0] = {.model = "default", .wl = &f.wl, .zipf_s = 0.0, .weight = 1.0,
            .clients = 0, .deadline_micros = deadline_micros};
  constexpr std::size_t kQueries = 240;
  const double offered_qps = 4.0 / row_seconds;  // ~4x serial capacity

  // Retire two replicas mid-stream, spaced across the run.
  std::thread retirer([&] {
    const auto pause =
        std::chrono::duration<double>(kQueries / offered_qps / 4.0);
    for (int r = 0; r < 2; ++r) {
      std::this_thread::sleep_for(pause);
      server.retire_replica("default");
    }
  });
  const auto res =
      workloads::run_mixed_open_loop(server, mix, kQueries, offered_qps, 0xD12A);
  retirer.join();

  EXPECT_EQ(server.replica_count("default"), 1u);
  // Every submit has resolved, so the drained replicas' outstanding batches
  // are done; their last references release as workers finish. Poll with a
  // generous deadline rather than assuming instant release.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.draining_replicas("default") != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.draining_replicas("default"), 0u);
  server.shutdown();

  const auto& agg = res.aggregate;
  EXPECT_EQ(agg.completed + agg.errors + agg.rejected + agg.expired, kQueries);
  EXPECT_EQ(agg.errors, 0u);  // a draining replica is never an error path
  EXPECT_GT(agg.completed, 0u);
  EXPECT_LT(agg.max_submit_seconds, 1.0);  // no blocked producer

  const auto stats = server.stats("default");
  EXPECT_EQ(stats.completions + stats.expired + stats.total_shed(), kQueries);
  EXPECT_EQ(agg.completed, stats.completions);
  EXPECT_EQ(agg.rejected, stats.total_shed());
  EXPECT_EQ(agg.expired, stats.expired);
  EXPECT_EQ(stats.scale_downs, 2u);
  EXPECT_EQ(stats.replicas, 1u);
  EXPECT_EQ(stats.draining, 0u);
  // Retired slots keep their all-time row totals (grow-only accounting).
  ASSERT_EQ(stats.replica_rows.size(), 3u);
  std::size_t per_slot = 0;
  for (const auto rows : stats.replica_rows) per_slot += rows;
  EXPECT_EQ(per_slot, stats.rows);
}

// Property-style check of the autoscale policy's convergence: for ANY
// stationary load (constant snapshot), the resize sequence is eventually
// constant — the CI band between the scale-up and scale-down criteria is
// the hysteresis that forbids oscillation, and attainment's monotonicity
// in the replica count makes every trajectory monotone (a shrink to k-1
// required the lower bound at k-1 to pass, so the upper bound at k-1 also
// passes and can never immediately re-arm a grow; symmetrically for
// grows). Seeded-RNG sweep over service-time / arrival-rate / deadline
// mixes and random starting sizes.
TEST(AutoscalePolicyProperty, StationaryLoadResizesEventuallyConstant) {
  std::mt19937_64 rng(0xA5CA1E5u);
  std::uniform_real_distribution<double> service_dist(1e-5, 5e-3);
  std::uniform_real_distribution<double> qps_dist(10.0, 5000.0);
  std::uniform_real_distribution<double> deadline_mult(2.0, 50.0);

  for (int trial = 0; trial < 60; ++trial) {
    serving::AutoscaleConfig cfg;
    cfg.enabled = true;
    cfg.min_replicas = 1;
    cfg.max_replicas = 8;
    cfg.scale_up_streak = 3;
    cfg.cooldown_micros = 0.0;  // worst case: nothing slows the controller
    cfg.min_observations = 1;
    serving::AutoscalePolicy policy(cfg);

    serving::LoadSnapshot snap;
    snap.service_seconds_per_row = service_dist(rng);
    snap.arrival_qps = qps_dist(rng);
    snap.deadline_seconds = snap.service_seconds_per_row * deadline_mult(rng);
    snap.rows = 5000;
    snap.batches = 100;
    snap.target_attainment = 0.99;

    std::size_t replicas = 1 + static_cast<std::size_t>(rng() % 8);
    constexpr int kEvals = 200;
    std::size_t resizes = 0;
    std::size_t late_resizes = 0;  // resizes in the second half
    auto t = std::chrono::steady_clock::time_point{};
    for (int i = 0; i < kEvals; ++i) {
      t += std::chrono::milliseconds(20);
      const auto action = policy.evaluate(snap, replicas, t);
      if (action == serving::AutoscaleAction::kGrow) {
        ++replicas;
      } else if (action == serving::AutoscaleAction::kShrink) {
        --replicas;
      } else {
        continue;
      }
      ++resizes;
      if (i >= kEvals / 2) ++late_resizes;
    }
    const std::string ctx =
        "trial=" + std::to_string(trial) +
        " service=" + std::to_string(snap.service_seconds_per_row) +
        " qps=" + std::to_string(snap.arrival_qps) +
        " deadline=" + std::to_string(snap.deadline_seconds) +
        " final_replicas=" + std::to_string(replicas);
    EXPECT_EQ(late_resizes, 0u) << ctx;
    EXPECT_GE(replicas, cfg.min_replicas) << ctx;
    EXPECT_LE(replicas, cfg.max_replicas) << ctx;
    // Monotone trajectories: at most the full travel across [min, max].
    EXPECT_LE(resizes, cfg.max_replicas - cfg.min_replicas) << ctx;
  }
}

// The embedded controller thread: enabling ServerConfig::autoscale spawns
// it with the first serving start, it never resizes a cold or idle model,
// and shutdown joins it (idempotently). The convergence behavior of the
// full closed loop under a load step is asserted statistically by
// bench_serving_throughput --trend, not here.
TEST(Autoscale, ControllerThreadHoldsColdAndIdleModels) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.autoscale.enabled = true;
  cfg.autoscale.interval_micros = 500.0;
  serving::ModelConfig mc;
  mc.load_control.enabled = true;
  serving::Server server(&f.pipeline, cfg, mc);
  for (std::size_t r = 0; r < 4; ++r) {
    (void)server.submit(f.wl.test.inputs.row(r)).get();
  }
  // Give the controller a few intervals: 4 batches is below the default
  // min_observations, and even once warm an idle single replica is already
  // at min_replicas — either way the group must not move.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.replica_count("default"), 1u);
  const auto stats = server.stats("default");
  EXPECT_EQ(stats.scale_ups, 0u);
  EXPECT_EQ(stats.scale_downs, 0u);
  server.shutdown();
  server.shutdown();  // second join is a no-op
}

TEST(ReplicaGroup, BalancesBatchesAcrossReplicas) {
  auto& f = fixture();
  serving::ServerConfig cfg;
  cfg.num_workers = 2;
  serving::ModelConfig mc;
  mc.replicas = 2;
  mc.max_batch = 4;
  serving::Server server(cfg);
  server.register_model("m", &f.pipeline, mc);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < kPerClient; ++q) {
        const auto row = f.wl.test.inputs.row((c * kPerClient + q) %
                                              f.wl.test.inputs.num_rows());
        if (server.submit("m", row).get() != f.pipeline.predict_one(row)) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const auto stats = server.stats("m");
  EXPECT_EQ(stats.rows, kClients * kPerClient);
  ASSERT_EQ(stats.replica_rows.size(), 2u);
  // Least-outstanding balancing (with rotating ties) spreads the batches:
  // neither slot serves everything.
  EXPECT_GT(stats.replica_rows[0], 0u);
  EXPECT_GT(stats.replica_rows[1], 0u);
  EXPECT_EQ(stats.replica_rows[0] + stats.replica_rows[1], stats.rows);
}

TEST(ReplicaGroup, ColdStartsReplicaFromArtifact) {
  auto& f = fixture();
  const auto dir = std::filesystem::temp_directory_path() /
                   "willump-test-replica-artifacts";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "toxic.wlmp").string();
  serialize::save_pipeline(f.pipeline, path);

  serving::ServerConfig cfg;
  cfg.num_workers = 1;
  serving::Server server(cfg);
  server.register_model("m", &f.pipeline);
  server.add_replica("m", path);  // deserialized instance joins the group
  EXPECT_EQ(server.replica_count("m"), 2u);
  EXPECT_THROW(server.add_replica("m", path + ".missing"),
               serialize::SerializeError);

  // Artifact round trips are bit-exact, so whichever replica serves a row
  // the prediction equals the in-process pipeline's.
  for (std::size_t r = 0; r < 8; ++r) {
    const auto row = f.wl.test.inputs.row(r);
    EXPECT_DOUBLE_EQ(server.submit("m", row).get(),
                     f.pipeline.predict_one(row));
  }

  // A model loaded from an artifact remembers its path
  // (ModelConfig::artifact_path), so the no-argument add_replica — the
  // autoscaler's scale-up actuation — cold-starts from disk.
  serving::ServerConfig cfg2;
  cfg2.num_workers = 1;
  serving::Server loaded(cfg2);
  loaded.load_model("m", path);
  loaded.add_replica("m");
  EXPECT_EQ(loaded.replica_count("m"), 2u);
  const auto row = f.wl.test.inputs.row(3);
  EXPECT_DOUBLE_EQ(loaded.submit("m", row).get(), f.pipeline.predict_one(row));
}

TEST(ReplicaGroup, RollingSwapUnderLoadDropsNoRequest) {
  auto& f = fixture();
  static core::OptimizedPipeline* plain = [] {
    auto& fx = fixture();
    return new core::OptimizedPipeline(core::WillumpOptimizer::optimize(
        fx.wl.pipeline, fx.wl.train, fx.wl.valid, {}));
  }();

  serving::ServerConfig cfg;
  cfg.num_workers = 2;
  serving::Server server(cfg);
  serving::ModelConfig mc;
  mc.replicas = 2;
  mc.max_batch = 4;
  server.register_model("m", &f.pipeline, mc);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 50;
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> errors{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const auto row = f.wl.test.inputs.row((c * kPerClient + i) %
                                              f.wl.test.inputs.num_rows());
        try {
          const double p = server.submit("m", row).get();
          // During a rolling upgrade both versions legitimately serve; a
          // prediction must still be exactly one version's answer.
          if (p != f.pipeline.predict_one(row) && p != plain->predict_one(row)) {
            ++errors;
          }
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          ++errors;
        }
      }
    });
  }
  // Roll the group one replica at a time, repeatedly, while it serves.
  for (int round = 0; round < 6; ++round) {
    const auto next = std::shared_ptr<const core::OptimizedPipeline>(
        round % 2 == 0 ? plain : &f.pipeline,
        [](const core::OptimizedPipeline*) {});
    for (std::size_t rep = 0; rep < 2; ++rep) {
      server.swap_replica("m", rep, next);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  for (auto& t : clients) t.join();
  server.shutdown();
  EXPECT_EQ(completed.load(), kClients * kPerClient);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(server.stats("m").queries, kClients * kPerClient);
}

TEST(ReplicaGroup, SwapReplicaOutOfRangeThrows) {
  auto& f = fixture();
  serving::Server server(serving::ServerConfig{.num_workers = 0});
  server.register_model("m", &f.pipeline);
  EXPECT_THROW(
      server.swap_replica("m", 5,
                          std::shared_ptr<const core::OptimizedPipeline>(
                              &f.pipeline, [](const core::OptimizedPipeline*) {})),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Router: consistent-hash placement, forwarding, lifecycle
// ---------------------------------------------------------------------------

TEST(Router, PlacementIsDeterministicAndSpreads) {
  serving::RouterConfig cfg;
  cfg.num_shards = 4;
  serving::Router a(cfg);
  serving::Router b(cfg);
  std::vector<bool> used(4, false);
  for (int i = 0; i < 64; ++i) {
    const std::string name = "model-" + std::to_string(i);
    const std::size_t shard = a.shard_of(name);
    ASSERT_LT(shard, 4u);
    // Placement is a pure function of the name and ring: identical across
    // router instances (and therefore across processes and restarts).
    EXPECT_EQ(shard, b.shard_of(name));
    used[shard] = true;
  }
  // 64 names over 4 shards: consistent hashing uses the whole fleet.
  EXPECT_TRUE(used[0] && used[1] && used[2] && used[3]);
}

TEST(Router, RoutesAndForwardsCompletions) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::RouterConfig cfg;
  cfg.num_shards = 2;
  cfg.shard.num_workers = 1;
  serving::Router router(cfg);
  router.register_model("toxic", &tox.pipeline);
  router.register_model("credit", &cred.pipeline);
  EXPECT_EQ(router.model_names(),
            (std::vector<std::string>{"toxic", "credit"}));
  EXPECT_TRUE(router.has_model("toxic"));
  EXPECT_FALSE(router.has_model("ghost"));

  // Future path: predictions match each model's own pipeline.
  for (std::size_t r = 0; r < 5; ++r) {
    const auto trow = tox.wl.test.inputs.row(r);
    const auto crow = cred.wl.test.inputs.row(r);
    EXPECT_DOUBLE_EQ(router.submit("toxic", trow).get(),
                     tox.pipeline.predict_one(trow));
    EXPECT_DOUBLE_EQ(router.submit("credit", crow).get(),
                     cred.pipeline.predict_one(crow));
  }
  // Async path: the completion is forwarded through the router's wrapper.
  std::promise<double> got;
  const auto row = tox.wl.test.inputs.row(7);
  router.submit("toxic", row,
                [&got](double prediction, std::exception_ptr error) {
                  ASSERT_EQ(error, nullptr);
                  got.set_value(prediction);
                });
  EXPECT_DOUBLE_EQ(got.get_future().get(), tox.pipeline.predict_one(row));

  const auto stats = router.stats();
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.models, 2u);
  EXPECT_EQ(stats.routed_queries, 11u);
  EXPECT_EQ(stats.forwarded_completions, 1u);
  EXPECT_EQ(stats.forwarded_errors, 0u);
  EXPECT_EQ(stats.serving.queries, 11u);
  // Per-model stats come from the owning shard.
  EXPECT_EQ(router.stats("toxic").queries, 6u);
  EXPECT_EQ(router.stats("credit").queries, 5u);
  // The placed shard hosts the model; the other shard does not.
  EXPECT_TRUE(router.shard(router.shard_of("toxic")).has_model("toxic"));
}

TEST(Router, RejectsDuplicateUnknownAndLateRegistration) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::RouterConfig cfg;
  cfg.num_shards = 2;
  serving::Router router(cfg);
  router.register_model("toxic", &tox.pipeline);
  EXPECT_THROW(router.register_model("toxic", &cred.pipeline),
               std::invalid_argument);
  EXPECT_THROW((void)router.submit("ghost", tox.wl.test.inputs.row(0)),
               std::invalid_argument);
  (void)router.submit("toxic", tox.wl.test.inputs.row(0)).get();
  EXPECT_THROW(router.register_model("credit", &cred.pipeline),
               std::logic_error);
  router.shutdown();
  EXPECT_THROW((void)router.submit("toxic", tox.wl.test.inputs.row(0)),
               runtime::QueueClosedError);
}

TEST(Router, MixedOpenLoopTrafficAcrossShards) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::RouterConfig cfg;
  cfg.num_shards = 2;
  cfg.shard.num_workers = 1;
  serving::Router router(cfg);
  serving::ModelConfig mc;
  mc.max_batch = 4;
  router.register_model("toxic", &tox.pipeline, mc);
  router.register_model("credit", &cred.pipeline, mc);

  std::vector<workloads::ModelTraffic> mix(2);
  mix[0] = {.model = "toxic", .wl = &tox.wl, .zipf_s = 0.0, .weight = 0.5,
            .clients = 0, .deadline_micros = 60e6};
  mix[1] = {.model = "credit", .wl = &cred.wl, .zipf_s = 0.0, .weight = 0.5,
            .clients = 0, .deadline_micros = 60e6};
  constexpr std::size_t kQueries = 80;
  const auto res =
      workloads::run_mixed_open_loop(router, mix, kQueries, 400.0, 0x70F3);
  router.shutdown();

  EXPECT_EQ(res.aggregate.completed, kQueries);
  EXPECT_EQ(res.aggregate.errors, 0u);
  const auto stats = router.stats();
  EXPECT_EQ(stats.routed_queries, kQueries);
  EXPECT_EQ(stats.forwarded_completions, kQueries);
  EXPECT_EQ(stats.forwarded_errors, 0u);
  // Client-side attainment against a 60 s deadline is trivially total —
  // this checks the per-class accounting plumbing, not the scheduler.
  EXPECT_EQ(res.per_model[0].second.deadline_hits,
            res.per_model[0].second.completed);
}

TEST(Router, ForwardsAutoscaleConfigAndAggregatesResizeCounters) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::RouterConfig cfg;
  cfg.num_shards = 2;
  cfg.shard.num_workers = 1;
  cfg.shard.autoscale.enabled = true;
  cfg.shard.autoscale.max_replicas = 4;
  cfg.shard.autoscale.interval_micros = 50'000.0;
  serving::Router router(cfg);
  // Every shard engine receives the autoscale knobs verbatim, so each runs
  // its own controller over the models it owns.
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_TRUE(router.shard(s).config().autoscale.enabled);
    EXPECT_EQ(router.shard(s).config().autoscale.max_replicas, 4u);
    EXPECT_DOUBLE_EQ(router.shard(s).config().autoscale.interval_micros,
                     50'000.0);
  }

  router.register_model("toxic", &tox.pipeline);
  router.register_model("credit", &cred.pipeline);
  (void)router.submit("toxic", tox.wl.test.inputs.row(0)).get();
  (void)router.submit("credit", cred.wl.test.inputs.row(0)).get();

  // Runtime resizes forward to the owning shard; the fleet aggregate sums
  // the per-shard counters regardless of where each model landed.
  router.add_replica("toxic");
  router.add_replica("credit");
  EXPECT_EQ(router.replica_count("toxic"), 2u);
  EXPECT_EQ(router.replica_count("credit"), 2u);
  router.retire_replica("toxic");
  EXPECT_EQ(router.replica_count("toxic"), 1u);
  EXPECT_THROW(router.retire_replica("ghost"), std::invalid_argument);

  EXPECT_EQ(router.stats("toxic").scale_ups, 1u);
  EXPECT_EQ(router.stats("toxic").scale_downs, 1u);
  EXPECT_EQ(router.stats("credit").scale_ups, 1u);
  const auto stats = router.stats();
  EXPECT_EQ(stats.serving.scale_ups, 2u);
  EXPECT_EQ(stats.serving.scale_downs, 1u);

  // Nothing was in flight, so the retired replica releases immediately;
  // poll briefly for the worker to drop its last reference.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.draining_replicas("toxic") != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(router.draining_replicas("toxic"), 0u);
  EXPECT_EQ(router.stats().serving.draining, 0u);
  router.shutdown();
}

TEST(Router, StatsMergeFleetLatencyAcrossShards) {
  auto& tox = fixture();
  auto& cred = credit_fixture();
  serving::RouterConfig cfg;
  cfg.num_shards = 2;
  cfg.shard.num_workers = 1;
  serving::Router router(cfg);
  // Place the two models on different shards.
  std::string credit_name;
  for (int i = 0; credit_name.empty(); ++i) {
    const std::string name = "credit-" + std::to_string(i);
    if (router.shard_of(name) != router.shard_of("toxic")) credit_name = name;
  }
  router.register_model("toxic", &tox.pipeline);
  router.register_model(credit_name, &cred.pipeline);
  constexpr std::size_t kToxic = 40;
  constexpr std::size_t kCredit = 25;
  for (std::size_t r = 0; r < kToxic; ++r) {
    (void)router.submit("toxic", tox.wl.test.inputs.row(r)).get();
  }
  for (std::size_t r = 0; r < kCredit; ++r) {
    (void)router.submit(credit_name, cred.wl.test.inputs.row(r)).get();
  }
  router.shutdown();

  std::size_t samples = 0;
  double lo_p99 = std::numeric_limits<double>::infinity();
  double hi_p99 = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = 0.0;
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    const serving::ServerStats ss = router.shard(s).stats();
    ASSERT_GT(ss.latency_samples, 0u) << "shard " << s << " saw no traffic";
    samples += ss.latency_samples;
    lo_p99 = std::min(lo_p99, ss.latency.p99);
    hi_p99 = std::max(hi_p99, ss.latency.p99);
    min = std::min(min, ss.latency.min);
    max = std::max(max, ss.latency.max);
  }
  const serving::ServerStats fleet = router.stats().serving;
  EXPECT_EQ(samples, kToxic + kCredit);
  EXPECT_EQ(fleet.latency_samples, samples);
  EXPECT_EQ(fleet.latency_histogram.count(), samples);
  EXPECT_EQ(fleet.latency.min, min);
  EXPECT_EQ(fleet.latency.max, max);
  // A mixture's quantile lies between its components' quantiles; the
  // histogram estimates may each sit up to one bucket (1/64) away.
  EXPECT_GT(fleet.latency.p99, 0.0);
  EXPECT_GE(fleet.latency.p99, lo_p99 * (1.0 - 1.0 / 64.0));
  EXPECT_LE(fleet.latency.p99, hi_p99 * (1.0 + 1.0 / 64.0));
}

// ---------------------------------------------------------------------------
// EndToEndCache under concurrency
// ---------------------------------------------------------------------------

TEST(EndToEndCacheConcurrent, MixedGetPutFromManyThreads) {
  serving::EndToEndCache cache(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const auto key = static_cast<std::uint64_t>(i % 97);
        cache.put(key, static_cast<double>(key));
        if (auto hit = cache.get(key)) {
          EXPECT_DOUBLE_EQ(*hit, static_cast<double>(key));
        }
        (void)t;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(cache.hits(), 0u);
}

}  // namespace
}  // namespace willump
