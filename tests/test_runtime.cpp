#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "runtime/boxed.hpp"
#include "runtime/thread_pool.hpp"

namespace willump::runtime {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.run_all(std::move(tasks));
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, CallingThreadParticipates) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.run_all({[&counter] { counter.fetch_add(1); }});
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { throw std::runtime_error("boom"); });
  tasks.push_back([] {});
  tasks.push_back([] {});
  EXPECT_THROW(pool.run_all(std::move(tasks)), std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> counter{0};
  pool.run_all({[&counter] { counter.fetch_add(1); }});
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, EmptyTaskListIsNoop) {
  ThreadPool pool(2);
  pool.run_all({});
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 10; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 5; ++i) tasks.push_back([&counter] { ++counter; });
    pool.run_all(std::move(tasks));
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(Boxed, IntRoundTrip) {
  const data::Column c(data::IntColumn{7, 8});
  const auto b = boxed::box_row(c, 1);
  const auto back = boxed::unbox_to_column(b, data::ColumnType::Int);
  EXPECT_EQ(back.ints()[0], 8);
}

TEST(Boxed, StringRoundTripCopies) {
  const data::Column c(data::StringColumn{"hello"});
  const auto b = boxed::box_row(c, 0);
  const auto back = boxed::unbox_to_column(b, data::ColumnType::String);
  EXPECT_EQ(back.strings()[0], "hello");
}

TEST(Boxed, DenseFeatureRowRoundTrip) {
  data::DenseMatrix m(2, 3);
  m(1, 0) = 1.5;
  m(1, 2) = -2.5;
  const auto b = boxed::box_feature_row(data::FeatureMatrix(m), 1);
  const auto back = boxed::unbox_to_features(b, false, 3);
  EXPECT_DOUBLE_EQ(back.dense()(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(back.dense()(0, 2), -2.5);
}

TEST(Boxed, SparseFeatureRowRoundTrip) {
  data::CsrMatrix m(10);
  data::SparseVector r(10);
  r.push_back(3, 0.5);
  r.push_back(9, 1.5);
  m.append_row(r);
  const auto b = boxed::box_feature_row(data::FeatureMatrix(m), 0);
  const auto back = boxed::unbox_to_features(b, true, 10);
  EXPECT_DOUBLE_EQ(back.sparse().row_vector(0).at(3), 0.5);
  EXPECT_DOUBLE_EQ(back.sparse().row_vector(0).at(9), 1.5);
}

TEST(Boxed, NamespaceLookup) {
  boxed::Namespace ns;
  ns.set("x", boxed::make_int(42));
  EXPECT_TRUE(ns.has("x"));
  EXPECT_EQ(std::get<std::int64_t>(ns.get("x")->payload), 42);
  EXPECT_THROW(ns.get("missing"), std::out_of_range);
}

}  // namespace
}  // namespace willump::runtime
