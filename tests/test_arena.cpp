// Unit tests for the bump-pointer request arena and the per-worker
// ExecScratch built on it: alignment, chunk growth, reset/reuse semantics,
// and the accounting counters the memory bench asserts on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>

#include "common/arena.hpp"
#include "core/executors.hpp"

namespace willump {
namespace {

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  common::Arena a(256);
  void* p1 = a.allocate(3, 1);
  void* p2 = a.allocate(8, 8);
  void* p3 = a.allocate(1, 64);
  EXPECT_NE(p1, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p2) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p3) % 64, 0u);
  // Disjoint: writing one region never touches another.
  std::memset(p1, 0xAA, 3);
  std::memset(p2, 0xBB, 8);
  std::memset(p3, 0xCC, 1);
  EXPECT_EQ(static_cast<std::uint8_t*>(p1)[0], 0xAA);
  EXPECT_EQ(static_cast<std::uint8_t*>(p2)[7], 0xBB);
  EXPECT_EQ(static_cast<std::uint8_t*>(p3)[0], 0xCC);
}

TEST(Arena, MakeSpanIsTypedAndSized) {
  common::Arena a;
  auto s = a.make_span<double>(17);
  ASSERT_EQ(s.size(), 17u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) % alignof(double), 0u);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i);
  EXPECT_EQ(s[16], 16.0);
}

TEST(Arena, ResetReusesRetainedChunks) {
  common::Arena a(128);
  void* first = a.allocate(64, 8);
  const std::uint64_t chunks_after_warmup = a.chunk_allocations();
  a.reset();
  EXPECT_EQ(a.bytes_in_use(), 0u);
  // Same alignment + same request after reset lands on the same cursor; no
  // new chunk is acquired.
  void* again = a.allocate(64, 8);
  EXPECT_EQ(first, again);
  EXPECT_EQ(a.chunk_allocations(), chunks_after_warmup);
}

TEST(Arena, SteadyStateStopsAcquiringChunks) {
  common::Arena a(64);
  // Warm up to a high-water mark that spans several chunks.
  for (int round = 0; round < 3; ++round) {
    a.reset();
    for (int i = 0; i < 32; ++i) (void)a.allocate(48, 8);
  }
  const std::uint64_t settled = a.chunk_allocations();
  for (int round = 0; round < 10; ++round) {
    a.reset();
    for (int i = 0; i < 32; ++i) (void)a.allocate(48, 8);
  }
  EXPECT_EQ(a.chunk_allocations(), settled);
}

TEST(Arena, OversizedRequestGetsItsOwnChunk) {
  common::Arena a(64);
  auto big = a.make_span<std::uint8_t>(10000);
  ASSERT_EQ(big.size(), 10000u);
  std::memset(big.data(), 0x5A, big.size());
  EXPECT_GE(a.bytes_reserved(), 10000u);
  EXPECT_GE(a.bytes_in_use(), 10000u);
}

TEST(Arena, ReleaseDropsEverything) {
  common::Arena a(128);
  (void)a.allocate(1000, 8);
  EXPECT_GT(a.bytes_reserved(), 0u);
  a.release();
  EXPECT_EQ(a.bytes_reserved(), 0u);
  EXPECT_EQ(a.bytes_in_use(), 0u);
  // Still usable afterwards.
  EXPECT_NE(a.allocate(16, 8), nullptr);
}

TEST(ExecScratch, BeginResetsBindingsAndArenaButKeepsCapacity) {
  core::ExecScratch s(128);
  s.begin(4);
  ASSERT_EQ(s.store.size(), 4u);
  ASSERT_EQ(s.source_bound.size(), 4u);
  s.source_bound[2] = 1;
  (void)s.arena.allocate(64, 8);
  EXPECT_GT(s.arena.bytes_in_use(), 0u);

  s.begin(4);  // same graph: bindings cleared, store slots retained
  EXPECT_EQ(s.store.size(), 4u);
  EXPECT_EQ(s.source_bound[2], 0);
  EXPECT_EQ(s.arena.bytes_in_use(), 0u);

  s.begin(7);  // different graph: store resized
  EXPECT_EQ(s.store.size(), 7u);
  EXPECT_EQ(s.source_bound.size(), 7u);
}

TEST(ExecScratch, RequestScratchGateTogglesProcessWide) {
  core::ExecScratch* sc = core::request_scratch();
  ASSERT_NE(sc, nullptr);
  // thread_local: the same thread sees the same instance...
  EXPECT_EQ(core::request_scratch(), sc);
  // ...and a second thread its own (compared while that thread is alive).
  bool other_null = true;
  bool other_same = true;
  std::thread([&] {
    core::ExecScratch* other = core::request_scratch();
    other_null = other == nullptr;
    other_same = other == sc;
  }).join();
  EXPECT_FALSE(other_null);
  EXPECT_FALSE(other_same);
}

}  // namespace
}  // namespace willump
