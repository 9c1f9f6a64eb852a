#include "runtime/row_parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace willump::runtime {

namespace {

thread_local bool t_serial = false;

std::atomic<std::uint64_t> g_sharded_calls{0};

/// CPUs the process may run on. The affinity mask, unlike
/// hardware_concurrency(), follows a restricted CPU set (taskset, cpuset
/// cgroups); it does not see CFS quotas.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::atomic<std::size_t>& free_helpers() {
  static std::atomic<std::size_t> free{row_helper_budget()};
  return free;
}

/// Takes up to `want` helpers from the budget; returns how many it took.
std::size_t take_helpers(std::size_t want) {
  auto& free = free_helpers();
  std::size_t have = free.load(std::memory_order_relaxed);
  while (want > 0 && have > 0) {
    const std::size_t take = std::min(want, have);
    if (free.compare_exchange_weak(have, have - take, std::memory_order_acq_rel)) {
      return take;
    }
  }
  return 0;
}

/// Returns taken helpers to the budget when the call ends, exceptions too.
class HelperLease {
 public:
  explicit HelperLease(std::size_t count) : count_(count) {}
  ~HelperLease() { free_helpers().fetch_add(count_, std::memory_order_acq_rel); }
  HelperLease(const HelperLease&) = delete;
  HelperLease& operator=(const HelperLease&) = delete;

 private:
  std::size_t count_;
};

/// Splits [0, n) into helpers + 1 near-equal shards: the helpers run the
/// first ones, the caller the last. Each shard's exception is kept and the
/// first rethrown once every helper joined. A helper that cannot be
/// started leaves its shard to the caller.
void run_shards(std::size_t n, std::size_t helpers, const RowRangeFn& rows) {
  const std::size_t shards = helpers + 1;
  const auto bound = [&](std::size_t s) { return n * s / shards; };
  std::vector<std::exception_ptr> errors(shards);
  const auto run = [&](std::size_t s) {
    try {
      rows(bound(s), bound(s + 1));
    } catch (...) {
      errors[s] = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(helpers);
  std::size_t s = 0;
  for (; s < helpers; ++s) {
    try {
      threads.emplace_back([&run, s] {
        mark_serial_thread();
        run(s);
      });
    } catch (...) {
      break;  // no thread to start: the caller runs this shard too
    }
  }
  for (; s < helpers; ++s) run(s);
  run(helpers);
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

std::size_t shard_helpers(std::size_t rows, std::size_t free_helpers) {
  const std::size_t shards = rows / kMinShardRows;
  return shards <= 1 ? 0 : std::min(free_helpers, shards - 1);
}

std::size_t row_helper_budget() noexcept {
  static const std::size_t n = usable_cpus() - 1;
  return n;
}

void parallel_rows(std::size_t n, const RowRangeFn& rows) {
  const std::size_t helpers =
      t_serial ? 0 : take_helpers(shard_helpers(n, row_helper_budget()));
  if (helpers == 0) {
    rows(0, n);
    return;
  }
  g_sharded_calls.fetch_add(1, std::memory_order_relaxed);
  const HelperLease lease(helpers);
  run_shards(n, helpers, rows);
}

void mark_serial_thread() noexcept { t_serial = true; }

bool serial_thread() noexcept { return t_serial; }

std::uint64_t sharded_calls() noexcept {
  return g_sharded_calls.load(std::memory_order_relaxed);
}

}  // namespace willump::runtime
