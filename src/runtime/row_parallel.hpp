#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace willump::runtime {

/// Row-parallel batch calls (DESIGN.md, "Row-parallel batch calls").
///
/// A batch call whose rows are independent hands its serial body to
/// parallel_rows() as a function of a row range. Large enough calls split
/// the rows across short-lived helper threads; everything else runs the
/// body once over every row. Every rule below is a constant chosen from a
/// measurement, not an option.

/// A batch body over the half-open row range [begin, end). It must write
/// only the outputs of its own rows: ranges run concurrently.
using RowRangeFn = std::function<void(std::size_t begin, std::size_t end)>;

/// Fewest rows a shard gets. Calls under two shards' worth never shard.
inline constexpr std::size_t kMinShardRows = 256;
inline constexpr std::size_t kMinShardedRows = 2 * kMinShardRows;

/// Helpers worth starting for a call over `rows` rows:
/// min(free_helpers, rows/kMinShardRows - 1), floored at 0. The caller
/// runs one shard itself.
std::size_t shard_helpers(std::size_t rows, std::size_t free_helpers);

/// The process-wide helper budget: one less than the CPUs this process may
/// run on (its affinity mask), 0 on one CPU.
std::size_t row_helper_budget() noexcept;

/// Run `rows` over ranges that cover [0, n) exactly once, and return after
/// every range finished. Serial (one call over [0, n)) when n is under
/// kMinShardedRows, on a thread marked by mark_serial_thread(), or when
/// the budget has no helper free. Otherwise [0, n) splits into
/// shard_helpers() + 1 near-equal ranges: helper threads run all but the
/// last, the caller runs the last. Helpers come from row_helper_budget(),
/// shared by concurrent callers, and are joined before the call returns:
/// no thread outlives it. An exception thrown by any range is rethrown
/// after every helper joined.
void parallel_rows(std::size_t n, const RowRangeFn& rows);

/// Make parallel_rows() run serially on the calling thread for the rest of
/// its life. Serving workers, ThreadPool workers and the helpers mark
/// themselves, so serving never adds threads and shards never nest.
void mark_serial_thread() noexcept;
bool serial_thread() noexcept;

/// Calls that split their rows across helpers since the process started.
std::uint64_t sharded_calls() noexcept;

}  // namespace willump::runtime
