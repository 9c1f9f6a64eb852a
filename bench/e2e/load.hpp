#pragma once

// Load generators of the end-to-end benchmark: a back-to-back caller for the
// batch workloads, and for the serving workloads an open-loop Poisson
// generator (latency) and a fixed-window closed loop (capacity). All inputs
// -- arrival times and row samples -- are drawn before the timed window.

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "report.hpp"
#include "serving/server.hpp"

namespace e2e {

/// Call `call(i)` back to back for `seconds` (at least once); returns the
/// duration of every call. `after(i)`, if given, runs untimed after each
/// call (output checks).
std::vector<double> run_closed_loop(double seconds,
                                    const std::function<void(std::size_t)>& call,
                                    const std::function<void(std::size_t)>& after = {});

/// One pre-generated request of an open-loop schedule.
struct Arrival {
  double due_s = 0.0;     // offset from the start of the window
  std::uint32_t row = 0;  // index into the slice's request rows
  std::uint8_t slice = 0; // which model of a mixed stream
};

/// Popularity over a slice's rows: Zipf with exponent `zipf_s` over a
/// seeded permutation (so popularity is not tied to row order), or uniform
/// when `zipf_s` is 0.
class RowSampler {
 public:
  RowSampler(std::size_t rows, double zipf_s, willump::common::Rng& rng);
  std::uint32_t next(willump::common::Rng& rng) const;

 private:
  std::size_t rows_;
  double zipf_s_;
  willump::common::ZipfSampler zipf_;
  std::vector<std::size_t> rank_to_row_;
};

/// Poisson arrivals at `qps` over `seconds`; each goes to slice s with
/// probability weights[s] / sum(weights) and draws its row from samplers[s].
std::vector<Arrival> poisson_schedule(double qps, double seconds,
                                      const std::vector<double>& weights,
                                      const std::vector<RowSampler>& samplers,
                                      willump::common::Rng& rng);

/// `n` requests drawn like poisson_schedule's, without due times.
std::vector<Arrival> draw_requests(std::size_t n, const std::vector<double>& weights,
                                   const std::vector<RowSampler>& samplers,
                                   willump::common::Rng& rng);

/// How a request resolved.
enum class Outcome : std::uint8_t { kPending = 0, kOk, kRejected, kError };

/// Outcome of a completion callback's error argument: none, a typed
/// overload rejection or expiry, or any other error.
Outcome classify(const std::exception_ptr& error);

/// Outcome of every request of a phase, filled by the engine's completion
/// callbacks (each callback writes only its own slot).
class Completions {
 public:
  explicit Completions(std::size_t capacity);
  Completions(const Completions&) = delete;
  Completions& operator=(const Completions&) = delete;

  /// Completion callback of request `i`.
  willump::serving::Server::Callback callback(std::size_t i);
  std::size_t resolved() const { return resolved_.load(std::memory_order_acquire); }
  Outcome status(std::size_t i) const { return static_cast<Outcome>(status_[i]); }
  double prediction(std::size_t i) const { return pred_[i]; }
  Clock::time_point done(std::size_t i) const { return done_[i]; }
  /// --self-test-corrupt: change request i's recorded prediction.
  void perturb(std::size_t i);

 private:
  std::vector<Clock::time_point> done_;
  std::vector<double> pred_;
  std::vector<std::uint8_t> status_;
  std::atomic<std::size_t> resolved_{0};
};

/// Per-submit timing of an open-loop run.
struct OpenLoopTimes {
  Clock::time_point start{};
  std::vector<double> late_s;    // how late each submit began vs its due time
  std::vector<double> submit_s;  // time inside submit (only when timed)
};

/// Submit schedule[i] via `submit(i)` at start + due_s: the dispatcher sleeps
/// until 300 us before each due time, then spins. Never waits for
/// completions. Latency is measured from the due time, so a stalled
/// dispatcher or engine is charged to the requests it delayed.
OpenLoopTimes run_open_loop(const std::vector<Arrival>& schedule,
                            bool time_submits,
                            const std::function<void(std::size_t)>& submit);

/// Keep `window` requests in flight until `end`: submit(i) for i = 0, 1, ...
/// whenever fewer than `window` of the sent requests have resolved
/// (`resolved()`). Returns the number sent.
std::size_t run_window(Clock::time_point end, std::size_t window,
                       const std::function<std::size_t()>& resolved,
                       const std::function<void(std::size_t)>& submit);

}  // namespace e2e
