#include "load.hpp"

#include <cmath>
#include <thread>

#include "serving/load_control.hpp"

namespace e2e {

namespace {

// Sleeping all the way to a due time wakes tens of microseconds to
// milliseconds late on a shared VM; sleeping until this margin before it and
// spinning the rest keeps the dispatcher's p99 lateness near 15 us.
constexpr auto kSpinMargin = std::chrono::microseconds(300);

void wait_until(Clock::time_point due) {
  if (due - Clock::now() > kSpinMargin) std::this_thread::sleep_until(due - kSpinMargin);
  while (Clock::now() < due) {
  }
}

Arrival draw_request(double due_s, const std::vector<double>& weights,
                     const std::vector<RowSampler>& samplers, willump::common::Rng& rng) {
  double total_weight = 0.0;
  for (double w : weights) total_weight += w;
  Arrival a;
  a.due_s = due_s;
  double pick = rng.next_double() * total_weight;
  while (a.slice + 1u < weights.size() && pick >= weights[a.slice]) {
    pick -= weights[a.slice];
    ++a.slice;
  }
  a.row = samplers[a.slice].next(rng);
  return a;
}

}  // namespace

std::vector<double> run_closed_loop(double seconds,
                                    const std::function<void(std::size_t)>& call,
                                    const std::function<void(std::size_t)>& after) {
  std::vector<double> times;
  const auto end = Clock::now() + from_seconds(seconds);
  for (std::size_t i = 0; times.empty() || Clock::now() < end; ++i) {
    const auto t0 = Clock::now();
    call(i);
    times.push_back(seconds_between(t0, Clock::now()));
    if (after) after(i);
  }
  return times;
}

RowSampler::RowSampler(std::size_t rows, double zipf_s, willump::common::Rng& rng)
    : rows_(rows),
      zipf_s_(zipf_s),
      zipf_(rows, zipf_s > 0.0 ? zipf_s : 1.0),
      rank_to_row_(rng.permutation(rows)) {}

std::uint32_t RowSampler::next(willump::common::Rng& rng) const {
  const std::size_t rank =
      zipf_s_ > 0.0 ? zipf_.sample(rng) : static_cast<std::size_t>(rng.next_below(rows_));
  return static_cast<std::uint32_t>(rank_to_row_[rank]);
}

std::vector<Arrival> poisson_schedule(double qps, double seconds,
                                      const std::vector<double>& weights,
                                      const std::vector<RowSampler>& samplers,
                                      willump::common::Rng& rng) {
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(qps * seconds * 1.05) + 16);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.next_double()) / qps;  // exponential gap
    if (t >= seconds) break;
    out.push_back(draw_request(t, weights, samplers, rng));
  }
  return out;
}

std::vector<Arrival> draw_requests(std::size_t n, const std::vector<double>& weights,
                                   const std::vector<RowSampler>& samplers,
                                   willump::common::Rng& rng) {
  std::vector<Arrival> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(draw_request(0.0, weights, samplers, rng));
  return out;
}

Outcome classify(const std::exception_ptr& error) {
  if (error == nullptr) return Outcome::kOk;
  try {
    std::rethrow_exception(error);
  } catch (const willump::serving::RejectedError&) {
    return Outcome::kRejected;
  } catch (...) {
    return Outcome::kError;
  }
}

Completions::Completions(std::size_t capacity)
    : done_(capacity), pred_(capacity, 0.0),
      status_(capacity, static_cast<std::uint8_t>(Outcome::kPending)) {}

willump::serving::Server::Callback Completions::callback(std::size_t i) {
  // Captures two words, so std::function stores it inline (no allocation
  // on the submit path).
  return [this, i](double prediction, std::exception_ptr error) {
    done_[i] = Clock::now();
    pred_[i] = prediction;
    status_[i] = static_cast<std::uint8_t>(classify(error));
    resolved_.fetch_add(1, std::memory_order_release);
  };
}

void Completions::perturb(std::size_t i) {
  pred_[i] = std::nextafter(pred_[i], 2.0);
}

OpenLoopTimes run_open_loop(const std::vector<Arrival>& schedule,
                            bool time_submits,
                            const std::function<void(std::size_t)>& submit) {
  OpenLoopTimes t;
  t.late_s.resize(schedule.size());
  if (time_submits) t.submit_s.resize(schedule.size());
  t.start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto due = t.start + from_seconds(schedule[i].due_s);
    wait_until(due);
    const auto begin = Clock::now();
    t.late_s[i] = seconds_between(due, begin);
    submit(i);
    if (time_submits) t.submit_s[i] = seconds_between(begin, Clock::now());
  }
  return t;
}

std::size_t run_window(Clock::time_point end, std::size_t window,
                       const std::function<std::size_t()>& resolved,
                       const std::function<void(std::size_t)>& submit) {
  std::size_t sent = 0;
  while (Clock::now() < end) {
    if (sent - resolved() < window) submit(sent++);
  }
  return sent;
}

}  // namespace e2e
