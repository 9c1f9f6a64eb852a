#pragma once

// Shared harness utilities for the paper-reproduction benchmarks. Each bench
// binary regenerates one table or figure of the Willump paper (see DESIGN.md
// §3 for the experiment index); these helpers provide workload construction
// at "bench scale", timing, and table formatting.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/optimizer.hpp"
#include "models/metrics.hpp"
#include "runtime/row_parallel.hpp"
#include "workloads/credit.hpp"
#include "workloads/music.hpp"
#include "workloads/price.hpp"
#include "workloads/product.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/toxic.hpp"
#include "workloads/tracking.hpp"

namespace willump::bench {

/// Smoke mode: tiny workloads and single-rep timing so CI can drive every
/// bench binary end-to-end in seconds. The numbers it prints are NOT
/// paper-comparable; it only verifies the binaries run. Enabled by the
/// `--smoke` flag or the WILLUMP_BENCH_SMOKE environment variable.
inline bool& smoke_flag() {
  static bool v = std::getenv("WILLUMP_BENCH_SMOKE") != nullptr;
  return v;
}

inline bool smoke() { return smoke_flag(); }

/// Trend mode: run at an intermediate scale and *assert* the paper-shaped
/// trend the bench reproduces (exit non-zero on violation) instead of only
/// printing numbers. This is what the nightly-labeled ctest tier runs —
/// strong enough to catch a regression, cheap enough for CI. Enabled by
/// `--trend` or the WILLUMP_BENCH_TREND environment variable; benches that
/// have no trend assertions ignore it.
inline bool& trend_flag() {
  static bool v = std::getenv("WILLUMP_BENCH_TREND") != nullptr;
  return v;
}

inline bool trend() { return trend_flag(); }

/// Parse shared bench CLI flags (--smoke, --trend), removing the ones
/// recognized here so binaries with their own flag parsing (Google
/// Benchmark) don't see them. Call first in every main().
///
/// Also marks the main thread serial for row-parallel batch calls
/// (DESIGN.md §13): the paper's figures time single-threaded calls, so a
/// compiled call here must not split its rows across helpers while the
/// interpreted baseline runs on one core.
inline void parse_args(int& argc, char** argv) {
  runtime::mark_serial_thread();
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke_flag() = true;
      continue;
    }
    if (std::string_view(argv[i]) == "--trend") {
      trend_flag() = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;  // restore the argv[argc] == NULL sentinel
}

/// Split sizes used for every workload under smoke mode.
inline workloads::SplitSizes smoke_sizes() {
  return {.train = 600, .valid = 250, .test = 250};
}

/// Build a benchmark workload by name at default (paper-shaped) scale.
/// `test_rows` of 0 keeps each workload's default test-split size; top-K
/// benches pass a large value so that K=100 is small relative to the
/// dataset, as in the paper's evaluation.
inline workloads::Workload make_workload(const std::string& name,
                                         std::size_t test_rows = 0) {
  if (name == "product") {
    workloads::ProductConfig c;
    if (smoke()) c.sizes = smoke_sizes();
    if (test_rows != 0) c.sizes.test = test_rows;
    return workloads::make_product(c);
  }
  if (name == "toxic") {
    workloads::ToxicConfig c;
    if (smoke()) c.sizes = smoke_sizes();
    if (test_rows != 0) c.sizes.test = test_rows;
    return workloads::make_toxic(c);
  }
  if (name == "music") {
    workloads::MusicConfig c;
    if (smoke()) c.sizes = smoke_sizes();
    if (test_rows != 0) c.sizes.test = test_rows;
    return workloads::make_music(c);
  }
  if (name == "credit") {
    workloads::CreditConfig c;
    if (smoke()) c.sizes = smoke_sizes();
    if (test_rows != 0) c.sizes.test = test_rows;
    return workloads::make_credit(c);
  }
  if (name == "price") {
    workloads::PriceConfig c;
    if (smoke()) c.sizes = smoke_sizes();
    if (test_rows != 0) c.sizes.test = test_rows;
    return workloads::make_price(c);
  }
  if (name == "tracking") {
    workloads::TrackingConfig c;
    if (smoke()) c.sizes = smoke_sizes();
    if (test_rows != 0) c.sizes.test = test_rows;
    return workloads::make_tracking(c);
  }
  if (name == "synthetic") {
    workloads::SyntheticParallelConfig c;
    if (smoke()) c.sizes = smoke_sizes();
    return workloads::make_synthetic_parallel(c);
  }
  std::fprintf(stderr, "unknown workload %s\n", name.c_str());
  std::abort();
}

/// Test-batch size used by the top-K benches (Tables 4, 5, 7); shrunk in
/// smoke mode so K=100 queries still fit.
inline std::size_t topk_batch_rows() { return smoke() ? 800 : 8000; }

inline const std::vector<std::string>& all_workloads() {
  static const std::vector<std::string> names{"product", "music",   "toxic",
                                              "credit",  "price",   "tracking"};
  return names;
}

inline const std::vector<std::string>& classification_workloads() {
  static const std::vector<std::string> names{"product", "toxic", "music",
                                              "tracking"};
  return names;
}

/// Median batch throughput (rows/second) of `fn` over `reps` runs processing
/// `rows` rows per run.
inline double throughput_rows_per_sec(std::size_t rows, int reps,
                                      const std::function<void()>& fn) {
  fn();  // warmup
  const double secs = common::time_median_seconds(smoke() ? 1 : reps, fn);
  return static_cast<double>(rows) / secs;
}

/// Median per-query latency in microseconds of `fn` over `reps` runs.
inline double latency_micros(int reps, const std::function<void()>& fn) {
  fn();  // warmup
  return common::time_median_seconds(smoke() ? 1 : reps, fn) * 1e6;
}

/// Mean per-query latency in microseconds over a query stream of `n` calls.
inline double mean_latency_micros(std::size_t n,
                                  const std::function<void(std::size_t)>& fn) {
  common::Timer t;
  for (std::size_t i = 0; i < n; ++i) fn(i);
  return t.elapsed_micros() / static_cast<double>(n);
}

/// Optimize a workload under a given configuration (convenience wrapper).
inline core::OptimizedPipeline optimize(const workloads::Workload& wl,
                                        const core::OptimizeOptions& opts) {
  return core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
}

inline core::OptimizeOptions python_config() {
  core::OptimizeOptions o;
  o.compile = false;
  return o;
}

inline core::OptimizeOptions compiled_config() { return {}; }

inline core::OptimizeOptions cascades_config(double accuracy_target = 0.001) {
  core::OptimizeOptions o;
  o.cascades = true;
  o.cascade_cfg.accuracy_target = accuracy_target;
  return o;
}

/// Accuracy of a predicted top-K against the exact full-model top-K: the
/// three metrics of the paper's Table 4.
struct TopKAccuracy {
  double precision = 0.0;
  double map = 0.0;
  double average_value = 0.0;
};

inline TopKAccuracy topk_accuracy(const std::vector<std::size_t>& predicted,
                                  const std::vector<std::size_t>& exact,
                                  const std::vector<double>& full_scores) {
  return {models::precision_at_k(predicted, exact),
          models::mean_average_precision(predicted, exact),
          models::average_value(predicted, full_scores)};
}

/// Simple fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int col_width = 14)
      : headers_(std::move(headers)), width_(col_width) {}

  void print_header() const {
    for (const auto& h : headers_) std::printf("%-*s", width_, h.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      for (int c = 0; c < width_ - 2; ++c) std::printf("-");
      std::printf("  ");
    }
    std::printf("\n");
  }

  void print_row(const std::vector<std::string>& cells) const {
    for (const auto& c : cells) std::printf("%-*s", width_, c.c_str());
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  int width_;
};

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

inline void print_banner(const char* title, const char* paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace willump::bench
