// Microbenchmark of the batched prediction kernels (DESIGN.md §9): the
// hardware-speed inner loops the paper's compiled configuration presupposes
// ("cascades cannot help unless the model itself runs at hardware speed").
// Four model-level sections time the same trained model under forced kernel
// configs — the bit-exact scalar/row-wise reference (the pre-kernel code
// shape) against the SIMD / blocked-traversal variants — plus an end-to-end
// section that optimizes one full workload twice (forced-reference config
// vs the default native config) so the kernel layer's contribution to
// Figure 5 throughput is recorded, not inferred.
//
// `--trend` asserts the acceptance floors of the kernel layer: batched
// blocked GBDT traversal >= 3x the row-at-a-time reference, SIMD linear
// margins >= 2x scalar, SIMD MLP forward >= 2x scalar, and the default
// pipeline never losing to the reference. The nightly ctest tier drives it
// this way; `--smoke` only proves the binary runs end-to-end.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "kernels/dispatch.hpp"
#include "models/gbdt.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"

using namespace willump;
using namespace willump::bench;

namespace {

int failures = 0;

void check_trend(bool ok, const char* what) {
  if (!trend()) return;
  if (!ok) {
    std::printf("TREND VIOLATION: %s\n", what);
    ++failures;
  } else {
    std::printf("trend ok: %s\n", what);
  }
}

/// The bit-exact reference config: the arithmetic the models used before the
/// kernel layer existed (strict left-to-right sums, per-row tree walks).
kernels::KernelConfig reference_config() {
  return {kernels::DotVariant::Scalar, kernels::TreeVariant::RowWise, 1};
}

int reps() { return smoke() ? 1 : 5; }

/// Row-major gaussian feature block with a planted linear signal so
/// classifiers have something to fit.
data::DenseMatrix gaussian_matrix(std::size_t rows, std::size_t cols,
                                  common::Rng& rng) {
  data::DenseMatrix x(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) x(r, c) = rng.next_gaussian();
  }
  return x;
}

std::vector<double> planted_labels(const data::DenseMatrix& x,
                                   common::Rng& rng) {
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double m = 0.0;
    for (std::size_t c = 0; c < std::min<std::size_t>(x.cols(), 8); ++c) {
      m += (c % 2 == 0 ? 1.0 : -1.0) * x(r, c);
    }
    y[r] = (m + 0.5 * rng.next_gaussian()) > 0.0 ? 1.0 : 0.0;
  }
  return y;
}

double time_config(models::Model& model, const kernels::KernelConfig& cfg,
                   const data::FeatureMatrix& x, std::vector<double>& out,
                   int iters = 1) {
  model.set_kernel_config(cfg);
  return throughput_rows_per_sec(x.rows() * static_cast<std::size_t>(iters),
                                 reps(), [&, iters] {
                                   for (int i = 0; i < iters; ++i) {
                                     model.predict_into(x, out);
                                   }
                                 });
}

/// Section 1: GBDT forest traversal. Row-at-a-time branchy walks (the
/// Tree::predict_row shape) vs blocked branch-free traversal at each block
/// size. The >= 3x floor is the tentpole claim: batching rows through a
/// tree level overlaps the per-node load->compare dependency chains that
/// serialize a row-at-a-time walk.
void bench_gbdt() {
  std::printf("\n-- GBDT forest traversal (batched margins) --\n");
  common::Rng rng(13);
  const std::size_t train_rows = smoke() ? 400 : 2500;
  const std::size_t bench_rows = smoke() ? 1000 : 16384;
  const std::size_t cols = 30;

  models::GbdtConfig cfg;
  cfg.n_trees = smoke() ? 20 : 100;
  cfg.max_depth = 6;
  cfg.permutation_rows = 0;  // importance is not what this bench times
  models::Gbdt model(cfg);

  const data::DenseMatrix xtr = gaussian_matrix(train_rows, cols, rng);
  const std::vector<double> y = planted_labels(xtr, rng);
  model.fit(data::FeatureMatrix(xtr), y);

  const data::FeatureMatrix x(gaussian_matrix(bench_rows, cols, rng));
  std::vector<double> out(bench_rows);

  TablePrinter table({"kernel", "rows/s", "vs rowwise"});
  table.print_header();
  const double rowwise = time_config(model, reference_config(), x, out);
  table.print_row({"rowwise", fmt("%.0f", rowwise), "1.00x"});

  double best_blocked = 0.0;
  for (std::uint32_t block : {8u, 16u, 32u, 64u}) {
    const double qps = time_config(
        model, {kernels::DotVariant::Scalar, kernels::TreeVariant::Blocked, block},
        x, out);
    best_blocked = std::max(best_blocked, qps);
    table.print_row({"blocked/" + std::to_string(block), fmt("%.0f", qps),
                     fmt("%.2fx", qps / rowwise)});
  }

  check_trend(best_blocked >= 3.0 * rowwise,
              "blocked GBDT traversal >= 3x row-at-a-time");
}

/// Section 2: cascade early-exit traversal. predict_cascade stops
/// accumulating trees for rows whose margin bound already proves them hard;
/// against an adversarially low threshold most rows retire early, so the
/// cascade path should beat full margins on the same forest.
void bench_gbdt_cascade() {
  std::printf("\n-- GBDT cascade early-exit (predict_cascade) --\n");
  common::Rng rng(17);
  const std::size_t bench_rows = smoke() ? 1000 : 16384;
  const std::size_t cols = 30;

  models::GbdtConfig cfg;
  cfg.n_trees = smoke() ? 20 : 100;
  cfg.max_depth = 6;
  cfg.permutation_rows = 0;
  models::Gbdt model(cfg);
  const data::DenseMatrix xtr =
      gaussian_matrix(smoke() ? 400 : 2500, cols, rng);
  model.fit(data::FeatureMatrix(xtr), planted_labels(xtr, rng));

  const data::FeatureMatrix x(gaussian_matrix(bench_rows, cols, rng));
  std::vector<double> preds(bench_rows);
  std::vector<std::uint8_t> hard(bench_rows);

  const double full = throughput_rows_per_sec(
      bench_rows, reps(), [&] { model.predict_into(x, preds); });

  TablePrinter table({"threshold", "rows/s", "vs full", "hard rows"});
  table.print_header();
  table.print_row({"full", fmt("%.0f", full), "1.00x", "-"});
  for (double thr : {0.6, 0.9, 1.0}) {
    const double qps = throughput_rows_per_sec(bench_rows, reps(), [&] {
      model.predict_cascade(x, thr, preds, hard);
    });
    std::size_t n_hard = 0;
    for (std::uint8_t h : hard) n_hard += h;
    table.print_row({fmt("%.2f", thr), fmt("%.0f", qps),
                     fmt("%.2fx", qps / full),
                     fmt("%.0f", static_cast<double>(n_hard))});
  }
  // threshold 1.0 marks every row hard before touching tree 0 — the
  // degenerate bound the early-exit must recognize without traversal.
  const double all_hard = throughput_rows_per_sec(bench_rows, reps(), [&] {
    model.predict_cascade(x, 1.0, preds, hard);
  });
  check_trend(all_hard >= full,
              "cascade threshold=1.0 short-circuits before traversal");
}

/// Section 3: linear margins (the GEMV shape). Scalar reference vs unrolled
/// and SIMD dot variants on a wide dense model; >= 2x is the acceptance
/// floor for the SIMD tier this machine supports.
void bench_linear() {
  std::printf("\n-- Linear margins (dense GEMV, d=512) --\n");
  common::Rng rng(23);
  const std::size_t d = 512;
  // L2-resident batch (256 x 512 doubles = 1 MiB) looped many times per
  // timed rep: the section measures the dot kernels' arithmetic, not DRAM
  // bandwidth — a multi-MB batch caps every SIMD variant at the same
  // streaming rate and the comparison dissolves into memory noise.
  const std::size_t bench_rows = 256;
  const int iters = smoke() ? 4 : 80;

  models::LogisticRegression model;
  const data::DenseMatrix xtr = gaussian_matrix(smoke() ? 300 : 1000, d, rng);
  model.fit(data::FeatureMatrix(xtr), planted_labels(xtr, rng));

  const data::FeatureMatrix x(gaussian_matrix(bench_rows, d, rng));
  std::vector<double> out(bench_rows);

  TablePrinter table({"kernel", "rows/s", "vs scalar"});
  table.print_header();
  kernels::KernelConfig c = reference_config();
  const double scalar = time_config(model, c, x, out, iters);
  table.print_row({"scalar", fmt("%.0f", scalar), "1.00x"});

  double best = scalar;
  for (kernels::DotVariant v : kernels::candidate_dots()) {
    c.dot = v;
    const double qps = time_config(model, c, x, out, iters);
    best = std::max(best, qps);
    table.print_row({kernels::variant_name(v), fmt("%.0f", qps),
                     fmt("%.2fx", qps / scalar)});
  }

  check_trend(best >= 2.0 * scalar, "SIMD linear margins >= 2x scalar");
}

/// Section 4: MLP forward (the GEMM shape). The hidden layer dominates
/// (hidden x in_dim multiply-accumulates per row), so the dot variant's
/// speedup should carry through the whole forward pass.
void bench_mlp() {
  std::printf("\n-- MLP forward (in=256, hidden=64) --\n");
  common::Rng rng(29);
  const std::size_t d = 256;
  const std::size_t bench_rows = smoke() ? 500 : 8192;

  models::MlpConfig cfg;
  cfg.hidden = 64;
  cfg.epochs = smoke() ? 2 : 4;
  models::Mlp model(cfg);
  const data::DenseMatrix xtr = gaussian_matrix(smoke() ? 300 : 800, d, rng);
  model.fit(data::FeatureMatrix(xtr), planted_labels(xtr, rng));

  const data::FeatureMatrix x(gaussian_matrix(bench_rows, d, rng));
  std::vector<double> out(bench_rows);

  TablePrinter table({"kernel", "rows/s", "vs scalar"});
  table.print_header();
  kernels::KernelConfig c = reference_config();
  const double scalar = time_config(model, c, x, out);
  table.print_row({"scalar", fmt("%.0f", scalar), "1.00x"});

  double best = scalar;
  for (kernels::DotVariant v : kernels::candidate_dots()) {
    c.dot = v;
    const double qps = time_config(model, c, x, out);
    best = std::max(best, qps);
    table.print_row({kernels::variant_name(v), fmt("%.0f", qps),
                     fmt("%.2fx", qps / scalar)});
  }
  check_trend(best >= 2.0 * scalar, "SIMD MLP forward >= 2x scalar");
}

/// Section 5: end-to-end contribution. Optimize one GBDT workload twice —
/// kernel_config forced to the scalar/row-wise reference vs the default
/// native config — and record what the kernel layer adds to Figure 5's batch
/// throughput. Feature computation is part of both runs, so this ratio is
/// honest about Amdahl: it is the paper-visible gain, not the kernel-only
/// gain the sections above isolate.
void bench_end_to_end() {
  std::printf("\n-- End-to-end batch throughput (music, Figure 5 shape) --\n");
  const auto wl = make_workload("music");
  const std::size_t rows = wl.test.inputs.num_rows();

  core::OptimizeOptions ref_opts = compiled_config();
  ref_opts.kernel_config = reference_config();
  const auto reference = optimize(wl, ref_opts);

  const auto native = optimize(wl, compiled_config());

  const double ref_tput = throughput_rows_per_sec(
      rows, 3, [&] { (void)reference.predict(wl.test.inputs); });
  const double native_tput = throughput_rows_per_sec(
      rows, 3, [&] { (void)native.predict(wl.test.inputs); });

  TablePrinter table({"config", "rows/s", "speedup"});
  table.print_header();
  table.print_row({"reference", fmt("%.0f", ref_tput), "1.00x"});
  table.print_row({"native", fmt("%.0f", native_tput),
                   fmt("%.2fx", native_tput / ref_tput)});
  const kernels::KernelConfig& kc = native.full_model().kernel_config();
  std::printf("native full-model config: dot=%s tree=%s block=%u\n",
              kernels::variant_name(kc.dot), kernels::variant_name(kc.tree),
              kc.tree_block);
  check_trend(native_tput >= 0.95 * ref_tput,
              "default native pipeline does not lose end-to-end");
}

}  // namespace

int main(int argc, char** argv) {
  parse_args(argc, argv);
  print_banner("Batched prediction kernels (scalar reference vs SIMD/blocked)",
               "DESIGN.md §9 (kernel layer under Figure 5's compiled config)");

  bench_gbdt();
  bench_gbdt_cascade();
  bench_linear();
  bench_mlp();
  bench_end_to_end();

  if (trend() && failures > 0) {
    std::printf("\n%d trend assertion(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\ndone.\n");
  return 0;
}
