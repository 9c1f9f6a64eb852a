// Golden parity suite for the batched prediction kernels (DESIGN.md §9).
//
// The kernel layer's correctness contract has two tiers, and each test pins
// one of them:
//  - BIT-EXACT (EXPECT_EQ on doubles): the scalar dot variant and the
//    row-wise tree variant preserve the pre-kernel accumulation order, and
//    the blocked tree variant accumulates per row in the same tree order as
//    row-wise, so those pairs must agree to the bit — as must dense vs
//    block-densified sparse GBDT input, and any model round-tripped through
//    its serialized payload (the kernel config travels with the weights).
//  - TOLERANCE (<= 1e-12 relative): unrolled/AVX dot variants re-associate
//    the sum across independent accumulators; they may differ from scalar
//    only by that documented bound.
// Cascade early-exit may skip work ONLY for rows it proves hard, so its
// hard bitmap must match the evaluate-everything reference exactly and its
// margins must match on every row it did finish.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/optimizer.hpp"
#include "data/matrix.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gemv.hpp"
#include "models/gbdt.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "serialize/artifact.hpp"
#include "serialize/buffer.hpp"
#include "serialize/error.hpp"
#include "workloads/credit.hpp"
#include "workloads/synthetic.hpp"

namespace willump {
namespace {

using kernels::DotVariant;
using kernels::KernelConfig;
using kernels::TreeVariant;

constexpr double kRelTol = 1e-12;

KernelConfig reference_config() {
  return {DotVariant::Scalar, TreeVariant::RowWise, 1};
}

std::vector<double> gaussian(std::size_t n, common::Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.next_gaussian();
  return v;
}

data::DenseMatrix dense_matrix(std::size_t rows, std::size_t cols,
                               common::Rng& rng, double zero_prob = 0.0) {
  data::DenseMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = rng.next_bernoulli(zero_prob) ? 0.0 : rng.next_gaussian();
    }
  }
  return m;
}

std::vector<double> labels(const data::DenseMatrix& x, common::Rng& rng) {
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double m = x(r, 0) - x(r, 1) + 0.3 * rng.next_gaussian();
    y[r] = m > 0.0 ? 1.0 : 0.0;
  }
  return y;
}

void expect_close(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::fabs(a[i]), std::fabs(b[i]), 1.0});
    EXPECT_NEAR(a[i], b[i], kRelTol * scale) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Dot-product variants.
// ---------------------------------------------------------------------------

TEST(DotVariants, ScalarIsStrictLeftToRight) {
  common::Rng rng(1);
  const auto a = gaussian(257, rng);
  const auto b = gaussian(257, rng);
  double expected = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) expected += a[i] * b[i];
  EXPECT_EQ(kernels::dot(DotVariant::Scalar, a.data(), b.data(), a.size()),
            expected);
}

TEST(DotVariants, AgreeWithScalarWithinTolerance) {
  common::Rng rng(2);
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    const auto a = gaussian(n, rng);
    const auto b = gaussian(n, rng);
    const double ref = kernels::dot(DotVariant::Scalar, a.data(), b.data(), n);
    for (DotVariant v : kernels::candidate_dots()) {
      const double got = kernels::dot(v, a.data(), b.data(), n);
      const double scale = std::max(std::fabs(ref), 1.0);
      EXPECT_NEAR(got, ref, kRelTol * scale)
          << "n=" << n << " variant=" << kernels::variant_name(v);
    }
  }
}

TEST(DotVariants, DispatchIsClosedUnderDowngrade) {
  EXPECT_TRUE(kernels::dot_supported(DotVariant::Scalar));
  EXPECT_TRUE(kernels::dot_supported(DotVariant::Unrolled));
  for (DotVariant v : {DotVariant::Scalar, DotVariant::Unrolled,
                       DotVariant::Avx2, DotVariant::Avx512}) {
    EXPECT_TRUE(kernels::dot_supported(kernels::effective_dot(v)))
        << kernels::variant_name(v);
  }
  // candidate_dots only lists what the machine executes natively, so a
  // sweep over it never times a variant that would silently downgrade.
  for (DotVariant v : kernels::candidate_dots()) {
    EXPECT_TRUE(kernels::dot_supported(v));
  }
  EXPECT_EQ(kernels::native_config().dot, kernels::best_supported_dot());
}

TEST(DenseMargins, VariantsAgreeAndScalarMatchesReference) {
  common::Rng rng(3);
  const std::size_t rows = 13, d = 129;
  const data::DenseMatrix x = dense_matrix(rows, d, rng);
  const auto w = gaussian(d, rng);
  const double bias = 0.25;

  std::vector<double> ref(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = bias;  // the pre-kernel order: bias-seeded, left-to-right
    for (std::size_t c = 0; c < d; ++c) acc += x(r, c) * w[c];
    ref[r] = acc;
  }

  std::vector<double> out(rows);
  kernels::dense_margins(DotVariant::Scalar, x.data().data(), rows, d,
                         w.data(), d, bias, out.data());
  EXPECT_EQ(out, ref);  // bit-exact tier

  for (DotVariant v : kernels::candidate_dots()) {
    kernels::dense_margins(v, x.data().data(), rows, d, w.data(), d, bias,
                           out.data());
    expect_close(out, ref);
  }
}

TEST(CsrMargins, VariantsAgreeAndScalarMatchesReference) {
  common::Rng rng(4);
  const std::size_t rows = 17, d = 64;
  const data::CsrMatrix x =
      data::FeatureMatrix(dense_matrix(rows, d, rng, 0.7)).to_csr();
  const auto w = gaussian(d, rng);
  const double bias = -0.5;

  std::vector<double> ref(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row = x.row(r);
    double acc = bias;
    for (std::size_t k = 0; k < row.nnz(); ++k) {
      acc += row.values[k] * w[static_cast<std::size_t>(row.indices[k])];
    }
    ref[r] = acc;
  }

  std::vector<double> out(rows);
  kernels::csr_margins(DotVariant::Scalar, x.indptr().data(),
                       x.indices().data(), x.values().data(), w.data(), bias,
                       rows, out.data());
  EXPECT_EQ(out, ref);

  for (DotVariant v : kernels::candidate_dots()) {
    kernels::csr_margins(v, x.indptr().data(), x.indices().data(),
                         x.values().data(), w.data(), bias, rows, out.data());
    expect_close(out, ref);
  }
}

TEST(CsrMargins, EveryCandidateIsBitIdentical) {
  // A timing pick among candidate_dots must never change a sparse linear
  // model's bits: every candidate sums CSR rows in the same order.
  common::Rng rng(41);
  const std::size_t rows = 200, d = 300;
  const data::CsrMatrix x =
      data::FeatureMatrix(dense_matrix(rows, d, rng, 0.9)).to_csr();
  const auto w = gaussian(d, rng);
  const double bias = 0.125;

  const auto candidates = kernels::candidate_dots();
  ASSERT_FALSE(candidates.empty());
  std::vector<double> first(rows), out(rows);
  kernels::csr_margins(candidates.front(), x.indptr().data(),
                       x.indices().data(), x.values().data(), w.data(), bias,
                       rows, first.data());
  for (DotVariant v : candidates) {
    kernels::csr_margins(v, x.indptr().data(), x.indices().data(),
                         x.values().data(), w.data(), bias, rows, out.data());
    EXPECT_EQ(out, first) << kernels::variant_name(v);
  }
}

// ---------------------------------------------------------------------------
// GBDT traversal variants.
// ---------------------------------------------------------------------------

models::Gbdt trained_gbdt(common::Rng& rng, bool classification = true,
                          int max_depth = 5) {
  models::GbdtConfig cfg;
  cfg.n_trees = 25;
  cfg.max_depth = max_depth;
  cfg.classification = classification;
  cfg.permutation_rows = 0;
  models::Gbdt model(cfg);
  const data::DenseMatrix xtr = dense_matrix(600, 12, rng);
  model.fit(data::FeatureMatrix(xtr), labels(xtr, rng));
  return model;
}

TEST(GbdtKernels, BlockedIsBitExactWithRowWiseAcrossBatchAndBlockSizes) {
  common::Rng rng(5);
  // On AVX-512 CPUs these forests take the vector traversal for whole
  // vectors of rows: depth 5 gathers its fifth level and its leaves, the
  // shallower ones pick every node from registers, and the scalar step
  // takes 1, 7 and the last 5 of 77 rows.
  for (int depth : {5, 4, 2, 1}) {
    models::Gbdt model = trained_gbdt(rng, true, depth);
    for (std::size_t rows : {1u, 7u, 64u, 77u, 1000u}) {
      data::DenseMatrix xd = dense_matrix(rows, 12, rng);
      // NaN fails every `<=` split and goes right on both kernels.
      for (std::size_t r = 0; r < rows; r += 3) xd(r, r % 12) = std::nan("");
      const data::FeatureMatrix x(xd);
      std::vector<double> ref(rows), got(rows);
      model.set_kernel_config(reference_config());
      model.predict_into(x, ref);
      for (std::uint32_t block : {1u, 7u, 8u, 32u, 64u}) {
        model.set_kernel_config(
            {DotVariant::Scalar, TreeVariant::Blocked, block});
        model.predict_into(x, got);
        EXPECT_EQ(got, ref) << "depth=" << depth << " rows=" << rows
                            << " block=" << block;
      }
    }
  }
}

TEST(GbdtKernels, SparseInputIsBitExactWithDense) {
  common::Rng rng(6);
  models::GbdtConfig cfg;
  cfg.n_trees = 20;
  cfg.max_depth = 4;
  cfg.permutation_rows = 0;
  models::Gbdt model(cfg);
  // Train and predict on zero-heavy data so the sparse path hits both
  // explicit values and implicit zeros.
  const data::DenseMatrix xtr = dense_matrix(500, 10, rng, 0.6);
  model.fit(data::FeatureMatrix(xtr), labels(xtr, rng));

  const KernelConfig blocked = model.kernel_config();
  KernelConfig csr = blocked;
  csr.sparse_cutoff = 0;  // no-densify CSR traversal at any width
  for (std::size_t rows : {1u, 7u, 64u, 1000u}) {
    const data::DenseMatrix xd = dense_matrix(rows, 10, rng, 0.6);
    const data::FeatureMatrix dense(xd);
    const data::FeatureMatrix sparse(dense.to_csr());
    std::vector<double> ref(rows), from_dense(rows), from_sparse(rows),
        from_csr(rows);
    model.set_kernel_config(reference_config());
    model.predict_into(dense, ref);
    model.set_kernel_config(blocked);
    model.predict_into(dense, from_dense);
    model.predict_into(sparse, from_sparse);
    model.set_kernel_config(csr);
    model.predict_into(sparse, from_csr);
    EXPECT_EQ(from_sparse, from_dense) << "rows=" << rows;
    EXPECT_EQ(from_dense, ref) << "rows=" << rows;
    EXPECT_EQ(from_csr, ref) << "rows=" << rows;
  }
}

TEST(GbdtKernels, PredictMatchesPredictInto) {
  common::Rng rng(7);
  models::Gbdt model = trained_gbdt(rng);
  const data::FeatureMatrix x(dense_matrix(101, 12, rng));
  std::vector<double> out(101);
  model.predict_into(x, out);
  EXPECT_EQ(model.predict(x), out);
}

TEST(GbdtKernels, CascadeEarlyExitMatchesEvaluateEverythingReference) {
  common::Rng rng(8);
  models::Gbdt model = trained_gbdt(rng);
  const std::size_t rows = 500;
  const data::FeatureMatrix x(dense_matrix(rows, 12, rng));

  std::vector<double> full(rows);
  model.predict_into(x, full);

  for (double threshold : {0.5, 0.6, 0.9, 1.0}) {
    // The evaluate-everything reference the default Model::predict_cascade
    // implements: full predictions, then the confidence cut.
    std::vector<std::uint8_t> expected_hard(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      expected_hard[i] = models::confidence(full[i]) <= threshold ? 1 : 0;
    }

    std::vector<double> preds(rows);
    std::vector<std::uint8_t> hard(rows);
    model.predict_cascade(x, threshold, preds, hard);
    EXPECT_EQ(hard, expected_hard) << "threshold=" << threshold;
    for (std::size_t i = 0; i < rows; ++i) {
      // Early exit may leave partial values only in rows it proved hard.
      if (!hard[i]) {
        EXPECT_EQ(preds[i], full[i]) << "threshold=" << threshold;
      }
    }
  }
}

TEST(GbdtKernels, RegressionFallsBackToFullEvaluationCascade) {
  common::Rng rng(9);
  models::Gbdt model = trained_gbdt(rng, /*classification=*/false);
  const std::size_t rows = 64;
  const data::FeatureMatrix x(dense_matrix(rows, 12, rng));
  std::vector<double> full(rows), preds(rows);
  std::vector<std::uint8_t> hard(rows);
  model.predict_into(x, full);
  model.predict_cascade(x, 0.7, preds, hard);
  EXPECT_EQ(preds, full);  // no early exit for regressors: exact margins
}

// ---------------------------------------------------------------------------
// Linear / MLP variants.
// ---------------------------------------------------------------------------

TEST(LinearKernels, VariantsAgreeOnDenseAndSparse) {
  common::Rng rng(10);
  models::LogisticRegression model;
  const data::DenseMatrix xtr = dense_matrix(400, 40, rng, 0.4);
  model.fit(data::FeatureMatrix(xtr), labels(xtr, rng));

  for (std::size_t rows : {1u, 7u, 64u, 1000u}) {
    const data::DenseMatrix xd = dense_matrix(rows, 40, rng, 0.4);
    for (bool sparse : {false, true}) {
      const data::FeatureMatrix x =
          sparse ? data::FeatureMatrix(data::FeatureMatrix(xd).to_csr())
                 : data::FeatureMatrix(xd);
      std::vector<double> ref(rows), got(rows);
      model.set_kernel_config(reference_config());
      model.predict_into(x, ref);
      for (DotVariant v : kernels::candidate_dots()) {
        model.set_kernel_config({v, TreeVariant::Blocked, 32});
        model.predict_into(x, got);
        if (v == DotVariant::Scalar) {
          EXPECT_EQ(got, ref) << "rows=" << rows << " sparse=" << sparse;
        } else {
          expect_close(got, ref);
        }
      }
    }
  }
}

TEST(MlpKernels, VariantsAgreeOnDenseAndSparse) {
  common::Rng rng(11);
  models::MlpConfig cfg;
  cfg.hidden = 17;  // not a SIMD-friendly multiple on purpose
  cfg.epochs = 2;
  models::Mlp model(cfg);
  const data::DenseMatrix xtr = dense_matrix(300, 33, rng, 0.3);
  model.fit(data::FeatureMatrix(xtr), labels(xtr, rng));

  for (std::size_t rows : {1u, 7u, 64u, 100u}) {
    const data::DenseMatrix xd = dense_matrix(rows, 33, rng, 0.3);
    for (bool sparse : {false, true}) {
      const data::FeatureMatrix x =
          sparse ? data::FeatureMatrix(data::FeatureMatrix(xd).to_csr())
                 : data::FeatureMatrix(xd);
      std::vector<double> ref(rows), got(rows);
      model.set_kernel_config(reference_config());
      model.predict_into(x, ref);
      for (DotVariant v : kernels::candidate_dots()) {
        model.set_kernel_config({v, TreeVariant::Blocked, 32});
        model.predict_into(x, got);
        if (v == DotVariant::Scalar) {
          EXPECT_EQ(got, ref) << "rows=" << rows << " sparse=" << sparse;
        } else {
          expect_close(got, ref);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Config serialization and per-model round-trips.
// ---------------------------------------------------------------------------

TEST(KernelConfigSerialize, RoundTripsExactly) {
  const KernelConfig cfg{DotVariant::Avx512, TreeVariant::Blocked, 48, 4096};
  serialize::Writer w;
  kernels::save_kernel_config(w, cfg);
  serialize::Reader r(w.bytes());
  EXPECT_EQ(kernels::load_kernel_config(r), cfg);
}

TEST(KernelConfigSerialize, RejectsOutOfRangeValues) {
  const auto corrupt = [](std::uint8_t dot, std::uint8_t tree,
                          std::uint32_t block) {
    serialize::Writer w;
    w.u8(dot);
    w.u8(tree);
    w.u32(block);
    w.u32(kernels::kDefaultSparseCutoff);  // valid cutoff: any u32 is legal
    serialize::Reader r(w.bytes());
    try {
      kernels::load_kernel_config(r);
      return false;  // should have thrown
    } catch (const serialize::SerializeError& e) {
      return e.code() == serialize::ErrorCode::CorruptData;
    }
  };
  EXPECT_TRUE(corrupt(200, 1, 32));  // unknown dot variant
  EXPECT_TRUE(corrupt(0, 9, 32));    // unknown tree variant
  EXPECT_TRUE(corrupt(0, 1, 0));     // zero block
  EXPECT_TRUE(corrupt(0, 1, 65));    // block above kMaxTreeBlock
}

template <typename ModelT>
void expect_model_roundtrip_preserves_config_and_bits(
    ModelT& model, const data::FeatureMatrix& x) {
  serialize::Writer w;
  model.save(w);
  serialize::Reader r(w.bytes());
  const auto loaded = ModelT::load(r);
  EXPECT_EQ(loaded->kernel_config(), model.kernel_config());
  EXPECT_EQ(loaded->predict(x), model.predict(x));
}

TEST(ModelRoundtrip, KernelConfigTravelsWithEveryModelFamily) {
  common::Rng rng(12);
  const KernelConfig forced{DotVariant::Unrolled, TreeVariant::Blocked, 24};
  const data::DenseMatrix xtr = dense_matrix(300, 10, rng);
  const auto y = labels(xtr, rng);
  const data::FeatureMatrix x(dense_matrix(50, 10, rng));

  models::GbdtConfig gcfg;
  gcfg.n_trees = 8;
  gcfg.max_depth = 3;
  gcfg.permutation_rows = 0;
  models::Gbdt gbdt(gcfg);
  gbdt.fit(data::FeatureMatrix(xtr), y);
  gbdt.set_kernel_config(forced);
  expect_model_roundtrip_preserves_config_and_bits(gbdt, x);

  models::LogisticRegression lr;
  lr.fit(data::FeatureMatrix(xtr), y);
  lr.set_kernel_config(forced);
  expect_model_roundtrip_preserves_config_and_bits(lr, x);

  models::MlpConfig mcfg;
  mcfg.epochs = 1;
  models::Mlp mlp(mcfg);
  mlp.fit(data::FeatureMatrix(xtr), y);
  mlp.set_kernel_config(forced);
  expect_model_roundtrip_preserves_config_and_bits(mlp, x);
}

// ---------------------------------------------------------------------------
// Kernel selection in the optimizer.
// ---------------------------------------------------------------------------

workloads::Workload tiny_synthetic() {
  workloads::SyntheticParallelConfig cfg;
  cfg.sizes = {.train = 250, .valid = 100, .test = 100};
  cfg.n_generators = 2;
  cfg.tfidf_features = 500;
  return workloads::make_synthetic_parallel(cfg);
}

TEST(KernelSelection, DefaultOptimizeServesNativeConfigAndRoundTrips) {
  const auto wl = tiny_synthetic();
  core::OptimizeOptions opts;
  opts.cascades = true;
  const auto pipeline =
      core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
  ASSERT_NE(pipeline.cascade().small_model, nullptr);
  EXPECT_EQ(pipeline.full_model().kernel_config(), kernels::native_config());
  EXPECT_EQ(pipeline.cascade().small_model->kernel_config(),
            kernels::native_config());

  const auto loaded =
      serialize::pipeline_from_bytes(serialize::pipeline_to_bytes(pipeline));
  EXPECT_EQ(loaded.full_model().kernel_config(), kernels::native_config());
  EXPECT_EQ(loaded.cascade().small_model->kernel_config(),
            kernels::native_config());
  EXPECT_EQ(loaded.predict(wl.test.inputs), pipeline.predict(wl.test.inputs));
}

TEST(KernelSelection, ForcedKernelConfigWinsEverywhere) {
  const auto wl = tiny_synthetic();
  core::OptimizeOptions opts;
  opts.cascades = true;
  opts.kernel_config = reference_config();
  const auto pipeline =
      core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
  ASSERT_NE(pipeline.cascade().small_model, nullptr);
  EXPECT_EQ(pipeline.full_model().kernel_config(), reference_config());
  EXPECT_EQ(pipeline.cascade().small_model->kernel_config(),
            reference_config());
}

TEST(KernelSelection, UnpinnedSetUpsServeNativeConfigWithIdenticalBits) {
  // Dense features (numeric columns and table lookups) into a linear model:
  // its margins run the dense dot kernels, whose variants differ in their
  // last bits, so a per-set-up kernel pick would show here as a bit change.
  workloads::CreditConfig cfg;
  cfg.sizes = {.train = 600, .valid = 200, .test = 300};
  auto wl = workloads::make_credit(cfg);
  wl.pipeline.model_proto = std::make_shared<models::LinearRegression>();
  const core::OptimizeOptions opts;
  const auto first =
      core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
  const auto second =
      core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
  EXPECT_EQ(first.full_model().kernel_config(), kernels::native_config());
  EXPECT_EQ(second.full_model().kernel_config(), kernels::native_config());
  EXPECT_EQ(first.predict(wl.test.inputs), second.predict(wl.test.inputs));
}

}  // namespace
}  // namespace willump
