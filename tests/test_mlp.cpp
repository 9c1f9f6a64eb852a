#include "models/mlp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "kernels/sparse_mlp.hpp"
#include "models/metrics.hpp"
#include "serialize/buffer.hpp"
#include "serialize/error.hpp"

namespace willump::models {
namespace {

TEST(Mlp, FitsNonlinearRegression) {
  common::Rng rng(1);
  const std::size_t n = 1500;
  data::DenseMatrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.next_double() * 2.0 - 1.0;
    x(i, 1) = rng.next_double() * 2.0 - 1.0;
    y[i] = std::abs(x(i, 0)) + 0.5 * x(i, 1);
  }
  MlpConfig cfg;
  cfg.hidden = 24;
  cfg.epochs = 30;
  Mlp m(cfg);
  m.fit(data::FeatureMatrix(x), y);
  EXPECT_GT(r2(m.predict(data::FeatureMatrix(x)), y), 0.85);
}

TEST(Mlp, SparseInputLearns) {
  common::Rng rng(2);
  const std::size_t n = 1200;
  const std::int32_t dim = 50;
  data::CsrMatrix x(dim);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    data::SparseVector row(dim);
    const auto a = static_cast<std::int32_t>(rng.next_below(25));
    const auto b = static_cast<std::int32_t>(25 + rng.next_below(25));
    row.push_back(a, 1.0);
    row.push_back(b, 1.0);
    x.append_row(row);
    y[i] = (a < 12 ? 1.0 : -1.0) + (b < 37 ? 0.5 : -0.5);
  }
  MlpConfig cfg;
  cfg.epochs = 20;
  Mlp m(cfg);
  m.fit(data::FeatureMatrix(x), y);
  EXPECT_GT(r2(m.predict(data::FeatureMatrix(x)), y), 0.8);
}

TEST(Mlp, ClassificationOutputsProbabilities) {
  common::Rng rng(3);
  const std::size_t n = 600;
  data::DenseMatrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.next_gaussian();
    x(i, 1) = rng.next_gaussian();
    y[i] = x(i, 0) + x(i, 1) > 0.0 ? 1.0 : 0.0;
  }
  MlpConfig cfg;
  cfg.classification = true;
  cfg.epochs = 15;
  Mlp m(cfg);
  m.fit(data::FeatureMatrix(x), y);
  const auto p = m.predict(data::FeatureMatrix(x));
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_GT(accuracy(p, y), 0.9);
}

TEST(Mlp, NoNativeImportances) {
  Mlp m;
  EXPECT_TRUE(m.feature_importances().empty());
}

TEST(Mlp, DeterministicTraining) {
  common::Rng rng(4);
  const std::size_t n = 300;
  data::DenseMatrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = rng.next_gaussian();
    y[i] = x(i, 0);
  }
  Mlp a, b;
  a.fit(data::FeatureMatrix(x), y);
  b.fit(data::FeatureMatrix(x), y);
  const auto pa = a.predict(data::FeatureMatrix(x));
  const auto pb = b.predict(data::FeatureMatrix(x));
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa[i], pb[i]);
  }
}

TEST(Mlp, CloneUntrainedSameFamily) {
  MlpConfig cfg;
  cfg.classification = true;
  Mlp m(cfg);
  auto c = m.clone_untrained();
  EXPECT_EQ(c->name(), "mlp");
  EXPECT_TRUE(c->is_classifier());
}

// ---------------------------------------------------------------------------
// CSR prediction vs a test-local oracle. The oracle shares no code with Mlp
// or its kernel: it reads the weights back out of save()'s bytes and runs
// the per-unit gather over the row-major first layer, every product stored
// through a volatile so no build can fuse it into an FMA.
// ---------------------------------------------------------------------------

struct OracleWeights {
  std::size_t hidden = 0;
  std::size_t in_dim = 0;
  bool classification = false;
  std::vector<double> w1;  // hidden x in, row-major
  std::vector<double> b1, w2;
  double b2 = 0.0;
};

/// Parses Mlp's payload in save()'s field order.
OracleWeights weights_of(const Mlp& m) {
  serialize::Writer w;
  m.save(w);
  serialize::Reader r(w.bytes());
  OracleWeights o;
  o.hidden = static_cast<std::size_t>(r.i32());
  r.i32();  // epochs
  r.f64();  // learning_rate
  r.f64();  // l2
  o.classification = r.u8() != 0;
  r.u64();  // seed
  o.in_dim = static_cast<std::size_t>(r.u64());
  o.w1 = r.doubles();
  o.b1 = r.doubles();
  o.w2 = r.doubles();
  o.b2 = r.f64();
  return o;
}

/// Pre-activation output z of CSR row r: each hidden unit from b1 plus the
/// row's nonzeros in stored order, then ReLU (NaN and -0 become +0), then
/// z from b2 over ascending units.
double oracle_z(const OracleWeights& o, const data::CsrMatrix& x,
                std::size_t r) {
  const auto row = x.row(r);
  double z = o.b2;
  for (std::size_t j = 0; j < o.hidden; ++j) {
    double acc = o.b1[j];
    for (std::size_t k = 0; k < row.nnz(); ++k) {
      const auto i = static_cast<std::size_t>(row.indices[k]);
      volatile double p = o.w1[j * o.in_dim + i] * row.values[k];
      acc += p;
    }
    const double h = acc > 0.0 ? acc : 0.0;
    volatile double q = o.w2[j] * h;
    z += q;
  }
  return z;
}

double oracle_predict(const OracleWeights& o, const data::CsrMatrix& x,
                      std::size_t r) {
  const double z = oracle_z(o, x, r);
  return o.classification ? 1.0 / (1.0 + std::exp(-z)) : z;
}

constexpr std::int32_t kOracleDim = 40;

/// Training rows: two active columns, as in SparseInputLearns.
data::CsrMatrix oracle_train_rows(common::Rng& rng, std::vector<double>& y) {
  data::CsrMatrix x(kOracleDim);
  for (std::size_t i = 0; i < 300; ++i) {
    data::SparseVector row(kOracleDim);
    const auto a = static_cast<std::int32_t>(rng.next_below(20));
    const auto b = static_cast<std::int32_t>(20 + rng.next_below(20));
    row.push_back(a, 1.0);
    row.push_back(b, rng.next_gaussian());
    x.append_row(row);
    y.push_back(a < 10 ? 1.0 : 0.0);
  }
  return x;
}

/// Rows with nothing, negative, ±0, NaN, large and dense values.
data::CsrMatrix oracle_probe_rows(common::Rng& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  data::CsrMatrix x(kOracleDim);
  x.append_row(data::SparseVector(kOracleDim));  // no nonzeros
  x.append_row(data::SparseVector(kOracleDim, {{3, -1.5}, {17, -0.25}}));
  x.append_row(data::SparseVector(kOracleDim, {{0, 0.0}, {5, -0.0}}));
  x.append_row(data::SparseVector(kOracleDim, {{1, -0.0}, {39, 2.0}}));
  x.append_row(data::SparseVector(kOracleDim, {{2, nan}, {30, 1.0}}));
  x.append_row(data::SparseVector(kOracleDim, {{4, 1e300}, {6, -1e300}}));
  x.append_row(data::SparseVector(kOracleDim));  // again, between others
  for (int n = 0; n < 12; ++n) {
    data::SparseVector row(kOracleDim);
    for (std::int32_t c = 0; c < kOracleDim; ++c) {
      if (n % 3 == 0 || rng.next_below(4) == 0) {
        row.push_back(c, rng.next_gaussian() * (n % 2 == 0 ? 1.0 : -3.0));
      }
    }
    x.append_row(row);
  }
  return x;
}

void expect_bits_eq(double got, double want, const char* what,
                    std::size_t hidden, std::size_t r) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << what << " hidden=" << hidden << " row=" << r << ": " << got
      << " vs " << want;
}

void expect_matches_oracle(const Mlp& m, const data::CsrMatrix& x,
                           const char* what) {
  const OracleWeights o = weights_of(m);
  const auto got = m.predict(data::FeatureMatrix(x));
  ASSERT_EQ(got.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    expect_bits_eq(got[r], oracle_predict(o, x, r), what, o.hidden, r);
  }
}

TEST(SparseMlpOracle, CsrPredictMatchesPerUnitGatherBitExact) {
  for (int hidden : {1, 7, 8, 13, 64}) {
    for (bool classification : {false, true}) {
      common::Rng rng(static_cast<std::uint64_t>(100 + hidden));
      std::vector<double> y;
      const data::CsrMatrix xtr = oracle_train_rows(rng, y);
      MlpConfig cfg;
      cfg.hidden = hidden;
      cfg.epochs = 2;
      cfg.classification = classification;
      Mlp m(cfg);
      m.fit(data::FeatureMatrix(xtr), y);
      const data::CsrMatrix probe = oracle_probe_rows(rng);
      expect_matches_oracle(m, probe, "fitted");
      expect_matches_oracle(m, xtr, "fitted/train");

      serialize::Writer w;
      m.save(w);
      serialize::Reader r(w.bytes());
      const auto loaded = Mlp::load(r);
      expect_matches_oracle(*loaded, probe, "loaded");
    }
  }
}

// Both kernel paths, on hidden sizes that leave a partial vector and span
// more than one 64-unit register tile.
TEST(SparseMlpOracle, EveryKernelPathMatchesPerUnitGatherBitExact) {
  for (std::size_t hidden : {1u, 7u, 8u, 13u, 64u, 65u, 130u}) {
    common::Rng rng(hidden);
    OracleWeights o;
    o.hidden = hidden;
    o.in_dim = static_cast<std::size_t>(kOracleDim);
    o.w1.resize(hidden * o.in_dim);
    for (auto& v : o.w1) v = rng.next_gaussian();
    o.b1.resize(hidden);
    for (auto& v : o.b1) v = rng.next_gaussian() * 0.1;
    o.w2.resize(hidden);
    for (auto& v : o.w2) v = rng.next_gaussian();
    o.b2 = 0.5;
    std::vector<double> w1t(o.w1.size());
    for (std::size_t j = 0; j < hidden; ++j) {
      for (std::size_t i = 0; i < o.in_dim; ++i) {
        w1t[i * hidden + j] = o.w1[j * o.in_dim + i];
      }
    }
    const data::CsrMatrix x = oracle_probe_rows(rng);
    for (auto path : {kernels::SparseMlpPath::Scalar,
                      kernels::SparseMlpPath::Avx512}) {
      std::vector<double> h(hidden), z(x.rows());
      kernels::sparse_mlp_outputs(path, x.indptr().data(), x.indices().data(),
                                  x.values().data(), x.rows(), w1t.data(),
                                  o.b1.data(), o.w2.data(), o.b2, hidden,
                                  h.data(), z.data());
      for (std::size_t r = 0; r < x.rows(); ++r) {
        expect_bits_eq(z[r], oracle_z(o, x, r),
                       path == kernels::SparseMlpPath::Scalar ? "scalar"
                                                              : "avx512",
                       hidden, r);
      }
    }
  }
}

TEST(Mlp, PredictRejectsMismatchedWidth) {
  common::Rng rng(6);
  std::vector<double> y;
  const data::CsrMatrix xtr = oracle_train_rows(rng, y);
  MlpConfig cfg;
  cfg.hidden = 8;
  cfg.epochs = 1;
  Mlp m(cfg);
  m.fit(data::FeatureMatrix(xtr), y);
  for (std::int32_t cols : {kOracleDim - 1, kOracleDim + 1}) {
    data::CsrMatrix x(cols);
    x.append_row(data::SparseVector(cols, {{cols - 1, 1.0}}));
    EXPECT_THROW(m.predict(data::FeatureMatrix(x)), std::invalid_argument);
    EXPECT_THROW(m.predict(data::FeatureMatrix(data::DenseMatrix(
                     1, static_cast<std::size_t>(cols)))),
                 std::invalid_argument);
  }
}

/// An Mlp payload with the given layer sizes (kernel config from a real
/// model, so only the shapes are wrong).
std::vector<std::uint8_t> mlp_payload(std::int32_t hidden,
                                      std::uint64_t in_dim, std::size_t w1,
                                      std::size_t b1, std::size_t w2) {
  serialize::Writer w;
  w.i32(hidden);
  w.i32(1);
  w.f64(1e-2);
  w.f64(1e-6);
  w.u8(0);
  w.u64(5);
  w.u64(in_dim);
  w.doubles(std::vector<double>(w1, 0.5));
  w.doubles(std::vector<double>(b1, 0.0));
  w.doubles(std::vector<double>(w2, 1.0));
  w.f64(0.0);
  kernels::save_kernel_config(w, kernels::native_config());
  return w.take();
}

TEST(Mlp, LoadRejectsInconsistentLayerShapes) {
  // Well-formed control: loads and predicts.
  {
    const auto bytes = mlp_payload(4, 10, 40, 4, 4);
    serialize::Reader r(bytes);
    const auto m = Mlp::load(r);
    data::CsrMatrix x(10);
    x.append_row(data::SparseVector(10, {{9, 1.0}}));
    EXPECT_EQ(m->predict(data::FeatureMatrix(x)).size(), 1u);
  }
  struct Bad {
    std::int32_t hidden;
    std::uint64_t in_dim;
    std::size_t w1, b1, w2;
  };
  // w1 one short / one long, in_dim whose product with hidden wraps, and
  // right w1 with a wrong b1 or w2.
  for (const Bad& b : {Bad{4, 10, 39, 4, 4}, Bad{4, 10, 41, 4, 4},
                       Bad{4, std::uint64_t{1} << 62, 0, 4, 4},
                       Bad{4, 10, 40, 3, 4}, Bad{4, 10, 40, 4, 5}}) {
    const auto bytes = mlp_payload(b.hidden, b.in_dim, b.w1, b.b1, b.w2);
    serialize::Reader r(bytes);
    try {
      Mlp::load(r);
      ADD_FAILURE() << "loaded w1=" << b.w1 << " in_dim=" << b.in_dim;
    } catch (const serialize::SerializeError& e) {
      EXPECT_EQ(e.code(), serialize::ErrorCode::CorruptData) << e.what();
    }
  }
}

}  // namespace
}  // namespace willump::models
