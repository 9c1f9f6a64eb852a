#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/matrix.hpp"
#include "data/vector.hpp"

namespace willump::data {
namespace {

TEST(DenseVector, ConcatAppends) {
  DenseVector a({1.0, 2.0});
  const DenseVector b({3.0});
  a.concat(b);
  ASSERT_EQ(a.dim(), 3u);
  EXPECT_DOUBLE_EQ(a[2], 3.0);
}

TEST(SparseVector, AtAndNnz) {
  SparseVector v(10);
  v.push_back(2, 1.5);
  v.push_back(7, -2.0);
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_DOUBLE_EQ(v.at(2), 1.5);
  EXPECT_DOUBLE_EQ(v.at(3), 0.0);
  EXPECT_DOUBLE_EQ(v.at(7), -2.0);
}

TEST(SparseVector, ConcatShiftsIndices) {
  SparseVector a(4);
  a.push_back(1, 1.0);
  SparseVector b(3);
  b.push_back(0, 2.0);
  a.concat(b);
  EXPECT_EQ(a.dim(), 7);
  EXPECT_DOUBLE_EQ(a.at(4), 2.0);
}

TEST(SparseVector, L2NormAndScale) {
  SparseVector v(5);
  v.push_back(0, 3.0);
  v.push_back(4, 4.0);
  EXPECT_DOUBLE_EQ(v.l2_norm(), 5.0);
  v.scale(0.5);
  EXPECT_DOUBLE_EQ(v.at(0), 1.5);
}

TEST(Dot, SparseDense) {
  SparseVector x(4);
  x.push_back(1, 2.0);
  x.push_back(3, -1.0);
  const std::vector<double> w{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(dot(x, w), 2.0 * 20.0 - 40.0);
}

TEST(DenseMatrix, FromRowsAndAccess) {
  const auto m = DenseMatrix::from_rows(
      {DenseVector({1.0, 2.0}), DenseVector({3.0, 4.0})});
  ASSERT_EQ(m.rows(), 2u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.column(1)[0], 2.0);
}

TEST(DenseMatrix, FromRowsRejectsRagged) {
  EXPECT_THROW(DenseMatrix::from_rows(
                   {DenseVector({1.0}), DenseVector({1.0, 2.0})}),
               std::invalid_argument);
}

TEST(DenseMatrix, SelectRows) {
  const auto m = DenseMatrix::from_rows(
      {DenseVector({1.0}), DenseVector({2.0}), DenseVector({3.0})});
  const std::vector<std::size_t> idx{2, 0};
  const auto s = m.select_rows(idx);
  ASSERT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 1.0);
}

TEST(DenseMatrix, HconcatMismatchThrows) {
  DenseMatrix a(2, 1), b(3, 1);
  EXPECT_THROW(DenseMatrix::hconcat(a, b), std::invalid_argument);
}

TEST(CsrMatrix, AppendAndRowView) {
  CsrMatrix m(5);
  SparseVector r0(5);
  r0.push_back(1, 1.0);
  m.append_row(r0);
  m.append_row(SparseVector(5));  // empty row
  ASSERT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.row(0).nnz(), 1u);
  EXPECT_EQ(m.row(1).nnz(), 0u);
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(CsrMatrix, ToDenseRoundTrip) {
  CsrMatrix m(3);
  SparseVector r(3);
  r.push_back(0, 1.0);
  r.push_back(2, 2.0);
  m.append_row(r);
  const auto d = m.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 2.0);
}

TEST(CsrMatrix, HconcatShiftsColumns) {
  CsrMatrix a(2), b(3);
  SparseVector ra(2);
  ra.push_back(1, 1.0);
  a.append_row(ra);
  SparseVector rb(3);
  rb.push_back(0, 2.0);
  b.append_row(rb);
  const auto c = CsrMatrix::hconcat(a, b);
  EXPECT_EQ(c.cols(), 5);
  EXPECT_DOUBLE_EQ(c.row_vector(0).at(1), 1.0);
  EXPECT_DOUBLE_EQ(c.row_vector(0).at(2), 2.0);
}

TEST(CsrMatrix, SelectRows) {
  CsrMatrix m(2);
  for (int i = 0; i < 3; ++i) {
    SparseVector r(2);
    r.push_back(0, static_cast<double>(i));
    m.append_row(r);
  }
  const std::vector<std::size_t> idx{2, 1};
  const auto s = m.select_rows(idx);
  EXPECT_DOUBLE_EQ(s.row_vector(0).at(0), 2.0);
  EXPECT_DOUBLE_EQ(s.row_vector(1).at(0), 1.0);
}

TEST(FeatureMatrix, MixedHconcatPromotesToSparse) {
  DenseMatrix d(1, 2);
  d(0, 0) = 1.0;
  d(0, 1) = 0.0;
  CsrMatrix s(2);
  SparseVector r(2);
  r.push_back(1, 3.0);
  s.append_row(r);
  const auto fm = FeatureMatrix::hconcat(FeatureMatrix(d), FeatureMatrix(s));
  EXPECT_TRUE(fm.is_sparse());
  EXPECT_EQ(fm.cols(), 4u);
  EXPECT_DOUBLE_EQ(fm.sparse().row_vector(0).at(0), 1.0);
  EXPECT_DOUBLE_EQ(fm.sparse().row_vector(0).at(3), 3.0);
}

TEST(FeatureMatrix, HconcatAllEmptyListIsEmpty) {
  const auto fm = FeatureMatrix::hconcat_all({});
  EXPECT_EQ(fm.rows(), 0u);
  EXPECT_EQ(fm.cols(), 0u);
}

/// hconcat_all over every block of `blocks`.
FeatureMatrix hconcat_all_of(const std::vector<FeatureMatrix>& blocks) {
  std::vector<const FeatureMatrix*> ptrs;
  for (const auto& b : blocks) ptrs.push_back(&b);
  return FeatureMatrix::hconcat_all(ptrs);
}

/// Test-local reference: the left fold of pairwise hconcat that
/// hconcat_all's one-pass concat must reproduce bit for bit.
FeatureMatrix pairwise_fold(const std::vector<FeatureMatrix>& blocks) {
  FeatureMatrix out;
  for (const auto& b : blocks) out = FeatureMatrix::hconcat(out, b);
  return out;
}

/// Same representation, shape, structure and value bits.
void expect_same_bits(const FeatureMatrix& got, const FeatureMatrix& want,
                      const std::string& what) {
  ASSERT_EQ(got.is_sparse(), want.is_sparse()) << what;
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  auto bits = [](std::span<const double> v) {
    std::vector<std::uint64_t> out;
    for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };
  if (want.is_dense()) {
    EXPECT_EQ(bits(got.dense().data()), bits(want.dense().data())) << what;
    return;
  }
  const auto& g = got.sparse();
  const auto& w = want.sparse();
  EXPECT_EQ(std::vector<std::size_t>(g.indptr().begin(), g.indptr().end()),
            std::vector<std::size_t>(w.indptr().begin(), w.indptr().end()))
      << what;
  EXPECT_EQ(std::vector<std::int32_t>(g.indices().begin(), g.indices().end()),
            std::vector<std::int32_t>(w.indices().begin(), w.indices().end()))
      << what;
  EXPECT_EQ(bits(g.values()), bits(w.values())) << what;
}

TEST(FeatureMatrix, HconcatAllMatchesPairwiseFold) {
  // `seed` varies the values; every third dense cell is zero, and -0.0
  // shows up too, so zero-dropping on promotion to CSR is exercised.
  auto dense = [](std::size_t rows, std::size_t cols, double seed) {
    DenseMatrix d(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t k = r * cols + c;
        d(r, c) = k % 3 == 0 ? (k % 2 == 0 ? 0.0 : -0.0)
                             : seed + 0.25 * static_cast<double>(k);
      }
    }
    return FeatureMatrix(std::move(d));
  };
  auto sparse = [](std::size_t rows, std::int32_t cols, double seed) {
    CsrMatrix m(cols);
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<SparseEntry> row;
      // Empty rows, explicit zeros and full rows all appear.
      for (std::int32_t c = static_cast<std::int32_t>(r % 3); c < cols;
           c += 2) {
        row.push_back({c, c == 1 ? 0.0 : seed - static_cast<double>(c)});
      }
      m.append_row(row);
    }
    return FeatureMatrix(std::move(m));
  };
  const FeatureMatrix empty_dense;
  const FeatureMatrix empty_sparse{CsrMatrix()};
  const FeatureMatrix all_zero{DenseMatrix(4, 3)};

  const std::vector<std::pair<std::string, std::vector<FeatureMatrix>>> cases{
      {"dense only", {dense(4, 2, 1.0), dense(4, 3, 2.0), dense(4, 1, 3.0)}},
      {"sparse only", {sparse(4, 5, 1.0), sparse(4, 3, 2.0)}},
      {"mixed", {dense(4, 2, 1.0), sparse(4, 5, 2.0), dense(4, 3, 3.0),
                 sparse(4, 2, 4.0)}},
      {"single dense", {dense(4, 3, 1.0)}},
      {"single sparse", {sparse(4, 6, 1.0)}},
      {"interleaved 0x0", {empty_dense, dense(4, 2, 1.0), empty_sparse,
                           sparse(4, 3, 2.0), empty_dense, dense(4, 1, 3.0),
                           empty_sparse}},
      {"0x0 sparse then dense", {empty_sparse, dense(4, 2, 1.0)}},
      {"only 0x0", {empty_sparse, empty_dense, empty_sparse}},
      {"zero-row dense first", {dense(0, 5, 1.0), dense(4, 2, 2.0)}},
      {"zero-row dense between", {dense(4, 2, 1.0), dense(0, 5, 2.0),
                                  dense(4, 3, 3.0)}},
      {"zero-row sparse promotes", {dense(4, 2, 1.0), sparse(0, 5, 2.0),
                                    dense(4, 3, 3.0)}},
      {"zero-row sparse first", {sparse(0, 5, 1.0), dense(4, 2, 2.0)}},
      {"zero-row only", {dense(0, 5, 1.0), sparse(0, 3, 2.0),
                         dense(0, 2, 3.0)}},
      {"all-zero dense rows", {all_zero, sparse(4, 3, 1.0), all_zero}},
      {"all-zero dense only", {all_zero, all_zero}},
  };
  for (const auto& [what, blocks] : cases) {
    expect_same_bits(hconcat_all_of(blocks), pairwise_fold(blocks), what);
  }

  const std::vector<FeatureMatrix> mismatched_dense{dense(4, 2, 1.0),
                                                    dense(3, 2, 2.0)};
  EXPECT_THROW(hconcat_all_of(mismatched_dense),
               std::invalid_argument);
  const std::vector<FeatureMatrix> mismatched_mixed{
      sparse(4, 2, 1.0), empty_dense, dense(5, 2, 2.0)};
  EXPECT_THROW(hconcat_all_of(mismatched_mixed),
               std::invalid_argument);
}

TEST(FeatureMatrix, DenseToCsrSkipsZeros) {
  DenseMatrix d(1, 3);
  d(0, 1) = 5.0;
  const auto csr = FeatureMatrix(d).to_csr();
  EXPECT_EQ(csr.nnz(), 1u);
  EXPECT_DOUBLE_EQ(csr.row_vector(0).at(1), 5.0);
}

}  // namespace
}  // namespace willump::data
