#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "data/vector.hpp"

namespace willump::data {

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), v_(rows * cols, fill) {}

  static DenseMatrix from_rows(const std::vector<DenseVector>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Reshape to rows x cols filled with `fill`, reusing the backing
  /// store's capacity (per-batch scratch matrices shrink/grow for free).
  void reshape(std::size_t rows, std::size_t cols, double fill = 0.0) {
    rows_ = rows;
    cols_ = cols;
    v_.assign(rows * cols, fill);
  }

  /// Reshape to rows x cols for a caller that overwrites every element:
  /// elements already in the backing store keep stale values (no fill
  /// pass on a reused destination), new ones are zero.
  void reshape_for_overwrite(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    v_.resize(rows * cols);
  }

  double operator()(std::size_t r, std::size_t c) const { return v_[r * cols_ + c]; }
  double& operator()(std::size_t r, std::size_t c) { return v_[r * cols_ + c]; }

  std::span<const double> row(std::size_t r) const {
    return std::span<const double>(v_.data() + r * cols_, cols_);
  }
  std::span<double> mutable_row(std::size_t r) {
    return std::span<double>(v_.data() + r * cols_, cols_);
  }

  std::span<const double> data() const { return v_; }

  /// Whole backing store, writable — for block kernels that fill column
  /// slices of a preallocated output matrix in place.
  std::span<double> mutable_data() { return v_; }

  /// Extract a column (copies).
  std::vector<double> column(std::size_t c) const;

  /// Select a subset of rows (gather).
  DenseMatrix select_rows(std::span<const std::size_t> idx) const;

  /// Horizontally concatenate (same row count).
  static DenseMatrix hconcat(const DenseMatrix& a, const DenseMatrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> v_;
};

/// Compressed-sparse-row matrix of doubles.
class CsrMatrix {
 public:
  CsrMatrix() { indptr_.push_back(0); }
  explicit CsrMatrix(std::int32_t cols) : cols_(cols) { indptr_.push_back(0); }

  static CsrMatrix from_rows(std::int32_t cols, const std::vector<SparseVector>& rows);

  std::size_t rows() const { return indptr_.size() - 1; }
  std::int32_t cols() const { return cols_; }
  std::size_t nnz() const { return indices_.size(); }

  /// Append one sparse row; entries must be sorted by index and < cols().
  void append_row(std::span<const SparseEntry> entries);
  void append_row(const SparseVector& row) { append_row(row.entries()); }

  /// Drop all rows but keep the backing arrays' capacity — per-batch
  /// scratch CSR emitters reset instead of reallocating.
  void reset(std::int32_t cols) {
    cols_ = cols;
    indptr_.clear();
    indptr_.push_back(0);
    indices_.clear();
    values_.clear();
  }

  /// Pre-size the backing arrays (batched transforms that know their
  /// row count and can estimate nnz).
  void reserve(std::size_t rows, std::size_t nnz) {
    indptr_.reserve(rows + 1);
    indices_.reserve(nnz);
    values_.reserve(nnz);
  }

  /// Entries of row r as (index, value) pairs.
  struct RowView {
    std::span<const std::int32_t> indices;
    std::span<const double> values;
    std::size_t nnz() const { return indices.size(); }
  };
  RowView row(std::size_t r) const;

  SparseVector row_vector(std::size_t r) const;

  /// Raw CSR arrays (indptr has rows()+1 entries) for batched kernels that
  /// stream all rows without per-row RowView construction.
  std::span<const std::size_t> indptr() const { return indptr_; }
  std::span<const std::int32_t> indices() const { return indices_; }
  std::span<const double> values() const { return values_; }

  /// Writable value strip for elementwise kernels (scaling); the sparsity
  /// pattern stays fixed.
  std::span<double> mutable_values() { return values_; }

  CsrMatrix select_rows(std::span<const std::size_t> idx) const;

  static CsrMatrix hconcat(const CsrMatrix& a, const CsrMatrix& b);

  /// Densify (tests and small matrices only).
  DenseMatrix to_dense() const;

 private:
  std::int32_t cols_ = 0;
  std::vector<std::size_t> indptr_;
  std::vector<std::int32_t> indices_;
  std::vector<double> values_;
};

/// A feature-matrix block that is either dense or sparse.
///
/// Feature generators output one of these per IFV; Willump concatenates
/// blocks from multiple IFVs before handing them to a model. Concatenating
/// mixed dense/sparse blocks promotes the result to sparse.
class FeatureMatrix {
 public:
  FeatureMatrix() : m_(DenseMatrix{}) {}
  FeatureMatrix(DenseMatrix m) : m_(std::move(m)) {}  // NOLINT(implicit)
  FeatureMatrix(CsrMatrix m) : m_(std::move(m)) {}    // NOLINT(implicit)

  bool is_dense() const { return std::holds_alternative<DenseMatrix>(m_); }
  bool is_sparse() const { return !is_dense(); }

  const DenseMatrix& dense() const { return std::get<DenseMatrix>(m_); }
  const CsrMatrix& sparse() const { return std::get<CsrMatrix>(m_); }

  /// Mutable access that switches the alternative only when needed, so a
  /// scratch FeatureMatrix reused across batches keeps its heap capacity.
  DenseMatrix& ensure_dense() {
    if (!is_dense()) m_.emplace<DenseMatrix>();
    return std::get<DenseMatrix>(m_);
  }
  CsrMatrix& ensure_sparse() {
    if (!is_sparse()) m_.emplace<CsrMatrix>();
    return std::get<CsrMatrix>(m_);
  }

  std::size_t rows() const;
  std::size_t cols() const;

  FeatureMatrix select_rows(std::span<const std::size_t> idx) const;

  /// Convert to CSR regardless of representation (copies if dense).
  CsrMatrix to_csr() const;

  /// Horizontally concatenate two blocks (promoting to sparse on mixed input).
  static FeatureMatrix hconcat(const FeatureMatrix& a, const FeatureMatrix& b);

  /// Concatenate many blocks left-to-right in one pass; an empty list
  /// yields an empty matrix. The result is bit-identical to folding
  /// `hconcat` over the list: 0x0 blocks are identities, all-dense input
  /// stays dense, any sparse input gives CSR (dense zeros dropped), and a
  /// row-count mismatch throws std::invalid_argument.
  static FeatureMatrix hconcat_all(
      std::span<const FeatureMatrix* const> blocks);

  /// hconcat_all rebuilt in place into `out`, which keeps its heap capacity
  /// (for persistent destinations) and must not be one of the blocks.
  static void hconcat_all_into(std::span<const FeatureMatrix* const> blocks,
                               FeatureMatrix& out);

 private:
  std::variant<DenseMatrix, CsrMatrix> m_;
};

}  // namespace willump::data
