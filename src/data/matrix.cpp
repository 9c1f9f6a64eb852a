#include "data/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace willump::data {

DenseMatrix DenseMatrix::from_rows(const std::vector<DenseVector>& rows) {
  if (rows.empty()) return {};
  DenseMatrix m(rows.size(), rows[0].dim());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].dim() != m.cols_) {
      throw std::invalid_argument("DenseMatrix::from_rows: ragged rows");
    }
    auto dst = m.mutable_row(r);
    auto src = rows[r].values();
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return m;
}

std::vector<double> DenseMatrix::column(std::size_t c) const {
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

DenseMatrix DenseMatrix::select_rows(std::span<const std::size_t> idx) const {
  DenseMatrix out(idx.size(), cols_);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    auto src = row(idx[i]);
    auto dst = out.mutable_row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return out;
}

DenseMatrix DenseMatrix::hconcat(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() == 0) return b;
  if (b.rows() == 0) return a;
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("DenseMatrix::hconcat: row count mismatch");
  }
  DenseMatrix out(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    auto dst = out.mutable_row(r);
    auto ra = a.row(r);
    auto rb = b.row(r);
    std::copy(ra.begin(), ra.end(), dst.begin());
    std::copy(rb.begin(), rb.end(), dst.begin() + static_cast<std::ptrdiff_t>(a.cols()));
  }
  return out;
}

CsrMatrix CsrMatrix::from_rows(std::int32_t cols, const std::vector<SparseVector>& rows) {
  CsrMatrix m(cols);
  for (const auto& r : rows) m.append_row(r);
  return m;
}

void CsrMatrix::append_row(std::span<const SparseEntry> entries) {
  // Grow both strips once per row (resize keeps vector's geometric
  // growth), then fill through raw pointers: no per-entry push_back.
  const std::size_t base = indices_.size();
  const std::size_t n = entries.size();
  indices_.resize(base + n);
  values_.resize(base + n);
  std::int32_t* const idx = indices_.data() + base;
  double* const val = values_.data() + base;
  for (std::size_t k = 0; k < n; ++k) {
    idx[k] = entries[k].index;
    val[k] = entries[k].value;
  }
  indptr_.push_back(base + n);
}

CsrMatrix::RowView CsrMatrix::row(std::size_t r) const {
  const std::size_t lo = indptr_[r];
  const std::size_t hi = indptr_[r + 1];
  return {std::span<const std::int32_t>(indices_.data() + lo, hi - lo),
          std::span<const double>(values_.data() + lo, hi - lo)};
}

SparseVector CsrMatrix::row_vector(std::size_t r) const {
  SparseVector v(cols_);
  auto rv = row(r);
  for (std::size_t i = 0; i < rv.nnz(); ++i) v.push_back(rv.indices[i], rv.values[i]);
  return v;
}

CsrMatrix CsrMatrix::select_rows(std::span<const std::size_t> idx) const {
  CsrMatrix out(cols_);
  for (std::size_t i : idx) {
    auto rv = row(i);
    for (std::size_t k = 0; k < rv.nnz(); ++k) {
      out.indices_.push_back(rv.indices[k]);
      out.values_.push_back(rv.values[k]);
    }
    out.indptr_.push_back(out.indices_.size());
  }
  return out;
}

CsrMatrix CsrMatrix::hconcat(const CsrMatrix& a, const CsrMatrix& b) {
  if (a.rows() == 0) return b;
  if (b.rows() == 0) return a;
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("CsrMatrix::hconcat: row count mismatch");
  }
  CsrMatrix out(a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    auto ra = a.row(r);
    for (std::size_t k = 0; k < ra.nnz(); ++k) {
      out.indices_.push_back(ra.indices[k]);
      out.values_.push_back(ra.values[k]);
    }
    auto rb = b.row(r);
    for (std::size_t k = 0; k < rb.nnz(); ++k) {
      out.indices_.push_back(rb.indices[k] + a.cols());
      out.values_.push_back(rb.values[k]);
    }
    out.indptr_.push_back(out.indices_.size());
  }
  return out;
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix out(rows(), static_cast<std::size_t>(cols_));
  for (std::size_t r = 0; r < rows(); ++r) {
    auto rv = row(r);
    for (std::size_t k = 0; k < rv.nnz(); ++k) {
      out(r, static_cast<std::size_t>(rv.indices[k])) = rv.values[k];
    }
  }
  return out;
}

std::size_t FeatureMatrix::rows() const {
  return is_dense() ? dense().rows() : sparse().rows();
}

std::size_t FeatureMatrix::cols() const {
  return is_dense() ? dense().cols() : static_cast<std::size_t>(sparse().cols());
}

FeatureMatrix FeatureMatrix::select_rows(std::span<const std::size_t> idx) const {
  if (is_dense()) return FeatureMatrix(dense().select_rows(idx));
  return FeatureMatrix(sparse().select_rows(idx));
}

CsrMatrix FeatureMatrix::to_csr() const {
  if (is_sparse()) return sparse();
  const auto& d = dense();
  CsrMatrix out(static_cast<std::int32_t>(d.cols()));
  std::vector<SparseEntry> entries;
  for (std::size_t r = 0; r < d.rows(); ++r) {
    entries.clear();
    auto rv = d.row(r);
    for (std::size_t c = 0; c < rv.size(); ++c) {
      if (rv[c] != 0.0) {
        entries.push_back({static_cast<std::int32_t>(c), rv[c]});
      }
    }
    out.append_row(entries);
  }
  return out;
}

FeatureMatrix FeatureMatrix::hconcat(const FeatureMatrix& a, const FeatureMatrix& b) {
  if (a.rows() == 0 && a.cols() == 0) return b;
  if (b.rows() == 0 && b.cols() == 0) return a;
  if (a.is_dense() && b.is_dense()) {
    return FeatureMatrix(DenseMatrix::hconcat(a.dense(), b.dense()));
  }
  return FeatureMatrix(CsrMatrix::hconcat(a.to_csr(), b.to_csr()));
}

namespace {

/// Rows per chunk of the dense k-way concat.
constexpr std::size_t kDenseConcatChunkRows = 256;

/// Dense k-way concat over `rows`-row blocks (zero-row blocks are
/// skipped): copy every block's rows into its column slice of one
/// preallocated matrix, row-chunk-major so the destination chunk stays
/// cache-resident across the k sources. One copy per element vs the
/// pairwise fold's O(k) copies. `out` is rebuilt in place.
void fused_dense_concat(std::span<const FeatureMatrix* const> blocks,
                        std::size_t rows, std::size_t total_cols,
                        DenseMatrix& out) {
  out.reshape(rows, total_cols);
  double* dst = out.mutable_data().data();
  for (std::size_t r0 = 0; r0 < rows; r0 += kDenseConcatChunkRows) {
    const std::size_t r1 = std::min(rows, r0 + kDenseConcatChunkRows);
    std::size_t col_off = 0;
    for (const auto* b : blocks) {
      if (b->rows() == 0) continue;
      const auto& d = b->dense();
      for (std::size_t r = r0; r < r1; ++r) {
        auto src = d.row(r);
        std::copy(src.begin(), src.end(), dst + r * total_cols + col_off);
      }
      col_off += d.cols();
    }
  }
}

/// Sparse k-way concat over `rows`-row blocks (zero-row blocks are
/// skipped): stream every block's row entries (with column
/// offsets; dense blocks drop zeros, exactly as FeatureMatrix::to_csr does
/// inside the pairwise fold) into one output CSR — a single pass instead of
/// k-1 intermediate matrices. `out` is rebuilt in place.
void fused_sparse_concat(std::span<const FeatureMatrix* const> blocks,
                         std::size_t rows, std::size_t total_cols,
                         CsrMatrix& out) {
  std::size_t nnz_guess = 0;
  for (const auto* b : blocks) {
    nnz_guess += b->is_sparse() ? b->sparse().nnz() : b->rows();
  }
  out.reset(static_cast<std::int32_t>(total_cols));
  out.reserve(rows, nnz_guess);
  // Per-thread row buffer: keeps its capacity across calls, so a steady
  // stream of small batches does not regrow it entry by entry.
  thread_local std::vector<SparseEntry> row;
  for (std::size_t r = 0; r < rows; ++r) {
    row.clear();
    std::int32_t col_off = 0;
    for (const auto* b : blocks) {
      if (b->rows() == 0) continue;
      if (b->is_sparse()) {
        const auto rv = b->sparse().row(r);
        for (std::size_t k = 0; k < rv.nnz(); ++k) {
          row.push_back({rv.indices[k] + col_off, rv.values[k]});
        }
        col_off += b->sparse().cols();
      } else {
        const auto rv = b->dense().row(r);
        for (std::size_t c = 0; c < rv.size(); ++c) {
          if (rv[c] != 0.0) {
            row.push_back({col_off + static_cast<std::int32_t>(c), rv[c]});
          }
        }
        col_off += static_cast<std::int32_t>(rv.size());
      }
    }
    out.append_row(row);
  }
}

}  // namespace

FeatureMatrix FeatureMatrix::hconcat_all(
    std::span<const FeatureMatrix* const> blocks) {
  FeatureMatrix out;
  hconcat_all_into(blocks, out);
  return out;
}

void FeatureMatrix::hconcat_all_into(
    std::span<const FeatureMatrix* const> blocks, FeatureMatrix& out) {
  // Replay the pairwise fold on shapes alone. The accumulator starts 0x0;
  // a 0x0 accumulator becomes the next block (type included), a 0x0 block
  // is skipped, a zero-row accumulator is replaced by the next block and a
  // zero-row block is dropped; any sparse operand after the first makes
  // the result CSR. So the result is blocks[first] plus every later block
  // with rows, all of `rows` rows: the concat kernels skip zero-row blocks.
  if (blocks.empty()) {
    out = FeatureMatrix();
    return;
  }
  bool sparse = false;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t first = 0;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const FeatureMatrix& b = *blocks[k];
    if (rows == 0 && cols == 0) {
      sparse = b.is_sparse();
      rows = b.rows();
      cols = b.cols();
      first = k;
      continue;
    }
    if (b.rows() == 0 && b.cols() == 0) continue;
    sparse = sparse || b.is_sparse();
    if (rows == 0) {
      rows = b.rows();
      cols = b.cols();
      first = k;
    } else if (b.rows() != 0) {
      if (b.rows() != rows) {
        throw std::invalid_argument(
            "FeatureMatrix::hconcat_all: row count mismatch");
      }
      cols += b.cols();
    }
  }
  const auto parts = blocks.subspan(first);
  if (sparse) {
    fused_sparse_concat(parts, rows, cols, out.ensure_sparse());
  } else {
    fused_dense_concat(parts, rows, cols, out.ensure_dense());
  }
}

}  // namespace willump::data
