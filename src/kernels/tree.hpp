#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/dispatch.hpp"

namespace willump::kernels {

/// Deepest tree the vector traversal takes. A forest whose trees are all
/// this shallow keeps a padded perfect-tree copy of itself for it.
inline constexpr std::int32_t kVecTreeDepth = 8;

/// Flattened structure-of-arrays layout of a boosted forest, built once at
/// fit/load time (the LightGBM predictor idiom). All trees' nodes live in
/// four parallel contiguous arrays; children are absolute node ids, leaves
/// keep feature < 0 and store their output in `split`. Traversal kernels
/// walk a block of rows through a tree level together, so the per-node
/// load->compare->load dependency chains of different rows overlap instead
/// of serializing (the pointer-chasing predict_row shape).
class FlatForest {
 public:
  /// Reset to an empty forest with the given base margin.
  void reset(double base);

  /// Append one tree given parallel intra-tree node arrays (node i's
  /// children are intra-tree ids > i, as the trainer builds and the loader
  /// validates; leaves have feature < 0 and their output in `value`).
  void add_tree(std::span<const std::int32_t> feature,
                std::span<const double> threshold,
                std::span<const std::int32_t> left,
                std::span<const std::int32_t> right,
                std::span<const double> value);

  /// Compute the suffix leaf-magnitude bounds the cascade early-exit needs.
  /// Call after the last add_tree.
  void finalize();

  bool empty() const { return roots_.empty(); }
  std::size_t num_trees() const { return roots_.size(); }
  double base() const { return base_; }

  /// out[r] = base + sum of per-tree leaf outputs for row r. `x` is a
  /// row-major block of `rows` rows with `stride` doubles per row. Both
  /// variants accumulate trees in the same order, so RowWise and Blocked
  /// are bit-exact equals.
  void margins(TreeVariant v, std::uint32_t block, const double* x,
               std::size_t rows, std::size_t stride, double* out) const;

  /// margins() over CSR rows without densifying the column space: each row
  /// block is gathered into a forest-column-compacted scratch (one slot per
  /// column any tree references — a few hundred for a TF-IDF-wide input
  /// whose trees pick the discriminative terms) and traversed with the same
  /// branch-free blocked kernel. Absent columns read as 0.0 — exactly what
  /// the densify scratch would have held — and per-row tree order is
  /// unchanged, so outputs are bit-exact with the dense path. Wins when the
  /// full-width scratch (block × cols doubles) is far beyond cache while
  /// the compacted one stays in L1/L2.
  void margins_csr(const std::size_t* indptr, const std::int32_t* indices,
                   const double* values, std::size_t rows, double* out) const;

  /// Early-exit margins for cascade routing: a row whose final margin is
  /// provably inside [-bound, bound] (partial sum + remaining-tree bound)
  /// stops accumulating — it gets hard[r] = 1 and a PARTIAL margin in
  /// out[r] that callers must not use (the cascade overwrites hard rows
  /// with the full model). Rows that finish get their exact margin and
  /// hard[r] = 0; the caller applies its own confidence check to those.
  void cascade_margins(std::uint32_t block, const double* x, std::size_t rows,
                       std::size_t stride, double bound, double* out,
                       std::uint8_t* hard) const;

 private:
  void margins_rowwise(const double* x, std::size_t rows, std::size_t stride,
                       double* out) const;
  void margins_blocked(std::uint32_t block, const double* x, std::size_t rows,
                       std::size_t stride, double* out) const;
  /// margins_blocked body over the dense columns (col_) or, if `compact`,
  /// the compact-gather CSR path's columns (ccol_).
  void margins_blocked_cols(bool compact, std::uint32_t block,
                            const double* x, std::size_t rows,
                            std::size_t stride, double* out) const;

  double base_ = 0.0;
  std::vector<std::int32_t> feature_;  // < 0 => leaf
  std::vector<std::int32_t> col_;      // max(feature, 0): leaf-safe x column
  std::vector<double> split_;          // threshold (internal) or output (leaf)
  std::vector<std::int32_t> left_;     // absolute node ids; leaves self-point
  std::vector<std::int32_t> right_;
  std::vector<std::int32_t> roots_;        // per-tree root node id
  std::vector<std::int32_t> depths_;       // per-tree max depth
  std::vector<double> max_abs_leaf_;       // per-tree max |leaf output|
  std::vector<double> suffix_abs_bound_;   // suffix sums of max_abs_leaf_
  std::vector<std::int32_t> used_cols_;    // sorted unique split features
  std::vector<std::int32_t> ccol_;         // col_ remapped into used_cols_
  // Perfect-tree copy for the vector traversal, empty unless the CPU has
  // AVX-512F and every tree is at most kVecTreeDepth deep. Each tree is
  // padded to the forest's depth D and stored breadth-first in vec_stride_
  // slots of each array: split node p has children 2p+1 (x <= split) and
  // 2p+2, and after D steps a row sits at 2^D - 1 + its leaf slot. A leaf
  // above the bottom level is copied into every slot beneath it (its
  // padding nodes split on column 0), so any route through the padding
  // reaches the same output.
  std::int32_t vec_depth_ = 0;
  std::size_t vec_stride_ = 0;          // max(2^D, 16)
  std::vector<double> vec_split_;
  std::vector<std::int64_t> vec_col_;   // dense column
  std::vector<std::int64_t> vec_ccol_;  // column in the compact CSR scratch
  std::vector<double> vec_leaf_;
};

}  // namespace willump::kernels
