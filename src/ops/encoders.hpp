#pragma once

#include <cstdint>
#include <vector>

#include "ops/block_kernels.hpp"
#include "ops/operator.hpp"

namespace willump::ops {

/// Hashed one-hot encoding of an integer key column into `n_buckets` sparse
/// indicator features (the "feature encoding" operator family of the Price
/// benchmark, Table 1).
class OneHotHashOp final : public Operator, public SparseBlockEmitter {
 public:
  OneHotHashOp(std::int32_t n_buckets, std::uint64_t salt = 0,
               std::string label = "one_hot_hash")
      : n_buckets_(n_buckets), salt_(salt), label_(std::move(label)) {}

  std::string name() const override { return label_; }
  data::Value eval_batch(std::span<const data::Value> inputs) const override;
  void emit_into(std::span<const data::Value> inputs,
                 const BlockExecContext& ctx,
                 data::CsrMatrix& out) const override;
  std::string_view serial_tag() const override { return "one_hot_hash"; }
  void save(serialize::Writer& w) const override;

  std::int32_t bucket_of(std::int64_t key) const;

 private:
  std::int32_t n_buckets_;
  std::uint64_t salt_;
  std::string label_;
};

/// Pass-through assembly of one or more numeric (int/double) columns into a
/// dense feature block, one column per feature.
class NumericColumnsOp final : public Operator, public DenseBlockWriter {
 public:
  explicit NumericColumnsOp(std::string label = "numeric_columns")
      : label_(std::move(label)) {}

  std::string name() const override { return label_; }
  data::Value eval_batch(std::span<const data::Value> inputs) const override;
  void write_block(std::span<const data::Value> inputs,
                   const BlockExecContext& ctx, double* dst, std::size_t rows,
                   std::size_t stride) const override;
  std::string_view serial_tag() const override { return "numeric_columns"; }
  void save(serialize::Writer& w) const override;

 private:
  std::string label_;
};

/// Map a double column through fixed ascending bucket boundaries to the
/// bucket index (as a double column), e.g. hour-of-day binning in Tracking.
class BucketizeOp final : public Operator {
 public:
  explicit BucketizeOp(std::vector<double> boundaries)
      : boundaries_(std::move(boundaries)) {}

  std::string name() const override { return "bucketize"; }
  data::Value eval_batch(std::span<const data::Value> inputs) const override;
  std::string_view serial_tag() const override { return "bucketize"; }
  void save(serialize::Writer& w) const override;

 private:
  std::vector<double> boundaries_;
};

/// Element-wise arithmetic over numeric columns producing a double column.
/// Unary kinds take one input; binary kinds take two.
class ColumnMathOp final : public Operator {
 public:
  enum class Kind { Add, Sub, Mul, Div, Log1p };

  explicit ColumnMathOp(Kind kind) : kind_(kind) {}

  std::string name() const override;
  data::Value eval_batch(std::span<const data::Value> inputs) const override;
  std::string_view serial_tag() const override { return "column_math"; }
  void save(serialize::Writer& w) const override;

 private:
  Kind kind_;
};

}  // namespace willump::ops
