#pragma once

#include <span>

#include "common/arena.hpp"
#include "data/matrix.hpp"
#include "data/value.hpp"

namespace willump::ops {

/// Per-call state threaded through the blocked execution path. `arena` is
/// the compute entry's bump allocator (its ExecScratch's): ops may stage
/// trivially-destructible scratch (bucket arrays, densify buffers) there
/// instead of the heap; the executor resets it between entries.
struct BlockExecContext {
  common::Arena& arena;
};

/// Mixin for ops whose output is a dense block of known width: the executor
/// preallocates the downstream model's whole input matrix and the op writes
/// its columns straight into it — no per-op DenseMatrix, no hconcat copy.
class DenseBlockWriter {
 public:
  virtual ~DenseBlockWriter() = default;

  /// Write `rows` output rows into `dst`, a row-major window with `stride`
  /// doubles per row; dst points at this op's first column of row 0. Every
  /// element of the window must be written (a reused destination is not
  /// cleared first), bit-identical to eval_batch's dense output.
  virtual void write_block(std::span<const data::Value> inputs,
                           const BlockExecContext& ctx, double* dst,
                           std::size_t rows, std::size_t stride) const = 0;
};

/// Mixin for ops that produce sparse blocks: emit the whole batch as CSR in
/// one pass using per-worker scratch. The executor emits into the model
/// input itself (single-generator plans) or into a node-store slot that the
/// k-way concat reads. Rows must be bit-identical to eval_batch's sparse
/// output.
class SparseBlockEmitter {
 public:
  virtual ~SparseBlockEmitter() = default;

  /// Emit into a caller-owned CSR whose backing arrays persist across
  /// batches: the op reset()s `out` to its own column count (keeping the
  /// arrays' capacity) and appends this batch's rows, so the steady-state
  /// request path reuses capacity instead of allocating a fresh matrix per
  /// batch.
  virtual void emit_into(std::span<const data::Value> inputs,
                         const BlockExecContext& ctx,
                         data::CsrMatrix& out) const = 0;
};

}  // namespace willump::ops
