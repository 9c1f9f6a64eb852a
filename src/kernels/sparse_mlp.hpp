#pragma once

#include <cstddef>
#include <cstdint>

namespace willump::kernels {

/// Loop that runs `sparse_mlp_outputs`. Both give the same bits.
enum class SparseMlpPath : std::uint8_t {
  Scalar = 0,  // portable loop over hidden units, any hidden size
  Avx512 = 1,  // eight hidden units per 512-bit vector (x86 with AVX-512F)
};

/// Best path this CPU runs (probed once).
SparseMlpPath native_sparse_mlp_path();

/// Pre-activation outputs of a two-layer perceptron on CSR rows, with the
/// first layer stored transposed (`w1t` is in_dim x hidden, row-major), so
/// each nonzero reads one contiguous weight row:
///   h[j] = relu(b1[j] + sum_k values[k] * w1t[indices[k] * hidden + j])
///   z[r] = b2 + sum_j w2[j] * h[j]
/// Every hidden unit starts at b1[j] and adds the row's nonzeros in stored
/// order, each as a separate multiply and add; z adds in ascending j. That
/// is the order of a per-unit gather over the row-major layout, so both
/// paths are bit-identical to it. The file is compiled with FP contraction
/// off so no build fuses a multiply-add. Every index must be below the
/// weights' in_dim (the caller checks the matrix width). `h` is scratch
/// for `hidden` doubles. Avx512 falls back to Scalar on CPUs without it.
void sparse_mlp_outputs(SparseMlpPath path, const std::size_t* indptr,
                        const std::int32_t* indices, const double* values,
                        std::size_t rows, const double* w1t, const double* b1,
                        const double* w2, double b2, std::size_t hidden,
                        double* h, double* z);

}  // namespace willump::kernels
