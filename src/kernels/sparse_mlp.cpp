#include "kernels/sparse_mlp.hpp"

#include <algorithm>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define WILLUMP_X86_SIMD 1
#include <immintrin.h>
#endif

namespace willump::kernels {

namespace {

bool cpu_has_avx512f() {
#ifdef WILLUMP_X86_SIMD
  static const bool ok = __builtin_cpu_supports("avx512f");
  return ok;
#else
  return false;
#endif
}

/// z = b2 + sum_j w2[j] * h[j], ascending j.
double output_layer(const double* w2, double b2, const double* h,
                    std::size_t hidden) {
  double z = b2;
  for (std::size_t j = 0; j < hidden; ++j) z += w2[j] * h[j];
  return z;
}

void rows_scalar(const std::size_t* indptr, const std::int32_t* indices,
                 const double* values, std::size_t rows, const double* w1t,
                 const double* b1, const double* w2, double b2,
                 std::size_t hidden, double* h, double* z) {
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(b1, b1 + hidden, h);
    for (std::size_t k = indptr[r]; k < indptr[r + 1]; ++k) {
      const double* w = w1t + static_cast<std::size_t>(indices[k]) * hidden;
      const double v = values[k];
      for (std::size_t j = 0; j < hidden; ++j) h[j] += w[j] * v;
    }
    for (std::size_t j = 0; j < hidden; ++j) h[j] = h[j] > 0.0 ? h[j] : 0.0;
    z[r] = output_layer(w2, b2, h, hidden);
  }
}

#ifdef WILLUMP_X86_SIMD

constexpr std::size_t kLanes = 8;    // doubles per 512-bit vector
constexpr std::size_t kTileVecs = 8;  // accumulators kept in registers

/// Hidden units [0, 8 * NV) of one row (pointers pre-offset to the tile):
/// NV accumulators seeded with b1, one broadcast multiply and add per
/// nonzero and vector, then ReLU into h. The last vector loads and stores
/// only the lanes in `last`; masked-off lanes neither fault nor write.
/// ReLU keeps a lane only where acc > 0 (ordered), so NaN and -0 give +0,
/// as the scalar select does.
template <std::size_t NV>
__attribute__((target("avx512f"))) void tile_avx512(
    const std::int32_t* indices, const double* values, std::size_t lo,
    std::size_t hi, const double* w1t, std::size_t hidden, const double* b1,
    __mmask8 last, double* h) {
  __m512d acc[NV];
  for (std::size_t v = 0; v < NV; ++v) {
    acc[v] = _mm512_maskz_loadu_pd(v + 1 < NV ? 0xFF : last, b1 + v * kLanes);
  }
  for (std::size_t k = lo; k < hi; ++k) {
    const double* w = w1t + static_cast<std::size_t>(indices[k]) * hidden;
    const __m512d x = _mm512_set1_pd(values[k]);
    for (std::size_t v = 0; v < NV; ++v) {
      const __m512d wv =
          _mm512_maskz_loadu_pd(v + 1 < NV ? 0xFF : last, w + v * kLanes);
      acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(wv, x));
    }
  }
  const __m512d zero = _mm512_setzero_pd();
  for (std::size_t v = 0; v < NV; ++v) {
    const __mmask8 pos = _mm512_cmp_pd_mask(acc[v], zero, _CMP_GT_OQ);
    _mm512_mask_storeu_pd(h + v * kLanes, v + 1 < NV ? 0xFF : last,
                          _mm512_maskz_mov_pd(pos, acc[v]));
  }
}

using TileFn = void (*)(const std::int32_t*, const double*, std::size_t,
                        std::size_t, const double*, std::size_t,
                        const double*, __mmask8, double*);

/// One instance per accumulator count; a tile of nv vectors calls
/// kTiles[nv - 1].
constexpr TileFn kTiles[kTileVecs] = {
    tile_avx512<1>, tile_avx512<2>, tile_avx512<3>, tile_avx512<4>,
    tile_avx512<5>, tile_avx512<6>, tile_avx512<7>, tile_avx512<8>};

__attribute__((target("avx512f"))) void rows_avx512(
    const std::size_t* indptr, const std::int32_t* indices,
    const double* values, std::size_t rows, const double* w1t,
    const double* b1, const double* w2, double b2, std::size_t hidden,
    double* h, double* z) {
  constexpr std::size_t kTile = kLanes * kTileVecs;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t lo = indptr[r];
    const std::size_t hi = indptr[r + 1];
    for (std::size_t j0 = 0; j0 < hidden; j0 += kTile) {
      const std::size_t width = std::min(kTile, hidden - j0);
      const std::size_t nv = (width + kLanes - 1) / kLanes;
      const std::size_t rem = width % kLanes;
      const auto last =
          static_cast<__mmask8>(rem == 0 ? 0xFF : (1u << rem) - 1);
      kTiles[nv - 1](indices, values, lo, hi, w1t + j0, hidden, b1 + j0,
                     last, h + j0);
    }
    z[r] = output_layer(w2, b2, h, hidden);
  }
}

#endif  // WILLUMP_X86_SIMD

}  // namespace

SparseMlpPath native_sparse_mlp_path() {
  return cpu_has_avx512f() ? SparseMlpPath::Avx512 : SparseMlpPath::Scalar;
}

void sparse_mlp_outputs(SparseMlpPath path, const std::size_t* indptr,
                        const std::int32_t* indices, const double* values,
                        std::size_t rows, const double* w1t, const double* b1,
                        const double* w2, double b2, std::size_t hidden,
                        double* h, double* z) {
#ifdef WILLUMP_X86_SIMD
  if (path == SparseMlpPath::Avx512 && cpu_has_avx512f()) {
    rows_avx512(indptr, indices, values, rows, w1t, b1, w2, b2, hidden, h, z);
    return;
  }
#endif
  (void)path;
  rows_scalar(indptr, indices, values, rows, w1t, b1, w2, b2, hidden, h, z);
}

}  // namespace willump::kernels
