#include "kernels/tree.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define WILLUMP_X86_SIMD 1
#include <immintrin.h>
#endif

namespace willump::kernels {

namespace {

std::uint32_t clamp_block(std::uint32_t block) {
  return std::clamp<std::uint32_t>(block, 1, kMaxTreeBlock);
}

bool cpu_has_avx512f() {
#ifdef WILLUMP_X86_SIMD
  static const bool ok = __builtin_cpu_supports("avx512f");
  return ok;
#else
  return false;
#endif
}

#ifdef WILLUMP_X86_SIMD

constexpr std::size_t kVecLanes = 8;  // doubles per 512-bit vector

/// A shallow forest's padded perfect-tree arrays (FlatForest::vec_*_),
/// with the column array of the path being traversed.
struct VecForest {
  const double* split;
  const std::int64_t* col;
  const double* leaf;
  std::size_t stride;  // slots per tree in each array
  std::int32_t depth;
};

/// One traversal step for eight rows: node thresholds `sp` and columns `c`
/// at each lane's slot `pos`, x gathered at row offset + column, then the
/// child slot, 2p+1 if x <= split else 2p+2. The compare is ordered, so NaN
/// goes right, as in the scalar step.
__attribute__((target("avx512f"))) inline __m512i vec_step(
    __m512i pos, __m512i rowoff, __m512d sp, __m512i c, const double* x) {
  // Masked gathers with a zero source throughout: GCC 12's unmasked forms
  // pass an undefined source and trip -Wmaybe-uninitialized.
  const __m512d xv = _mm512_mask_i64gather_pd(
      _mm512_setzero_pd(), 0xFF, _mm512_add_epi64(rowoff, c), x, 8);
  const __mmask8 go_left = _mm512_cmp_pd_mask(xv, sp, _CMP_LE_OQ);
  const __m512i right =
      _mm512_add_epi64(_mm512_add_epi64(pos, pos), _mm512_set1_epi64(2));
  return _mm512_mask_sub_epi64(right, go_left, right, _mm512_set1_epi64(1));
}

/// Blocked traversal of a shallow forest, eight rows per 512-bit vector.
/// A tree's top four levels (its first 15 slots) live in registers and a
/// step there picks each lane's threshold and column with a two-register
/// permute, so the only memory read is one gather of x; deeper levels
/// gather threshold and column too, and so do leaves below level four.
/// The scalar kernel makes five loads per row per step. Every vector
/// advances one level before any advances the next, so the gathers of
/// different vectors overlap. Each lane adds its leaves in tree order with
/// a plain add, so the margins are bit-exact with the scalar kernel.
/// Accumulates trees [t0, t1) into out[] for the `rows` rows of the
/// row-major block `x`; `rows` is a multiple of kVecLanes and at most
/// kMaxTreeBlock.
__attribute__((target("avx512f"))) void margins_vec(
    const VecForest& f, std::size_t t0, std::size_t t1, const double* x,
    std::size_t rows, std::size_t stride, double* out) {
  constexpr std::int32_t kRegLevels = 4;
  const std::size_t nvec = rows / kVecLanes;
  __m512i rowoff[kMaxTreeBlock / kVecLanes];
  __m512i pos[kMaxTreeBlock / kVecLanes];
  __m512d acc[kMaxTreeBlock / kVecLanes];
  const auto s = static_cast<long long>(stride);
  for (std::size_t v = 0; v < nvec; ++v) {
    const auto o = static_cast<long long>(v * kVecLanes) * s;
    rowoff[v] = _mm512_set_epi64(o + 7 * s, o + 6 * s, o + 5 * s, o + 4 * s,
                                 o + 3 * s, o + 2 * s, o + s, o);
    acc[v] = _mm512_loadu_pd(out + v * kVecLanes);
  }
  const std::int32_t reg_levels = std::min(f.depth, kRegLevels);
  const __m512i first_leaf = _mm512_set1_epi64((1LL << f.depth) - 1);
  const __m512d zero_pd = _mm512_setzero_pd();
  const __m512i zero_si = _mm512_setzero_si512();
  for (std::size_t t = t0; t < t1; ++t) {
    const double* split = f.split + t * f.stride;
    const std::int64_t* col = f.col + t * f.stride;
    const double* leaf = f.leaf + t * f.stride;
    const __m512d split_lo = _mm512_loadu_pd(split);
    const __m512d split_hi = _mm512_loadu_pd(split + 8);
    const __m512i col_lo = _mm512_loadu_si512(col);
    const __m512i col_hi = _mm512_loadu_si512(col + 8);
    for (std::size_t v = 0; v < nvec; ++v) pos[v] = zero_si;
    for (std::int32_t lvl = 0; lvl < reg_levels; ++lvl) {
      for (std::size_t v = 0; v < nvec; ++v) {
        pos[v] = vec_step(pos[v], rowoff[v],
                          _mm512_permutex2var_pd(split_lo, pos[v], split_hi),
                          _mm512_permutex2var_epi64(col_lo, pos[v], col_hi),
                          x);
      }
    }
    for (std::int32_t lvl = reg_levels; lvl < f.depth; ++lvl) {
      for (std::size_t v = 0; v < nvec; ++v) {
        pos[v] = vec_step(
            pos[v], rowoff[v],
            _mm512_mask_i64gather_pd(zero_pd, 0xFF, pos[v], split, 8),
            _mm512_mask_i64gather_epi64(zero_si, 0xFF, pos[v], col, 8), x);
      }
    }
    const __m512d leaf_lo = _mm512_loadu_pd(leaf);
    const __m512d leaf_hi = _mm512_loadu_pd(leaf + 8);
    for (std::size_t v = 0; v < nvec; ++v) {
      const __m512i slot = _mm512_sub_epi64(pos[v], first_leaf);
      const __m512d out_v =
          f.depth <= kRegLevels
              ? _mm512_permutex2var_pd(leaf_lo, slot, leaf_hi)
              : _mm512_mask_i64gather_pd(zero_pd, 0xFF, slot, leaf, 8);
      acc[v] = _mm512_add_pd(acc[v], out_v);
    }
  }
  for (std::size_t v = 0; v < nvec; ++v) {
    _mm512_storeu_pd(out + v * kVecLanes, acc[v]);
  }
}

#endif  // WILLUMP_X86_SIMD

}  // namespace

void FlatForest::reset(double base) {
  base_ = base;
  feature_.clear();
  col_.clear();
  split_.clear();
  left_.clear();
  right_.clear();
  roots_.clear();
  depths_.clear();
  max_abs_leaf_.clear();
  suffix_abs_bound_.clear();
  vec_depth_ = 0;
  vec_stride_ = 0;
  vec_split_.clear();
  vec_col_.clear();
  vec_ccol_.clear();
  vec_leaf_.clear();
}

void FlatForest::add_tree(std::span<const std::int32_t> feature,
                          std::span<const double> threshold,
                          std::span<const std::int32_t> left,
                          std::span<const std::int32_t> right,
                          std::span<const double> value) {
  const std::int32_t off = static_cast<std::int32_t>(feature_.size());
  const std::size_t n = feature.size();
  roots_.push_back(off);

  // Children have larger intra-tree ids than their parents (the trainer
  // emits nodes in creation order and the loader validates this), so one
  // forward pass computes every node's depth.
  std::vector<std::int32_t> depth(n, 0);
  std::int32_t max_depth = 0;
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool leaf = feature[i] < 0;
    feature_.push_back(feature[i]);
    col_.push_back(leaf ? 0 : feature[i]);
    split_.push_back(leaf ? value[i] : threshold[i]);
    if (leaf) {
      // Self-loop: extra branch-free traversal levels park here harmlessly.
      left_.push_back(off + static_cast<std::int32_t>(i));
      right_.push_back(off + static_cast<std::int32_t>(i));
      max_abs = std::max(max_abs, std::fabs(value[i]));
      max_depth = std::max(max_depth, depth[i]);
    } else {
      left_.push_back(off + left[i]);
      right_.push_back(off + right[i]);
      depth[static_cast<std::size_t>(left[i])] = depth[i] + 1;
      depth[static_cast<std::size_t>(right[i])] = depth[i] + 1;
    }
  }
  depths_.push_back(max_depth);
  max_abs_leaf_.push_back(max_abs);
}

void FlatForest::finalize() {
  const std::size_t t = roots_.size();
  suffix_abs_bound_.assign(t + 1, 0.0);
  for (std::size_t i = t; i-- > 0;) {
    suffix_abs_bound_[i] = suffix_abs_bound_[i + 1] + max_abs_leaf_[i];
  }

  // Compact column space for the CSR path: the sorted set of features any
  // internal node splits on, and every node's column remapped into it.
  // Leaves keep the same clamp-to-0 convention as col_ (their loads are
  // parked self-loop reads that never affect the traversal).
  used_cols_.clear();
  for (const std::int32_t f : feature_) {
    if (f >= 0) used_cols_.push_back(f);
  }
  std::sort(used_cols_.begin(), used_cols_.end());
  used_cols_.erase(std::unique(used_cols_.begin(), used_cols_.end()),
                   used_cols_.end());
  ccol_.assign(col_.size(), 0);
  for (std::size_t i = 0; i < col_.size(); ++i) {
    if (feature_[i] < 0) continue;
    const auto it =
        std::lower_bound(used_cols_.begin(), used_cols_.end(), col_[i]);
    ccol_[i] = static_cast<std::int32_t>(it - used_cols_.begin());
  }

  // Padded perfect-tree copy for the vector traversal, when the CPU runs it
  // and every tree is shallow enough for it (see tree.hpp for the layout).
  vec_depth_ = 0;
  for (const std::int32_t d : depths_) vec_depth_ = std::max(vec_depth_, d);
  vec_split_.clear();
  vec_col_.clear();
  vec_ccol_.clear();
  vec_leaf_.clear();
  if (vec_depth_ > kVecTreeDepth || !cpu_has_avx512f()) {
    vec_stride_ = 0;
    return;
  }
  const std::size_t first_leaf = (std::size_t{1} << vec_depth_) - 1;
  vec_stride_ = std::max<std::size_t>(first_leaf + 1, 16);
  vec_split_.assign(t * vec_stride_, 0.0);
  vec_col_.assign(t * vec_stride_, 0);
  vec_ccol_.assign(t * vec_stride_, 0);
  vec_leaf_.assign(t * vec_stride_, 0.0);
  std::vector<std::pair<std::int32_t, std::size_t>> stack;
  for (std::size_t k = 0; k < t; ++k) {
    // Depth-first over (flat node, padded slot); a leaf above the bottom
    // level walks on down both sides over zeroed padding split nodes.
    const std::size_t base = k * vec_stride_;
    stack.assign(1, {roots_[k], 0});
    while (!stack.empty()) {
      const auto [node, p] = stack.back();
      stack.pop_back();
      const std::size_t n = static_cast<std::size_t>(node);
      if (p >= first_leaf) {
        vec_leaf_[base + p - first_leaf] = split_[n];
        continue;
      }
      const bool leaf = feature_[n] < 0;
      if (!leaf) {
        vec_split_[base + p] = split_[n];
        vec_col_[base + p] = col_[n];
        vec_ccol_[base + p] = ccol_[n];
      }
      stack.push_back({leaf ? node : left_[n], 2 * p + 1});
      stack.push_back({leaf ? node : right_[n], 2 * p + 2});
    }
  }
}

void FlatForest::margins(TreeVariant v, std::uint32_t block, const double* x,
                         std::size_t rows, std::size_t stride,
                         double* out) const {
  if (v == TreeVariant::RowWise) {
    margins_rowwise(x, rows, stride, out);
  } else {
    margins_blocked(clamp_block(block), x, rows, stride, out);
  }
}

void FlatForest::margins_rowwise(const double* x, std::size_t rows,
                                 std::size_t stride, double* out) const {
  const std::size_t trees = roots_.size();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = x + r * stride;
    double acc = base_;
    for (std::size_t t = 0; t < trees; ++t) {
      std::int32_t i = roots_[t];
      while (feature_[static_cast<std::size_t>(i)] >= 0) {
        const std::size_t ni = static_cast<std::size_t>(i);
        const double xv = row[static_cast<std::size_t>(feature_[ni])];
        // NaN fails `<=` and goes right, matching the blocked kernel.
        i = xv <= split_[ni] ? left_[ni] : right_[ni];
      }
      acc += split_[static_cast<std::size_t>(i)];
    }
    out[r] = acc;
  }
}

void FlatForest::margins_blocked(std::uint32_t block, const double* x,
                                 std::size_t rows, std::size_t stride,
                                 double* out) const {
  margins_blocked_cols(false, block, x, rows, stride, out);
}

void FlatForest::margins_blocked_cols(bool compact, std::uint32_t block,
                                      const double* x, std::size_t rows,
                                      std::size_t stride, double* out) const {
  const std::int32_t* cols = compact ? ccol_.data() : col_.data();
  const std::size_t trees = roots_.size();
  for (std::size_t r = 0; r < rows; ++r) out[r] = base_;
  if (trees == 0) return;

  // Tile trees into cache-sized groups and run every row block through one
  // group before touching the next. A production forest's node arrays are
  // megabytes — walking block-outer/tree-inner would re-stream the whole
  // forest once per 64 rows, and that memory traffic (not the traversal
  // arithmetic) dominates. With the group resident, per-node work is an
  // L1/L2 hit and the independent per-row dependency chains actually
  // overlap. Groups advance in tree order and acc round-trips through
  // out[] exactly, so per-row accumulation order — hence bit-exactness
  // with the row-wise reference — is unchanged.
  constexpr std::size_t kGroupBytes = 256 * 1024;
  const std::size_t node_bytes =
      sizeof(std::int32_t) * 3 + sizeof(double);  // col/left/right/split
#ifdef WILLUMP_X86_SIMD
  const bool vec = !vec_leaf_.empty();
  const VecForest vf{vec_split_.data(),
                     compact ? vec_ccol_.data() : vec_col_.data(),
                     vec_leaf_.data(), vec_stride_, vec_depth_};
#endif
  std::size_t g0 = 0;
  while (g0 < trees) {
    std::size_t g1 = g0;
    std::size_t bytes = 0;
    while (g1 < trees && (bytes == 0 || bytes < kGroupBytes)) {
      const std::size_t begin = static_cast<std::size_t>(roots_[g1]);
      const std::size_t end = g1 + 1 < trees
                                  ? static_cast<std::size_t>(roots_[g1 + 1])
                                  : feature_.size();
      bytes += (end - begin) * node_bytes;
      ++g1;
    }

    // With AVX-512 and a shallow forest, whole vectors of rows take the
    // vector kernel in kMaxTreeBlock-row chunks, whatever block size the
    // scalar step is tuned to: the more vectors in flight, the more gather
    // latency overlaps. The last rows % kVecLanes rows take the scalar step.
    std::size_t scalar_begin = 0;
#ifdef WILLUMP_X86_SIMD
    if (vec) {
      scalar_begin = rows / kVecLanes * kVecLanes;
      for (std::size_t r0 = 0; r0 < scalar_begin; r0 += kMaxTreeBlock) {
        margins_vec(vf, g0, g1, x + r0 * stride,
                    std::min<std::size_t>(kMaxTreeBlock, scalar_begin - r0),
                    stride, out + r0);
      }
    }
#endif
    for (std::size_t r0 = scalar_begin; r0 < rows; r0 += block) {
      const std::size_t bsz = std::min<std::size_t>(block, rows - r0);
      double acc[kMaxTreeBlock];
      std::int32_t idx[kMaxTreeBlock];
      for (std::size_t b = 0; b < bsz; ++b) acc[b] = out[r0 + b];
      for (std::size_t t = g0; t < g1; ++t) {
        const std::int32_t root = roots_[t];
        const std::int32_t levels = depths_[t];
        for (std::size_t b = 0; b < bsz; ++b) idx[b] = root;
        for (std::int32_t lvl = 0; lvl < levels; ++lvl) {
          for (std::size_t b = 0; b < bsz; ++b) {
            // Branch-free advance. col_ is leaf-safe (clamped to 0) and a
            // leaf's children self-point, so finished rows park on their
            // leaf with no masking: the whole step is loads + one compare
            // + one register-register cmov. Keep it that way — a load
            // inside a ternary arm, or a select on `feature_[i] >= 0`,
            // makes the compiler emit a data-dependent branch, and tree
            // splits are the branch predictor's worst case (~50/50).
            const std::size_t i = static_cast<std::size_t>(idx[b]);
            const double xv =
                x[(r0 + b) * stride + static_cast<std::size_t>(cols[i])];
            const std::int32_t lc = left_[i];
            const std::int32_t rc = right_[i];
            idx[b] = xv <= split_[i] ? lc : rc;
          }
        }
        for (std::size_t b = 0; b < bsz; ++b) {
          acc[b] += split_[static_cast<std::size_t>(idx[b])];
        }
      }
      for (std::size_t b = 0; b < bsz; ++b) out[r0 + b] = acc[b];
    }
    g0 = g1;
  }
}

void FlatForest::margins_csr(const std::size_t* indptr,
                             const std::int32_t* indices, const double* values,
                             std::size_t rows, double* out) const {
  const std::size_t trees = roots_.size();
  if (trees == 0) {
    for (std::size_t r = 0; r < rows; ++r) out[r] = base_;
    return;
  }

  // Gather each row block into a compact scratch with one slot per
  // forest-referenced column (used_cols_), then run the branch-free blocked
  // kernel over it. The scratch is block × |used_cols_| doubles — L1/L2
  // resident for realistic forests — where a full-width densify scratch on
  // a TF-IDF-wide matrix is tens of MiB of scattered misses. The gather is
  // a two-pointer merge of the row's sorted indices with used_cols_;
  // columns the forest never reads are simply skipped. Unmatched slots hold
  // 0.0 (all-zeros invariant, restored from a touched list), exactly what a
  // densify scratch would hold, and margins_blocked_cols accumulates trees
  // in the same per-row order — so outputs stay bit-exact with the dense
  // path.
  const std::size_t cd = used_cols_.size();
  const std::int32_t* uc = used_cols_.data();
  thread_local std::vector<double> scratch;  // all zeros between calls
  thread_local std::vector<std::size_t> touched;
  if (scratch.size() < kMaxTreeBlock * cd) {
    scratch.assign(kMaxTreeBlock * cd, 0.0);
  }

  for (std::size_t r0 = 0; r0 < rows; r0 += kMaxTreeBlock) {
    const std::size_t bsz = std::min<std::size_t>(kMaxTreeBlock, rows - r0);
    touched.clear();
    for (std::size_t b = 0; b < bsz; ++b) {
      std::size_t k = indptr[r0 + b];
      const std::size_t hi = indptr[r0 + b + 1];
      std::size_t u = 0;
      while (k < hi && u < cd) {
        const std::int32_t c = indices[k];
        if (uc[u] < c) {
          ++u;
        } else if (uc[u] == c) {
          const std::size_t slot = b * cd + u;
          scratch[slot] = values[k];
          touched.push_back(slot);
          ++u;
          ++k;
        } else {
          ++k;
        }
      }
    }
    margins_blocked_cols(true, kMaxTreeBlock, scratch.data(), bsz, cd,
                         out + r0);
    for (const std::size_t slot : touched) scratch[slot] = 0.0;
  }
}

void FlatForest::cascade_margins(std::uint32_t block, const double* x,
                                 std::size_t rows, std::size_t stride,
                                 double bound, double* out,
                                 std::uint8_t* hard) const {
  block = clamp_block(block);
  const std::size_t trees = roots_.size();

  // A row is provably HARD once |partial| + (bound on remaining trees)
  // cannot exceed `bound`: its final margin stays inside [-bound, bound],
  // so the full model will run regardless and the partial sum in out[] is
  // never consumed. Check before any trees (catches threshold 1.0, where
  // bound is +inf and every row short-circuits immediately)...
  if (std::fabs(base_) + suffix_abs_bound_[0] <= bound) {
    for (std::size_t r = 0; r < rows; ++r) {
      hard[r] = 1;
      out[r] = base_;
    }
    return;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = base_;
    hard[r] = 0;
  }
  if (trees == 0) return;  // every row "survived": exact margin base_

  // Same ~256 KiB tree-group tiling as margins_blocked, same reason: a
  // production forest's node arrays are megabytes, and block-outer order
  // re-streams all of them once per row block. Partial sums round-trip
  // through out[] between groups and the retirement checkpoints fire at
  // the same global tree indices, so retirement decisions — and the
  // surviving rows' margins — are bit-identical to the untiled order.
  constexpr std::size_t kGroupBytes = 256 * 1024;
  const std::size_t node_bytes = sizeof(std::int32_t) * 3 + sizeof(double);
  std::size_t g0 = 0;
  while (g0 < trees) {
    std::size_t g1 = g0;
    std::size_t bytes = 0;
    while (g1 < trees && (bytes == 0 || bytes < kGroupBytes)) {
      const std::size_t begin = static_cast<std::size_t>(roots_[g1]);
      const std::size_t end = g1 + 1 < trees
                                  ? static_cast<std::size_t>(roots_[g1 + 1])
                                  : feature_.size();
      bytes += (end - begin) * node_bytes;
      ++g1;
    }

    for (std::size_t r0 = 0; r0 < rows; r0 += block) {
      const std::size_t bsz = std::min<std::size_t>(block, rows - r0);
      double acc[kMaxTreeBlock];
      std::int32_t idx[kMaxTreeBlock];
      std::uint32_t act[kMaxTreeBlock];  // block-relative ids still active
      std::size_t nact = 0;
      for (std::size_t b = 0; b < bsz; ++b) {
        if (hard[r0 + b]) continue;  // retired in an earlier group
        acc[b] = out[r0 + b];
        act[nact++] = static_cast<std::uint32_t>(b);
      }
      if (nact == 0) continue;

      for (std::size_t t = g0; t < g1 && nact > 0; ++t) {
        const std::int32_t root = roots_[t];
        const std::int32_t levels = depths_[t];
        for (std::size_t a = 0; a < nact; ++a) idx[a] = root;
        for (std::int32_t lvl = 0; lvl < levels; ++lvl) {
          for (std::size_t a = 0; a < nact; ++a) {
            // Same maskless branch-free step as margins_blocked: leaf-safe
            // col_ plus leaf self-loops keep finished rows parked via the
            // single register-register cmov.
            const std::size_t i = static_cast<std::size_t>(idx[a]);
            const double xv =
                x[(r0 + act[a]) * stride + static_cast<std::size_t>(col_[i])];
            const std::int32_t lc = left_[i];
            const std::int32_t rc = right_[i];
            idx[a] = xv <= split_[i] ? lc : rc;
          }
        }
        for (std::size_t a = 0; a < nact; ++a) {
          acc[act[a]] += split_[static_cast<std::size_t>(idx[a])];
        }

        // ...then re-check (and compact the active list) every 8 trees; the
        // test is cheap but retiring rows mid-forest is where the win is.
        // Deliberately not checked after the last tree: completed rows keep
        // hard = 0 so the caller's sigmoid-confidence comparison — the same
        // one the non-kernel path applies — decides them, keeping knife-edge
        // rows bit-identical to the reference cascade.
        if ((t & 7u) == 7u && t + 1 < trees) {
          const double rem = suffix_abs_bound_[t + 1];
          std::size_t w = 0;
          for (std::size_t a = 0; a < nact; ++a) {
            const std::uint32_t b = act[a];
            if (std::fabs(acc[b]) + rem <= bound) {
              hard[r0 + b] = 1;
              out[r0 + b] = acc[b];  // partial; caller must ignore
            } else {
              act[w++] = b;
            }
          }
          nact = w;
        }
      }

      // Active rows carry their partial (or, after the last group, exact)
      // margins forward through out[].
      for (std::size_t a = 0; a < nact; ++a) {
        out[r0 + act[a]] = acc[act[a]];
      }
    }
    g0 = g1;
  }
}

}  // namespace willump::kernels
