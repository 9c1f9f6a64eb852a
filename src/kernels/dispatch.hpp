#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace willump::serialize {
class Reader;
class Writer;
}

namespace willump::kernels {

/// Dense dot-product / GEMV kernel variant. Scalar is the bit-exact
/// reference (single accumulator, left-to-right — the summation order the
/// pre-kernel model code used); the others trade summation order for
/// throughput and agree with Scalar to ~1e-12 relative (see DESIGN.md §9).
enum class DotVariant : std::uint8_t {
  Scalar = 0,    // reference: one accumulator, strict left-to-right
  Unrolled = 1,  // four independent accumulators (ILP without intrinsics)
  Avx2 = 2,      // 256-bit FMA lanes (x86 with AVX2+FMA)
  Avx512 = 3,    // 512-bit FMA lanes (x86 with AVX-512F)
};

/// Forest-traversal kernel variant. RowWise is the reference (walk each row
/// through each tree with branches, the pre-kernel Tree::predict_row shape);
/// Blocked walks a block of rows through a tree level together, branch-free,
/// so the per-node dependency chains of different rows overlap. Both
/// accumulate per-row tree outputs in the same order, so they are bit-exact
/// equals, not tolerance equals.
enum class TreeVariant : std::uint8_t {
  RowWise = 0,
  Blocked = 1,
};

/// Upper bound on rows per traversal block (stack-buffer sizing).
inline constexpr std::uint32_t kMaxTreeBlock = 64;

/// Column count at or above which a sparse GBDT input skips the per-block
/// densify scratch and traverses the CSR rows directly. Wide TF-IDF blocks
/// blow the densify scratch out of L1/L2; compact CSR rows stay resident.
/// The rule reads the input's column count, so it needs no timing. Forcing
/// 0 (always CSR) or UINT32_MAX (always densify) through a model's config
/// selects one path outright; both are bit-identical.
inline constexpr std::uint32_t kDefaultSparseCutoff = 2048;

/// Per-model kernel selection. Every model is constructed with
/// native_config() (best instruction set the CPU supports, fixed block
/// size) and keeps it unless OptimizeOptions::kernel_config forces another.
/// The values are serialized with the model, so a loaded artifact
/// reproduces the saved pipeline's exact arithmetic.
struct KernelConfig {
  DotVariant dot = DotVariant::Unrolled;
  TreeVariant tree = TreeVariant::Blocked;
  std::uint32_t tree_block = 32;  // rows per block, clamped to [1, kMaxTreeBlock]
  // Sparse inputs with >= this many columns use the no-densify CSR
  // traversal; narrower ones densify per block. Any u32 is valid.
  std::uint32_t sparse_cutoff = kDefaultSparseCutoff;

  bool operator==(const KernelConfig&) const = default;
};

/// Whether this CPU can execute `v` (Scalar/Unrolled always can).
bool dot_supported(DotVariant v);

/// Best dot variant this CPU supports (probed once).
DotVariant best_supported_dot();

/// Downgrade `v` to the best supported variant at or below it, so an
/// artifact tuned on a wider machine still runs (within tolerance of the
/// recorded arithmetic) on a narrower one.
DotVariant effective_dot(DotVariant v);

/// Default config for this machine: best supported dot variant, blocked
/// tree traversal with the default block size.
KernelConfig native_config();

/// Dot-product variants this CPU executes natively: Unrolled plus the AVX
/// tiers it supports, so a sweep never times a variant that would silently
/// downgrade. Scalar stays out: its one-accumulator CSR margin sums in a
/// different order from every other variant's two, while every listed
/// variant's csr_margins is bit-identical. Scalar is the tests' reference
/// order.
std::vector<DotVariant> candidate_dots();

const char* variant_name(DotVariant v);
const char* variant_name(TreeVariant v);

/// Serialize/deserialize a config (fixed 10 bytes). load validates ranges
/// and throws SerializeError(CorruptData) on out-of-range values; it does
/// NOT clamp to this machine's capabilities — the recorded choice
/// round-trips bit-exactly and is downgraded only at dispatch time.
void save_kernel_config(serialize::Writer& w, const KernelConfig& c);
KernelConfig load_kernel_config(serialize::Reader& r);

}  // namespace willump::kernels
