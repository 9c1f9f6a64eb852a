#include "kernels/dispatch.hpp"

#include "serialize/buffer.hpp"
#include "serialize/error.hpp"

namespace willump::kernels {

namespace {

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
bool cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
bool cpu_has_avx512f() { return __builtin_cpu_supports("avx512f"); }
#else
bool cpu_has_avx2_fma() { return false; }
bool cpu_has_avx512f() { return false; }
#endif

}  // namespace

bool dot_supported(DotVariant v) {
  switch (v) {
    case DotVariant::Scalar:
    case DotVariant::Unrolled:
      return true;
    case DotVariant::Avx2:
      return cpu_has_avx2_fma();
    case DotVariant::Avx512:
      return cpu_has_avx512f() && cpu_has_avx2_fma();
  }
  return false;
}

DotVariant best_supported_dot() {
  // Probed once: the answer cannot change within a process.
  static const DotVariant best = [] {
    if (dot_supported(DotVariant::Avx512)) return DotVariant::Avx512;
    if (dot_supported(DotVariant::Avx2)) return DotVariant::Avx2;
    return DotVariant::Unrolled;
  }();
  return best;
}

DotVariant effective_dot(DotVariant v) {
  while (!dot_supported(v)) {
    v = static_cast<DotVariant>(static_cast<std::uint8_t>(v) - 1);
  }
  return v;
}

KernelConfig native_config() {
  KernelConfig c;
  c.dot = best_supported_dot();
  return c;
}

std::vector<DotVariant> candidate_dots() {
  std::vector<DotVariant> out = {DotVariant::Unrolled};
  if (dot_supported(DotVariant::Avx2)) out.push_back(DotVariant::Avx2);
  if (dot_supported(DotVariant::Avx512)) out.push_back(DotVariant::Avx512);
  return out;
}

const char* variant_name(DotVariant v) {
  switch (v) {
    case DotVariant::Scalar: return "scalar";
    case DotVariant::Unrolled: return "unrolled";
    case DotVariant::Avx2: return "avx2";
    case DotVariant::Avx512: return "avx512";
  }
  return "?";
}

const char* variant_name(TreeVariant v) {
  switch (v) {
    case TreeVariant::RowWise: return "rowwise";
    case TreeVariant::Blocked: return "blocked";
  }
  return "?";
}

void save_kernel_config(serialize::Writer& w, const KernelConfig& c) {
  w.u8(static_cast<std::uint8_t>(c.dot));
  w.u8(static_cast<std::uint8_t>(c.tree));
  w.u32(c.tree_block);
  w.u32(c.sparse_cutoff);
}

KernelConfig load_kernel_config(serialize::Reader& r) {
  KernelConfig c;
  const std::uint8_t dot = r.u8();
  const std::uint8_t tree = r.u8();
  const std::uint32_t block = r.u32();
  const std::uint32_t cutoff = r.u32();
  if (dot > static_cast<std::uint8_t>(DotVariant::Avx512) ||
      tree > static_cast<std::uint8_t>(TreeVariant::Blocked) || block == 0 ||
      block > kMaxTreeBlock) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "kernel config out of range");
  }
  c.dot = static_cast<DotVariant>(dot);
  c.tree = static_cast<TreeVariant>(tree);
  c.tree_block = block;
  c.sparse_cutoff = cutoff;  // any u32 is a valid threshold
  return c;
}

}  // namespace willump::kernels
