#include "kernels/kern_section.hpp"

#include "serialize/buffer.hpp"
#include "serialize/error.hpp"

namespace willump::kernels {

namespace {

// Survivor values written into the retired op-level slots: no op tuning
// recorded, hash-map vocabulary lookup, 256-row dense assembly chunks,
// planned (zero-copy) assembly, batched one-hot hashing.
constexpr std::uint8_t kRetiredTuned = 0;
constexpr std::uint8_t kRetiredLookup = 0;
constexpr std::uint32_t kRetiredBlockRows = 256;
constexpr std::uint32_t kMaxRetiredBlockRows = 1u << 20;
constexpr std::uint8_t kRetiredZeroCopy = 1;
constexpr std::uint8_t kRetiredOneHot = 1;

void save_retired_op_slots(serialize::Writer& w) {
  w.u8(kRetiredTuned);
  w.u8(kRetiredLookup);
  w.u32(kRetiredBlockRows);
  w.u8(kRetiredZeroCopy);
  if (w.format_version() >= 4) w.u8(kRetiredOneHot);
}

// Slots in order: tuned_ops flag, lookup, block_rows, zero_copy, and (v4
// only) the one-hot shape. Any value a writer ever produced is accepted and
// ignored; only bytes no writer produced are corrupt.
void skip_retired_op_slots(serialize::Reader& r) {
  const std::uint8_t tuned = r.u8();
  const std::uint8_t lookup = r.u8();
  const std::uint32_t block_rows = r.u32();
  const std::uint8_t zero_copy = r.u8();
  const std::uint8_t onehot = r.format_version() >= 4 ? r.u8() : 0;
  if (tuned > 1 || lookup > 1 || block_rows == 0 ||
      block_rows > kMaxRetiredBlockRows || zero_copy > 1 || onehot > 1) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "retired op-level slots out of range");
  }
}

void skip_flag(serialize::Reader& r, const char* what) {
  if (r.u8() > 1) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData, what);
  }
}

}  // namespace

void save_kern_section(serialize::Writer& w, const KernelConfig& full,
                       const KernelConfig* small) {
  w.u8(0);  // not tuned
  save_kernel_config(w, full);
  w.u8(small != nullptr ? 1 : 0);
  save_kernel_config(w, small != nullptr ? *small : KernelConfig{});
  save_retired_op_slots(w);
  w.u64(0);  // no timing table
}

void skip_kern_section(serialize::Reader& r) {
  skip_flag(r, "kernel section tuned flag out of range");
  (void)load_kernel_config(r);
  skip_flag(r, "kernel section has_small flag out of range");
  (void)load_kernel_config(r);
  skip_retired_op_slots(r);
  const std::uint64_t n = r.length(9, "kernel section timing list");
  for (std::uint64_t i = 0; i < n; ++i) {
    (void)r.str();
    (void)r.f64();
  }
}

}  // namespace willump::kernels
