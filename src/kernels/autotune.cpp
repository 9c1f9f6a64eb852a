#include "kernels/autotune.hpp"

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

}  // namespace

std::vector<DotVariant> candidate_dots() {
  std::vector<DotVariant> out = {DotVariant::Unrolled};
  if (dot_supported(DotVariant::Avx2)) out.push_back(DotVariant::Avx2);
  if (dot_supported(DotVariant::Avx512)) out.push_back(DotVariant::Avx512);
  return out;
}

void save_autotune_report(serialize::Writer& w, const AutotuneReport& rep) {
  w.u8(rep.tuned ? 1 : 0);
  save_kernel_config(w, rep.full);
  w.u8(rep.has_small ? 1 : 0);
  save_kernel_config(w, rep.small);
  save_retired_op_slots(w);
  w.u64(rep.timings.size());
  for (const auto& t : rep.timings) {
    w.str(t.name);
    w.f64(t.seconds);
  }
}

AutotuneReport load_autotune_report(serialize::Reader& r) {
  AutotuneReport rep;
  const std::uint8_t tuned = r.u8();
  if (tuned > 1) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "autotune tuned flag out of range");
  }
  rep.tuned = tuned != 0;
  rep.full = load_kernel_config(r);
  const std::uint8_t has_small = r.u8();
  if (has_small > 1) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "autotune has_small flag out of range");
  }
  rep.has_small = has_small != 0;
  rep.small = load_kernel_config(r);
  skip_retired_op_slots(r);
  const std::uint64_t n = r.length(9, "autotune timing list");
  rep.timings.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    VariantTiming t;
    t.name = r.str();
    t.seconds = r.f64();
    rep.timings.push_back(std::move(t));
  }
  return rep;
}

}  // namespace willump::kernels
