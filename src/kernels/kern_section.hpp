#pragma once

#include "kernels/dispatch.hpp"

namespace willump::serialize {
class Reader;
class Writer;
}

namespace willump::kernels {

/// Codec for the WLMP pipeline artifact's 'KERN' section. Each model's
/// payload carries its own KernelConfig, so this section is a record that
/// readers validate and then discard. Layout, in both v3 and v4:
///   u8 tuned flag; the full model's config; u8 has_small; the small
///   model's config (KernelConfig{} when there is none); the retired
///   op-level slots (a tuned flag, then 6 bytes in v3, 7 in v4); a u64
///   timing count, then (str name, f64 seconds) per entry.
/// Older writers stored an optimize-time kernel search here: tuned = 1 and
/// a candidate timing table.

/// Write the section: tuned 0, the given configs, the retired slots' fixed
/// survivor values, and an empty timing table.
void save_kern_section(serialize::Writer& w, const KernelConfig& full,
                       const KernelConfig* small);

/// Read past the section. Any value a writer ever produced is accepted and
/// ignored; bytes no writer produced throw SerializeError(CorruptData).
void skip_kern_section(serialize::Reader& r);

}  // namespace willump::kernels
