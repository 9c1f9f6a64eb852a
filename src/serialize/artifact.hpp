#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "serialize/buffer.hpp"

namespace willump::serialize {

// kFormatVersion / kMinReadVersion live in buffer.hpp beside the Writer/
// Reader that implement each version's wire layout.

/// File layout (all integers little-endian):
///
///   "WLMP"  magic (4 bytes)
///   u32     format version
///   u32     artifact kind ('WPIP' pipeline | 'WCSC' cascade bundle |
///           'WSPL' workload splits)
///   u32     section count
///   repeat: u32 section tag, u64 payload size, u32 payload CRC-32, payload
///
/// Sections of a pipeline artifact: 'META' (engine + optimization flags),
/// 'TABL' (feature tables, dedup'd by name), 'GRPH' (graph topology + op
/// payloads via the op registry), 'LAYT' (probed column layout + measured
/// generator costs), 'CASC' (trained cascade + models via the model
/// registry), 'KERN' (a record of the models' kernel configs, read and
/// discarded: each config also travels inside its model payload; see
/// kernels/kern_section.hpp). A cascade bundle carries 'LAYT' + 'CASC' only.
///
/// Error semantics: every load failure throws SerializeError with a typed
/// ErrorCode (see error.hpp); corrupt bytes can never construct a pipeline
/// (per-section CRCs catch flips, every read is bounds-checked, and
/// cross-field invariants are validated on load). Save failures throw
/// std::logic_error only for unserializable content (an op/model outside
/// the registries) and SerializeError(IoError) for filesystem problems.
///
/// Thread safety: these are free functions over value types — concurrent
/// saves and loads of *different* pipelines/paths need no coordination,
/// and concurrent loads of the same file are fine (the file is read once
/// into memory, then parsed). Writers to the same path race benignly via
/// write_file_atomic (temp file + rename: last writer wins whole). None
/// of these functions block beyond file I/O.

/// Serialize a trained pipeline, as kFormatVersion unless `format_version`
/// asks for the legacy fixed-width v3 layout. Throws std::logic_error if the
/// pipeline contains an op or model outside the serialization registries.
std::vector<std::uint8_t> pipeline_to_bytes(
    const core::OptimizedPipeline& p,
    std::uint32_t format_version = kFormatVersion);

/// Reconstruct a pipeline; the artifact is self-contained (fitted
/// vocabularies, model weights, cascade thresholds, and feature tables all
/// travel inside it).
core::OptimizedPipeline pipeline_from_bytes(std::span<const std::uint8_t> bytes);

void save_pipeline(const core::OptimizedPipeline& p, const std::string& path);
core::OptimizedPipeline load_pipeline(const std::string& path);

/// A trained cascade plus the probed layout and measured per-generator
/// costs — what the test fixture cache stores so slow suites skip cascade
/// training. The executor itself is rebuilt from the (regenerated)
/// workload graph; bind_cascade_bundle() re-attaches the tuned state.
struct CascadeBundle {
  core::TrainedCascade cascade;
  std::vector<std::size_t> block_cols;
  std::vector<std::size_t> col_begin;
  std::vector<double> fg_costs;
};

std::vector<std::uint8_t> cascade_bundle_to_bytes(const CascadeBundle& b);
CascadeBundle cascade_bundle_from_bytes(std::span<const std::uint8_t> bytes);

void save_cascade_bundle(const CascadeBundle& b, const std::string& path);
CascadeBundle load_cascade_bundle(const std::string& path);

/// Restore a bundle's layout/costs onto an executor rebuilt from the same
/// graph. Throws SerializeError(CorruptData) when the bundle does not match
/// the executor's generator structure.
void bind_cascade_bundle(CascadeBundle& bundle, core::Executor& executor);

/// Raw workload train/valid/test splits as a 'WSPL' artifact — the test
/// fixture cache stores these so warm runs skip workload *generation*
/// (text synthesis, TF-IDF fitting data, Zipf sampling), the remaining
/// fixed cost of the slow suites once pipelines themselves are cached.
struct SplitBundle {
  std::string workload;       // generator tag the splits came from
  bool classification = true; // label semantics (accuracy vs regression)
  core::LabeledData train;
  core::LabeledData valid;
  core::LabeledData test;
};

std::vector<std::uint8_t> split_bundle_to_bytes(const SplitBundle& b);
SplitBundle split_bundle_from_bytes(std::span<const std::uint8_t> bytes);

void save_split_bundle(const SplitBundle& b, const std::string& path);
SplitBundle load_split_bundle(const std::string& path);

/// Whole-file read; missing/unreadable files throw SerializeError(IoError).
std::vector<std::uint8_t> read_file(const std::string& path);

/// Crash/concurrency-safe write: bytes land in a temp file first and are
/// renamed into place, so readers only ever see complete artifacts (a
/// half-written file additionally fails its CRCs). Parallel writers of the
/// same path race benignly — last rename wins with identical content.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

}  // namespace willump::serialize
