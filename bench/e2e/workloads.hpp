#pragma once

// The four workloads of the end-to-end benchmark. Each times its set-up,
// runs its measured (and optionally traced) phases, checks every output, and
// returns the report.
//
// Models train on each workload generator's default-seed splits, so every
// run serves the same trained pipeline; the run's seed draws everything
// served -- which rows, in which order, arriving when. Seeding the training
// data too flips the trained Toxic cascade between thresholds 0.7, 0.8 and
// 1.0 across seeds (the 1.0 regime never short-circuits), a 5x swing in
// throughput that no regression bound could absorb.

#include <cstring>
#include <filesystem>
#include <span>

#include "report.hpp"
#include "workloads/workload.hpp"

namespace e2e {

Report run_toxic_batch(const RunOptions& o);
Report run_price_topk(const RunOptions& o);
Report run_music_serve(const RunOptions& o);
Report run_mixed_slo(const RunOptions& o);

/// Split sizes of every workload under --smoke.
inline willump::workloads::SplitSizes smoke_sizes() {
  return {.train = 600, .valid = 250, .test = 250};
}

/// Exact equality, bit for bit (a -0.0 vs 0.0 or a NaN payload differs).
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}
inline bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Where a traced run writes its Chrome trace-event file.
inline std::string trace_path(const RunOptions& o, const Report& r) {
  return (std::filesystem::path(o.out_dir) / (r.workload() + ".trace.json")).string();
}

/// Seed of one of the run's random streams (`stream` tells them apart).
inline std::uint64_t stream_seed(const RunOptions& o, std::uint64_t stream) {
  return o.seed * 0x9E3779B97F4A7C15ULL + stream;
}

/// `count` distinct rows of a `pool`-row split, drawn with the run's seed:
/// the batch workloads' input batch.
std::vector<std::size_t> sample_rows(const RunOptions& o, std::size_t pool,
                                     std::size_t count);

}  // namespace e2e
