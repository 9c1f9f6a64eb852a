#pragma once

// Shared fixtures for the GoogleTest suites.
//
// Training a workload's cascade is by far the most expensive thing a suite
// does, so the repeated workload + executor + cascade setup lives here and
// each binary builds it at most once (function-local statics). Every factory
// seeds its workload explicitly: a parallel `ctest -j` run must be
// reproducible run-to-run regardless of suite scheduling.
//
// On top of the per-binary statics sits an on-disk trained-fixture cache
// (directory from $WILLUMP_FIXTURE_CACHE, set per test by CMake): the first
// binary to need a workload's trained state saves it as a serialization
// artifact, and every later binary — including every later ctest run —
// deserializes instead of re-training. Keys combine the fixture tag, the
// workload seed, the artifact format version, and a fingerprint of the
// workload's generated data, so editing a workload generator or bumping the
// format invalidates stale entries instead of silently serving them. Any
// artifact failure (missing, truncated, corrupted, version-mismatched)
// falls back to training; the cache can be deleted at any time.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "core/cascades.hpp"
#include "core/executors.hpp"
#include "core/ifv_analysis.hpp"
#include "core/optimizer.hpp"
#include "serialize/artifact.hpp"
#include "workloads/credit.hpp"
#include "workloads/product.hpp"
#include "workloads/toxic.hpp"

namespace willump::testing {

// Explicit workload seeds. These match the config defaults on purpose: the
// point is that no suite depends on a default silently changing.
inline constexpr std::uint64_t kToxicSeed = 202;
inline constexpr std::uint64_t kProductSeed = 101;
inline constexpr std::uint64_t kCreditSeed = 404;

/// Config of the small Toxic workload the shared fixtures use.
inline workloads::ToxicConfig small_toxic_config() {
  workloads::ToxicConfig cfg;
  cfg.seed = kToxicSeed;
  cfg.sizes = {.train = 1500, .valid = 700, .test = 700};
  return cfg;
}

/// Small Toxic classification workload (cascade-friendly easy/hard mixture).
inline workloads::Workload small_toxic() {
  return workloads::make_toxic(small_toxic_config());
}

/// Small Product classification workload with shrunk TF-IDF vocabularies.
inline workloads::Workload small_product() {
  workloads::ProductConfig cfg;
  cfg.seed = kProductSeed;
  cfg.sizes = {.train = 1200, .valid = 500, .test = 600};
  cfg.word_tfidf_features = 600;
  cfg.char_tfidf_features = 900;
  return workloads::make_product(cfg);
}

/// Small Credit regression workload with remote feature tables: gives the
/// cost model the lookup-dominated structure top-K filtering exploits
/// (paper Table 4 setup).
inline workloads::Workload small_credit_remote() {
  workloads::CreditConfig cfg;
  cfg.seed = kCreditSeed;
  cfg.sizes = {.train = 1500, .valid = 600, .test = 1000};
  auto wl = workloads::make_credit(cfg);
  wl.tables->set_network(workloads::default_remote_network());
  return wl;
}

/// Directory of the on-disk trained-fixture cache. Empty path disables
/// caching (set WILLUMP_FIXTURE_CACHE="" to force re-training everywhere).
inline std::filesystem::path fixture_cache_dir() {
  if (const char* env = std::getenv("WILLUMP_FIXTURE_CACHE")) {
    return std::filesystem::path(env);
  }
  return std::filesystem::path("willump-fixture-cache");
}

/// Fingerprint of a workload's generated data: if a generator's output
/// changes (code edit, size change), cached trained state keyed on the old
/// fingerprint simply misses instead of being served stale. Inputs matter
/// as much as targets — several generators draw the label first and derive
/// the raw input from it, so a generator edit can leave every target
/// bit-identical while changing the text/features the model trains on.
inline std::uint64_t workload_fingerprint(const workloads::Workload& wl) {
  std::uint64_t h = common::fnv1a(wl.name);
  h = common::hash_combine(h, wl.train.targets.size());
  h = common::hash_combine(h, wl.valid.targets.size());
  h = common::hash_combine(h, wl.train.inputs.num_columns());
  const std::size_t probe = std::min<std::size_t>(wl.train.targets.size(), 64);
  for (std::size_t i = 0; i < probe; ++i) {
    h = common::hash_combine(h,
                             std::bit_cast<std::uint64_t>(wl.train.targets[i]));
  }
  for (const auto& name : wl.train.inputs.names()) {
    h = common::hash_combine(h, common::fnv1a(name));
    const data::Column& col = wl.train.inputs.get(name);
    const std::size_t rows = std::min<std::size_t>(col.size(), probe);
    for (std::size_t i = 0; i < rows; ++i) {
      switch (col.type()) {
        case data::ColumnType::Int:
          h = common::hash_combine(h,
                                   static_cast<std::uint64_t>(col.ints()[i]));
          break;
        case data::ColumnType::Double:
          h = common::hash_combine(
              h, std::bit_cast<std::uint64_t>(col.doubles()[i]));
          break;
        case data::ColumnType::String:
          h = common::hash_combine(h, common::fnv1a(col.strings()[i]));
          break;
      }
    }
  }
  return h;
}

inline std::string fixture_cache_path(const std::string& tag,
                                      std::uint64_t seed,
                                      const workloads::Workload& wl) {
  const auto dir = fixture_cache_dir();
  if (dir.empty()) return {};
  char fp[17];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(workload_fingerprint(wl)));
  return (dir / (tag + "-s" + std::to_string(seed) + "-v" +
                 std::to_string(serialize::kFormatVersion) + "-" + fp + ".wlmp"))
      .string();
}

// ---------------------------------------------------------------------------
// Raw-split cache (WSPL containers).
//
// The trained-fixture caches above skip training but still regenerate the
// workload's raw data in every binary; the split cache persists the
// generated train/valid/test splits themselves. Unlike the trained caches
// it cannot be content-keyed (the key must exist before the data does), so
// it is keyed by (workload, seed, sizes, format version) and validated
// structurally on load. Editing a workload *generator* therefore requires
// clearing the fixture-cache directory (or WILLUMP_SPLIT_CACHE=0); editing
// sizes or seeds invalidates naturally.
// ---------------------------------------------------------------------------

inline bool split_cache_enabled() {
  const char* e = std::getenv("WILLUMP_SPLIT_CACHE");
  return e == nullptr || std::string_view(e) != "0";
}

inline std::string split_cache_path(const std::string& workload_name,
                                    std::uint64_t seed,
                                    const workloads::SplitSizes& sizes) {
  const auto dir = fixture_cache_dir();
  if (dir.empty() || !split_cache_enabled()) return {};
  return (dir / (workload_name + "-splits-s" + std::to_string(seed) + "-n" +
                 std::to_string(sizes.train) + "-" + std::to_string(sizes.valid) +
                 "-" + std::to_string(sizes.test) + "-v" +
                 std::to_string(serialize::kFormatVersion) + ".wlmp"))
      .string();
}

/// Load cached splits into `out` (name/classification/train/valid/test
/// only — the caller rebuilds the pipeline). Returns false on any miss,
/// mismatch or artifact error.
inline bool try_load_cached_splits(const std::string& workload_name,
                                   std::uint64_t seed,
                                   const workloads::SplitSizes& sizes,
                                   workloads::Workload& out) {
  const std::string path = split_cache_path(workload_name, seed, sizes);
  if (path.empty()) return false;
  try {
    auto bundle = serialize::load_split_bundle(path);
    if (bundle.workload != workload_name ||
        bundle.train.targets.size() != sizes.train ||
        bundle.valid.targets.size() != sizes.valid ||
        bundle.test.targets.size() != sizes.test) {
      return false;
    }
    out.name = bundle.workload;
    out.classification = bundle.classification;
    out.train = std::move(bundle.train);
    out.valid = std::move(bundle.valid);
    out.test = std::move(bundle.test);
    return true;
  } catch (const serialize::SerializeError&) {
    return false;
  }
}

/// Persist a generated workload's splits for later binaries (best-effort).
inline void store_cached_splits(const workloads::Workload& wl,
                                std::uint64_t seed,
                                const workloads::SplitSizes& sizes) {
  const std::string path = split_cache_path(wl.name, seed, sizes);
  if (path.empty()) return;
  try {
    serialize::save_split_bundle(
        {wl.name, wl.classification, wl.train, wl.valid, wl.test}, path);
  } catch (const serialize::SerializeError&) {
    // A read-only cache dir must not fail the suite.
  }
}

/// The shared small-Toxic workload, cold-started from the split cache when
/// possible: cached splits skip text generation, and the pipeline re-fitted
/// on the cached train split is bit-identical to the freshly generated one.
inline workloads::Workload small_toxic_cached() {
  const workloads::ToxicConfig cfg = small_toxic_config();
  workloads::Workload w;
  if (try_load_cached_splits("toxic", cfg.seed, cfg.sizes, w)) {
    return workloads::make_toxic_from_splits(cfg, std::move(w.train),
                                             std::move(w.valid),
                                             std::move(w.test));
  }
  w = workloads::make_toxic(cfg);
  store_cached_splits(w, cfg.seed, cfg.sizes);
  return w;
}

/// A workload with both execution engines built, layout probed, and a
/// default-config cascade trained — deserialized from the fixture cache
/// when a matching artifact exists.
struct ExecutorFixture {
  workloads::Workload wl;
  std::shared_ptr<core::CompiledExecutor> compiled;
  std::shared_ptr<core::InterpretedExecutor> interpreted;
  core::TrainedCascade cascade;
  bool cascade_from_cache = false;

  explicit ExecutorFixture(workloads::Workload workload,
                           std::string cache_tag = {},
                           std::uint64_t cache_seed = 0)
      : wl(std::move(workload)) {
    compiled = std::make_shared<core::CompiledExecutor>(
        wl.pipeline.graph, core::analyze_ifvs(wl.pipeline.graph));
    interpreted = std::make_shared<core::InterpretedExecutor>(
        wl.pipeline.graph, core::analyze_ifvs(wl.pipeline.graph));
    compiled->probe_layout(
        wl.train.inputs.select_rows(std::vector<std::size_t>{0, 1}));

    const std::string cache_path =
        cache_tag.empty() ? std::string{}
                          : fixture_cache_path(cache_tag, cache_seed, wl);
    if (!cache_path.empty()) {
      try {
        auto bundle = serialize::load_cascade_bundle(cache_path);
        // The probe above already recorded the live layout; a cached bundle
        // whose layout disagrees is stale (generator change) — retrain.
        if (bundle.block_cols == compiled->analysis().block_cols) {
          serialize::bind_cascade_bundle(bundle, *compiled);
          cascade = std::move(bundle.cascade);
          cascade_from_cache = true;
          return;
        }
      } catch (const serialize::SerializeError&) {
        // Missing or unreadable artifact: train below and refresh it.
      }
    }
    cascade = core::CascadeTrainer::train(*compiled, *wl.pipeline.model_proto,
                                          wl.train, wl.valid,
                                          core::CascadeConfig{});
    if (!cache_path.empty()) {
      try {
        serialize::save_cascade_bundle(
            {cascade, compiled->analysis().block_cols,
             compiled->analysis().col_begin, cascade.stats.cost_seconds},
            cache_path);
      } catch (const serialize::SerializeError&) {
        // A read-only cache dir must not fail the suite.
      }
    }
  }
};

/// Test-local assembly reference that shares no code with hconcat_all:
/// `ex`'s selected compute_blocks folded left to right with pairwise
/// FeatureMatrix::hconcat, then the post-concatenation chain (whole ops on
/// a full selection, their column slices otherwise), as Executor::assemble
/// defines it.
inline data::FeatureMatrix pairwise_fold_reference(
    const core::Executor& ex, const data::Batch& batch,
    const core::ExecOptions& opts) {
  const std::vector<data::FeatureMatrix> blocks =
      ex.compute_blocks(batch, opts);
  const auto& mask = opts.fg_mask;
  data::FeatureMatrix m;
  bool full = true;
  for (std::size_t f = 0; f < blocks.size(); ++f) {
    if (mask.empty() || (f < mask.size() && mask[f])) {
      m = data::FeatureMatrix::hconcat(m, blocks[f]);
    } else {
      full = false;
    }
  }
  for (const int post : ex.analysis().post_chain) {
    const ops::Operator& op = *ex.graph().node(post).op;
    if (full) {
      const data::Value v[1] = {data::Value(std::move(m))};
      m = op.eval_batch(v).features();
    } else {
      m = dynamic_cast<const ops::ColumnSliceable&>(op).apply_columns(
          m, ex.analysis().columns_of(mask));
    }
  }
  return m;
}

/// Process-wide Toxic fixture (built on first use).
inline ExecutorFixture& shared_toxic() {
  static ExecutorFixture f(small_toxic_cached(), "toxic-cascade", kToxicSeed);
  return f;
}

/// Process-wide Credit-with-remote-tables fixture (built on first use).
inline ExecutorFixture& shared_credit_remote() {
  static ExecutorFixture f(small_credit_remote(), "credit-remote-cascade",
                           kCreditSeed);
  return f;
}

/// Process-wide Product workload without executors (suites that call the
/// whole-pipeline optimizer only need the data).
inline const workloads::Workload& shared_product_wl() {
  static const workloads::Workload wl = small_product();
  return wl;
}

/// A workload plus the default-options optimized pipeline Willump produces
/// for it (serving-layer suites exercise the end product, not the engines)
/// — cold-started from a pipeline artifact when the cache has one.
struct OptimizedFixture {
  workloads::Workload wl;
  core::OptimizedPipeline pipeline;
  bool pipeline_from_cache = false;

  explicit OptimizedFixture(workloads::Workload workload,
                            std::string cache_tag = {},
                            std::uint64_t cache_seed = 0)
      : wl(std::move(workload)) {
    const std::string cache_path =
        cache_tag.empty() ? std::string{}
                          : fixture_cache_path(cache_tag, cache_seed, wl);
    if (!cache_path.empty()) {
      try {
        pipeline = serialize::load_pipeline(cache_path);
        pipeline_from_cache = true;
        return;
      } catch (const serialize::SerializeError&) {
        // Fall through to in-process optimization.
      }
    }
    pipeline =
        core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, {});
    if (!cache_path.empty()) {
      try {
        serialize::save_pipeline(pipeline, cache_path);
      } catch (const serialize::SerializeError&) {
        // A read-only cache dir must not fail the suite.
      } catch (const std::logic_error&) {
        // Pipelines carrying unregistered ops/models skip the cache.
      }
    }
  }
};

/// Process-wide optimized Toxic pipeline (built on first use).
inline OptimizedFixture& shared_toxic_optimized() {
  static OptimizedFixture f(small_toxic_cached(), "toxic-optimized", kToxicSeed);
  return f;
}

}  // namespace willump::testing
