// Microbenchmark of the feature-operator kernel layer (DESIGN.md §10): the
// batched TF-IDF transform, the one-pass keyword automaton, the sparse-GBDT
// traversal that skips per-block densification, and the zero-copy planned
// feature assembly — the feature-side counterpart of bench_micro_kernels'
// model-side sections. Each section times the same fitted state under the
// pre-kernel code shape (per-document std::string n-grams + unordered_map
// counts + append_row; one find loop per keyword; densify-then-traverse;
// per-op blocks + pairwise hconcat) against the kernels, verifying
// bit-exact outputs along the way.
//
// `--trend` asserts the layer's acceptance floors: blocked TF-IDF >= 2x the
// per-document scalar reference, keyword counts bit-exact with the find
// loop (speed reported, no floor), CSR GBDT traversal >= 1.3x densify on
// wide-sparse inputs, and music feature stage >= 1.5x and end-to-end music
// >= 1.3x over the reference compute_blocks + assemble path with bit-exact
// predictions. The pre-kernel pairwise-hconcat fold is reported, no floor.
// The nightly ctest tier drives it this way; `--smoke` only proves the
// binary runs end-to-end.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/executors.hpp"
#include "kernels/dispatch.hpp"
#include "models/gbdt.hpp"
#include "ops/string_ops.hpp"
#include "ops/tfidf.hpp"
#include "ops/tokenizer.hpp"
#include "workloads/toxic.hpp"

using namespace willump;
using namespace willump::bench;

namespace {

int failures = 0;

void check_trend(bool ok, const char* what) {
  if (!trend()) return;
  if (!ok) {
    std::printf("TREND VIOLATION: %s\n", what);
    ++failures;
  } else {
    std::printf("trend ok: %s\n", what);
  }
}

int reps() { return smoke() ? 1 : 5; }

// --- synthetic text corpus -------------------------------------------------

std::vector<std::string> word_pool(std::size_t n, common::Rng& rng) {
  std::vector<std::string> pool(n);
  for (auto& w : pool) {
    const std::size_t len = 3 + static_cast<std::size_t>(rng.next_double() * 6);
    w.resize(len);
    for (auto& ch : w) {
      ch = static_cast<char>('a' + static_cast<int>(rng.next_double() * 26));
    }
  }
  return pool;
}

data::StringColumn make_docs(std::size_t n, const std::vector<std::string>& pool,
                             common::Rng& rng, std::size_t words_per_doc) {
  data::StringColumn docs(n);
  for (auto& doc : docs) {
    const std::size_t len =
        1 + static_cast<std::size_t>(rng.next_double() *
                                     static_cast<double>(words_per_doc));
    for (std::size_t i = 0; i < len; ++i) {
      if (i != 0) doc += ' ';
      // Zipf-ish reuse so document frequencies spread across the vocabulary.
      const double u = rng.next_double();
      doc += pool[static_cast<std::size_t>(u * u * static_cast<double>(pool.size()))];
    }
  }
  return docs;
}

/// The pre-kernel per-document transform shape: a fresh n-gram std::string
/// vector per document, an unordered_map<string, count>, a vocabulary probe
/// per gram, entries sorted and normalized per row, append_row per row.
/// The bench fits with use_idf=false so this reference needs no access to
/// the model's private idf table; with idf weights all 1.0 the arithmetic
/// (index-ordered tf + l2) is bit-identical to the blocked kernel's — only
/// the allocation/lookup shape differs, which is what the section times.
data::CsrMatrix transform_old_shape(const ops::TfIdfModel& m,
                                    const data::StringColumn& docs) {
  data::CsrMatrix out(m.vocabulary_size());
  for (const auto& doc : docs) {
    const std::vector<std::string> grams =
        ops::ngrams_of(doc, m.config().analyzer, m.config().ngrams);
    std::unordered_map<std::string, double> counts;
    for (const auto& g : grams) counts[g] += 1.0;
    std::vector<data::SparseEntry> entries;
    entries.reserve(counts.size());
    for (const auto& [term, c] : counts) {
      const std::int32_t idx = m.term_index(term);
      if (idx < 0) continue;
      entries.push_back({idx, m.config().sublinear_tf ? 1.0 + std::log(c) : c});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    if (m.config().l2_normalize) {
      double sq = 0.0;
      for (const auto& e : entries) sq += e.value * e.value;
      const double norm = std::sqrt(sq);
      if (norm > 0.0) {
        const double inv = 1.0 / norm;
        for (auto& e : entries) e.value *= inv;
      }
    }
    out.append_row(entries);
  }
  return out;
}

/// Section 1: blocked TF-IDF vs the per-document reference, on a word
/// {1,1} arm and a char {3,5} arm (Toxic's two vectorizers) plus a word
/// {1,2} arm (Price's name vectorizer: token vector and joined bigrams).
/// The blocked kernel reuses one scratch (dense counts + hit bitset +
/// tokenizer buffers) across the whole column and probes a flat vocabulary
/// table (packed integer keys for char n-grams up to 7 bytes); the
/// reference pays a gram vector, a count map, a sort and a row allocation
/// per document.
void bench_tfidf() {
  std::printf("\n-- TF-IDF transform (blocked vs per-document) --\n");
  common::Rng rng(31);
  const auto pool = word_pool(3000, rng);
  const std::size_t fit_docs = smoke() ? 400 : 4000;
  const std::size_t bench_docs = smoke() ? 500 : 8000;
  const data::StringColumn fit_corpus = make_docs(fit_docs, pool, rng, 40);
  const data::StringColumn docs = make_docs(bench_docs, pool, rng, 40);
  const std::span<const std::string> span(docs.data(), docs.size());

  struct Arm {
    const char* name;
    ops::Analyzer analyzer;
    ops::NgramRange ngrams;
    bool floor;  // asserts the 2x speed floor under --trend
  };
  const Arm arms[] = {{"word {1,1}", ops::Analyzer::Word, {1, 1}, true},
                      {"word {1,2}", ops::Analyzer::Word, {1, 2}, false},
                      {"char {3,5}", ops::Analyzer::Char, {3, 5}, false}};
  std::vector<std::vector<std::string>> rows;
  for (const Arm& arm : arms) {
    ops::TfIdfConfig cfg;
    cfg.analyzer = arm.analyzer;
    cfg.ngrams = arm.ngrams;
    cfg.min_df = 1;
    cfg.max_features = 4000;
    cfg.use_idf = false;  // lets the reference skip the private idf table
    const ops::TfIdfModel model = ops::TfIdfModel::fit(fit_corpus, cfg);

    // Parity first: the timed paths must agree bit-exactly.
    const data::CsrMatrix ref_rows = transform_old_shape(model, docs);
    std::size_t mismatches = 0;
    {
      ops::TfIdfScratch scratch;
      data::CsrMatrix blocked(model.vocabulary_size());
      model.transform_into(span, scratch, blocked);
      for (std::size_t r = 0; r < docs.size(); ++r) {
        if (!(blocked.row_vector(r) == ref_rows.row_vector(r))) ++mismatches;
      }
    }
    std::printf("parity %s: %zu mismatched rows (must be 0)\n", arm.name,
                mismatches);
    check_trend(mismatches == 0,
                (std::string("blocked TF-IDF bit-exact with per-doc rows, ") +
                 arm.name)
                    .c_str());

    const double per_doc = throughput_rows_per_sec(
        bench_docs, reps(), [&] { (void)transform_old_shape(model, docs); });
    ops::TfIdfScratch scratch;
    const double blocked = throughput_rows_per_sec(bench_docs, reps(), [&] {
      data::CsrMatrix out(model.vocabulary_size());
      model.transform_into(span, scratch, out);
    });
    rows.push_back({arm.name, "per-doc", fmt("%.0f", per_doc), "1.00x"});
    rows.push_back({arm.name, "blocked", fmt("%.0f", blocked),
                    fmt("%.2fx", blocked / per_doc)});
    // The floor is the word {1,1} arm's; the others only report numbers.
    if (arm.floor) {
      check_trend(blocked >= 2.0 * per_doc,
                  "blocked TF-IDF >= 2x per-document scalar");
    }
  }
  TablePrinter table({"arm", "path", "docs/s", "vs per-doc"});
  table.print_header();
  for (const auto& row : rows) table.print_row(row);
}

/// Section 2: keyword_count on Toxic's comments and curse vocabulary. The
/// reference is the pre-automaton shape: one string_view::find loop per
/// keyword per document (leftmost non-overlapping, `pos += size`). The
/// automaton reads each document once. Counts are integers, so the two
/// must agree exactly; the section reports throughput and has no floor.
data::DenseMatrix keyword_counts_find_loop(
    const std::vector<std::string>& keywords, const data::StringColumn& docs) {
  data::DenseMatrix out(docs.size(), keywords.size() + 1);
  for (std::size_t r = 0; r < docs.size(); ++r) {
    const std::string_view doc = docs[r];
    auto row = out.mutable_row(r);
    double total = 0.0;
    for (std::size_t k = 0; k < keywords.size(); ++k) {
      const std::string_view needle = keywords[k];
      std::size_t count = 0;
      if (!needle.empty()) {
        for (std::size_t pos = doc.find(needle); pos != std::string_view::npos;
             pos = doc.find(needle, pos + needle.size())) {
          ++count;
        }
      }
      row[k] = static_cast<double>(count);
      total += row[k];
    }
    row[keywords.size()] = total;
  }
  return out;
}

void bench_keyword_count() {
  std::printf("\n-- Keyword count (automaton vs per-keyword find loop) --\n");
  const auto wl = make_workload("toxic");
  const data::Value in{wl.test.inputs.get("comment")};
  const data::StringColumn& docs = in.column().strings();
  const auto& keywords = workloads::toxic_curse_vocab();
  const ops::KeywordCountOp op(keywords);
  const std::span<const data::Value> inputs(&in, 1);

  const data::DenseMatrix ref = keyword_counts_find_loop(keywords, docs);
  const data::Value got = op.eval_batch(inputs);
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < docs.size(); ++r) {
    const auto a = got.features().dense().row(r);
    const auto b = ref.row(r);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) ++mismatches;
  }
  std::printf("parity keyword_count: %zu mismatched rows (must be 0)\n",
              mismatches);
  check_trend(mismatches == 0, "keyword automaton bit-exact with find loop");

  const double find_loop = throughput_rows_per_sec(docs.size(), reps(), [&] {
    (void)keyword_counts_find_loop(keywords, docs);
  });
  const double automaton = throughput_rows_per_sec(
      docs.size(), reps(), [&] { (void)op.eval_batch(inputs); });
  TablePrinter table({"kernel", "docs/s", "vs find loop"});
  table.print_header();
  table.print_row({"find-loop", fmt("%.0f", find_loop), "1.00x"});
  table.print_row({"automaton", fmt("%.0f", automaton),
                   fmt("%.2fx", automaton / find_loop)});
}

/// Section 3: wide-sparse GBDT traversal. The densify path scatters each
/// row's entries into a kMaxTreeBlock x cols scratch, runs the blocked
/// kernel, and scatters zeros back — on a TF-IDF-wide matrix that scratch
/// is tens of MiB and every touch misses cache. The CSR path probes each
/// node's feature by binary search over the row's L1-resident entry list.
/// The forest references a few hundred informative columns (the realistic
/// shape: trees pick the discriminative terms of a huge vocabulary), but
/// the input rows carry entries across the full width.
void bench_sparse_gbdt() {
  std::printf("\n-- GBDT traversal on wide-sparse input (CSR vs densify) --\n");
  common::Rng rng(37);
  const std::size_t signal_cols = 300;  // the columns trees can reference
  const std::size_t cols = smoke() ? 4096 : 65536;
  const std::size_t train_rows = smoke() ? 200 : 300;
  const std::size_t bench_rows = smoke() ? 500 : 2000;
  const std::size_t nnz_per_row = 60;

  data::DenseMatrix xtr(train_rows, signal_cols);
  std::vector<double> y(train_rows);
  for (std::size_t r = 0; r < train_rows; ++r) {
    for (std::size_t c = 0; c < signal_cols; ++c) {
      xtr(r, c) = rng.next_bernoulli(0.1) ? rng.next_double() : 0.0;
    }
    y[r] = xtr(r, 3) + xtr(r, 7) > xtr(r, 11) ? 1.0 : 0.0;
  }
  models::GbdtConfig cfg;
  cfg.n_trees = smoke() ? 20 : 50;
  cfg.max_depth = 6;
  cfg.permutation_rows = 0;
  models::Gbdt model(cfg);
  model.fit(data::FeatureMatrix(xtr), y);

  // Test rows at full TF-IDF width: a sprinkle of signal-column entries
  // plus tail entries spread over the whole vocabulary.
  data::CsrMatrix xs(static_cast<std::int32_t>(cols));
  std::vector<data::SparseEntry> row;
  for (std::size_t r = 0; r < bench_rows; ++r) {
    row.clear();
    std::vector<bool> used(cols, false);
    for (std::size_t k = 0; k < nnz_per_row; ++k) {
      const bool in_signal = rng.next_bernoulli(0.3);
      const std::size_t span = in_signal ? signal_cols : cols;
      const std::size_t c =
          static_cast<std::size_t>(rng.next_double() * static_cast<double>(span));
      if (used[c]) continue;
      used[c] = true;
      row.push_back({static_cast<std::int32_t>(c), rng.next_double()});
    }
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    xs.append_row(row);
  }
  const data::FeatureMatrix x(std::move(xs));
  std::vector<double> out_csr(bench_rows), out_dense(bench_rows);

  kernels::KernelConfig kc = model.kernel_config();
  kc.sparse_cutoff = std::numeric_limits<std::uint32_t>::max();
  model.set_kernel_config(kc);
  const double densify = throughput_rows_per_sec(
      bench_rows, reps(), [&] { model.predict_into(x, out_dense); });

  kc.sparse_cutoff = 0;
  model.set_kernel_config(kc);
  const double csr = throughput_rows_per_sec(
      bench_rows, reps(), [&] { model.predict_into(x, out_csr); });

  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < bench_rows; ++r) {
    if (out_csr[r] != out_dense[r]) ++mismatches;
  }

  TablePrinter table({"path", "rows/s", "vs densify"});
  table.print_header();
  table.print_row({"densify", fmt("%.0f", densify), "1.00x"});
  table.print_row({"csr", fmt("%.0f", csr), fmt("%.2fx", csr / densify)});
  std::printf("parity: %zu mismatched predictions (must be 0)\n", mismatches);

  check_trend(mismatches == 0, "CSR traversal bit-exact with densify");
  check_trend(csr >= 1.3 * densify,
              "CSR GBDT traversal >= 1.3x densify on wide-sparse");
}

/// The pre-kernel assembly shape: per-op blocks from compute_blocks folded
/// left to right with pairwise FeatureMatrix::hconcat. The library's
/// reference path assembles with the one-pass k-way concat instead, so
/// this shape lives here, as transform_old_shape does for TF-IDF. Music has
/// no post-concat chain.
data::FeatureMatrix pairwise_fold_matrix(const core::OptimizedPipeline& p,
                                         const data::Batch& batch,
                                         core::ExecScratch& scratch) {
  core::ExecOptions opts;
  opts.scratch = &scratch;
  data::FeatureMatrix out;
  for (const auto& b : p.executor().compute_blocks(batch, opts)) {
    out = data::FeatureMatrix::hconcat(out, b);
  }
  return out;
}

/// The library's reference assembly: per-op blocks from compute_blocks
/// joined by Executor::assemble's k-way concat — the path cascades, the
/// feature cache and the thread pool serve through. `scratch` may be null.
data::FeatureMatrix reference_matrix(const core::OptimizedPipeline& p,
                                     const data::Batch& batch,
                                     core::ExecScratch* scratch) {
  core::ExecOptions opts;
  opts.scratch = scratch;
  return p.executor().assemble(p.executor().compute_blocks(batch, opts), {});
}

/// Sections 4+5: feature-stage and end-to-end contribution on music
/// (Figure 5's shape: six table-lookup generators feeding a GBDT). One
/// pipeline with a forced model-kernel config serves every arm, so the arms
/// differ ONLY in how features are assembled: the reference arm runs
/// compute_blocks + assemble, the zero-copy arm is compute_matrix, which
/// writes lookup rows straight into the final matrix. The pairwise-fold
/// row (pairwise_fold_matrix) is reported only.
void bench_music() {
  std::printf("\n-- Music feature stage + end-to-end (zero-copy assembly) --\n");
  const auto wl = make_workload("music");
  const std::size_t rows = wl.test.inputs.num_rows();

  core::OptimizeOptions opts = compiled_config();
  opts.kernel_config = kernels::native_config();
  const auto pipeline = optimize(wl, opts);
  const auto& model = pipeline.full_model();

  // Each reference row mirrors its zero-copy row: the feature stage runs
  // without a scratch, like compute_matrix; end to end it uses the served
  // path's per-thread scratch, like the pipeline's own predict.
  core::ExecScratch* const served_scratch = core::request_scratch();
  core::ExecScratch fold_scratch;
  std::vector<double> out(rows);
  const double fold_feat = throughput_rows_per_sec(rows, reps(), [&] {
    (void)pairwise_fold_matrix(pipeline, wl.test.inputs, fold_scratch);
  });
  const double ref_feat = throughput_rows_per_sec(rows, reps(), [&] {
    (void)reference_matrix(pipeline, wl.test.inputs, nullptr);
  });
  const double zc_feat = throughput_rows_per_sec(rows, reps(), [&] {
    (void)pipeline.executor().compute_matrix(wl.test.inputs);
  });
  const double fold_e2e = throughput_rows_per_sec(rows, reps(), [&] {
    model.predict_into(
        pairwise_fold_matrix(pipeline, wl.test.inputs, fold_scratch), out);
  });
  const double ref_e2e = throughput_rows_per_sec(rows, reps(), [&] {
    model.predict_into(
        reference_matrix(pipeline, wl.test.inputs, served_scratch), out);
  });
  const double zc_e2e = throughput_rows_per_sec(
      rows, reps(), [&] { (void)pipeline.predict(wl.test.inputs); });

  TablePrinter table({"config", "feat rows/s", "e2e rows/s", "e2e speedup"});
  table.print_header();
  table.print_row({"pairwise fold", fmt("%.0f", fold_feat),
                   fmt("%.0f", fold_e2e), fmt("%.2fx", fold_e2e / ref_e2e)});
  table.print_row({"reference", fmt("%.0f", ref_feat), fmt("%.0f", ref_e2e),
                   "1.00x"});
  table.print_row({"zero-copy", fmt("%.0f", zc_feat), fmt("%.0f", zc_e2e),
                   fmt("%.2fx", zc_e2e / ref_e2e)});

  // Bit-exact predictions: the three assemblies must build the same matrix,
  // so the one model must agree with itself to the last bit.
  const std::vector<double> pred_zc = pipeline.predict(wl.test.inputs);
  const std::vector<double> pred_ref = model.predict(
      reference_matrix(pipeline, wl.test.inputs, served_scratch));
  const std::vector<double> pred_fold = model.predict(
      pairwise_fold_matrix(pipeline, wl.test.inputs, fold_scratch));
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (pred_ref[r] != pred_zc[r] || pred_fold[r] != pred_zc[r]) ++mismatches;
  }
  std::printf("parity: %zu mismatched predictions (must be 0)\n", mismatches);

  check_trend(mismatches == 0,
              "zero-copy predictions bit-exact with reference and pairwise fold");
  check_trend(zc_feat >= 1.5 * ref_feat,
              "music feature stage >= 1.5x with zero-copy assembly");
  check_trend(zc_e2e >= 1.3 * ref_e2e,
              "music end-to-end >= 1.3x over per-op-block reference");
}

}  // namespace

int main(int argc, char** argv) {
  parse_args(argc, argv);
  print_banner(
      "Feature-operator kernels (blocked TF-IDF, keyword automaton, sparse "
      "GBDT, zero-copy assembly)",
      "DESIGN.md §10 (feature layer under Figure 5's compiled config)");

  bench_tfidf();
  bench_keyword_count();
  bench_sparse_gbdt();
  bench_music();

  if (trend() && failures > 0) {
    std::printf("\n%d trend assertion(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\ndone.\n");
  return 0;
}
