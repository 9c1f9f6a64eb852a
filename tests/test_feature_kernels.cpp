// Parity suite for the vectorized feature-operator kernels and the
// zero-copy blocked feature pipeline (DESIGN.md §10).
//
// The contract mirrors the prediction-kernel layer's (test_kernels.cpp):
// every feature-op variant is BIT-EXACT with its row-wise reference, so the
// assertions here are EXPECT_EQ on doubles, not tolerances —
//  - blocked TF-IDF (transform_into) reproduces transform_one's arithmetic
//    per document, and both match an independent test-local oracle that
//    shares no code with the kernel's counter or row builder;
//  - KeywordCountOp's one-pass automaton matches a test-local per-keyword
//    find loop, and its constructor rejects keyword lists above the cap;
//  - the compiled executor's zero-copy planned assembly (dense plan,
//    single-sparse plan, mixed k-way concat) produces the same matrix as
//    the reference compute_blocks + assemble path, full and masked,
//    including the post-concatenation chain, and both match a test-local
//    pairwise-hconcat fold of the blocks;
//  - sparse GBDT CSR traversal == densify-block traversal == dense input;
//  - 'KERN' bytes carrying retired op-level choices load (and a pipeline
//    artifact carrying them predicts bit-identically), while bytes no
//    writer produced are rejected.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/executors.hpp"
#include "core/ifv_analysis.hpp"
#include "core/optimizer.hpp"
#include "data/matrix.hpp"
#include "kernels/kern_section.hpp"
#include "kernels/dispatch.hpp"
#include "models/gbdt.hpp"
#include "models/linear.hpp"
#include "ops/concat.hpp"
#include "ops/encoders.hpp"
#include "ops/scale.hpp"
#include "ops/string_ops.hpp"
#include "ops/tfidf.hpp"
#include "serialize/artifact.hpp"
#include "serialize/buffer.hpp"
#include "serialize/error.hpp"
#include "test_support.hpp"
#include "workloads/price.hpp"
#include "workloads/toxic.hpp"

namespace willump {
namespace {

// --- corpus helpers --------------------------------------------------------

const std::vector<std::string>& word_pool() {
  static const std::vector<std::string> pool{
      "red",  "blue",  "fox",  "dog",  "cat",  "bird", "runs", "sat",
      "flew", "big",   "tiny", "old",  "fast", "slow", "the",  "a",
      "wild", "quiet", "loud", "hill", "lake", "tree", "road", "sky"};
  return pool;
}

std::string random_doc(common::Rng& rng, std::size_t max_words = 12) {
  const auto& pool = word_pool();
  const std::size_t n =
      1 + static_cast<std::size_t>(rng.next_double() * static_cast<double>(max_words));
  std::string doc;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) doc += ' ';
    doc += pool[static_cast<std::size_t>(rng.next_double() *
                                         static_cast<double>(pool.size()))];
  }
  return doc;
}

data::StringColumn random_docs(std::size_t n, common::Rng& rng) {
  data::StringColumn docs(n);
  for (auto& d : docs) d = random_doc(rng);
  return docs;
}

ops::TfIdfModel fitted_tfidf(ops::Analyzer a, common::Rng& rng) {
  ops::TfIdfConfig cfg;
  cfg.analyzer = a;
  cfg.min_df = 1;
  cfg.max_features = 500;
  if (a == ops::Analyzer::Char) cfg.ngrams = {2, 3};
  return ops::TfIdfModel::fit(random_docs(200, rng), cfg);
}

// --- matrix comparison -----------------------------------------------------

/// Bit-exact matrix equality including storage kind: the zero-copy planner
/// must be indistinguishable from the reference path, not merely close.
void expect_bit_equal(const data::FeatureMatrix& got,
                      const data::FeatureMatrix& ref) {
  ASSERT_EQ(got.rows(), ref.rows());
  ASSERT_EQ(got.cols(), ref.cols());
  ASSERT_EQ(got.is_dense(), ref.is_dense());
  if (got.is_dense()) {
    const auto& a = got.dense();
    const auto& b = ref.dense();
    for (std::size_t r = 0; r < a.rows(); ++r) {
      auto ra = a.row(r);
      auto rb = b.row(r);
      for (std::size_t c = 0; c < a.cols(); ++c) {
        ASSERT_EQ(ra[c], rb[c]) << "row " << r << " col " << c;
      }
    }
  } else {
    for (std::size_t r = 0; r < got.rows(); ++r) {
      ASSERT_EQ(got.sparse().row_vector(r), ref.sparse().row_vector(r))
          << "row " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked TF-IDF vs the per-document reference.
// ---------------------------------------------------------------------------

TEST(TfIdfBlocked, MatchesTransformOneBitExact) {
  common::Rng rng(41);
  for (const auto analyzer : {ops::Analyzer::Word, ops::Analyzer::Char}) {
    const ops::TfIdfModel m = fitted_tfidf(analyzer, rng);
    for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
      const data::StringColumn docs = random_docs(n, rng);
      ops::TfIdfScratch scratch;
      data::CsrMatrix out(m.vocabulary_size());
      m.transform_into(docs, scratch, out);
      ASSERT_EQ(out.rows(), n);
      for (std::size_t r = 0; r < n; ++r) {
        ASSERT_EQ(out.row_vector(r), m.transform_one(docs[r]))
            << "n=" << n << " row=" << r;
      }
    }
  }
}

TEST(TfIdfBlocked, BatchTransformDelegatesToBlockedPath) {
  common::Rng rng(43);
  const ops::TfIdfModel m = fitted_tfidf(ops::Analyzer::Word, rng);
  const data::StringColumn docs = random_docs(64, rng);
  const data::CsrMatrix batch = m.transform(docs);
  ASSERT_EQ(batch.rows(), docs.size());
  for (std::size_t r = 0; r < docs.size(); ++r) {
    EXPECT_EQ(batch.row_vector(r), m.transform_one(docs[r]));
  }
}

TEST(TfIdfBlocked, CopiedModelKeepsLookupValid) {
  // terms_ holds views into the vocabulary's key nodes; a copy allocates
  // fresh nodes, so the copy must rebuild its index instead of dangling.
  common::Rng rng(47);
  const ops::TfIdfModel original = fitted_tfidf(ops::Analyzer::Word, rng);
  const ops::TfIdfModel copy = original;  // NOLINT(performance-unnecessary-copy)
  const data::StringColumn docs = random_docs(32, rng);
  ops::TfIdfScratch scratch;
  data::CsrMatrix out(copy.vocabulary_size());
  copy.transform_into(docs, scratch, out);
  for (std::size_t r = 0; r < docs.size(); ++r) {
    EXPECT_EQ(out.row_vector(r), original.transform_one(docs[r]));
  }
}

// ---------------------------------------------------------------------------
// Independent TF-IDF oracle. The kernel's counter and row builder are shared
// by transform_into and transform_one, so the pair above cannot catch a bug
// in them. The oracle gets n-grams from its own splitter and joiner
// (std::isspace under the default "C" locale, not the library tokenizer)
// and vocabulary hits from term_index (the vocabulary map, not the kernel's
// probe tables), counts in a string map, sorts by index, applies the
// smoothed idf recomputed from the fit corpus, then l2-normalizes.
// ---------------------------------------------------------------------------

/// Every n-gram of `doc`: words split on std::isspace and joined by one
/// space, or sliding byte windows for the char analyzer.
std::vector<std::string> oracle_ngrams(const std::string& doc,
                                       const ops::TfIdfConfig& cfg) {
  std::vector<std::string> units;
  if (cfg.analyzer == ops::Analyzer::Word) {
    std::string cur;
    for (const char ch : doc) {
      if (std::isspace(static_cast<unsigned char>(ch)) != 0) {
        if (!cur.empty()) units.push_back(cur);
        cur.clear();
      } else {
        cur += ch;
      }
    }
    if (!cur.empty()) units.push_back(cur);
  } else {
    for (const char ch : doc) units.emplace_back(1, ch);
  }
  const std::string sep = cfg.analyzer == ops::Analyzer::Word ? " " : "";
  std::vector<std::string> grams;
  for (int n = cfg.ngrams.min_n; n <= cfg.ngrams.max_n; ++n) {
    const auto un = static_cast<std::size_t>(n);
    for (std::size_t k = 0; k + un <= units.size(); ++k) {
      std::string g = units[k];
      for (std::size_t j = 1; j < un; ++j) g += sep + units[k + j];
      grams.push_back(g);
    }
  }
  return grams;
}

/// Smoothed idf of every n-gram of the fit corpus (scikit-learn formula).
std::map<std::string, double> oracle_idf(const data::StringColumn& corpus,
                                         const ops::TfIdfConfig& cfg) {
  std::map<std::string, double> df;
  for (const auto& doc : corpus) {
    const auto grams = oracle_ngrams(doc, cfg);
    for (const auto& g : std::set<std::string>(grams.begin(), grams.end())) {
      df[g] += 1.0;
    }
  }
  const double n_docs = static_cast<double>(corpus.size());
  for (auto& [g, d] : df) d = std::log((1.0 + n_docs) / (1.0 + d)) + 1.0;
  return df;
}

data::SparseVector oracle_row(const ops::TfIdfModel& m,
                              const std::map<std::string, double>& idf,
                              const std::string& doc) {
  const ops::TfIdfConfig& cfg = m.config();
  std::map<std::string, double> counts;
  for (const auto& g : oracle_ngrams(doc, cfg)) {
    counts[g] += 1.0;
  }
  std::vector<data::SparseEntry> entries;
  for (const auto& [term, c] : counts) {
    const std::int32_t idx = m.term_index(term);
    if (idx < 0) continue;
    const double tf = cfg.sublinear_tf ? 1.0 + std::log(c) : c;
    entries.push_back({idx, cfg.use_idf ? tf * idf.at(term) : tf});
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  if (cfg.l2_normalize) {
    double sq = 0.0;
    for (const auto& e : entries) sq += e.value * e.value;
    const double norm = std::sqrt(sq);
    if (norm > 0.0) {
      const double inv = 1.0 / norm;
      for (auto& e : entries) e.value *= inv;
    }
  }
  return data::SparseVector(m.vocabulary_size(), std::move(entries));
}

/// Same indices and the same value bits, entry by entry.
void expect_same_bits(const data::SparseVector& got,
                      const data::SparseVector& want, const std::string& what) {
  ASSERT_EQ(got.entries().size(), want.entries().size()) << what;
  for (std::size_t k = 0; k < got.entries().size(); ++k) {
    const auto& a = got.entries()[k];
    const auto& b = want.entries()[k];
    ASSERT_EQ(a.index, b.index) << what << " entry " << k;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.value),
              std::bit_cast<std::uint64_t>(b.value))
        << what << " entry " << k;
  }
}

/// Words with bytes >= 0x80, embedded NULs and repeats, so the fitted
/// vocabularies hold exactly the n-grams the edge-case docs probe.
data::StringColumn oracle_corpus(std::size_t n, common::Rng& rng) {
  using namespace std::string_literals;
  const std::vector<std::string> extra{"caf\xc3\xa9"s, "\xff\xfe\x80"s,
                                       "a\0b"s,       "nul\0\0end"s,
                                       "aaaaaaaaa"s,   "abcabcabc"s};
  data::StringColumn docs = random_docs(n, rng);
  for (auto& d : docs) {
    const std::size_t k = static_cast<std::size_t>(
        rng.next_double() * static_cast<double>(extra.size()));
    d += (rng.next_bernoulli(0.5) ? " " : "\t  ") + extra[k];
  }
  return docs;
}

TEST(TfIdfOracle, KernelMatchesIndependentReferenceBitExact) {
  using namespace std::string_literals;
  struct Case {
    ops::Analyzer analyzer;
    ops::NgramRange ngrams;
  };
  // char {1,7} and {6,9} sit on each side of the packed-key cutoff (7).
  const Case cases[] = {{ops::Analyzer::Word, {1, 1}}, {ops::Analyzer::Word, {1, 2}},
                        {ops::Analyzer::Char, {2, 3}}, {ops::Analyzer::Char, {3, 5}},
                        {ops::Analyzer::Char, {1, 7}}, {ops::Analyzer::Char, {6, 9}}};
  common::Rng rng(71);
  data::StringColumn corpus = oracle_corpus(120, rng);
  data::StringColumn docs{
      ""s,          " "s,          "a"s,           "ab"s,
      "abcdefg"s,   "abcdefgh"s,   "caf\xc3\xa9"s, "\xff\xfe\x80\xff\xfe\x80"s,
      "a\0b"s,      "\0\0\0\0\0\0\0\0"s, "nul\0\0end nul\0\0end"s,
      "aaaaaaaaa"s, "abcabcabc abcabcabc"s,    "red red red red"s,
      "the  fox\tthe fox"s};
  const data::StringColumn whitespace_docs{
      // Each C-locale space byte alone and in runs, around words.
      "red blue"s, "red\tblue"s, "red\nblue"s, "red\vblue"s, "red\fblue"s,
      "red\rblue"s, "red \t\n\v\f\rblue\r\r\vred"s, "red\n\nblue\f\fred"s,
      // Leading and trailing whitespace; whitespace only.
      "  red blue"s, "red blue \t"s, "\n\vred\f"s, " \t\n\v\f\r"s, "\r\r\r"s,
      // Bytes that are not space in the C locale stay inside a token.
      "red\x1c" "blue"s, "red\x1d" "blue\x1e" "red\x1f" "blue"s,
      "red\x85" "blue"s, "red\xa0" "blue"s, "\xa0 \x85 \x1c"s,
      // Tokens of 7, 8, 9 and 16 bytes: either side of the hash's 8-byte
      // chunk.
      "abcdefg abcdefgh abcdefghi abcdefghijklmnop"s,
      "abcdefghijklmnop abcdefghi abcdefgh abcdefg"s,
      // An embedded NUL inside and between tokens.
      "red\0blue red \0 blue"s};
  // These also join the fit corpus, so their tokens are in the vocabulary
  // and every probe has a term to find.
  for (const auto& d : whitespace_docs) {
    corpus.push_back(d);
    docs.push_back(d);
  }
  for (const auto& d : oracle_corpus(60, rng)) docs.push_back(d);

  for (const auto& c : cases) {
    for (const bool plain : {false, true}) {
      ops::TfIdfConfig cfg;
      cfg.analyzer = c.analyzer;
      cfg.ngrams = c.ngrams;
      cfg.min_df = 1;
      cfg.max_features = 0;  // every corpus n-gram is in the vocabulary
      if (plain) {  // the other arithmetic branches
        cfg.use_idf = false;
        cfg.sublinear_tf = true;
        cfg.l2_normalize = false;
      }
      const ops::TfIdfModel m = ops::TfIdfModel::fit(corpus, cfg);
      const auto idf = oracle_idf(corpus, cfg);
      const data::CsrMatrix batch = m.transform(docs);
      ASSERT_EQ(batch.rows(), docs.size());
      for (std::size_t r = 0; r < docs.size(); ++r) {
        const std::string what =
            std::string(c.analyzer == ops::Analyzer::Word ? "word {" : "char {") +
            std::to_string(c.ngrams.min_n) + "," + std::to_string(c.ngrams.max_n) +
            "}" + (plain ? " plain" : "") + " doc " + std::to_string(r);
        const data::SparseVector want = oracle_row(m, idf, docs[r]);
        expect_same_bits(batch.row_vector(r), want, what + " (batch)");
        expect_same_bits(m.transform_one(docs[r]), want, what + " (one)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Independent keyword-count oracle. KeywordCountOp runs one Aho–Corasick
// pass per document; the oracle is the per-keyword string_view::find loop
// it replaced (greedy leftmost non-overlapping: `pos += needle.size()`),
// sharing no code with the automaton. Counts are integers and the total
// sums in keyword order, so every value must match bit for bit.
// ---------------------------------------------------------------------------

std::size_t count_occurrences(std::string_view haystack,
                              std::string_view needle) {
  if (needle.empty()) return 0;
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string_view::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

TEST(KeywordCountOracle, FindLoopCountsNonOverlapping) {
  EXPECT_EQ(count_occurrences("abcabcab", "abc"), 2u);
  EXPECT_EQ(count_occurrences("aaaa", "aa"), 2u);  // non-overlapping
  EXPECT_EQ(count_occurrences("xyz", ""), 0u);
  EXPECT_EQ(count_occurrences("", "x"), 0u);
}

/// eval_batch over `docs` against the oracle, value bits and shape.
void expect_keyword_counts_match_oracle(
    const std::vector<std::string>& keywords, const data::StringColumn& docs,
    const std::string& what) {
  const ops::KeywordCountOp op(keywords);
  const data::Value in{data::Column(data::StringColumn(docs))};
  const data::Value got = op.eval_batch(std::span<const data::Value>(&in, 1));
  ASSERT_TRUE(got.features().is_dense()) << what;
  const data::DenseMatrix& m = got.features().dense();
  ASSERT_EQ(m.rows(), docs.size()) << what;
  ASSERT_EQ(m.cols(), keywords.size() + 1) << what;
  for (std::size_t r = 0; r < docs.size(); ++r) {
    const auto row = m.row(r);
    double total = 0.0;
    for (std::size_t k = 0; k < keywords.size(); ++k) {
      const double want =
          static_cast<double>(count_occurrences(docs[r], keywords[k]));
      total += want;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(row[k]),
                std::bit_cast<std::uint64_t>(want))
          << what << " doc " << r << " keyword " << k;
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(row[keywords.size()]),
              std::bit_cast<std::uint64_t>(total))
        << what << " doc " << r << " total";
  }
}

TEST(KeywordCountOracle, EdgeCasesMatchFindLoop) {
  using namespace std::string_literals;
  // Prefix/suffix overlaps: "she" ends inside "hers", "he" inside both.
  expect_keyword_counts_match_oracle(
      {"he", "she", "his", "hers"},
      {""s, "ushers"s, "she sells his hers"s, "hishershehe"s, "hhhe"s,
       "shhe"s, "hershers"s},
      "overlapping set");
  // Self-overlap: "aa" in "aaaaa" counts 2, "aba" in "ababa" counts 1.
  expect_keyword_counts_match_oracle(
      {"aa", "aba", "a"}, {"aaaaa"s, "ababa"s, "abababa"s, "aabaa"s},
      "self-overlap");
  // Duplicates each get the full count; an empty keyword counts 0.
  expect_keyword_counts_match_oracle(
      {"ab", "", "ab", "b", "", "ab"}, {"abab"s, ""s, "bbb"s, "xabx"s},
      "duplicates and empty");
  // Longer than the document, and equal to it.
  expect_keyword_counts_match_oracle(
      {"abcdef", "abc", "abcd"}, {"abc"s, "abcdef"s, "ab"s, "abcdefabc"s},
      "length edges");
  // Bytes >= 0x80, embedded NULs, and case sensitivity.
  expect_keyword_counts_match_oracle(
      {"caf\xc3\xa9"s, "\xff\xfe"s, "a\0b"s, "\0"s, "Ab"s, "ab"s, "AB"s},
      {"caf\xc3\xa9 CAF\xc3\x89"s, "\xff\xfe\xff\xfe\xff"s, "a\0ba\0b\0"s,
       "ab Ab aB AB abAB"s, "\0\0\0"s},
      "bytes, NULs and case");
  // No keywords at all: one total column of zeros.
  expect_keyword_counts_match_oracle({}, {""s, "anything"s}, "no keywords");
}

TEST(KeywordCountOracle, ToxicVocabularyOnToxicDocuments) {
  const workloads::Workload wl = testing::small_toxic_cached();
  for (const auto* split : {&wl.train, &wl.test}) {
    expect_keyword_counts_match_oracle(workloads::toxic_curse_vocab(),
                                       split->inputs.get("comment").strings(),
                                       "toxic");
  }
}

TEST(KeywordCountOracle, RandomSmallAlphabetCases) {
  common::Rng rng(83);
  const auto random_string = [&](std::size_t min_len, std::size_t max_len) {
    std::string out(min_len + rng.next_below(max_len - min_len + 1), 'a');
    for (auto& c : out) c = static_cast<char>('a' + rng.next_below(3));
    return out;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::string> keywords(1 + rng.next_below(20));
    for (auto& k : keywords) k = random_string(1, 5);
    data::StringColumn docs(4);
    for (auto& d : docs) d = random_string(0, 64);
    expect_keyword_counts_match_oracle(keywords, docs,
                                       "trial " + std::to_string(trial));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(KeywordCountOracle, KeywordBytesAboveCapThrow) {
  using ops::KeywordCountOp;
  EXPECT_NO_THROW(KeywordCountOp(
      {std::string(KeywordCountOp::kMaxKeywordBytes - 1, 'a'), "b"}));
  EXPECT_THROW(KeywordCountOp(
                   {std::string(KeywordCountOp::kMaxKeywordBytes, 'a'), "b"}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Zero-copy planned assembly vs the reference blocks+hconcat path.
// ---------------------------------------------------------------------------

std::shared_ptr<const ops::TfIdfModel> shared_tfidf(ops::Analyzer a,
                                                    std::uint64_t seed) {
  common::Rng rng(seed);
  return std::make_shared<const ops::TfIdfModel>(fitted_tfidf(a, rng));
}

/// Mixed graph: dense string stats + two sparse TF-IDF generators.
core::Graph mixed_graph() {
  core::Graph g;
  const int title = g.add_source("title", data::ColumnType::String);
  const int stats =
      g.add_transform("stats", std::make_shared<ops::StringStatsOp>(), {title});
  const int lower =
      g.add_transform("lower", std::make_shared<ops::LowercaseOp>(), {title});
  const int word = g.add_transform(
      "word", std::make_shared<ops::TfIdfOp>(shared_tfidf(ops::Analyzer::Word, 51)),
      {lower});
  const int chars = g.add_transform(
      "char", std::make_shared<ops::TfIdfOp>(shared_tfidf(ops::Analyzer::Char, 53)),
      {lower});
  const int cat = g.add_transform("concat", std::make_shared<ops::ConcatOp>(),
                                  {stats, word, chars});
  g.set_output(cat);
  return g;
}

/// All-dense graph: two NumericColumnsOp generators (both DenseBlockWriter).
core::Graph dense_graph() {
  core::Graph g;
  const int a = g.add_source("a", data::ColumnType::Double);
  const int b = g.add_source("b", data::ColumnType::Double);
  const int k = g.add_source("k", data::ColumnType::Int);
  const int n1 = g.add_transform(
      "num1", std::make_shared<ops::NumericColumnsOp>("num1"), {a, b});
  const int n2 = g.add_transform(
      "num2", std::make_shared<ops::NumericColumnsOp>("num2"), {k});
  const int cat = g.add_transform("concat", std::make_shared<ops::ConcatOp>(),
                                  {n1, n2});
  g.set_output(cat);
  return g;
}

/// Single sparse generator whose emitted CSR is the model input directly.
core::Graph single_sparse_graph() {
  core::Graph g;
  const int title = g.add_source("title", data::ColumnType::String);
  const int lower =
      g.add_transform("lower", std::make_shared<ops::LowercaseOp>(), {title});
  const int word = g.add_transform(
      "word", std::make_shared<ops::TfIdfOp>(shared_tfidf(ops::Analyzer::Word, 59)),
      {lower});
  g.set_output(word);
  return g;
}

data::Batch string_batch(std::size_t rows, std::uint64_t seed) {
  common::Rng rng(seed);
  data::Batch b;
  b.add("title", data::Column(random_docs(rows, rng)));
  return b;
}

data::Batch numeric_batch(std::size_t rows, std::uint64_t seed) {
  common::Rng rng(seed);
  data::Batch b;
  data::DoubleColumn a(rows), bb(rows);
  data::IntColumn k(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    a[i] = rng.next_gaussian();
    bb[i] = rng.next_bernoulli(0.3) ? 0.0 : rng.next_gaussian();
    k[i] = static_cast<std::int64_t>(i % 17);
  }
  b.add("a", data::Column(std::move(a)));
  b.add("b", data::Column(std::move(bb)));
  b.add("k", data::Column(std::move(k)));
  return b;
}

/// Compare the zero-copy planner (compute_matrix) against the reference
/// compute_blocks + assemble path on one executor, full or masked, and both
/// against the test-local pairwise fold (the reference path's k-way concat
/// is library code too).
void expect_zero_copy_matches_reference(core::Graph g, const data::Batch& batch,
                                        const std::vector<bool>& mask) {
  core::CompiledExecutor ex(g, core::analyze_ifvs(g));
  ex.probe_layout(batch);
  core::ExecOptions opts;
  opts.fg_mask = mask;

  const data::FeatureMatrix ref =
      ex.assemble(ex.compute_blocks(batch, opts), mask);
  expect_bit_equal(ref, testing::pairwise_fold_reference(ex, batch, opts));
  expect_bit_equal(ex.compute_matrix(batch, opts), ref);
}

TEST(ZeroCopy, MixedPlanMatchesReferenceBitExact) {
  expect_zero_copy_matches_reference(mixed_graph(), string_batch(37, 61), {});
}

TEST(ZeroCopy, MixedPlanMaskedSubsetsMatchReference) {
  const data::Batch batch = string_batch(29, 67);
  expect_zero_copy_matches_reference(mixed_graph(), batch,
                                     {true, false, true});
  expect_zero_copy_matches_reference(mixed_graph(), batch,
                                     {false, true, false});
}

TEST(ZeroCopy, DensePlanMatchesReferenceBitExact) {
  expect_zero_copy_matches_reference(dense_graph(), numeric_batch(41, 71), {});
  expect_zero_copy_matches_reference(dense_graph(), numeric_batch(17, 73),
                                     {true, false});
}

TEST(ZeroCopy, DensePlanStaysDense) {
  core::Graph g = dense_graph();
  core::CompiledExecutor ex(g, core::analyze_ifvs(g));
  const data::Batch batch = numeric_batch(23, 79);
  ex.probe_layout(batch);
  EXPECT_TRUE(ex.compute_matrix(batch).is_dense());
}

TEST(ZeroCopy, SingleSparseEmitterMatchesReference) {
  expect_zero_copy_matches_reference(single_sparse_graph(),
                                     string_batch(33, 83), {});
}

TEST(ZeroCopy, PostConcatChainStillApplies) {
  // Dense plan with a ScaleOp after the concat: the post-chain must run on
  // the planner's matrix exactly as on the reference path, full and masked
  // (the masked case exercises the ColumnSliceable slice application).
  core::Graph g;
  const int a = g.add_source("a", data::ColumnType::Double);
  const int k = g.add_source("k", data::ColumnType::Int);
  const int n1 = g.add_transform(
      "num1", std::make_shared<ops::NumericColumnsOp>("num1"), {a});
  const int n2 = g.add_transform(
      "num2", std::make_shared<ops::NumericColumnsOp>("num2"), {k});
  const int cat = g.add_transform("concat", std::make_shared<ops::ConcatOp>(),
                                  {n1, n2});
  const int scale = g.add_transform(
      "scale",
      std::make_shared<ops::ScaleOp>(std::vector<double>{2.0, 0.5},
                                     std::vector<double>{1.0, -3.0}),
      {cat});
  g.set_output(scale);

  data::Batch batch;
  common::Rng rng(89);
  data::DoubleColumn ca(19);
  data::IntColumn ck(19);
  for (std::size_t i = 0; i < 19; ++i) {
    ca[i] = rng.next_gaussian();
    ck[i] = static_cast<std::int64_t>(i);
  }
  batch.add("a", data::Column(std::move(ca)));
  batch.add("k", data::Column(std::move(ck)));

  expect_zero_copy_matches_reference(g, batch, {});
  expect_zero_copy_matches_reference(g, batch, {true, false});
}

// ---------------------------------------------------------------------------
// Sparse GBDT traversal dispatch.
// ---------------------------------------------------------------------------

TEST(GbdtSparse, CsrAndDensifyTraversalsMatchDenseBitExact) {
  common::Rng rng(97);
  const std::size_t d = 40;
  data::DenseMatrix xtr(400, d);
  for (std::size_t r = 0; r < xtr.rows(); ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      xtr(r, c) = rng.next_bernoulli(0.7) ? 0.0 : rng.next_gaussian();
    }
  }
  std::vector<double> y(xtr.rows());
  for (std::size_t r = 0; r < xtr.rows(); ++r) {
    y[r] = xtr(r, 0) - xtr(r, 1) > 0.0 ? 1.0 : 0.0;
  }
  models::GbdtConfig cfg;
  cfg.n_trees = 20;
  cfg.max_depth = 4;
  cfg.permutation_rows = 0;
  models::Gbdt model(cfg);
  model.fit(data::FeatureMatrix(xtr), y);

  data::DenseMatrix xte(150, d);
  for (std::size_t r = 0; r < xte.rows(); ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      xte(r, c) = rng.next_bernoulli(0.8) ? 0.0 : rng.next_gaussian();
    }
  }
  const data::FeatureMatrix dense(xte);
  const data::FeatureMatrix sparse(dense.to_csr());
  const std::vector<double> ref = model.predict(dense);

  kernels::KernelConfig kc = model.kernel_config();
  kc.sparse_cutoff = 0;  // force the CSR traversal
  model.set_kernel_config(kc);
  EXPECT_EQ(model.predict(sparse), ref);

  kc.sparse_cutoff = std::numeric_limits<std::uint32_t>::max();  // force densify
  model.set_kernel_config(kc);
  EXPECT_EQ(model.predict(sparse), ref);
}

// ---------------------------------------------------------------------------
// Retired op-level slots of the 'KERN' section.
// ---------------------------------------------------------------------------

/// The retired op-level bytes of a 'KERN' payload, as the writers of the
/// op-tuning era could emit them (defaults: the survivor values a current
/// writer emits).
struct RetiredSlots {
  std::uint8_t ops_tuned = 0;
  std::uint8_t lookup = 0;
  std::uint32_t block_rows = 256;
  std::uint8_t zero_copy = 1;
  std::uint8_t onehot = 1;  // v4 only
};

/// The kernel fields of a 'KERN' payload. Writers of the kernel-search era
/// stored tuned = 1 and a candidate timing table.
struct LegacyKern {
  bool tuned = false;
  kernels::KernelConfig full;
  bool has_small = false;
  kernels::KernelConfig small;
  std::vector<std::pair<std::string, double>> timings;
};

/// Hand-written 'KERN' payload in the layout every writer has used.
std::vector<std::uint8_t> kern_bytes(std::uint32_t version,
                                     const LegacyKern& kern,
                                     const RetiredSlots& slots = {}) {
  serialize::Writer w(version);
  w.u8(kern.tuned ? 1 : 0);
  kernels::save_kernel_config(w, kern.full);
  w.u8(kern.has_small ? 1 : 0);
  kernels::save_kernel_config(w, kern.small);
  w.u8(slots.ops_tuned);
  w.u8(slots.lookup);
  w.u32(slots.block_rows);
  w.u8(slots.zero_copy);
  if (version >= 4) w.u8(slots.onehot);
  w.u64(kern.timings.size());
  for (const auto& [name, seconds] : kern.timings) {
    w.str(name);
    w.f64(seconds);
  }
  return w.take();
}

/// Rebuild a pipeline artifact with its 'KERN' payload replaced. The
/// container header (magic, version, kind, section count) and each section
/// header (tag, u64 size, CRC-32) are fixed-width in every version.
std::vector<std::uint8_t> with_kern(std::span<const std::uint8_t> artifact,
                                    std::span<const std::uint8_t> kern) {
  constexpr std::uint32_t kKernTag = 'K' | ('E' << 8) | ('R' << 16) |
                                     (static_cast<std::uint32_t>('N') << 24);
  serialize::Reader r(artifact);
  serialize::Writer w;
  for (int i = 0; i < 3; ++i) w.u32(r.u32());
  const std::uint32_t n = r.u32();
  w.u32(n);
  bool replaced = false;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t tag = r.u32();
    const std::uint64_t size = r.u64();
    (void)r.u32();  // the old payload's CRC
    std::span<const std::uint8_t> payload = r.raw(size);
    if (tag == kKernTag) {
      payload = kern;
      replaced = true;
    }
    w.u32(tag);
    w.u64(payload.size());
    w.u32(serialize::crc32(payload));
    w.raw(payload);
  }
  EXPECT_TRUE(replaced);
  return w.take();
}

core::LabeledData labeled_strings(std::size_t rows, std::uint64_t seed) {
  core::LabeledData d;
  d.inputs = string_batch(rows, seed);
  const auto& docs = d.inputs.get("title").strings();
  d.targets.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    d.targets[i] = docs[i].size() % 2 == 0 ? 1.0 : 0.0;
  }
  return d;
}

/// A 'KERN' record as the kernel search wrote it: tuned picks for both
/// models and a two-entry timing table.
LegacyKern tuned_kern() {
  return {.tuned = true,
          .full = {kernels::DotVariant::Avx2, kernels::TreeVariant::Blocked, 16},
          .has_small = true,
          .small = {kernels::DotVariant::Unrolled, kernels::TreeVariant::RowWise, 1},
          .timings = {{"full/dot:avx2", 1.5e-4}, {"small/tree:rowwise", 2.5e-5}}};
}

TEST(KernSectionSerialize, LegacyTunedBytesLoadAndWriterMatchesUntunedBytes) {
  // tuned_kern() as the kernel-search writer emitted it, byte for byte.
  const std::vector<std::uint8_t> legacy_v3 = {
      0x01, 0x02, 0x01, 0x10, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x01,
      0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x0d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x66, 0x75, 0x6c,
      0x6c, 0x2f, 0x64, 0x6f, 0x74, 0x3a, 0x61, 0x76, 0x78, 0x32, 0x61, 0x32,
      0x55, 0x30, 0x2a, 0xa9, 0x23, 0x3f, 0x12, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x73, 0x6d, 0x61, 0x6c, 0x6c, 0x2f, 0x74, 0x72, 0x65, 0x65,
      0x3a, 0x72, 0x6f, 0x77, 0x77, 0x69, 0x73, 0x65, 0x2d, 0x43, 0x1c, 0xeb,
      0xe2, 0x36, 0xfa, 0x3e};
  const std::vector<std::uint8_t> legacy_v4 = {
      0x01, 0x02, 0x01, 0x10, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x01,
      0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x01, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x0d, 0x66, 0x75, 0x6c, 0x6c, 0x2f, 0x64, 0x6f, 0x74, 0x3a,
      0x61, 0x76, 0x78, 0x32, 0x61, 0x32, 0x55, 0x30, 0x2a, 0xa9, 0x23, 0x3f,
      0x12, 0x73, 0x6d, 0x61, 0x6c, 0x6c, 0x2f, 0x74, 0x72, 0x65, 0x65, 0x3a,
      0x72, 0x6f, 0x77, 0x77, 0x69, 0x73, 0x65, 0x2d, 0x43, 0x1c, 0xeb, 0xe2,
      0x36, 0xfa, 0x3e};
  for (const std::uint32_t version : {3u, serialize::kFormatVersion}) {
    const auto& legacy = version == 3 ? legacy_v3 : legacy_v4;
    EXPECT_EQ(kern_bytes(version, tuned_kern()), legacy) << "v" << version;
    serialize::Reader r(legacy, version);
    kernels::skip_kern_section(r);
    EXPECT_TRUE(r.at_end()) << "v" << version;

    // The writer emits what the kernel-search writer did with the search
    // off: tuned 0, each model's config, no timings. Without a small model
    // the slot holds a default KernelConfig.
    LegacyKern untuned = tuned_kern();
    untuned.tuned = false;
    untuned.timings.clear();
    serialize::Writer w(version);
    kernels::save_kern_section(w, untuned.full, &untuned.small);
    EXPECT_EQ(w.take(), kern_bytes(version, untuned)) << "v" << version;
    LegacyKern full_only;
    full_only.full = untuned.full;
    serialize::Writer w_full(version);
    kernels::save_kern_section(w_full, full_only.full, nullptr);
    EXPECT_EQ(w_full.take(), kern_bytes(version, full_only)) << "v" << version;
  }
}

TEST(KernSectionSerialize, RejectsOutOfRangeKernelFields) {
  // The reader discards the kernel fields but still range-checks them.
  for (const std::uint32_t version : {3u, serialize::kFormatVersion}) {
    const auto error_of = [version](const std::vector<std::uint8_t>& bytes)
        -> std::optional<serialize::ErrorCode> {
      serialize::Reader r(bytes, version);
      try {
        kernels::skip_kern_section(r);
        return std::nullopt;
      } catch (const serialize::SerializeError& e) {
        return e.code();
      }
    };
    const std::vector<std::uint8_t> good = kern_bytes(version, tuned_kern());
    const auto with_byte = [&good](std::size_t at, std::uint8_t v) {
      std::vector<std::uint8_t> b = good;
      b[at] = v;
      return b;
    };
    constexpr auto kCorrupt = serialize::ErrorCode::CorruptData;
    EXPECT_EQ(error_of(with_byte(0, 2)), kCorrupt);    // tuned flag
    EXPECT_EQ(error_of(with_byte(1, 200)), kCorrupt);  // full model's dot
    EXPECT_EQ(error_of(with_byte(11, 2)), kCorrupt);   // has_small flag
    EXPECT_EQ(error_of(with_byte(13, 9)), kCorrupt);   // small model's tree
    // A timing table longer than the bytes left.
    std::vector<std::uint8_t> b = kern_bytes(version, {});
    b[b.size() - 8] = 5;  // the u64 count's low byte
    EXPECT_EQ(error_of(b), serialize::ErrorCode::Truncated);
  }
}

TEST(RetiredOpSlotsSerialize, RetiredValuesLoadOntoSurvivor) {
  // Artifacts written while op-level choices were tuned carry their picks
  // (the op-tuned flag set, zero_copy on or off, retired lookup /
  // block_rows / one-hot values). Each was bit-exact with the path that now
  // always runs, so the bytes load and are ignored.
  const LegacyKern kern = tuned_kern();
  const std::vector<RetiredSlots> retired = {
      {},                                      // the survivor's own bytes
      {.ops_tuned = 1, .zero_copy = 0},        // tuned zero-copy off
      {.ops_tuned = 1, .zero_copy = 1},        // tuned zero-copy on
      {.ops_tuned = 1, .lookup = 1},           // sorted-vocab lookup
      {.ops_tuned = 1, .block_rows = 64},      // 64-row chunks
      {.ops_tuned = 1, .zero_copy = 0, .onehot = 0},  // scalar one-hot
      {.ops_tuned = 1, .lookup = 1, .block_rows = 1024, .zero_copy = 0,
       .onehot = 0},                           // all retired at once
  };
  for (const std::uint32_t version : {3u, serialize::kFormatVersion}) {
    for (const RetiredSlots& slots : retired) {
      const std::vector<std::uint8_t> bytes = kern_bytes(version, kern, slots);
      serialize::Reader r(bytes, version);
      kernels::skip_kern_section(r);
      EXPECT_TRUE(r.at_end());
    }
  }

  // A whole pipeline artifact carrying such bytes, with the kernel search's
  // picks and timing table, predicts bit-identically to the in-memory
  // pipeline in both readable versions: each model's own config rules.
  core::Pipeline pipeline;
  pipeline.graph = mixed_graph();
  pipeline.model_proto = std::make_shared<models::LogisticRegression>();
  const auto optimized = core::WillumpOptimizer::optimize(
      pipeline, labeled_strings(120, 113), labeled_strings(40, 127), {});
  const data::Batch test = string_batch(25, 131);
  const std::vector<double> want = optimized.predict(test);
  for (const std::uint32_t version : {3u, serialize::kFormatVersion}) {
    const auto artifact = serialize::pipeline_to_bytes(optimized, version);
    for (const std::uint8_t zc : {0, 1}) {
      const auto legacy =
          kern_bytes(version, kern, {.ops_tuned = 1, .zero_copy = zc});
      const auto loaded =
          serialize::pipeline_from_bytes(with_kern(artifact, legacy));
      EXPECT_EQ(loaded.predict(test), want)
          << "v" << version << " zero_copy=" << int{zc};
    }
  }
}

TEST(RetiredOpSlotsSerialize, RejectsOutOfRangeValues) {
  // Bytes no writer ever produced stay corrupt.
  const auto corrupt = [](std::uint32_t version, const RetiredSlots& slots) {
    const std::vector<std::uint8_t> bytes = kern_bytes(version, {}, slots);
    serialize::Reader r(bytes, version);
    try {
      kernels::skip_kern_section(r);
      return false;  // should have thrown
    } catch (const serialize::SerializeError& e) {
      return e.code() == serialize::ErrorCode::CorruptData;
    }
  };
  for (const std::uint32_t version : {3u, serialize::kFormatVersion}) {
    EXPECT_TRUE(corrupt(version, {.ops_tuned = 2}));          // bad bool
    EXPECT_TRUE(corrupt(version, {.lookup = 7}));             // unknown lookup
    EXPECT_TRUE(corrupt(version, {.block_rows = 0}));         // zero rows
    EXPECT_TRUE(corrupt(version, {.block_rows = (1u << 20) + 1}));  // too big
    EXPECT_TRUE(corrupt(version, {.zero_copy = 2}));          // bad bool
  }
  EXPECT_TRUE(corrupt(4, {.onehot = 2}));  // unknown one-hot (v4 only)
}

TEST(FeatureOpArtifact, V3PriceArtifactPredictsBitIdentically) {
  // Price hashes one-hots. A v3 artifact has no one-hot byte, so its reader
  // once installed the retired Scalar shape; it now serves the batched
  // survivor and must still reproduce the in-memory pipeline bit for bit.
  workloads::PriceConfig cfg;
  cfg.sizes = {.train = 500, .valid = 200, .test = 200};
  cfg.name_tfidf_features = 200;
  const auto wl = workloads::make_price(cfg);

  const auto optimized =
      core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, {});

  const auto loaded = serialize::pipeline_from_bytes(
      serialize::pipeline_to_bytes(optimized, 3));
  EXPECT_EQ(loaded.predict(wl.test.inputs), optimized.predict(wl.test.inputs));
}

}  // namespace
}  // namespace willump
