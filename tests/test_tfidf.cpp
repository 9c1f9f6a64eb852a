#include "ops/tfidf.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <string>
#include <stdexcept>

#include "ops/tokenizer.hpp"

namespace willump::ops {
namespace {

TEST(Tokenizer, WordUnigrams) {
  const auto grams = ngrams_of("a bb ccc", Analyzer::Word, {1, 1});
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0], "a");
  EXPECT_EQ(grams[2], "ccc");
}

TEST(Tokenizer, WordBigramsJoinWithSpace) {
  const auto grams = ngrams_of("a b c", Analyzer::Word, {2, 2});
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], "a b");
  EXPECT_EQ(grams[1], "b c");
}

TEST(Tokenizer, WordRangeEmitsBoth) {
  const auto grams = ngrams_of("a b", Analyzer::Word, {1, 2});
  EXPECT_EQ(grams.size(), 3u);  // a, b, "a b"
}

TEST(Tokenizer, CharNgramsIncludeSpaces) {
  const auto grams = ngrams_of("ab c", Analyzer::Char, {2, 2});
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[1], "b ");
}

TEST(Tokenizer, NgramLongerThanInputIsEmpty) {
  EXPECT_TRUE(ngrams_of("ab", Analyzer::Char, {5, 5}).empty());
  EXPECT_TRUE(ngrams_of("a b", Analyzer::Word, {3, 3}).empty());
}

TEST(Tokenizer, HugeMaxNStopsAtTheInputLength) {
  // n is bounded by the input, so an unbounded range neither spins nor
  // overflows its counter.
  constexpr int kHuge = std::numeric_limits<int>::max();
  EXPECT_EQ(ngrams_of("abc", Analyzer::Char, {2, kHuge}).size(), 3u);
  EXPECT_EQ(ngrams_of("a b c", Analyzer::Word, {2, kHuge}).size(), 3u);
}

TEST(Tokenizer, WhitespaceIsTheCLocaleSet) {
  // The library never calls setlocale, so std::isspace here is the "C"
  // locale's: the word tokenizer splits on exactly those six bytes.
  for (int c = 0; c < 256; ++c) {
    const auto u = static_cast<unsigned char>(c);
    const bool space = std::isspace(u) != 0;
    EXPECT_EQ(is_word_space(u), space) << "byte " << c;
    const std::string doc{'a', static_cast<char>(u), 'b'};
    EXPECT_EQ(ngrams_of(doc, Analyzer::Word, {1, 1}).size(), space ? 2u : 1u)
        << "byte " << c;
  }
}

data::StringColumn corpus() {
  return {"the cat sat", "the dog sat", "the cat ran", "a bird flew"};
}

TEST(TfIdf, VocabularyRespectsMinDf) {
  TfIdfConfig cfg;
  cfg.min_df = 2;
  cfg.max_features = 100;
  const auto m = TfIdfModel::fit(corpus(), cfg);
  EXPECT_GE(m.term_index("the"), 0);
  EXPECT_GE(m.term_index("cat"), 0);
  EXPECT_EQ(m.term_index("bird"), -1);  // df == 1
}

TEST(TfIdf, MaxFeaturesKeepsMostFrequent) {
  TfIdfConfig cfg;
  cfg.min_df = 1;
  cfg.max_features = 2;
  const auto m = TfIdfModel::fit(corpus(), cfg);
  EXPECT_EQ(m.vocabulary_size(), 2);
  EXPECT_GE(m.term_index("the"), 0);  // df 3: must survive
  // df-2 tie between "cat" and "sat" breaks alphabetically.
  EXPECT_GE(m.term_index("cat"), 0);
  EXPECT_EQ(m.term_index("dog"), -1);  // df 1 never beats df 2
}

TEST(TfIdf, RareTermsGetHigherIdfWeight) {
  TfIdfConfig cfg;
  cfg.min_df = 1;
  cfg.l2_normalize = false;
  const auto m = TfIdfModel::fit(corpus(), cfg);
  const auto v = m.transform_one("the bird");
  const auto the_idx = m.term_index("the");
  const auto bird_idx = m.term_index("bird");
  ASSERT_GE(the_idx, 0);
  ASSERT_GE(bird_idx, 0);
  EXPECT_GT(v.at(bird_idx), v.at(the_idx));
}

TEST(TfIdf, L2NormalizedRows) {
  TfIdfConfig cfg;
  cfg.min_df = 1;
  const auto m = TfIdfModel::fit(corpus(), cfg);
  const auto v = m.transform_one("the cat sat");
  EXPECT_NEAR(v.l2_norm(), 1.0, 1e-9);
}

TEST(TfIdf, UnknownTermsIgnored) {
  TfIdfConfig cfg;
  cfg.min_df = 1;
  const auto m = TfIdfModel::fit(corpus(), cfg);
  const auto v = m.transform_one("zzz qqq");
  EXPECT_EQ(v.nnz(), 0u);
}

TEST(TfIdf, TransformBatchMatchesTransformOne) {
  TfIdfConfig cfg;
  cfg.min_df = 1;
  const auto m = TfIdfModel::fit(corpus(), cfg);
  const data::StringColumn docs{"the cat", "a dog ran"};
  const auto batch = m.transform(docs);
  for (std::size_t r = 0; r < docs.size(); ++r) {
    EXPECT_EQ(batch.row_vector(r), m.transform_one(docs[r]));
  }
}

TEST(TfIdf, SublinearTfDampensRepeats) {
  TfIdfConfig lin_cfg, sub_cfg;
  lin_cfg.min_df = sub_cfg.min_df = 1;
  lin_cfg.l2_normalize = sub_cfg.l2_normalize = false;
  sub_cfg.sublinear_tf = true;
  const auto lin = TfIdfModel::fit(corpus(), lin_cfg);
  const auto sub = TfIdfModel::fit(corpus(), sub_cfg);
  const auto idx = lin.term_index("cat");
  const auto vl = lin.transform_one("cat cat cat cat");
  const auto vs = sub.transform_one("cat cat cat cat");
  EXPECT_GT(vl.at(idx), vs.at(sub.term_index("cat")));
}

TEST(TfIdf, CharAnalyzerProducesFeatures) {
  TfIdfConfig cfg;
  cfg.analyzer = Analyzer::Char;
  cfg.ngrams = {2, 3};
  cfg.min_df = 1;
  const auto m = TfIdfModel::fit(corpus(), cfg);
  EXPECT_GT(m.vocabulary_size(), 10);
  EXPECT_GT(m.transform_one("the cat").nnz(), 0u);
}

TEST(TfIdf, FitRejectsInvalidNgramRange) {
  TfIdfConfig cfg;
  cfg.min_df = 1;
  cfg.analyzer = Analyzer::Char;
  for (const NgramRange bad : {NgramRange{0, 2}, NgramRange{3, 2},
                               NgramRange{1, TfIdfConfig::kMaxNgramN + 1}}) {
    cfg.ngrams = bad;
    EXPECT_THROW((void)TfIdfModel::fit(corpus(), cfg), std::invalid_argument);
  }
  cfg.ngrams = {1, TfIdfConfig::kMaxNgramN};
  EXPECT_GT(TfIdfModel::fit(corpus(), cfg).vocabulary_size(), 0);
}

TEST(TfIdf, OpValidatesInput) {
  TfIdfConfig cfg;
  cfg.min_df = 1;
  auto model = std::make_shared<TfIdfModel>(TfIdfModel::fit(corpus(), cfg));
  TfIdfOp op(model);
  const data::Value bad[] = {data::Value(data::Column(data::IntColumn{1}))};
  EXPECT_THROW(op.eval_batch(bad), std::invalid_argument);

  const data::Value good[] = {
      data::Value(data::Column(data::StringColumn{"the cat"}))};
  const auto out = op.eval_batch(good);
  EXPECT_TRUE(out.is_features());
  EXPECT_EQ(out.features().cols(),
            static_cast<std::size_t>(model->vocabulary_size()));
}

}  // namespace
}  // namespace willump::ops
