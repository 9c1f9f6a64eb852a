// Reject-path hardening: corrupt artifacts — truncated at any offset,
// bit-flipped anywhere, wrong magic/version/kind — must surface as typed
// SerializeErrors, never as a crash, UB, hang, or a silently different
// pipeline. The corpus covers every serializable layer: raw ops, models,
// cascade bundles, and whole pipeline artifacts.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "models/gbdt.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "ops/concat.hpp"
#include "ops/encoders.hpp"
#include "ops/scale.hpp"
#include "ops/string_ops.hpp"
#include "ops/tfidf.hpp"
#include "serialize/artifact.hpp"
#include "serialize/model_registry.hpp"
#include "serialize/op_registry.hpp"
#include "test_support.hpp"

namespace willump {
namespace {

using serialize::ErrorCode;
using serialize::SerializeError;

using Bytes = std::vector<std::uint8_t>;

// --- corpus builders ------------------------------------------------------

Bytes pipeline_artifact() {
  static const Bytes bytes =
      serialize::pipeline_to_bytes(testing::shared_toxic_optimized().pipeline);
  return bytes;
}

Bytes cascade_artifact() {
  auto& f = testing::shared_toxic();
  static const Bytes bytes = serialize::cascade_bundle_to_bytes(
      {f.cascade, f.compiled->analysis().block_cols,
       f.compiled->analysis().col_begin, f.cascade.stats.cost_seconds});
  return bytes;
}

std::vector<ops::OperatorPtr> op_corpus() {
  std::vector<ops::OperatorPtr> ops;
  ops.push_back(std::make_shared<ops::ConcatOp>());
  ops.push_back(std::make_shared<ops::LowercaseOp>());
  ops.push_back(std::make_shared<ops::StripPunctOp>());
  ops.push_back(std::make_shared<ops::StringStatsOp>());
  ops.push_back(std::make_shared<ops::OneHotHashOp>(64, 7, "oh"));
  ops.push_back(std::make_shared<ops::NumericColumnsOp>("num"));
  ops.push_back(std::make_shared<ops::BucketizeOp>(std::vector<double>{0, 1, 2}));
  ops.push_back(std::make_shared<ops::ColumnMathOp>(ops::ColumnMathOp::Kind::Div));
  ops.push_back(std::make_shared<ops::ScaleOp>(std::vector<double>{1, 2},
                                               std::vector<double>{0, 0}));
  ops.push_back(std::make_shared<ops::KeywordCountOp>(
      std::vector<std::string>{"bad", "worse"}));
  ops::TfIdfConfig tfcfg;
  tfcfg.min_df = 1;
  ops.push_back(std::make_shared<ops::TfIdfOp>(
      std::make_shared<ops::TfIdfModel>(ops::TfIdfModel::fit(
          data::StringColumn{"a b c", "b c d", "c d e"}, tfcfg))));
  return ops;
}

std::vector<std::shared_ptr<models::Model>> model_corpus() {
  // Tiny deterministic training set.
  data::DenseMatrix x(64, 3);
  std::vector<double> y(64);
  for (std::size_t i = 0; i < 64; ++i) {
    x(i, 0) = static_cast<double>(i % 7) - 3.0;
    x(i, 1) = static_cast<double>((i * 5) % 11);
    x(i, 2) = static_cast<double>(i) / 64.0;
    y[i] = x(i, 0) > 0.0 ? 1.0 : 0.0;
  }
  const data::FeatureMatrix fx(x);

  std::vector<std::shared_ptr<models::Model>> models;
  models.push_back(std::make_shared<models::LogisticRegression>());
  models.push_back(std::make_shared<models::LinearRegression>());
  models::GbdtConfig gb;
  gb.n_trees = 4;
  gb.permutation_rows = 0;
  models.push_back(std::make_shared<models::Gbdt>(gb));
  models::MlpConfig mlp;
  mlp.hidden = 4;
  mlp.epochs = 2;
  models.push_back(std::make_shared<models::Mlp>(mlp));
  for (auto& m : models) m->fit(fx, y);
  return models;
}

// --- mutation helpers -----------------------------------------------------

/// Loading `bytes` must either throw SerializeError or (for mutations that
/// happen to hit redundant padding — impossible here, every payload byte is
/// CRC-covered) produce a value; it must never escape any other way.
template <typename LoadFn>
void expect_typed_rejection(const Bytes& bytes, LoadFn&& load,
                            const char* what) {
  try {
    load(bytes);
    // Reaching here means the mutation produced a still-valid artifact;
    // the only mutation-free call sites assert success separately, so flag
    // it — with CRC-covered payloads this indicates a checksum hole.
    ADD_FAILURE() << what << ": corrupt artifact was accepted";
  } catch (const SerializeError&) {
    // Typed rejection: exactly what the contract requires.
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped with untyped " << e.what();
  }
}

template <typename LoadFn>
void run_truncation_corpus(const Bytes& bytes, LoadFn&& load) {
  // Every prefix for small artifacts; strided prefixes for big ones.
  const std::size_t stride = bytes.size() > 4096 ? bytes.size() / 997 : 1;
  for (std::size_t cut = 0; cut < bytes.size(); cut += stride) {
    Bytes truncated(bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    expect_typed_rejection(truncated, load, "truncation");
  }
}

template <typename LoadFn>
void run_bitflip_corpus(const Bytes& bytes, LoadFn&& load) {
  const std::size_t stride = bytes.size() > 4096 ? bytes.size() / 997 : 1;
  for (std::size_t pos = 0; pos < bytes.size(); pos += stride) {
    for (std::uint8_t bit : {0, 3, 7}) {
      Bytes flipped = bytes;
      flipped[pos] ^= static_cast<std::uint8_t>(1u << bit);
      expect_typed_rejection(flipped, load, "bit flip");
    }
  }
}

auto load_pipeline_fn() {
  return [](const Bytes& b) { (void)serialize::pipeline_from_bytes(b); };
}

auto load_cascade_fn() {
  return [](const Bytes& b) { (void)serialize::cascade_bundle_from_bytes(b); };
}

// --- container-level rejections ------------------------------------------

TEST(SerializeReject, EmptyAndHeaderOnlyArtifacts) {
  expect_typed_rejection({}, load_pipeline_fn(), "empty");
  Bytes magic_only{'W', 'L', 'M', 'P'};
  expect_typed_rejection(magic_only, load_pipeline_fn(), "magic only");
}

TEST(SerializeReject, WrongMagicIsBadMagic) {
  Bytes bytes = pipeline_artifact();
  bytes[0] = 'X';
  try {
    serialize::pipeline_from_bytes(bytes);
    FAIL() << "accepted foreign bytes";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadMagic);
  }
}

TEST(SerializeReject, FutureVersionIsUnsupportedVersion) {
  Bytes bytes = pipeline_artifact();
  bytes[4] = static_cast<std::uint8_t>(serialize::kFormatVersion + 1);
  try {
    serialize::pipeline_from_bytes(bytes);
    FAIL() << "accepted a future format version";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::UnsupportedVersion);
  }
}

TEST(SerializeReject, KindConfusionIsWrongKind) {
  // A valid cascade bundle is not a pipeline and vice versa.
  try {
    serialize::pipeline_from_bytes(cascade_artifact());
    FAIL() << "accepted a cascade bundle as a pipeline";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::WrongKind);
  }
  try {
    serialize::cascade_bundle_from_bytes(pipeline_artifact());
    FAIL() << "accepted a pipeline as a cascade bundle";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::WrongKind);
  }
}

TEST(SerializeReject, MissingFileIsIoError) {
  try {
    serialize::load_pipeline("/nonexistent/dir/nope.wlmp");
    FAIL() << "loaded a missing file";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::IoError);
  }
}

// --- fuzz-ish corpora per serializable type -------------------------------

TEST(SerializeReject, PipelineTruncationCorpus) {
  run_truncation_corpus(pipeline_artifact(), load_pipeline_fn());
}

TEST(SerializeReject, PipelineBitflipCorpus) {
  run_bitflip_corpus(pipeline_artifact(), load_pipeline_fn());
}

// The default artifact above exercises the v4 compressed sections; the v3
// legacy layout must reject just as hard under the same reader.
Bytes pipeline_artifact_v3() {
  static const Bytes bytes = serialize::pipeline_to_bytes(
      testing::shared_toxic_optimized().pipeline, 3);
  return bytes;
}

TEST(SerializeReject, V3PipelineTruncationCorpus) {
  run_truncation_corpus(pipeline_artifact_v3(), load_pipeline_fn());
}

TEST(SerializeReject, V3PipelineBitflipCorpus) {
  run_bitflip_corpus(pipeline_artifact_v3(), load_pipeline_fn());
}

TEST(SerializeReject, CascadeBundleTruncationCorpus) {
  run_truncation_corpus(cascade_artifact(), load_cascade_fn());
}

TEST(SerializeReject, CascadeBundleBitflipCorpus) {
  run_bitflip_corpus(cascade_artifact(), load_cascade_fn());
}

TEST(SerializeReject, OpPayloadTruncationCorpus) {
  // Raw op payloads sit below the checksummed container; a truncated
  // payload must still fail typed (bounds-checked reads), not crash.
  const serialize::OpLoadContext ctx;
  for (const auto& op : op_corpus()) {
    serialize::Writer w;
    serialize::save_op(w, *op);
    const Bytes bytes(w.bytes().begin(), w.bytes().end());
    // Sanity: the untruncated payload loads.
    serialize::Reader ok(bytes);
    EXPECT_EQ(serialize::load_op(ok, ctx)->name(), op->name());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      Bytes truncated(bytes.begin(),
                      bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      serialize::Reader r(truncated);
      EXPECT_THROW((void)serialize::load_op(r, ctx), SerializeError)
          << op->name() << " cut at " << cut;
    }
  }
}

TEST(SerializeReject, ModelPayloadTruncationCorpus) {
  for (const auto& model : model_corpus()) {
    serialize::Writer w;
    serialize::save_model(w, *model);
    const Bytes bytes(w.bytes().begin(), w.bytes().end());
    serialize::Reader ok(bytes);
    EXPECT_EQ(serialize::load_model(ok)->name(), model->name());
    const std::size_t stride = bytes.size() > 4096 ? 37 : 1;
    for (std::size_t cut = 0; cut < bytes.size(); cut += stride) {
      Bytes truncated(bytes.begin(),
                      bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      serialize::Reader r(truncated);
      EXPECT_THROW((void)serialize::load_model(r), SerializeError)
          << model->name() << " cut at " << cut;
    }
  }
}

TEST(SerializeReject, UnknownTagsAreTyped) {
  serialize::Writer w;
  w.str("no_such_op");
  serialize::Reader r(w.bytes());
  const serialize::OpLoadContext ctx;
  try {
    (void)serialize::load_op(r, ctx);
    FAIL() << "unknown op tag accepted";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::UnknownTypeTag);
  }
  serialize::Writer wm;
  wm.str("no_such_model");
  serialize::Reader rm(wm.bytes());
  try {
    (void)serialize::load_model(rm);
    FAIL() << "unknown model tag accepted";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::UnknownTypeTag);
  }
}

TEST(SerializeReject, LookupWithoutTableSectionIsMissingSection) {
  serialize::Writer w;
  w.str("table_lookup");
  w.str("ghost_table");
  w.f64(0.0);
  w.f64(0.0);
  serialize::Reader r(w.bytes());
  const serialize::OpLoadContext ctx;  // no tables bound
  try {
    (void)serialize::load_op(r, ctx);
    FAIL() << "lookup op resolved a table that is not in the artifact";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::MissingSection);
  }
}

TEST(SerializeReject, TfIdfNgramRangeAboveCapIsCorruptData) {
  // A hand-written v4 char TF-IDF op whose only defect can be max_n: one
  // term "ab", its sorted permutation, the decoded-vocabulary CRC, one idf.
  const auto tfidf_op_bytes = [](std::int32_t max_n) {
    serialize::Writer w;
    w.str("tfidf");
    w.str("char_tfidf");
    w.u8(1);  // Analyzer::Char
    w.i32(2);
    w.i32(max_n);
    w.i32(100);  // max_features
    w.i32(1);    // min_df
    w.u8(1);
    w.u8(0);
    w.u8(1);
    w.varint(1);  // one term, front-coded: no shared prefix, suffix "ab"
    w.varint(0);
    w.varint(2);
    w.u8('a');
    w.u8('b');
    w.varint(0);  // sorted position 0 -> vocab index 0
    serialize::Writer probe;
    probe.str("ab");
    w.u32(serialize::crc32(probe.bytes()));
    w.doubles(std::vector<double>{1.0});
    return Bytes(w.bytes().begin(), w.bytes().end());
  };
  const serialize::OpLoadContext ctx;
  for (const std::int32_t ok : {2, ops::TfIdfConfig::kMaxNgramN}) {
    const Bytes bytes = tfidf_op_bytes(ok);
    serialize::Reader r(bytes);
    EXPECT_EQ(serialize::load_op(r, ctx)->name(), "char_tfidf") << ok;
  }
  for (const std::int32_t bad : {ops::TfIdfConfig::kMaxNgramN + 1,
                                 std::numeric_limits<std::int32_t>::max()}) {
    const Bytes bytes = tfidf_op_bytes(bad);
    serialize::Reader r(bytes);
    try {
      (void)serialize::load_op(r, ctx);
      FAIL() << "tfidf max_n " << bad << " accepted";
    } catch (const SerializeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::CorruptData) << bad;
    }
  }
}

TEST(SerializeReject, KeywordBytesAboveCapIsCorruptData) {
  // A hand-written v4 keyword_count op: a count, then varint-prefixed
  // keywords whose bytes sum to `total` (one long keyword plus "ab").
  const auto keyword_op_bytes = [](std::size_t total) {
    serialize::Writer w;
    w.str("keyword_count");
    w.u64(2);
    w.str(std::string(total - 2, 'k'));
    w.str("ab");
    return Bytes(w.bytes().begin(), w.bytes().end());
  };
  const serialize::OpLoadContext ctx;
  {
    const Bytes bytes = keyword_op_bytes(ops::KeywordCountOp::kMaxKeywordBytes);
    serialize::Reader r(bytes);
    EXPECT_EQ(serialize::load_op(r, ctx)->name(), "keyword_count");
  }
  const Bytes bytes =
      keyword_op_bytes(ops::KeywordCountOp::kMaxKeywordBytes + 1);
  serialize::Reader r(bytes);
  try {
    (void)serialize::load_op(r, ctx);
    FAIL() << "keyword list one byte above the cap accepted";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::CorruptData);
  }
}

// --- v4 codec primitive rejections ---------------------------------------
// Below the container CRCs, every codec payload self-validates: malformed
// varints, out-of-range dictionary state, and decoded-side checksum
// mismatches must all surface typed.

TEST(SerializeReject, OverlongVarintIsCorruptData) {
  // Eleven continuation bytes: longer than any u64 encoding.
  Bytes overlong(11, 0x80);
  serialize::Reader r(overlong);
  try {
    (void)r.varint();
    FAIL() << "overlong varint accepted";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::CorruptData);
  }
  // Ten bytes whose final payload bits overflow the 64-bit range.
  Bytes overflow(9, 0x80);
  overflow.push_back(0x02);
  serialize::Reader r2(overflow);
  try {
    (void)r2.varint();
    FAIL() << "overflowing varint accepted";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::CorruptData);
  }
}

TEST(SerializeReject, DictionaryCodecRejectsMalformedState) {
  const auto decode = [](const serialize::Writer& w) {
    serialize::Reader r(w.bytes());
    (void)r.doubles();
  };
  {
    serialize::Writer w;  // unknown codec mode byte
    w.varint(16);
    w.u8(2);
    EXPECT_THROW(decode(w), SerializeError);
  }
  {
    serialize::Writer w;  // empty dictionary
    w.varint(16);
    w.u8(1);
    w.varint(0);
    EXPECT_THROW(decode(w), SerializeError);
  }
  {
    serialize::Writer w;  // index past the dictionary
    w.varint(16);
    w.u8(1);
    w.varint(1);
    w.f64(1.5);
    w.varint(5);
    EXPECT_THROW(decode(w), SerializeError);
  }
}

TEST(SerializeReject, DictionaryCodecCrcCoversDecodedPayload) {
  // A repetitive vector takes the dictionary encoding; flipping any payload
  // byte (dictionary entry or index stream) must fail the decoded-side CRC
  // or a range check — never decode to different doubles.
  std::vector<double> xs(64);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i % 4);
  }
  serialize::Writer w;
  w.doubles(xs);
  const Bytes bytes(w.bytes().begin(), w.bytes().end());
  ASSERT_EQ(bytes[1], 1) << "expected the dictionary encoding";
  {
    serialize::Reader ok(bytes);
    EXPECT_EQ(ok.doubles(), xs);
  }
  for (std::size_t pos = 2; pos < bytes.size(); ++pos) {
    Bytes flipped = bytes;
    flipped[pos] ^= 0x10;
    serialize::Reader r(flipped);
    try {
      const std::vector<double> got = r.doubles();
      EXPECT_NE(got, xs) << "flip at " << pos << " was a no-op";
      ADD_FAILURE() << "flip at " << pos << " decoded without a typed error";
    } catch (const SerializeError&) {
      // Typed rejection (ChecksumMismatch / CorruptData / Truncated).
    }
  }
}

TEST(SerializeReject, DeltaKeysCrcCoversDecodedPayload) {
  std::vector<std::int64_t> keys;
  for (std::int64_t k = -5; k < 60; ++k) keys.push_back(k * 3);
  serialize::Writer w;
  w.i64s_delta(keys);
  const Bytes bytes(w.bytes().begin(), w.bytes().end());
  {
    serialize::Reader ok(bytes);
    EXPECT_EQ(ok.i64s_delta(), keys);
  }
  for (std::size_t pos = 1; pos < bytes.size(); ++pos) {
    Bytes flipped = bytes;
    flipped[pos] ^= 0x08;
    serialize::Reader r(flipped);
    try {
      const std::vector<std::int64_t> got = r.i64s_delta();
      EXPECT_NE(got, keys) << "flip at " << pos << " was a no-op";
      ADD_FAILURE() << "flip at " << pos << " decoded without a typed error";
    } catch (const SerializeError&) {
    }
  }
}

TEST(SerializeReject, DeltaWriterRefusesUnsortedKeys) {
  serialize::Writer w;
  const std::int64_t keys[] = {3, 2, 1};
  EXPECT_THROW(w.i64s_delta(keys), std::logic_error);
}

TEST(SerializeReject, GiantLengthPrefixDoesNotAllocate) {
  // A length prefix of ~2^63 must be rejected by the remaining-bytes guard
  // before any allocation is attempted.
  serialize::Writer w;
  w.u64(0x7FFFFFFFFFFFFFFFull);
  serialize::Reader r(w.bytes());
  EXPECT_THROW((void)r.doubles(), SerializeError);
  serialize::Reader r2(w.bytes());
  EXPECT_THROW((void)r2.str(), SerializeError);
}

}  // namespace
}  // namespace willump
