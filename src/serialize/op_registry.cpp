#include "serialize/op_registry.hpp"

#include <functional>
#include <stdexcept>

#include "ops/concat.hpp"
#include "ops/encoders.hpp"
#include "ops/lookup.hpp"
#include "ops/scale.hpp"
#include "ops/string_ops.hpp"
#include "ops/tfidf.hpp"
#include "serialize/intern.hpp"

namespace willump::serialize {

namespace {

using Loader =
    std::function<ops::OperatorPtr(Reader&, const OpLoadContext&)>;

ops::OperatorPtr load_one_hot_hash(Reader& r, const OpLoadContext&) {
  const std::int32_t buckets = r.i32();
  const std::uint64_t salt = r.u64();
  std::string label = r.str();
  if (buckets <= 0) {
    throw SerializeError(ErrorCode::CorruptData,
                         "one_hot_hash bucket count must be positive");
  }
  return std::make_shared<ops::OneHotHashOp>(buckets, salt, std::move(label));
}

ops::OperatorPtr load_numeric_columns(Reader& r, const OpLoadContext&) {
  return std::make_shared<ops::NumericColumnsOp>(r.str());
}

ops::OperatorPtr load_bucketize(Reader& r, const OpLoadContext&) {
  return std::make_shared<ops::BucketizeOp>(r.doubles());
}

ops::OperatorPtr load_column_math(Reader& r, const OpLoadContext&) {
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(ops::ColumnMathOp::Kind::Log1p)) {
    throw SerializeError(ErrorCode::CorruptData,
                         "column_math kind out of range");
  }
  return std::make_shared<ops::ColumnMathOp>(
      static_cast<ops::ColumnMathOp::Kind>(kind));
}

ops::OperatorPtr load_scale(Reader& r, const OpLoadContext&) {
  auto scale = r.doubles();
  auto offset = r.doubles();
  if (scale.size() != offset.size()) {
    throw SerializeError(ErrorCode::CorruptData,
                         "scale/offset dimension mismatch");
  }
  return std::make_shared<ops::ScaleOp>(std::move(scale), std::move(offset));
}

ops::OperatorPtr load_keyword_count(Reader& r, const OpLoadContext&) {
  // v4 strings carry 1-byte varint prefixes, so the per-element floor drops.
  const std::uint64_t n =
      r.length(r.format_version() >= 4 ? 1 : 8, "keyword list");
  std::vector<std::string> keywords;
  keywords.reserve(static_cast<std::size_t>(n));
  std::size_t total_bytes = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    keywords.push_back(r.str());
    total_bytes += keywords.back().size();
    if (total_bytes > ops::KeywordCountOp::kMaxKeywordBytes) {
      throw SerializeError(ErrorCode::CorruptData,
                           "keyword_count keywords above the byte cap");
    }
  }
  return std::make_shared<ops::KeywordCountOp>(std::move(keywords));
}

ops::OperatorPtr load_tfidf(Reader& r, const OpLoadContext&) {
  std::string label = r.str();
  // Key the intern pool by the model's exact wire image: replicas and
  // swap generations loading byte-identical fitted state share one model.
  const std::size_t start = r.position();
  std::shared_ptr<const ops::TfIdfModel> model =
      std::make_shared<ops::TfIdfModel>(ops::TfIdfModel::load(r));
  model = InternPool::instance().intern<ops::TfIdfModel>(
      "tfidf", r.window(start), std::move(model));
  return std::make_shared<ops::TfIdfOp>(std::move(model), std::move(label));
}

ops::OperatorPtr load_table_lookup(Reader& r, const OpLoadContext& ctx) {
  const std::string table_name = r.str();
  store::NetworkModel net;
  net.rtt_micros = r.f64();
  net.per_key_micros = r.f64();
  auto it = ctx.tables.find(table_name);
  if (it == ctx.tables.end()) {
    throw SerializeError(ErrorCode::MissingSection,
                         "table \"" + table_name +
                             "\" not present in the artifact's table section");
  }
  return std::make_shared<ops::TableLookupOp>(
      std::make_shared<store::TableClient>(it->second, net));
}

const std::unordered_map<std::string, Loader>& loaders() {
  static const std::unordered_map<std::string, Loader> table = {
      {"concat",
       [](Reader&, const OpLoadContext&) -> ops::OperatorPtr {
         return std::make_shared<ops::ConcatOp>();
       }},
      {"lowercase",
       [](Reader&, const OpLoadContext&) -> ops::OperatorPtr {
         return std::make_shared<ops::LowercaseOp>();
       }},
      {"strip_punct",
       [](Reader&, const OpLoadContext&) -> ops::OperatorPtr {
         return std::make_shared<ops::StripPunctOp>();
       }},
      {"string_stats",
       [](Reader&, const OpLoadContext&) -> ops::OperatorPtr {
         return std::make_shared<ops::StringStatsOp>();
       }},
      {"one_hot_hash", load_one_hot_hash},
      {"numeric_columns", load_numeric_columns},
      {"bucketize", load_bucketize},
      {"column_math", load_column_math},
      {"scale", load_scale},
      {"keyword_count", load_keyword_count},
      {"tfidf", load_tfidf},
      {"table_lookup", load_table_lookup},
  };
  return table;
}

}  // namespace

void save_op(Writer& w, const ops::Operator& op) {
  const std::string_view tag = op.serial_tag();
  if (tag.empty() || loaders().find(std::string(tag)) == loaders().end()) {
    throw std::logic_error("operator \"" + op.name() +
                           "\" has no registered serialization tag");
  }
  w.str(tag);
  op.save(w);
}

ops::OperatorPtr load_op(Reader& r, const OpLoadContext& ctx) {
  const std::string tag = r.str();
  auto it = loaders().find(tag);
  if (it == loaders().end()) {
    throw SerializeError(ErrorCode::UnknownTypeTag,
                         "operator tag \"" + tag + "\"");
  }
  return it->second(r, ctx);
}

}  // namespace willump::serialize
