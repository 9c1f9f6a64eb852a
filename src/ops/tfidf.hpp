#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/matrix.hpp"
#include "data/value.hpp"
#include "ops/block_kernels.hpp"
#include "ops/operator.hpp"
#include "ops/tokenizer.hpp"

namespace willump::serialize {
class Reader;
}

namespace willump::ops {

/// Heterogeneous string hash so the hot path can probe the vocabulary with
/// a string_view n-gram — no per-gram std::string temporary.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
  std::size_t operator()(const std::string& s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Per-worker scratch for batched TF-IDF transforms: a dense count array
/// and a hit bitset, both all-zero between documents (only slots a
/// document hits are ever nonzero, and the row builder re-zeroes them), the
/// assembled entry row, and tokenizer buffers. One allocation steady-state.
struct TfIdfScratch {
  std::vector<double> counts;           // dim_ slots, all-zero between docs
  std::vector<std::uint64_t> hit_bits;  // bit i set iff counts[i] != 0
  std::vector<data::SparseEntry> row;   // assembled (index, tf*idf) entries
  TokenizerScratch tok;
};

/// TF-IDF vectorizer settings (scikit-learn-compatible subset).
struct TfIdfConfig {
  /// Largest accepted `ngrams.max_n`: `fit` throws std::invalid_argument
  /// and `load` throws SerializeError(CorruptData) above it, so a corrupt
  /// artifact cannot make every transform walk billions of n-gram lengths.
  static constexpr int kMaxNgramN = 64;

  Analyzer analyzer = Analyzer::Word;
  NgramRange ngrams{1, 1};
  int max_features = 4000;  // keep the most frequent terms
  int min_df = 2;           // drop terms in fewer documents
  bool use_idf = true;
  bool sublinear_tf = false;  // 1 + log(tf)
  bool l2_normalize = true;
};

/// Fitted TF-IDF state: vocabulary plus smoothed IDF weights.
///
/// Fitting happens at training time; the graph node (`TfIdfOp`) holds a
/// shared immutable `TfIdfModel`, matching the paper's assumption that the
/// same feature pipeline runs at train and serve time (§4.2).
class TfIdfModel {
 public:
  TfIdfModel() = default;
  // terms_ holds views into vocab_'s key nodes: moves keep the nodes (views
  // stay valid), but copies allocate fresh nodes, so rebuild the index.
  TfIdfModel(const TfIdfModel& o)
      : cfg_(o.cfg_), dim_(o.dim_), vocab_(o.vocab_), idf_(o.idf_) {
    finalize_index();
  }
  TfIdfModel& operator=(const TfIdfModel& o) {
    if (this != &o) {
      cfg_ = o.cfg_;
      dim_ = o.dim_;
      vocab_ = o.vocab_;
      idf_ = o.idf_;
      finalize_index();
    }
    return *this;
  }
  TfIdfModel(TfIdfModel&&) = default;
  TfIdfModel& operator=(TfIdfModel&&) = default;

  static TfIdfModel fit(const data::StringColumn& corpus, TfIdfConfig cfg);

  /// Transform one document into a sorted sparse row.
  data::SparseVector transform_one(std::string_view doc) const;

  /// Transform a column of documents into a CSR block.
  data::CsrMatrix transform(const data::StringColumn& docs) const;

  /// Blocked transform: append one CSR row per document directly onto
  /// `out` (which must have cols() == vocabulary_size()), reusing `scratch`
  /// across documents so the steady-state path allocates nothing. Rows are
  /// bit-identical to transform_one.
  void transform_into(std::span<const std::string> docs, TfIdfScratch& scratch,
                      data::CsrMatrix& out) const;

  std::int32_t vocabulary_size() const { return dim_; }
  const TfIdfConfig& config() const { return cfg_; }

  /// Term index, or -1 if out of vocabulary.
  std::int32_t term_index(std::string_view term) const;

  /// Fitted-state round trip (vocabulary is written index-ordered so the
  /// byte stream is deterministic across hash-map layouts).
  void save(serialize::Writer& w) const;
  static TfIdfModel load(serialize::Reader& r);

 private:
  /// Rebuild terms_, pool_ and the probe tables (flat_, plus packed_ when
  /// the config qualifies) from vocab_ (after fit, load or copy).
  void finalize_index();

  /// Accumulate one document's vocab-hit counts into scratch (counts +
  /// hit_bits); both must be all-zero on entry.
  void count_terms(std::string_view doc, TfIdfScratch& scratch) const;

  /// Turn accumulated counts into the index-ordered tf·idf entry row in
  /// scratch.row (l2-normalized per config) and restore the counts and
  /// hit_bits all-zeros invariant.
  void build_row(TfIdfScratch& scratch) const;

  TfIdfConfig cfg_;
  std::int32_t dim_ = 0;
  // Heterogeneous map: find(string_view) without a temporary string.
  // Node-based, so the key strings are stable and terms_ can view them.
  std::unordered_map<std::string, std::int32_t, TransparentStringHash,
                     std::equal_to<>>
      vocab_;
  std::vector<double> idf_;
  // index -> term (views into vocab_ keys)
  std::vector<std::string_view> terms_;

  /// Vocabulary index of the `n` bytes at `p` in the flat table, or -1.
  std::int32_t find_term(const unsigned char* p, std::size_t n) const;

  /// Flat open-addressing vocabulary probe table: one contiguous access
  /// per probe instead of the unordered_map's bucket-node chase. The stored
  /// hash and length filter almost every collision before the byte compare
  /// against the term pool, and the compare keeps hits exact (bit-exact
  /// rows). Full-width fields, so a loaded vocabulary of any size probes
  /// exactly.
  struct FlatSlot {
    std::uint64_t hash = 0;
    std::size_t off = 0;    // first byte of the term in pool_
    std::size_t len = 0;    // term length in bytes
    std::int32_t idx = -1;  // vocab index, -1 = empty
  };
  std::vector<FlatSlot> flat_;  // power-of-two size, >= 2x load headroom
  std::uint64_t flat_mask_ = 0;
  // Both tables take a hash's top bits as the slot: slot = hash >> shift.
  int flat_shift_ = 64;
  std::string pool_;  // every term's bytes, index order, back to back

  /// Packed char n-gram probe table, built only for Analyzer::Char with
  /// max_n <= kMaxPackedN (empty otherwise). A key is the n-gram's bytes
  /// little-endian OR'd with `len << 56`, so it identifies the n-gram
  /// exactly: probes compare one integer and never touch the term strings.
  static constexpr int kMaxPackedN = 7;
  struct PackedSlot {
    std::uint64_t key = 0;  // 0 = empty (a real key has len >= 1)
    std::int32_t idx = -1;
  };
  // flat_'s size, so flat_mask_ and flat_shift_ serve it too (multiply-
  // shift: slot = (key*C) >> flat_shift_).
  std::vector<PackedSlot> packed_;
};

/// Graph node applying a fitted TF-IDF model to a string column.
/// Compilable (the paper compiles TF-IDF through parameterized Weld
/// templates, §5.2) but not a string map (output is a feature block).
class TfIdfOp final : public Operator, public SparseBlockEmitter {
 public:
  explicit TfIdfOp(std::shared_ptr<const TfIdfModel> model, std::string label = "tfidf")
      : model_(std::move(model)), label_(std::move(label)) {}

  std::string name() const override { return label_; }
  data::Value eval_batch(std::span<const data::Value> inputs) const override;
  void emit_into(std::span<const data::Value> inputs,
                 const BlockExecContext& ctx,
                 data::CsrMatrix& out) const override;
  std::string_view serial_tag() const override { return "tfidf"; }
  void save(serialize::Writer& w) const override;

  const TfIdfModel& model() const { return *model_; }

 private:
  std::shared_ptr<const TfIdfModel> model_;
  std::string label_;
};

}  // namespace willump::ops
