#include "ops/tfidf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "serialize/buffer.hpp"

namespace willump::ops {

namespace {

/// Fibonacci multiplier for the packed table's multiply-shift hash.
constexpr std::uint64_t kPackedMul = 0x9E3779B97F4A7C15ull;

/// The first min(n, 8) bytes at p as a little-endian integer (zero above).
std::uint64_t load_le(const unsigned char* p, std::size_t n) {
  std::uint64_t w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    if (n >= 8) {
      std::memcpy(&w, p, 8);
      return w;
    }
  }
  const std::size_t k_end = std::min<std::size_t>(n, 8);
  for (std::size_t k = 0; k < k_end; ++k) {
    w |= std::uint64_t{p[k]} << (8 * k);
  }
  return w;
}

/// Low `n` bytes of `w` (n in [1, 7]) tagged with n in the top byte.
std::uint64_t packed_key(std::uint64_t w, std::size_t n) {
  return (w & ((std::uint64_t{1} << (8 * n)) - 1)) |
         (static_cast<std::uint64_t>(n) << 56);
}

/// Flat-table hash of a term's bytes: seeded by the length, one multiply
/// per 8-byte chunk, and the last chunk read through load_le so no load
/// passes the term's end. The product's top bits pick the slot.
std::uint64_t term_hash(const unsigned char* p, std::size_t n) {
  std::uint64_t h = (static_cast<std::uint64_t>(n) + 1) * kPackedMul;
  for (; n > 8; p += 8, n -= 8) h = (h ^ load_le(p, 8)) * kPackedMul;
  return (h ^ load_le(p, n)) * kPackedMul;
}

}  // namespace

TfIdfModel TfIdfModel::fit(const data::StringColumn& corpus, TfIdfConfig cfg) {
  if (cfg.ngrams.min_n < 1 || cfg.ngrams.max_n < cfg.ngrams.min_n ||
      cfg.ngrams.max_n > TfIdfConfig::kMaxNgramN) {
    throw std::invalid_argument(
        "tfidf: ngram range must satisfy 1 <= min_n <= max_n <= " +
        std::to_string(TfIdfConfig::kMaxNgramN));
  }
  TfIdfModel m;
  m.cfg_ = cfg;

  // Document frequencies over the corpus.
  std::unordered_map<std::string, std::int32_t> df;
  std::unordered_map<std::string, std::int32_t> seen_doc;  // term -> last doc id
  std::int32_t doc_id = 0;
  for (const auto& doc : corpus) {
    for_each_ngram(doc, cfg.analyzer, cfg.ngrams, [&](std::string_view g) {
      auto [it, inserted] = seen_doc.try_emplace(std::string(g), doc_id);
      if (inserted || it->second != doc_id) {
        it->second = doc_id;
        ++df[it->first];
      }
    });
    ++doc_id;
  }

  // Rank terms by document frequency (stable by term for determinism) and
  // keep the top max_features above min_df.
  std::vector<std::pair<std::string, std::int32_t>> ranked(df.begin(), df.end());
  std::erase_if(ranked, [&](const auto& p) { return p.second < cfg.min_df; });
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (cfg.max_features > 0 &&
      ranked.size() > static_cast<std::size_t>(cfg.max_features)) {
    ranked.resize(static_cast<std::size_t>(cfg.max_features));
  }

  const double n_docs = static_cast<double>(corpus.size());
  m.vocab_.reserve(ranked.size());
  m.idf_.reserve(ranked.size());
  for (const auto& [term, dfreq] : ranked) {
    m.vocab_.emplace(term, static_cast<std::int32_t>(m.idf_.size()));
    // Smoothed IDF, scikit-learn formulation.
    const double idf =
        cfg.use_idf
            ? std::log((1.0 + n_docs) / (1.0 + static_cast<double>(dfreq))) + 1.0
            : 1.0;
    m.idf_.push_back(idf);
  }
  m.dim_ = static_cast<std::int32_t>(m.idf_.size());
  m.finalize_index();
  return m;
}

void TfIdfModel::finalize_index() {
  // unordered_map is node-based: key strings stay put across rehash, so
  // index-ordered views into them are stable for the model's lifetime.
  terms_.assign(static_cast<std::size_t>(dim_), {});
  for (const auto& [term, idx] : vocab_) {
    terms_[static_cast<std::size_t>(idx)] = term;
  }
  // Flat probe table at <= 50% load; minimum size keeps the probe loop
  // in-bounds even for an empty vocabulary (every slot reads as empty).
  const std::size_t slots = std::max<std::size_t>(
      16, std::bit_ceil(static_cast<std::size_t>(dim_) * 2));
  flat_mask_ = slots - 1;
  flat_shift_ = 64 - std::countr_zero(slots);
  flat_.assign(slots, {});
  pool_.clear();
  for (const std::string_view t : terms_) pool_.append(t);
  std::size_t off = 0;
  for (std::int32_t i = 0; i < dim_; ++i) {
    const std::string_view t = terms_[static_cast<std::size_t>(i)];
    const std::uint64_t h = term_hash(
        reinterpret_cast<const unsigned char*>(t.data()), t.size());
    std::size_t s = h >> flat_shift_;
    while (flat_[s].idx != -1) s = (s + 1) & flat_mask_;
    flat_[s] = {h, off, t.size(), i};
    off += t.size();
  }

  packed_.clear();
  if (cfg_.analyzer != Analyzer::Char || cfg_.ngrams.max_n > kMaxPackedN) {
    return;
  }
  packed_.assign(slots, {});
  for (std::int32_t i = 0; i < dim_; ++i) {
    const std::string_view t = terms_[static_cast<std::size_t>(i)];
    // Only lengths the counter probes can ever hit (a loaded vocabulary is
    // free-form); the string table above skips the rest the same way.
    if (t.size() < static_cast<std::size_t>(cfg_.ngrams.min_n) ||
        t.size() > static_cast<std::size_t>(cfg_.ngrams.max_n)) {
      continue;
    }
    const std::uint64_t key = packed_key(
        load_le(reinterpret_cast<const unsigned char*>(t.data()), t.size()),
        t.size());
    std::size_t s = (key * kPackedMul) >> flat_shift_;
    while (packed_[s].key != 0) s = (s + 1) & flat_mask_;
    packed_[s] = {key, i};
  }
}

std::int32_t TfIdfModel::term_index(std::string_view term) const {
  auto it = vocab_.find(term);
  return it == vocab_.end() ? -1 : it->second;
}

std::int32_t TfIdfModel::find_term(const unsigned char* p,
                                   std::size_t n) const {
  const std::uint64_t h = term_hash(p, n);
  const FlatSlot* const table = flat_.data();
  const char* const pool = pool_.data();
  for (std::size_t s = h >> flat_shift_;; s = (s + 1) & flat_mask_) {
    const FlatSlot& slot = table[s];
    if (slot.idx == -1) return -1;
    if (slot.hash == h && slot.len == n &&
        std::memcmp(pool + slot.off, p, n) == 0) {
      return slot.idx;
    }
  }
}

void TfIdfModel::count_terms(std::string_view doc,
                             TfIdfScratch& scratch) const {
  const auto dim = static_cast<std::size_t>(dim_);
  scratch.counts.resize(dim, 0.0);
  scratch.hit_bits.resize((dim + 63) / 64, 0);
  double* const counts = scratch.counts.data();
  std::uint64_t* const bits = scratch.hit_bits.data();
  auto hit = [counts, bits](std::int32_t idx) {
    const auto i = static_cast<std::size_t>(idx);
    counts[i] += 1.0;
    bits[i >> 6] |= std::uint64_t{1} << (i & 63);
  };

  if (!packed_.empty()) {
    // One pass over positions: load up to 8 bytes once, then probe every
    // n in [min_n, max_n] that fits before the end of the document.
    // Counts are integer-valued, so position-major order sums the same.
    const auto* p = reinterpret_cast<const unsigned char*>(doc.data());
    const std::size_t size = doc.size();
    const auto min_n = static_cast<std::size_t>(cfg_.ngrams.min_n);
    const auto max_n = static_cast<std::size_t>(cfg_.ngrams.max_n);
    const PackedSlot* const table = packed_.data();
    for (std::size_t i = 0; i + min_n <= size; ++i) {
      const std::size_t avail = size - i;
      const std::uint64_t w = load_le(p + i, avail);
      const std::size_t top = std::min(max_n, avail);
      for (std::size_t n = min_n; n <= top; ++n) {
        const std::uint64_t key = packed_key(w, n);
        for (std::size_t s = (key * kPackedMul) >> flat_shift_;;
             s = (s + 1) & flat_mask_) {
          if (table[s].key == key) {
            hit(table[s].idx);
            break;
          }
          if (table[s].key == 0) break;
        }
      }
    }
    return;
  }

  if (cfg_.analyzer == Analyzer::Word && cfg_.ngrams.max_n == 1) {
    // Unigrams: one scan over the document, probing each maximal run of
    // non-space bytes where it lies, with no token vector. Same splits as
    // for_each_ngram_t, so fit and transform agree on every token.
    const auto* p = reinterpret_cast<const unsigned char*>(doc.data());
    const std::size_t size = doc.size();
    std::size_t i = 0;
    for (;;) {
      while (i < size && is_word_space(p[i])) ++i;
      if (i == size) return;
      const std::size_t start = i;
      while (i < size && !is_word_space(p[i])) ++i;
      const std::int32_t idx = find_term(p + start, i - start);
      if (idx >= 0) hit(idx);
    }
  }

  for_each_ngram_t(doc, cfg_.analyzer, cfg_.ngrams, scratch.tok,
                   [&](std::string_view g) {
                     const std::int32_t idx = find_term(
                         reinterpret_cast<const unsigned char*>(g.data()),
                         g.size());
                     if (idx >= 0) hit(idx);
                   });
}

void TfIdfModel::build_row(TfIdfScratch& scratch) const {
  // Set bits in word order are the hit indices in ascending order, so the
  // row comes out index-sorted with no sort; clearing each word and each
  // emitted count restores the all-zeros invariant for the next document.
  scratch.row.clear();
  double* const counts = scratch.counts.data();
  std::uint64_t* const bits = scratch.hit_bits.data();
  const std::size_t words = scratch.hit_bits.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t b = bits[w];
    if (b == 0) continue;
    bits[w] = 0;
    for (; b != 0; b &= b - 1) {
      const std::size_t idx =
          w * 64 + static_cast<std::size_t>(std::countr_zero(b));
      const double c = counts[idx];
      counts[idx] = 0.0;
      const double tf = cfg_.sublinear_tf ? 1.0 + std::log(c) : c;
      scratch.row.push_back({static_cast<std::int32_t>(idx), tf * idf_[idx]});
    }
  }
  if (cfg_.l2_normalize) {
    // Same arithmetic as SparseVector::l2_norm + scale(1/norm): sum of
    // v*v in index order, sqrt, multiply — bit-exact with transform_one.
    double sq = 0.0;
    for (const auto& e : scratch.row) sq += e.value * e.value;
    const double norm = std::sqrt(sq);
    if (norm > 0.0) {
      const double inv = 1.0 / norm;
      for (auto& e : scratch.row) e.value *= inv;
    }
  }
}

data::SparseVector TfIdfModel::transform_one(std::string_view doc) const {
  thread_local TfIdfScratch scratch;
  count_terms(doc, scratch);
  build_row(scratch);
  std::vector<data::SparseEntry> entries(scratch.row.begin(),
                                         scratch.row.end());
  return data::SparseVector(dim_, std::move(entries));
}

void TfIdfModel::transform_into(std::span<const std::string> docs,
                                TfIdfScratch& scratch,
                                data::CsrMatrix& out) const {
  for (const auto& doc : docs) {
    count_terms(doc, scratch);
    build_row(scratch);
    out.append_row(scratch.row);
  }
}

data::CsrMatrix TfIdfModel::transform(const data::StringColumn& docs) const {
  thread_local TfIdfScratch scratch;
  data::CsrMatrix out(dim_);
  transform_into(std::span<const std::string>(docs.data(), docs.size()),
                 scratch, out);
  return out;
}

void TfIdfModel::save(serialize::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(cfg_.analyzer));
  w.i32(cfg_.ngrams.min_n);
  w.i32(cfg_.ngrams.max_n);
  w.i32(cfg_.max_features);
  w.i32(cfg_.min_df);
  w.u8(cfg_.use_idf ? 1 : 0);
  w.u8(cfg_.sublinear_tf ? 1 : 0);
  w.u8(cfg_.l2_normalize ? 1 : 0);
  if (w.format_version() >= 4) {
    // v4: vocabulary front-coded in lexicographic order (n-gram vocabularies
    // share long prefixes, so most terms reduce to a shared-prefix length
    // plus a short suffix), followed by the permutation mapping sorted
    // position -> vocab index, and a CRC over the *decoded* index-ordered
    // terms so a codec fault can never ship a silently wrong vocabulary.
    std::vector<std::int32_t> sorted_perm(terms_.size());
    std::iota(sorted_perm.begin(), sorted_perm.end(), 0);
    std::sort(sorted_perm.begin(), sorted_perm.end(),
              [&](std::int32_t a, std::int32_t b) {
                return terms_[static_cast<std::size_t>(a)] <
                       terms_[static_cast<std::size_t>(b)];
              });
    w.varint(terms_.size());
    std::string_view prev;
    for (std::int32_t vi : sorted_perm) {
      const std::string_view t = terms_[static_cast<std::size_t>(vi)];
      std::size_t shared = 0;
      const std::size_t cap = std::min(prev.size(), t.size());
      while (shared < cap && prev[shared] == t[shared]) ++shared;
      w.varint(shared);
      w.varint(t.size() - shared);
      w.raw(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(t.data()) + shared,
          t.size() - shared));
      prev = t;
    }
    for (std::int32_t vi : sorted_perm) {
      w.varint(static_cast<std::uint64_t>(vi));
    }
    serialize::Writer probe(w.format_version());
    for (auto t : terms_) probe.str(t);
    w.u32(serialize::crc32(probe.bytes()));
  } else {
    // Vocabulary in index order: deterministic bytes regardless of the
    // unordered_map's layout, and load can rebuild indices positionally.
    w.u64(terms_.size());
    for (auto t : terms_) w.str(t);
  }
  w.doubles(idf_);
}

TfIdfModel TfIdfModel::load(serialize::Reader& r) {
  TfIdfModel m;
  const std::uint8_t analyzer = r.u8();
  if (analyzer > static_cast<std::uint8_t>(Analyzer::Char)) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "tfidf analyzer out of range");
  }
  m.cfg_.analyzer = static_cast<Analyzer>(analyzer);
  m.cfg_.ngrams.min_n = r.i32();
  m.cfg_.ngrams.max_n = r.i32();
  m.cfg_.max_features = r.i32();
  m.cfg_.min_df = r.i32();
  m.cfg_.use_idf = r.u8() != 0;
  m.cfg_.sublinear_tf = r.u8() != 0;
  m.cfg_.l2_normalize = r.u8() != 0;
  if (m.cfg_.ngrams.min_n < 1 || m.cfg_.ngrams.max_n < m.cfg_.ngrams.min_n ||
      m.cfg_.ngrams.max_n > TfIdfConfig::kMaxNgramN) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "tfidf ngram range invalid");
  }
  if (r.format_version() >= 4) {
    const std::uint64_t n_terms = r.varlength(2, "tfidf vocabulary");
    std::vector<std::string> by_index(static_cast<std::size_t>(n_terms));
    std::vector<std::uint8_t> placed(static_cast<std::size_t>(n_terms), 0);
    std::string prev;
    std::vector<std::string> sorted_terms;
    sorted_terms.reserve(static_cast<std::size_t>(n_terms));
    for (std::uint64_t j = 0; j < n_terms; ++j) {
      const std::uint64_t shared = r.varint();
      const std::uint64_t suffix_len = r.varint();
      if (shared > prev.size()) {
        throw serialize::SerializeError(
            serialize::ErrorCode::CorruptData,
            "tfidf front-coded prefix exceeds previous term");
      }
      const auto suffix = r.raw(static_cast<std::size_t>(suffix_len));
      std::string term = prev.substr(0, static_cast<std::size_t>(shared));
      term.append(reinterpret_cast<const char*>(suffix.data()),
                  suffix.size());
      if (j > 0 && term <= prev) {
        throw serialize::SerializeError(
            serialize::ErrorCode::CorruptData,
            "tfidf front-coded vocabulary not strictly ascending");
      }
      prev = term;
      sorted_terms.push_back(std::move(term));
    }
    for (std::uint64_t j = 0; j < n_terms; ++j) {
      const std::uint64_t vi = r.varint();
      if (vi >= n_terms || placed[static_cast<std::size_t>(vi)] != 0) {
        throw serialize::SerializeError(
            serialize::ErrorCode::CorruptData,
            "tfidf vocabulary permutation is not a bijection");
      }
      placed[static_cast<std::size_t>(vi)] = 1;
      by_index[static_cast<std::size_t>(vi)] =
          std::move(sorted_terms[static_cast<std::size_t>(j)]);
    }
    serialize::Writer probe(r.format_version());
    for (const auto& t : by_index) probe.str(t);
    if (r.u32() != serialize::crc32(probe.bytes())) {
      throw serialize::SerializeError(
          serialize::ErrorCode::ChecksumMismatch,
          "decoded tfidf vocabulary fails its CRC");
    }
    m.vocab_.reserve(static_cast<std::size_t>(n_terms));
    for (std::uint64_t i = 0; i < n_terms; ++i) {
      m.vocab_.emplace(std::move(by_index[static_cast<std::size_t>(i)]),
                       static_cast<std::int32_t>(i));
    }
  } else {
    const std::uint64_t n_terms = r.length(8, "tfidf vocabulary");
    m.vocab_.reserve(static_cast<std::size_t>(n_terms));
    for (std::uint64_t i = 0; i < n_terms; ++i) {
      const auto [it, inserted] =
          m.vocab_.emplace(r.str(), static_cast<std::int32_t>(i));
      if (!inserted) {
        throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                        "tfidf vocabulary has duplicate term");
      }
    }
  }
  m.idf_ = r.doubles();
  const std::uint64_t n_terms = m.vocab_.size();
  if (m.idf_.size() != n_terms) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "tfidf idf/vocabulary size mismatch");
  }
  m.dim_ = static_cast<std::int32_t>(n_terms);
  m.finalize_index();
  return m;
}

void TfIdfOp::save(serialize::Writer& w) const {
  w.str(label_);
  model_->save(w);
}

data::Value TfIdfOp::eval_batch(std::span<const data::Value> inputs) const {
  if (inputs.size() != 1 || !inputs[0].is_column() ||
      inputs[0].column().type() != data::ColumnType::String) {
    throw std::invalid_argument("tfidf: expects one string column");
  }
  return data::Value(
      data::FeatureMatrix(model_->transform(inputs[0].column().strings())));
}

void TfIdfOp::emit_into(std::span<const data::Value> inputs,
                        const BlockExecContext& ctx,
                        data::CsrMatrix& out) const {
  if (inputs.size() != 1 || !inputs[0].is_column() ||
      inputs[0].column().type() != data::ColumnType::String) {
    throw std::invalid_argument("tfidf: expects one string column");
  }
  const auto& docs = inputs[0].column().strings();
  thread_local TfIdfScratch scratch;
  out.reset(model_->vocabulary_size());
  out.reserve(docs.size(), docs.size() * 16);  // ~16 hits/doc starting guess
  (void)ctx;
  model_->transform_into(std::span<const std::string>(docs.data(), docs.size()),
                         scratch, out);
}

}  // namespace willump::ops
