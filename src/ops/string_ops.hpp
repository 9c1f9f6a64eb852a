#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ops/operator.hpp"

namespace willump::ops {

/// Element-wise ASCII lowercasing (string map; fusable).
class LowercaseOp final : public Operator {
 public:
  std::string name() const override { return "lowercase"; }
  data::Value eval_batch(std::span<const data::Value> inputs) const override;
  bool is_string_map() const override { return true; }
  std::string map_string(std::string_view s) const override;
  std::string_view serial_tag() const override { return "lowercase"; }
  void save(serialize::Writer&) const override {}  // stateless
};

/// Element-wise punctuation stripping (string map; fusable).
class StripPunctOp final : public Operator {
 public:
  std::string name() const override { return "strip_punct"; }
  data::Value eval_batch(std::span<const data::Value> inputs) const override;
  bool is_string_map() const override { return true; }
  std::string map_string(std::string_view s) const override;
  std::string_view serial_tag() const override { return "strip_punct"; }
  void save(serialize::Writer&) const override {}  // stateless
};

/// Cheap per-string summary features: length, word count, mean word length,
/// uppercase ratio, digit ratio, unique-word ratio. The classic "efficient
/// IFV" for the Product benchmark (the approximate model can often classify
/// titles from these alone).
class StringStatsOp final : public Operator {
 public:
  static constexpr std::size_t kNumFeatures = 6;

  std::string name() const override { return "string_stats"; }
  data::Value eval_batch(std::span<const data::Value> inputs) const override;
  std::string_view serial_tag() const override { return "string_stats"; }
  void save(serialize::Writer&) const override {}  // stateless

  /// Compute the feature row for one string (used by tests and fused paths).
  static void features_of(std::string_view s, std::span<double> out);
};

/// Counts occurrences of each keyword from a fixed list, plus a total count.
/// Models the paper's toxic-comment example: "the presence of curse words
/// quickly classifies some inputs as toxic" (§1).
///
/// Each keyword's count is its greedy leftmost non-overlapping match count
/// (case-sensitive; an empty keyword counts 0; duplicates each get the full
/// count). The constructor compiles the list into an Aho–Corasick automaton
/// over byte classes, so `eval_batch` reads every document once whatever
/// the number of keywords (DESIGN.md §10, "String kernels").
class KeywordCountOp final : public Operator {
 public:
  /// Cap on the summed keyword bytes. The automaton has at most that many
  /// states plus one, and up to 257 byte classes of 4-byte transitions, so
  /// the cap bounds the table at about 16 MiB. The constructor throws
  /// std::invalid_argument above it; the artifact loader rejects it as
  /// CorruptData.
  static constexpr std::size_t kMaxKeywordBytes = 16384;

  explicit KeywordCountOp(std::vector<std::string> keywords);

  std::string name() const override { return "keyword_count"; }
  data::Value eval_batch(std::span<const data::Value> inputs) const override;
  std::string_view serial_tag() const override { return "keyword_count"; }
  void save(serialize::Writer& w) const override;

  std::size_t num_features() const { return keywords_.size() + 1; }
  const std::vector<std::string>& keywords() const { return keywords_; }

 private:
  std::vector<std::string> keywords_;
  /// keywords_[k] is automaton pattern pattern_of_[k]; -1 if empty.
  std::vector<std::int32_t> pattern_of_;
  /// Byte length of each distinct non-empty keyword (automaton pattern).
  std::vector<std::uint32_t> pattern_len_;
  /// Byte -> class; bytes absent from every keyword share class 0.
  std::array<std::uint16_t, 256> byte_class_{};
  std::uint32_t num_classes_ = 1;
  /// Dense transitions, num_states x num_classes_. Entries are the target
  /// state's row offset (state * num_classes_), so a step is one load.
  /// States with a non-empty output list are numbered last: offsets at or
  /// above first_output_ mark a match.
  std::vector<std::uint32_t> next_;
  std::uint32_t first_output_ = 0;
  /// Output lists of the states from first_output_ on, flattened: state
  /// first_output_ / num_classes_ + j ends the patterns
  /// output_ids_[output_begin_[j] .. output_begin_[j + 1]).
  std::vector<std::uint32_t> output_begin_;
  std::vector<std::uint32_t> output_ids_;
};

}  // namespace willump::ops
