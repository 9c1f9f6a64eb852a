#include "ops/string_ops.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.hpp"

#include "serialize/buffer.hpp"

namespace willump::ops {

namespace {

const data::StringColumn& string_input(std::span<const data::Value> inputs,
                                       const char* who) {
  if (inputs.size() != 1 || !inputs[0].is_column() ||
      inputs[0].column().type() != data::ColumnType::String) {
    throw std::invalid_argument(std::string(who) + ": expects one string column");
  }
  return inputs[0].column().strings();
}

}  // namespace

data::Value LowercaseOp::eval_batch(std::span<const data::Value> inputs) const {
  const auto& in = string_input(inputs, "lowercase");
  data::StringColumn out;
  out.reserve(in.size());
  for (const auto& s : in) out.push_back(common::to_lower(s));
  return data::Value(data::Column(std::move(out)));
}

std::string LowercaseOp::map_string(std::string_view s) const {
  return common::to_lower(s);
}

data::Value StripPunctOp::eval_batch(std::span<const data::Value> inputs) const {
  const auto& in = string_input(inputs, "strip_punct");
  data::StringColumn out;
  out.reserve(in.size());
  for (const auto& s : in) out.push_back(common::strip_punct(s));
  return data::Value(data::Column(std::move(out)));
}

std::string StripPunctOp::map_string(std::string_view s) const {
  return common::strip_punct(s);
}

void StringStatsOp::features_of(std::string_view s, std::span<double> out) {
  const auto words = common::split_ws(s);
  double total_word_len = 0.0;
  std::unordered_set<std::string_view> unique(words.begin(), words.end());
  for (auto w : words) total_word_len += static_cast<double>(w.size());
  const double n_words = static_cast<double>(words.size());
  out[0] = static_cast<double>(s.size());
  out[1] = n_words;
  out[2] = n_words > 0 ? total_word_len / n_words : 0.0;
  out[3] = common::upper_ratio(s);
  out[4] = common::digit_ratio(s);
  out[5] = n_words > 0 ? static_cast<double>(unique.size()) / n_words : 0.0;
}

data::Value StringStatsOp::eval_batch(std::span<const data::Value> inputs) const {
  const auto& in = string_input(inputs, "string_stats");
  data::DenseMatrix out(in.size(), kNumFeatures);
  for (std::size_t r = 0; r < in.size(); ++r) {
    features_of(in[r], out.mutable_row(r));
  }
  return data::Value(data::FeatureMatrix(std::move(out)));
}

KeywordCountOp::KeywordCountOp(std::vector<std::string> keywords)
    : keywords_(std::move(keywords)) {
  std::size_t total_bytes = 0;
  for (const auto& k : keywords_) total_bytes += k.size();
  if (total_bytes > kMaxKeywordBytes) {
    throw std::invalid_argument(
        "keyword_count: keywords total " + std::to_string(total_bytes) +
        " bytes, above the cap of " + std::to_string(kMaxKeywordBytes));
  }

  // Distinct non-empty keywords become the automaton's patterns; duplicates
  // share one pattern and so get identical counts.
  std::vector<std::string_view> patterns;
  std::unordered_map<std::string_view, std::int32_t> pattern_id;
  pattern_of_.reserve(keywords_.size());
  for (const auto& k : keywords_) {
    if (k.empty()) {
      pattern_of_.push_back(-1);
      continue;
    }
    const auto [it, fresh] =
        pattern_id.try_emplace(k, static_cast<std::int32_t>(patterns.size()));
    if (fresh) {
      patterns.push_back(k);
      pattern_len_.push_back(static_cast<std::uint32_t>(k.size()));
    }
    pattern_of_.push_back(it->second);
  }

  // One class per distinct keyword byte, in byte order after class 0.
  std::array<bool, 256> used{};
  for (const auto p : patterns) {
    for (const char c : p) used[static_cast<unsigned char>(c)] = true;
  }
  for (std::size_t b = 0; b < used.size(); ++b) {
    if (used[b]) byte_class_[b] = static_cast<std::uint16_t>(num_classes_++);
  }
  const std::uint32_t C = num_classes_;

  // Trie over classes, row-major; 0 marks a missing child (the root is
  // never anyone's child).
  std::vector<std::uint32_t> child(C, 0);
  std::vector<std::int32_t> terminal(1, -1);
  for (std::size_t id = 0; id < patterns.size(); ++id) {
    std::uint32_t s = 0;
    for (const char c : patterns[id]) {
      const std::size_t edge =
          s * C + byte_class_[static_cast<unsigned char>(c)];
      if (child[edge] == 0) {
        child[edge] = static_cast<std::uint32_t>(terminal.size());
        terminal.push_back(-1);
        child.resize(child.size() + C, 0);
      }
      s = child[edge];
    }
    terminal[s] = static_cast<std::int32_t>(id);
  }
  const std::size_t n_states = terminal.size();

  // Breadth-first: a state's failure target is shallower, so its completed
  // transitions and output list are final by the time the state is reached.
  std::vector<std::uint32_t> fail(n_states, 0);
  std::vector<std::uint32_t> order{0};
  order.reserve(n_states);
  std::vector<std::vector<std::uint32_t>> outputs(n_states);
  for (std::size_t q = 0; q < order.size(); ++q) {
    const std::uint32_t s = order[q];
    auto& out = outputs[s];
    if (terminal[s] >= 0) {
      out.push_back(static_cast<std::uint32_t>(terminal[s]));
    }
    if (s != 0) {
      const auto& inherited = outputs[fail[s]];
      out.insert(out.end(), inherited.begin(), inherited.end());
    }
    for (std::uint32_t c = 0; c < C; ++c) {
      std::uint32_t& t = child[s * C + c];
      const std::uint32_t via_fail = s == 0 ? 0 : child[fail[s] * C + c];
      if (t != 0) {
        fail[t] = via_fail;
        order.push_back(t);
      } else {
        t = via_fail;
      }
    }
  }

  // Renumber so matching states come last, store row offsets, and flatten
  // the output lists in the same order.
  std::vector<std::uint32_t> renumbered(n_states);
  std::uint32_t next_id = 0;
  for (std::size_t s = 0; s < n_states; ++s) {
    if (outputs[s].empty()) renumbered[s] = next_id++;
  }
  first_output_ = next_id * C;
  output_begin_.push_back(0);
  for (std::size_t s = 0; s < n_states; ++s) {
    if (outputs[s].empty()) continue;
    renumbered[s] = next_id++;
    output_ids_.insert(output_ids_.end(), outputs[s].begin(), outputs[s].end());
    output_begin_.push_back(static_cast<std::uint32_t>(output_ids_.size()));
  }
  next_.resize(n_states * C);
  for (std::size_t s = 0; s < n_states; ++s) {
    for (std::uint32_t c = 0; c < C; ++c) {
      next_[renumbered[s] * C + c] = renumbered[child[s * C + c]] * C;
    }
  }
}

data::Value KeywordCountOp::eval_batch(std::span<const data::Value> inputs) const {
  const auto& in = string_input(inputs, "keyword_count");
  data::DenseMatrix out(in.size(), num_features());
  // Per pattern: matches counted in this document, and where the last
  // counted one ended.
  std::vector<std::uint32_t> count(pattern_len_.size());
  std::vector<std::size_t> counted_end(pattern_len_.size());
  for (std::size_t r = 0; r < in.size(); ++r) {
    std::fill(count.begin(), count.end(), 0u);
    std::fill(counted_end.begin(), counted_end.end(), std::size_t{0});
    const auto* doc = reinterpret_cast<const unsigned char*>(in[r].data());
    const std::size_t len = in[r].size();
    std::uint32_t s = 0;
    for (std::size_t i = 0; i < len; ++i) {
      s = next_[s + byte_class_[doc[i]]];
      if (s < first_output_) [[likely]] continue;
      const std::uint32_t j = (s - first_output_) / num_classes_;
      for (std::uint32_t o = output_begin_[j]; o < output_begin_[j + 1]; ++o) {
        const std::uint32_t id = output_ids_[o];
        // The match ends at i + 1 and counts only if it starts at or after
        // the end of this pattern's last counted match: the find loop's
        // `pos += needle.size()`, so counts are leftmost non-overlapping.
        if (i + 1 >= counted_end[id] + pattern_len_[id]) {
          ++count[id];
          counted_end[id] = i + 1;
        }
      }
    }
    auto row = out.mutable_row(r);
    double total = 0.0;
    for (std::size_t k = 0; k < keywords_.size(); ++k) {
      const std::int32_t id = pattern_of_[k];
      const double c = id < 0 ? 0.0 : static_cast<double>(count[id]);
      row[k] = c;
      total += c;
    }
    row[keywords_.size()] = total;
  }
  return data::Value(data::FeatureMatrix(std::move(out)));
}

void KeywordCountOp::save(serialize::Writer& w) const {
  w.u64(keywords_.size());
  for (const auto& k : keywords_) w.str(k);
}

}  // namespace willump::ops
