#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace willump::ops {

/// Analyzer families for text vectorization, mirroring the paper's
/// "several different tokenizers, n-gram ranges, and norms" (§5.2).
enum class Analyzer { Word, Char };

/// N-gram extraction settings.
struct NgramRange {
  int min_n = 1;
  int max_n = 1;
};

/// Reusable tokenization buffers: one per worker (or thread_local) so the
/// hot transform path does zero per-document allocations after warmup.
struct TokenizerScratch {
  std::vector<std::string_view> tokens;  // whitespace split (word analyzer)
  std::string buf;                       // joined higher-order n-grams
};

/// Word-analyzer whitespace: the C locale's `isspace` set (' ', \t, \n, \v,
/// \f, \r), as a byte predicate. Whatever locale the host process sets,
/// the same bytes split tokens at fit and at serve time.
inline bool is_word_space(unsigned char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') < 5;
}

/// Emit every n-gram of `s` under (analyzer, range) to `sink`, reusing
/// `scratch` across calls. Templated on the sink so the per-gram callback
/// inlines (no std::function dispatch in the hot loop).
///
/// Word analyzer: is_word_space tokens joined by a single space.
/// Char analyzer: sliding character windows (including spaces, as in
/// scikit-learn's `analyzer='char'`).
template <typename Sink>
void for_each_ngram_t(std::string_view s, Analyzer analyzer, NgramRange range,
                      TokenizerScratch& scratch, Sink&& sink) {
  // n runs over [max(min_n, 1), min(max_n, available units)]: a huge max_n
  // costs nothing and the counter can never overflow.
  const auto lo = static_cast<std::size_t>(std::max(range.min_n, 1));
  const auto max_n = static_cast<std::size_t>(std::max(range.max_n, 0));
  if (analyzer == Analyzer::Char) {
    const std::size_t hi = std::min(max_n, s.size());
    for (std::size_t n = lo; n <= hi; ++n) {
      for (std::size_t i = 0; i + n <= s.size(); ++i) sink(s.substr(i, n));
    }
    return;
  }

  // Whitespace split into the reusable token vector (split_ws allocates a
  // fresh vector per call — this is the per-doc temporary the hot path
  // must not pay).
  auto& tokens = scratch.tokens;
  tokens.clear();
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_word_space(static_cast<unsigned char>(s[i]))) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_word_space(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) tokens.push_back(s.substr(start, i - start));
  }

  auto& buf = scratch.buf;
  const std::size_t hi = std::min(max_n, tokens.size());
  for (std::size_t n = lo; n <= hi; ++n) {
    if (n == 1) {
      for (auto t : tokens) sink(t);
      continue;
    }
    for (std::size_t k = 0; k + n <= tokens.size(); ++k) {
      buf.clear();
      for (std::size_t j = 0; j < n; ++j) {
        if (j > 0) buf.push_back(' ');
        buf.append(tokens[k + j]);
      }
      sink(buf);
    }
  }
}

/// Type-erased convenience wrapper (fitting and cold paths).
void for_each_ngram(std::string_view s, Analyzer analyzer, NgramRange range,
                    const std::function<void(std::string_view)>& sink);

/// Collect all n-grams of a string (testing/fitting convenience).
std::vector<std::string> ngrams_of(std::string_view s, Analyzer analyzer,
                                   NgramRange range);

}  // namespace willump::ops
