#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace willump::common {

/// ASCII lowercase copy: maps only 'A'..'Z', independent of the locale.
std::string to_lower(std::string_view s);

/// Split on any run of whitespace; no empty tokens.
std::vector<std::string_view> split_ws(std::string_view s);

/// Split on a single delimiter character; keeps empty fields.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Remove ASCII punctuation, replacing it with spaces.
std::string strip_punct(std::string_view s);

/// Fraction of alphabetic characters that are uppercase; 0 if none.
double upper_ratio(std::string_view s);

/// Fraction of characters that are digits.
double digit_ratio(std::string_view s);

/// Join strings with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace willump::common
