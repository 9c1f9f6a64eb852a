#include "common/string_util.hpp"

#include <cctype>

namespace willump::common {

std::string to_lower(std::string_view s) {
  // Only 'A'..'Z' change, whatever the process locale. The branch-free
  // select lets the compiler vectorize the loop.
  std::string out(s.size(), '\0');
  const auto* in = reinterpret_cast<const unsigned char*>(s.data());
  auto* dst = reinterpret_cast<unsigned char*>(out.data());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char u = in[i];
    dst[i] = static_cast<unsigned char>(u - 'A') < 26
                 ? static_cast<unsigned char>(u | 0x20)
                 : u;
  }
  return out;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string strip_punct(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (std::ispunct(static_cast<unsigned char>(c))) c = ' ';
  }
  return out;
}

double upper_ratio(std::string_view s) {
  std::size_t alpha = 0, upper = 0;
  for (char c : s) {
    const auto uc = static_cast<unsigned char>(c);
    if (std::isalpha(uc)) {
      ++alpha;
      if (std::isupper(uc)) ++upper;
    }
  }
  return alpha == 0 ? 0.0 : static_cast<double>(upper) / static_cast<double>(alpha);
}

double digit_ratio(std::string_view s) {
  if (s.empty()) return 0.0;
  std::size_t digits = 0;
  for (char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c))) ++digits;
  }
  return static_cast<double>(digits) / static_cast<double>(s.size());
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace willump::common
