#include "common/string_util.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "common/hash.hpp"

namespace willump::common {
namespace {

TEST(StringUtil, ToLower) {
  EXPECT_EQ(to_lower("Hello World"), "hello world");
  EXPECT_EQ(to_lower("ABC123!"), "abc123!");
  EXPECT_EQ(to_lower(""), "");
}

TEST(StringUtil, ToLowerIsAsciiOnly) {
  // Expected table: only 'A'..'Z' change, by +32.
  std::string all(256, '\0');
  std::string want(256, '\0');
  for (int b = 0; b < 256; ++b) {
    all[b] = static_cast<char>(b);
    want[b] = static_cast<char>(b >= 'A' && b <= 'Z' ? b + 32 : b);
  }
  const std::string got = to_lower(all);
  ASSERT_EQ(got.size(), 256u);
  for (int b = 0; b < 256; ++b) {
    EXPECT_EQ(static_cast<unsigned char>(got[b]),
              static_cast<unsigned char>(want[b]))
        << "byte " << b;
    // The library never calls setlocale, so this is the "C" locale.
    EXPECT_EQ(static_cast<unsigned char>(got[b]), std::tolower(b))
        << "byte " << b;
  }
}

TEST(StringUtil, SplitWs) {
  const auto parts = split_ws("  foo  bar\tbaz \n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, StripPunct) {
  EXPECT_EQ(strip_punct("a,b.c!"), "a b c ");
  EXPECT_EQ(strip_punct("no punct"), "no punct");
}

TEST(StringUtil, UpperRatio) {
  EXPECT_DOUBLE_EQ(upper_ratio("ABcd"), 0.5);
  EXPECT_DOUBLE_EQ(upper_ratio("1234"), 0.0);
  EXPECT_DOUBLE_EQ(upper_ratio("ALLCAPS"), 1.0);
}

TEST(StringUtil, DigitRatio) {
  EXPECT_DOUBLE_EQ(digit_ratio("a1b2"), 0.5);
  EXPECT_DOUBLE_EQ(digit_ratio(""), 0.0);
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Hash, Fnv1aStableAndDistinct) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

TEST(Hash, CombineOrderMatters) {
  const auto a = fnv1a("a");
  const auto b = fnv1a("b");
  EXPECT_NE(hash_combine(a, b), hash_combine(b, a));
}

TEST(Hash, U64Mixes) {
  EXPECT_NE(hash_u64(1), hash_u64(2));
  EXPECT_NE(hash_u64(0), 0u);
}

}  // namespace
}  // namespace willump::common
