// Differential fence for http::Headers, whose fields live in one
// length-prefixed block: seeded random add() sequences go through Headers
// and through a naive model, a vector of (name, value) string pairs, and
// every lookup, the iteration order and the views' survival of a move must
// agree.  Inputs include empty names and values, names that differ only in
// case, duplicates (the first must win), NUL bytes, ':' inside values, a
// 100 KiB value and 1,000 fields.
// Runs in the `fault` ctest label (re-run under both sanitizers).
#include "http/message.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace {

using dm::http::Headers;
using Model = std::vector<std::pair<std::string, std::string>>;

char fold(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c; }

bool same_name(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fold(a[i]) != fold(b[i])) return false;
  }
  return true;
}

std::optional<std::string_view> model_get(const Model& model, std::string_view name) {
  for (const auto& [field, value] : model) {
    if (same_name(field, name)) return std::string_view(value);
  }
  return std::nullopt;
}

Model fields_of(const Headers& headers) {
  Model out;
  for (const auto& [name, value] : headers) out.emplace_back(name, value);
  return out;
}

/// Flips the case of every ASCII letter.
std::string swap_case(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    else if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

/// Every get and has agrees with the model, for each name added, its
/// case-swapped form, and the probes (most of them absent); iteration gives
/// the model's fields in order.
void expect_matches(const Headers& headers, const Model& model,
                    const std::vector<std::string>& probes) {
  ASSERT_EQ(fields_of(headers), model);
  std::vector<std::string> names = probes;
  for (const auto& [name, value] : model) {
    names.push_back(name);
    names.push_back(swap_case(name));
  }
  for (const auto& name : names) {
    const auto want = model_get(model, name);
    EXPECT_EQ(headers.get(name), want) << "get(\"" << name << "\")";
    EXPECT_EQ(headers.has(name), want.has_value()) << "has(\"" << name << "\")";
  }
}

/// Uniform in [0, n).
std::size_t below(dm::util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// A name drawn so that collisions are common: a small pool of spellings,
/// the empty name, or a short random string over a few letters.
std::string random_name(dm::util::Rng& rng) {
  static const std::vector<std::string> pool = {
      "Host", "host", "HOST", "Content-Type", "content-type", "Referer",
      "X-A", "x-a", "Set-Cookie", "", "a", "A"};
  if (below(rng, 3) != 0) return pool[below(rng, pool.size())];
  static constexpr std::string_view letters = "aAbB-:";
  std::string name(below(rng, 5), ' ');
  for (char& c : name) c = letters[below(rng, letters.size())];
  return name;
}

/// A value over bytes that matter to the block: NUL, ':', CR, LF, high
/// bytes; often empty, occasionally a few KiB.
std::string random_value(dm::util::Rng& rng) {
  static constexpr char bytes[] = {'\0', ':', ' ', '\r', '\n', 'x', 'Y',
                                   '\x7f', '\x80', '\xff'};
  const std::size_t length = below(rng, 6) == 0    ? 0
                             : below(rng, 10) == 0 ? 1 + below(rng, 4096)
                                                   : 1 + below(rng, 40);
  std::string value(length, ' ');
  for (char& c : value) c = bytes[below(rng, sizeof bytes)];
  return value;
}

const std::vector<std::string>& probes() {
  static const std::vector<std::string> names = {
      "Host", "Location", "", "absent", "Content-Length", "X-A", "x-b",
      std::string("Ho\0st", 5)};
  return names;
}

TEST(HeadersDifferentialTest, SeededAddSequencesMatchTheModel) {
  std::size_t duplicates = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    dm::util::Rng rng(seed);
    Headers headers;
    Model model;
    const std::size_t fields = below(rng, 41);
    for (std::size_t i = 0; i < fields; ++i) {
      auto name = random_name(rng);
      auto value = random_value(rng);
      duplicates += model_get(model, name).has_value();
      headers.add(name, value);
      model.emplace_back(std::move(name), std::move(value));
    }
    expect_matches(headers, model, probes());
  }
  EXPECT_GT(duplicates, 500u) << "the draws must repeat names";
}

TEST(HeadersDifferentialTest, FirstOfDuplicatesWinsAcrossCase) {
  Headers headers;
  Model model;
  const std::vector<std::pair<std::string, std::string>> adds = {
      {"content-type", "text/html"}, {"Content-Type", "image/png"},
      {"CONTENT-TYPE", ""},          {"", "empty name"},
      {"", "second empty name"},     {"Empty-Value", ""},
      {"Location", "http://a.example:8080/x?y=1:2"},
      {std::string("N\0ul", 4), std::string("v\0a\0l", 5)}};
  for (const auto& [name, value] : adds) {
    headers.add(name, value);
    model.emplace_back(name, value);
  }
  expect_matches(headers, model, probes());
  EXPECT_EQ(headers.get("CONTENT-type"), "text/html");
  EXPECT_EQ(headers.get(""), "empty name");
  EXPECT_EQ(headers.get("empty-value"), "");
  EXPECT_EQ(headers.get(std::string("n\0UL", 4)), std::string("v\0a\0l", 5));
  EXPECT_FALSE(headers.has("Nul"));
}

TEST(HeadersDifferentialTest, LargeValueAndThousandFields) {
  Headers headers;
  Model model;
  std::string big(100 * 1024, 'v');
  for (std::size_t i = 0; i < big.size(); i += 997) big[i] = i % 2 ? ':' : '\0';
  headers.add("X-Big", big);
  model.emplace_back("X-Big", big);
  for (int i = 0; i < 1000; ++i) {
    const std::string name = "X-Field-" + std::to_string(i % 700);
    const std::string value = "value " + std::to_string(i);
    headers.add(name, value);
    model.emplace_back(name, value);
  }
  expect_matches(headers, model, probes());
  EXPECT_EQ(headers.get("x-big")->size(), big.size());
  EXPECT_EQ(headers.get("X-FIELD-5"), "value 5");
  EXPECT_EQ(headers.get("X-Field-699"), "value 699");
}

TEST(HeadersDifferentialTest, ViewsSurviveMovingTheMessage) {
  // One field, so the first two blocks are 9 and 10 bytes: a block kept in
  // a std::string would live inside the object and move with it.
  for (const std::string value :
       {"", "1", "fifteen bytes!!", "a value past the small-string buffer"}) {
    SCOPED_TRACE(value);
    dm::http::HttpTransaction txn;
    txn.request.headers.add("X", value);
    const auto view = txn.request.headers.get("x");
    ASSERT_EQ(view, value);
    auto first = std::make_unique<dm::http::HttpTransaction>(std::move(txn));
    std::vector<dm::http::HttpTransaction> moved;
    moved.push_back(std::move(*first));
    first.reset();
    moved.reserve(64);  // moves the transaction again, to a new buffer
    EXPECT_EQ(*view, value);
    const auto again = moved.front().request.headers.get("X");
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->data(), view->data());
    EXPECT_EQ(fields_of(moved.front().request.headers), (Model{{"X", value}}));
  }
}

TEST(HeadersDifferentialTest, AddRejectsALengthItsPrefixCannotCount) {
  if constexpr (std::numeric_limits<std::size_t>::max() >
                std::numeric_limits<std::uint32_t>::max()) {
    // add() checks the lengths before it reads a byte, so the view's bytes
    // past the first are never touched.
    const char byte = 'x';
    const std::string_view huge(&byte, std::size_t{1} << 32);
    Headers headers;
    EXPECT_THROW(headers.add(huge, "v"), std::length_error);
    EXPECT_THROW(headers.add("n", huge), std::length_error);
    EXPECT_EQ(headers.begin(), headers.end());
  } else {
    GTEST_SKIP() << "a 32-bit size_t cannot exceed the prefix";
  }
}

}  // namespace
