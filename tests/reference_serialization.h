// Reference model reader: the istream reader ml::load_forest used before it
// became one forward scan over a string_view, kept as the differential
// oracle of ml_serialization_fuzz_test.  Each token is read through
// `istream >> std::string`, integers through std::stol / std::stoull and
// doubles through std::strtod, and only the checks that reader made are
// made: magic, v1/v2, counts and their caps, child range, half leaf, the
// optional model-version trailer.  It cannot reach DecisionTree's private
// fields, so it returns a plain struct.  Header-only, included from tests/.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <istream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ml/random_forest.h"

namespace dm::ml::reference {

struct LoadedTree {
  std::size_t depth = 0;
  std::vector<DecisionTree::Node> nodes;
};

struct LoadedForest {
  ForestOptions options;
  std::uint64_t model_version = 0;
  std::vector<LoadedTree> trees;
};

namespace detail {

inline constexpr std::string_view kMagic = "dynaminer-forest";
inline constexpr std::string_view kVersionV1 = "v1";
inline constexpr std::string_view kVersion = "v2";

[[noreturn]] inline void fail(const std::string& what) {
  throw std::runtime_error("forest serialization: " + what);
}

inline std::string next_token(std::istream& in, const char* context) {
  std::string token;
  if (!(in >> token)) fail(std::string("unexpected end of input reading ") + context);
  return token;
}

inline void expect_token(std::istream& in, std::string_view expected) {
  const std::string token = next_token(in, std::string(expected).c_str());
  if (token != expected) {
    fail("expected '" + std::string(expected) + "', got '" + token + "'");
  }
}

inline long read_long(std::istream& in, const char* context) {
  const std::string token = next_token(in, context);
  try {
    std::size_t consumed = 0;
    const long value = std::stol(token, &consumed);
    if (consumed != token.size()) fail(std::string("bad integer for ") + context);
    return value;
  } catch (const std::exception&) {
    fail(std::string("bad integer for ") + context);
  }
}

inline double read_double(std::istream& in, const char* context) {
  const std::string token = next_token(in, context);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    fail(std::string("bad double for ") + context);
  }
  return value;
}

inline std::uint64_t read_u64(std::istream& in, const char* context) {
  const std::string token = next_token(in, context);
  try {
    std::size_t consumed = 0;
    const unsigned long long value = std::stoull(token, &consumed);
    if (consumed != token.size()) fail(std::string("bad integer for ") + context);
    return static_cast<std::uint64_t>(value);
  } catch (const std::exception&) {
    fail(std::string("bad integer for ") + context);
  }
}

inline LoadedTree read_tree(std::istream& in) {
  expect_token(in, "tree");
  const long count = read_long(in, "node count");
  const long depth = read_long(in, "depth");
  if (count < 0 || depth < 0) fail("negative tree geometry");
  if (count > 10'000'000) fail("implausible node count");

  LoadedTree tree;
  tree.depth = static_cast<std::size_t>(depth);
  tree.nodes.reserve(static_cast<std::size_t>(count));
  for (long i = 0; i < count; ++i) {
    expect_token(in, "node");
    DecisionTree::Node node;
    node.left = static_cast<std::int32_t>(read_long(in, "left"));
    node.right = static_cast<std::int32_t>(read_long(in, "right"));
    node.feature = static_cast<std::uint32_t>(read_long(in, "feature"));
    node.threshold = read_double(in, "threshold");
    node.positive_probability = read_double(in, "probability");
    if (node.left >= count || node.right >= count) fail("child out of range");
    if ((node.left < 0) != (node.right < 0)) fail("half-leaf node");
    tree.nodes.push_back(node);
  }
  return tree;
}

}  // namespace detail

/// Reads a forest the way ml::load_forest did; throws std::runtime_error on
/// malformed input.  Stops after the last tree.
inline LoadedForest load_forest(std::istream& in) {
  using namespace detail;
  expect_token(in, kMagic);
  const std::string version = next_token(in, "version");
  if (version != kVersion && version != kVersionV1) {
    fail("expected '" + std::string(kVersion) + "', got '" + version + "'");
  }
  expect_token(in, "trees");
  const long count = read_long(in, "tree count");
  if (count < 0 || count > 100000) fail("implausible tree count");
  expect_token(in, "combination");
  const std::string combination = next_token(in, "combination");

  LoadedForest forest;
  if (combination == "avg") {
    forest.options.combination = Combination::kProbabilityAveraging;
  } else if (combination == "vote") {
    forest.options.combination = Combination::kMajorityVote;
  } else {
    fail("unknown combination '" + combination + "'");
  }
  forest.options.num_trees = static_cast<std::size_t>(count);
  if (version == kVersion) {
    expect_token(in, "options");
    expect_token(in, "features-per-split");
    forest.options.features_per_split =
        static_cast<std::size_t>(read_u64(in, "features-per-split"));
    expect_token(in, "bootstrap-fraction");
    forest.options.bootstrap_fraction = read_double(in, "bootstrap-fraction");
    expect_token(in, "seed");
    forest.options.seed = read_u64(in, "seed");
    expect_token(in, "tree-options");
    expect_token(in, "max-depth");
    forest.options.tree.max_depth = static_cast<std::size_t>(read_u64(in, "max-depth"));
    expect_token(in, "min-samples-split");
    forest.options.tree.min_samples_split =
        static_cast<std::size_t>(read_u64(in, "min-samples-split"));
    expect_token(in, "min-samples-leaf");
    forest.options.tree.min_samples_leaf =
        static_cast<std::size_t>(read_u64(in, "min-samples-leaf"));
    const std::streampos before_trailer = in.tellg();
    std::string token;
    if (in >> token && token == "model-version") {
      forest.model_version = read_u64(in, "model-version");
    } else {
      in.clear();
      in.seekg(before_trailer);
    }
  }
  forest.trees.reserve(static_cast<std::size_t>(count));
  for (long i = 0; i < count; ++i) forest.trees.push_back(read_tree(in));
  return forest;
}

/// nullopt wherever load_forest throws.
inline std::optional<LoadedForest> try_load_forest(std::string_view text) {
  std::istringstream in{std::string(text)};
  try {
    return load_forest(in);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace dm::ml::reference
