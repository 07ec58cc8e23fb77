// Fuzz fence for the non-throwing forest loader: model artifacts cross a
// trust boundary (the serve-layer store reads whatever survived a crash), so
// try_load_forest must turn every malformed input — truncations, bit flips,
// garbage, implausible counts, links that do not form a tree — into a
// structured LoadError, never an exception, and must still round-trip valid
// artifacts bit-exactly.  The differential cases run the reader against the
// istream reader it replaced (reference_serialization.h) over the same
// corpora: it may refuse more, only for the listed narrowings, and where
// both accept every field must match to the bit.
#include "ml/serialization.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "core/wcg_builder.h"
#include "reference_serialization.h"
#include "synth/dataset.h"
#include "util/rng.h"

namespace dm::ml {
namespace {

std::string valid_artifact() {
  static const std::string artifact = [] {
    const auto gt = dm::synth::generate_ground_truth(40, 0.06);
    std::vector<dm::core::Wcg> infections;
    std::vector<dm::core::Wcg> benign;
    for (const auto& e : gt.infections) {
      infections.push_back(dm::core::build_wcg(e.transactions));
    }
    for (const auto& e : gt.benign) {
      benign.push_back(dm::core::build_wcg(e.transactions));
    }
    const auto data = dm::core::dataset_from_wcgs(infections, benign);
    auto forest = dm::core::train_dynaminer(data, 7);
    forest.set_model_version(3);
    std::ostringstream out;
    save_forest(forest, out);
    return out.str();
  }();
  return artifact;
}

std::string reserialize(const RandomForest& forest) {
  std::ostringstream out;
  save_forest(forest, out);
  return out.str();
}

std::string shipped_model() {
  static const std::string text = [] {
    std::ifstream in(DM_SHIPPED_MODEL, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }();
  return text;
}

std::vector<std::string> tokens_of(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

// ---- the narrowings: inputs the reference accepts and the reader refuses --

bool double_out_of_range(const std::string& token) {
  errno = 0;
  const double value = std::strtod(token.c_str(), nullptr);
  return errno == ERANGE && (value == 0.0 || std::isinf(value));
}

bool long_outside(const std::string& token, long lo, long hi) {
  const long value = std::stol(token);
  return value < lo || value > hi;
}

bool breaks_tree_rule(const reference::LoadedTree& tree) {
  std::vector<bool> named(tree.nodes.size(), false);
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const auto& node = tree.nodes[i];
    if (node.left < 0) continue;
    const auto left = static_cast<std::size_t>(node.left);
    const auto right = static_cast<std::size_t>(node.right);
    if (left <= i || right <= i || left == right || named[left] || named[right]) {
      return true;
    }
    named[left] = named[right] = true;
  }
  return false;
}

/// The narrowings an input the reference accepted holds, found by walking
/// its tokens field by field (acceptance fixes the layout).
std::vector<std::string> narrowings(std::string_view text,
                                    const reference::LoadedForest& ref) {
  const auto tokens = tokens_of(text);
  std::vector<std::string> found;
  const auto unsigned_field = [&](std::size_t index) {
    if (tokens[index].front() == '-') found.push_back("minus sign on an unsigned field");
  };
  const auto double_field = [&](std::size_t index) {
    if (double_out_of_range(tokens[index])) found.push_back("double out of range");
  };
  std::size_t at = 6;  // magic, version, trees N combination C
  if (tokens[1] == "v2") {
    unsigned_field(8);    // features-per-split
    double_field(10);     // bootstrap-fraction
    unsigned_field(12);   // seed
    unsigned_field(15);   // max-depth
    unsigned_field(17);   // min-samples-split
    unsigned_field(19);   // min-samples-leaf
    at = 20;
    if (at < tokens.size() && tokens[at] == "model-version") {
      unsigned_field(at + 1);
      at += 2;
    }
  }
  for (const auto& tree : ref.trees) {
    at += 3;  // tree count depth
    for (std::size_t i = 0; i < tree.nodes.size(); ++i, at += 6) {
      if (long_outside(tokens[at + 1], INT32_MIN, INT32_MAX) ||
          long_outside(tokens[at + 2], INT32_MIN, INT32_MAX)) {
        found.push_back("link outside int32");
      }
      if (long_outside(tokens[at + 3], 0, INT32_MAX)) {
        found.push_back("feature outside [0, INT32_MAX]");
      }
      double_field(at + 4);
      double_field(at + 5);
    }
    if (breaks_tree_rule(tree)) found.push_back("link breaks the tree rule");
  }
  return found;
}

std::uint64_t bits(double value) {
  std::uint64_t out;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

void expect_same_fields(const RandomForest& got, const reference::LoadedForest& want,
                        const std::string& label) {
  const auto& a = got.options();
  const auto& b = want.options;
  EXPECT_EQ(a.num_trees, b.num_trees) << label;
  EXPECT_EQ(a.features_per_split, b.features_per_split) << label;
  EXPECT_EQ(a.tree.max_depth, b.tree.max_depth) << label;
  EXPECT_EQ(a.tree.min_samples_split, b.tree.min_samples_split) << label;
  EXPECT_EQ(a.tree.min_samples_leaf, b.tree.min_samples_leaf) << label;
  EXPECT_EQ(a.tree.features_per_split, b.tree.features_per_split) << label;
  EXPECT_EQ(a.combination, b.combination) << label;
  EXPECT_EQ(bits(a.bootstrap_fraction), bits(b.bootstrap_fraction)) << label;
  EXPECT_EQ(a.seed, b.seed) << label;
  EXPECT_EQ(got.model_version(), want.model_version) << label;
  ASSERT_EQ(got.trees().size(), want.trees.size()) << label;
  for (std::size_t t = 0; t < want.trees.size(); ++t) {
    const auto& tree = got.trees()[t];
    EXPECT_EQ(tree.depth(), want.trees[t].depth) << label << " tree " << t;
    ASSERT_EQ(tree.nodes().size(), want.trees[t].nodes.size()) << label << " tree " << t;
    for (std::size_t n = 0; n < tree.nodes().size(); ++n) {
      const auto& x = tree.nodes()[n];
      const auto& y = want.trees[t].nodes[n];
      const bool same = x.left == y.left && x.right == y.right && x.feature == y.feature &&
                        bits(x.threshold) == bits(y.threshold) &&
                        bits(x.positive_probability) == bits(y.positive_probability);
      ASSERT_TRUE(same) << label << " tree " << t << " node " << n;
    }
  }
}

/// Runs both readers over inputs and tallies how they agree.
struct Differential {
  std::size_t both_accept = 0;
  std::size_t both_refuse = 0;
  std::map<std::string, std::size_t> narrowed;

  void check(std::string_view text, const std::string& label) {
    const auto got = try_load_forest(text);
    const auto want = reference::try_load_forest(text);
    if (got.has_value()) {
      ASSERT_TRUE(want.has_value()) << label << ": accepted what the reference refuses";
      expect_same_fields(*got, *want, label);
      ++both_accept;
    } else if (!want.has_value()) {
      ++both_refuse;
    } else {
      const auto why = narrowings(text, *want);
      ASSERT_FALSE(why.empty()) << label << ": refused (" << got.error().reason
                                << ") what the reference accepts, with no narrowing";
      for (const auto& kind : why) ++narrowed[kind];
    }
  }

  ~Differential() {
    std::cout << "differential: " << both_accept << " both accept, " << both_refuse
              << " both refuse";
    for (const auto& [kind, n] : narrowed) std::cout << ", " << n << " " << kind;
    std::cout << '\n';
  }
};

TEST(SerializationFuzzTest, ValidArtifactRoundTripsThroughTryLoad) {
  const std::string text = valid_artifact();
  const auto loaded = try_load_forest(text);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(reserialize(*loaded), text);
  EXPECT_EQ(loaded->model_version(), 3u);
}

TEST(SerializationFuzzTest, EveryTruncationIsHandledWithoutThrowing) {
  const std::string text = valid_artifact();
  // Tree/node counts are declared up front, so any cut that removes the
  // whole final token (or more) is structurally detectable.  A cut *inside*
  // the final hex-float token can leave a shorter-but-parseable number —
  // the parser cannot know, which is exactly why the model store layers a
  // CRC on top.  The fence here: no cut may throw, and cuts at or before
  // the final token boundary must all fail with a structured reason.
  const std::size_t last_token_start = text.rfind(' ') + 1;
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    const auto result = try_load_forest(text.substr(0, cut));
    if (cut <= last_token_start) {
      ASSERT_FALSE(result.has_value()) << "truncation at byte " << cut;
      EXPECT_FALSE(result.error().reason.empty());
    }
  }
}

TEST(SerializationFuzzTest, SeededBitFlipsNeverThrow) {
  const std::string text = valid_artifact();
  dm::util::Rng rng(0xF1125EED);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = text;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    const auto bit = static_cast<unsigned>(rng.uniform_int(0, 7));
    mutated[pos] = static_cast<char>(static_cast<unsigned char>(mutated[pos]) ^
                                     (1u << bit));
    // Must not throw or crash; a lucky flip (e.g. inside a hex-float
    // mantissa) may still parse — that is the CRC layer's job to catch, one
    // level up in the model store.
    const auto result = try_load_forest(mutated);
    if (!result.has_value()) {
      EXPECT_FALSE(result.error().reason.empty());
    }
  }
}

TEST(SerializationFuzzTest, GarbageAndHostileHeadersAreStructuredErrors) {
  const std::vector<std::string> inputs = {
      "",
      "\n",
      "not a forest at all",
      "dynaminer-forest v99\ntrees 1 combination avg\n",
      "dynaminer-forest v2\ntrees -3 combination avg\n",
      "dynaminer-forest v2\ntrees nonsense combination avg\n",
      // Implausible node count: must be rejected up front, not allocated.
      "dynaminer-forest v2\ntrees 1 combination avg\n"
      "options features-per-split 3 bootstrap-fraction 0x1p-1 seed 1\n"
      "tree-options max-depth 4 min-samples-split 2 min-samples-leaf 1\n"
      "tree 99999999999 4\n",
      std::string(4096, '\0'),
      std::string("dynaminer-forest v2\n") + std::string(512, 0x7f),
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto result = try_load_forest(inputs[i]);
    ASSERT_FALSE(result.has_value()) << "input " << i;
    EXPECT_FALSE(result.error().reason.empty());
    EXPECT_NE(result.error().to_string().find("forest load:"),
              std::string::npos);
  }
}

TEST(SerializationFuzzTest, RandomGarbageSweepsNeverThrow) {
  dm::util::Rng rng(0xBADF00D);
  for (int trial = 0; trial < 200; ++trial) {
    const auto len =
        static_cast<std::size_t>(rng.uniform_int(0, 512));
    std::string garbage;
    garbage.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    EXPECT_FALSE(try_load_forest(garbage).has_value());
  }
}

TEST(SerializationFuzzTest, MissingFileIsAnErrorNotAnException) {
  const auto result =
      try_load_forest_file("/nonexistent/path/to/forest.dmf");
  ASSERT_FALSE(result.has_value());
  EXPECT_FALSE(result.error().reason.empty());
}

TEST(SerializationFuzzTest, ThrowingLoaderAndTryLoaderAgree) {
  // The throwing entry point and the structured one must accept and reject
  // exactly the same inputs (try_load wraps the same parser).
  const std::string text = valid_artifact();
  EXPECT_NO_THROW({
    std::istringstream in(text);
    load_forest(in);
  });
  const std::string torn = text.substr(0, text.size() / 2);
  EXPECT_THROW(
      {
        std::istringstream in(torn);
        load_forest(in);
      },
      std::exception);
  EXPECT_FALSE(try_load_forest(torn).has_value());
}

TEST(SerializationFuzzTest, ReaderMatchesReferenceOnEveryTruncation) {
  for (const std::string& text : {valid_artifact(), shipped_model()}) {
    ASSERT_FALSE(text.empty());
    Differential diff;
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
      diff.check(std::string_view(text).substr(0, cut), "cut " + std::to_string(cut));
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(diff.both_accept, 0u);
  }
}

TEST(SerializationFuzzTest, ReaderMatchesReferenceOnSeededBitFlips) {
  dm::util::Rng rng(0xD1FF5EED);
  for (const std::string& text : {valid_artifact(), shipped_model()}) {
    Differential diff;
    for (int trial = 0; trial < 2000; ++trial) {
      std::string mutated = text;
      for (int flips = static_cast<int>(rng.uniform_int(1, 3)); flips > 0; --flips) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
        mutated[pos] = static_cast<char>(static_cast<unsigned char>(mutated[pos]) ^
                                         (1u << rng.uniform_int(0, 7)));
      }
      diff.check(mutated, "trial " + std::to_string(trial));
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(diff.both_accept, 0u);
    EXPECT_GT(diff.both_refuse, 0u);
  }
}

TEST(SerializationFuzzTest, ReaderMatchesReferenceOnGarbage) {
  Differential diff;
  const std::vector<std::string> inputs = {
      "",
      "\n",
      "not a forest at all",
      "dynaminer-forest v99\ntrees 1 combination avg\n",
      "dynaminer-forest v2\ntrees -3 combination avg\n",
      "dynaminer-forest v1\ntrees 0 combination avg\n",
      "dynaminer-forest v1\ntrees 0 combination avg trailing words",
      "dynaminer-forest\tv1\vtrees\f0\rcombination vote",
      "dynaminer-forest v1\ntrees 1 combination avg\ntree 0 0\n",
      "dynaminer-forest v1\ntrees 1 combination avg\ntree 1 0\nnode -5 -7 9 0x1p+0 0x1p-1\n",
      std::string(4096, '\0'),
      std::string("dynaminer-forest v2\n") + std::string(512, 0x7f),
      std::string("dynaminer-forest v1\0 trees 0 combination avg"),
      // No trailer, so the peek for one has skipped the blank before the
      // first tree, which then takes 8 bytes.
      "dynaminer-forest v2\ntrees 1 combination avg\n"
      "options features-per-split 6 bootstrap-fraction 0x1p+0 seed 42\n"
      "tree-options max-depth 24 min-samples-split 2 min-samples-leaf 1\ntree 0 0",
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    diff.check(inputs[i], "input " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(try_load_forest(inputs.back()).has_value());
  dm::util::Rng rng(0x6A5BA6E);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage;
    for (auto len = rng.uniform_int(0, 256); len > 0; --len) {
      garbage.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    diff.check(garbage, "garbage " + std::to_string(trial));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(diff.both_accept, 0u);
}

TEST(SerializationFuzzTest, ReaderMatchesReferenceOnTokenEdgeCases) {
  // Every edge token in every token slot of a small stamped v2 artifact.
  const std::string base =
      "dynaminer-forest v2\ntrees 1 combination avg\n"
      "options features-per-split 3 bootstrap-fraction 0x1p+0 seed 7\n"
      "tree-options max-depth 4 min-samples-split 2 min-samples-leaf 1\n"
      "model-version 5\ntree 3 1\n"
      "node 1 2 0 0x1.8p+1 0x1.4p-1\nnode -1 -1 0 0x0p+0 0x1p-2\n"
      "node -1 -1 0 0x0p+0 0x1p+0\n";
  const std::vector<std::string> edges = {
      "+0x1p+0", "0X1P+0", "0.5", "1e-3", "inf", "nan(1)", "0x1.fffffffffffff8p+0",
      "0x.8p1", "+1", "-0", "01", "1x", "2147483648", "4294967297", "0x1p99999",
      "1e999", "0x1p-99999", "-1",
      // Beyond the grammar's corners: a second sign, a sign or "inf" after
      // the hex prefix, subnormals, and the int32 and long bounds.
      "+-1", "-+1", "-", "+", "0xinf", "0x-1p0", "0x", "0x.p1", "-nan", "NAN(0x7)",
      "nan(", "INFINITY", ".5", "5.", "0x1", "0x1p+", "1e", "4.9e-324", "2e-324",
      "0x1p-1074", "0x1p-1075", "1e-310", "2147483647", "-2147483648", "-2147483649",
      "9223372036854775807", "9223372036854775808", "18446744073709551615",
      "18446744073709551616", "-18446744073709551616",
      // An exponent signed "+-", which libstdc++'s hex from_chars takes.
      "0x1p+-1", "0X1P+-0"};
  const auto slots = tokens_of(base);
  Differential diff;
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    for (const auto& edge : edges) {
      auto tokens = slots;
      tokens[slot] = edge;
      std::string text;
      for (const auto& token : tokens) text += token + ' ';
      diff.check(text, "slot " + std::to_string(slot) + " = '" + edge + "'");
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(diff.both_accept, 0u);
  EXPECT_FALSE(diff.narrowed.empty());
}

std::string one_tree(const std::string& nodes, std::size_t count) {
  return "dynaminer-forest v1\ntrees 1 combination avg\ntree " + std::to_string(count) +
         " 1\n" + nodes;
}

void expect_refused(const std::string& text, const std::string& label) {
  const auto result = try_load_forest(text);
  ASSERT_FALSE(result.has_value()) << label;
  EXPECT_FALSE(result.error().reason.empty()) << label;
  std::istringstream in(text);
  EXPECT_THROW(load_forest(in), std::runtime_error) << label;
}

TEST(SerializationFuzzTest, NodeLinksThatDoNotFormATreeAreRefused) {
  // Each loaded under the old rules; FlatForest::compile's breadth-first
  // walk never ends on the self-loop, the cycle or the chain.
  const std::string leaf = "node -1 -1 0 0x0p+0 0x1p-1\n";
  expect_refused(one_tree("node 0 0 0 0x0p+0 0x1p-1\n", 1), "self-loop");
  expect_refused(one_tree("node 1 2 0 0x0p+0 0x0p+0\nnode 0 3 0 0x0p+0 0x0p+0\n" +
                              leaf + leaf, 4),
                 "backward link");
  expect_refused(one_tree("node 1 2 0 0x0p+0 0x0p+0\nnode 3 4 0 0x0p+0 0x0p+0\n"
                          "node 3 4 0 0x0p+0 0x0p+0\n" + leaf + leaf, 5),
                 "shared child");
  std::string chain;
  for (int i = 0; i < 63; ++i) {
    chain += "node " + std::to_string(i + 1) + ' ' + std::to_string(i + 1) +
             " 0 0x0p+0 0x0p+0\n";
  }
  expect_refused(one_tree(chain + leaf, 64), "chain");
}

TEST(SerializationFuzzTest, FeaturesAndLinksTheArenaCannotIndexAreRefused) {
  const std::string leaves = "node -1 -1 0 0x0p+0 0x0p+0\nnode -1 -1 0 0x0p+0 0x1p+0\n";
  // The arena read feature -1 as a leaf, so this forest scored 0.
  expect_refused(one_tree("node 1 2 -1 0x0p+0 0x0p+0\n" + leaves, 3), "negative feature");
  expect_refused(one_tree("node 1 2 2147483648 0x0p+0 0x0p+0\n" + leaves, 3),
                 "feature past int32");
  // 4294967297 used to load as link 1.
  expect_refused(one_tree("node 4294967297 2 0 0x0p+0 0x0p+0\n" + leaves, 3),
                 "link past int32");
  // In range for the reader; FlatForest::predict_proba checks the span.
  EXPECT_TRUE(try_load_forest(one_tree("node 1 2 5000000 0x0p+0 0x0p+0\n" + leaves, 3))
                  .has_value());
}

}  // namespace
}  // namespace dm::ml
