// Golden-equivalence suite for the flattened ERF: FlatForest must score
// bit-identically to the pointer walk over the RandomForest it was compiled
// from (tests/reference_forest.h), the oracle that shares no code with the
// arena — the contract that lets every score go through FlatForest.
#include "ml/flat_forest.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "ml/parallel_trainer.h"
#include "ml/serialization.h"
#include "reference_forest.h"
#include "util/rng.h"

namespace dm::ml {
namespace {

/// Exact-bits comparison: EXPECT_EQ on doubles would already be exact
/// equality, but comparing the bit patterns also distinguishes -0.0 from
/// +0.0 and documents the intent.
::testing::AssertionResult same_bits(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ ("
         << std::bit_cast<std::uint64_t>(a) << " vs "
         << std::bit_cast<std::uint64_t>(b) << ")";
}

Dataset random_dataset(std::size_t rows, std::size_t width, std::uint64_t seed) {
  dm::util::Rng rng(seed);
  std::vector<std::string> names;
  for (std::size_t f = 0; f < width; ++f) names.push_back("f" + std::to_string(f));
  Dataset data(std::move(names));
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> row;
    for (std::size_t f = 0; f < width; ++f) row.push_back(rng.normal(0.0, 5.0));
    // Nonlinear label rule so trees grow real depth.
    const bool positive = row[0] * row[1] > 0.0 || row[2] > 3.0;
    data.add_row(std::move(row), positive ? kInfection : kBenign);
  }
  return data;
}

std::vector<double> random_vector(std::size_t width, dm::util::Rng& rng) {
  std::vector<double> x;
  for (std::size_t f = 0; f < width; ++f) x.push_back(rng.normal(0.0, 6.0));
  return x;
}

TEST(FlatForestTest, BitIdenticalToPointerForestOnRandomVectors) {
  const auto data = random_dataset(300, 8, 11);
  ForestOptions options;
  options.num_trees = 20;
  options.seed = 7;
  const auto forest = train_forest_parallel(data, options);
  const auto flat = FlatForest::compile(forest);
  EXPECT_EQ(flat.num_trees(), forest.num_trees());

  dm::util::Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    const auto x = random_vector(8, rng);
    EXPECT_TRUE(same_bits(flat.predict_proba(x), reference::predict_proba(forest, x)));
    EXPECT_EQ(flat.predict(x, 0.35), reference::predict(forest, x, 0.35));
  }
}

TEST(FlatForestTest, BitIdenticalUnderMajorityVote) {
  const auto data = random_dataset(250, 6, 21);
  ForestOptions options;
  options.num_trees = 15;
  options.seed = 9;
  options.combination = Combination::kMajorityVote;
  const auto forest = train_forest_parallel(data, options);
  const auto flat = FlatForest::compile(forest);

  dm::util::Rng rng(22);
  for (int i = 0; i < 1000; ++i) {
    const auto x = random_vector(6, rng);
    EXPECT_TRUE(same_bits(flat.predict_proba(x), reference::predict_proba(forest, x)));
  }
}

TEST(FlatForestTest, BitIdenticalWithMixedLeaves) {
  // Depth-limited trees keep mixed leaves, so the per-tree probabilities
  // are fractions and their sum depends on the order the trees are added
  // in.  Fully grown trees end in pure leaves, whose sums are exact.
  const auto data = random_dataset(300, 8, 61);
  ForestOptions options;
  options.num_trees = 20;
  options.seed = 23;
  options.tree.max_depth = 4;
  options.tree.min_samples_leaf = 5;
  const auto forest = train_forest_parallel(data, options);
  const auto flat = FlatForest::compile(forest);

  dm::util::Rng rng(62);
  for (int i = 0; i < 1000; ++i) {
    const auto x = random_vector(8, rng);
    EXPECT_TRUE(same_bits(flat.predict_proba(x), reference::predict_proba(forest, x)));
  }
}

TEST(FlatForestTest, NanFeaturesFollowTheSameBranch) {
  const auto data = random_dataset(200, 5, 31);
  ForestOptions options;
  options.num_trees = 10;
  options.seed = 13;
  const auto forest = train_forest_parallel(data, options);
  const auto flat = FlatForest::compile(forest);

  dm::util::Rng rng(32);
  for (int i = 0; i < 500; ++i) {
    auto x = random_vector(5, rng);
    // Poison a couple of coordinates: both walks must send NaN right.
    x[static_cast<std::size_t>(i) % x.size()] =
        std::numeric_limits<double>::quiet_NaN();
    x[(static_cast<std::size_t>(i) + 2) % x.size()] =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(same_bits(flat.predict_proba(x), reference::predict_proba(forest, x)));
  }
}

TEST(FlatForestTest, SerializedRoundtripCompilesToIdenticalScores) {
  // The deployment path: train -> save -> load -> compile.  The text format
  // stores doubles as hex-floats, so the loaded forest — and therefore its
  // flat compilation — must reproduce the original scores exactly.
  const auto data = random_dataset(300, 8, 41);
  ForestOptions options;
  options.num_trees = 12;
  options.seed = 17;
  const auto forest = train_forest_parallel(data, options);

  std::stringstream buffer;
  save_forest(forest, buffer);
  const auto loaded = load_forest(buffer);
  const auto flat = FlatForest::compile(loaded);

  dm::util::Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const auto x = random_vector(8, rng);
    EXPECT_TRUE(same_bits(flat.predict_proba(x), reference::predict_proba(forest, x)));
  }
}

TEST(FlatForestTest, EmptyForestScoresZeroLikeSource) {
  const RandomForest empty;
  const auto flat = FlatForest::compile(empty);
  EXPECT_EQ(flat.num_trees(), 0u);
  EXPECT_EQ(flat.node_count(), 0u);
  const std::vector<double> x(4, 1.0);
  EXPECT_TRUE(same_bits(flat.predict_proba(x), reference::predict_proba(empty, x)));
  EXPECT_TRUE(same_bits(flat.predict_proba(x), 0.0));
}

TEST(FlatForestTest, ArenaIsOneLeafPerEmptyTreeAndBfsOtherwise) {
  const auto data = random_dataset(120, 4, 51);
  ForestOptions options;
  options.num_trees = 5;
  options.seed = 19;
  const auto forest = train_forest_parallel(data, options);
  const auto flat = FlatForest::compile(forest);
  std::size_t expected = 0;
  for (const auto& tree : forest.trees()) expected += tree.nodes().size();
  EXPECT_EQ(flat.node_count(), expected);
}

}  // namespace
}  // namespace dm::ml
