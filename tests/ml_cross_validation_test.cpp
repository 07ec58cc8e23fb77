#include "ml/cross_validation.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string_view>

#include "util/hash.h"

namespace dm::ml {
namespace {

Dataset noisy_separable(std::size_t n, std::uint64_t seed) {
  dm::util::Rng rng(seed);
  Dataset data({"a", "b"});
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = i % 3 == 0;  // imbalanced, like the real corpus
    const double base = positive ? 6.0 : 0.0;
    data.add_row({base + rng.normal(0, 1.5), rng.normal(0, 1.0)},
                 positive ? kInfection : kBenign);
  }
  return data;
}

TEST(CrossValidationTest, EveryRowScoredExactlyOnce) {
  const auto data = noisy_separable(120, 1);
  const auto result = cross_validate(data, 10, {}, 2);
  EXPECT_EQ(result.labels.size(), data.size());
  EXPECT_EQ(result.scores.size(), data.size());
  EXPECT_EQ(result.confusion.total(), data.size());
  EXPECT_EQ(result.fold_confusions.size(), 10u);
}

TEST(CrossValidationTest, GoodDataHighTprLowFpr) {
  const auto data = noisy_separable(600, 3);
  ForestOptions options;
  options.num_trees = 20;
  const auto result = cross_validate(data, 10, options, 4);
  EXPECT_GT(result.tpr(), 0.85);
  EXPECT_LT(result.fpr(), 0.15);
  EXPECT_GT(result.roc_area, 0.9);
  EXPECT_GT(result.f_score(), 0.8);
}

TEST(CrossValidationTest, DeterministicForSeed) {
  const auto data = noisy_separable(150, 5);
  const auto r1 = cross_validate(data, 5, {}, 42);
  const auto r2 = cross_validate(data, 5, {}, 42);
  EXPECT_EQ(r1.confusion.true_positives, r2.confusion.true_positives);
  EXPECT_EQ(r1.confusion.false_positives, r2.confusion.false_positives);
  EXPECT_DOUBLE_EQ(r1.roc_area, r2.roc_area);
}

TEST(CrossValidationTest, ThresholdTradesTprForFpr) {
  const auto data = noisy_separable(300, 6);
  const auto strict = cross_validate(data, 5, {}, 7, 0.9);
  const auto lax = cross_validate(data, 5, {}, 7, 0.1);
  EXPECT_GE(lax.tpr(), strict.tpr());
  EXPECT_GE(lax.fpr(), strict.fpr());
}

TEST(CrossValidationTest, PooledConfusionMatchesFoldSum) {
  const auto data = noisy_separable(200, 8);
  const auto result = cross_validate(data, 4, {}, 9);
  std::size_t tp = 0;
  std::size_t fp = 0;
  for (const auto& fold : result.fold_confusions) {
    tp += fold.true_positives;
    fp += fold.false_positives;
  }
  EXPECT_EQ(tp, result.confusion.true_positives);
  EXPECT_EQ(fp, result.confusion.false_positives);
}

/// Five features, two of them pure noise, over classes that overlap, so
/// many held-out rows fall in mixed leaves.
Dataset overlapping(std::size_t n, std::uint64_t seed) {
  dm::util::Rng rng(seed);
  Dataset data({"a", "b", "c", "d", "e"});
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = rng.chance(0.35);
    const double shift = positive ? 1.2 : 0.0;
    data.add_row({shift + rng.normal(0, 1.0), rng.normal(0, 1.0),
                  shift / 2 + rng.normal(0, 1.5), rng.uniform(-2, 2),
                  shift * rng.uniform(0, 1)},
                 positive ? kInfection : kBenign);
  }
  return data;
}

/// The bits cross-validation hands to Table III and Fig. 10: FNV-1a over
/// the little-endian bytes of every pooled score's bit pattern, then of
/// each fold's four confusion counts, in fold order.
std::uint64_t output_digest(const CrossValidationResult& result) {
  std::uint64_t hash = dm::util::fnv1a("");
  const auto append = [&hash](std::uint64_t word) {
    char bytes[sizeof word];
    for (std::size_t b = 0; b < sizeof word; ++b) {
      bytes[b] = static_cast<char>(word >> (8 * b));
    }
    hash = dm::util::fnv1a_append(hash, std::string_view(bytes, sizeof bytes));
  };
  for (const double score : result.scores) append(std::bit_cast<std::uint64_t>(score));
  for (const auto& fold : result.fold_confusions) {
    append(fold.true_positives);
    append(fold.false_positives);
    append(fold.true_negatives);
    append(fold.false_negatives);
  }
  return hash;
}

// Both digests were recorded with the pointer-forest walk that scored the
// folds before cross_validate moved to FlatForest; they fail if that move,
// or any later one, changes a score bit or a fold's confusion counts.
TEST(CrossValidationTest, AveragedOutputBitsMatchRecordedDigest) {
  const auto data = overlapping(400, 21);
  ForestOptions options;
  options.combination = Combination::kProbabilityAveraging;
  // Depth-limited trees keep mixed leaves, so averaged scores spread.
  options.tree.max_depth = 5;
  options.tree.min_samples_leaf = 4;
  const auto result = cross_validate(data, 10, options, 22, 0.4);
  ASSERT_EQ(result.scores.size(), data.size());
  ASSERT_EQ(result.fold_confusions.size(), 10u);
  EXPECT_GT(std::set<double>(result.scores.begin(), result.scores.end()).size(), 40u);
  EXPECT_EQ(output_digest(result), 16630476496292446706ULL);
}

TEST(CrossValidationTest, MajorityVoteOutputBitsMatchRecordedDigest) {
  const auto data = overlapping(400, 23);
  ForestOptions options;
  options.num_trees = 15;
  options.combination = Combination::kMajorityVote;
  const auto result = cross_validate(data, 10, options, 24);
  ASSERT_EQ(result.scores.size(), data.size());
  ASSERT_EQ(result.fold_confusions.size(), 10u);
  // Voting scores are k / 15: at most 16 levels, and more than two here.
  const std::set<double> levels(result.scores.begin(), result.scores.end());
  EXPECT_GT(levels.size(), 2u);
  EXPECT_LE(levels.size(), 16u);
  EXPECT_EQ(output_digest(result), 4939851618258318145ULL);
}

}  // namespace
}  // namespace dm::ml
