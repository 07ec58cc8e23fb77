#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <set>

#include "ml/flat_forest.h"
#include "ml/parallel_trainer.h"
#include "util/rng.h"

namespace dm::ml {
namespace {

Dataset noisy_separable(std::size_t n, std::uint64_t seed) {
  dm::util::Rng rng(seed);
  Dataset data({"a", "b", "c"});
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    const double base = positive ? 10.0 : 0.0;
    data.add_row({base + rng.normal(0, 2.0), rng.normal(0, 1.0),
                  base / 2 + rng.normal(0, 3.0)},
                 positive ? kInfection : kBenign);
  }
  return data;
}

TEST(RandomForestTest, DefaultNfMatchesPaperFormula) {
  EXPECT_EQ(default_features_per_split(37), 6u);  // log2(37)+1 = 6
  EXPECT_EQ(default_features_per_split(8), 4u);
  EXPECT_EQ(default_features_per_split(1), 1u);
  EXPECT_EQ(default_features_per_split(0), 0u);
}

TEST(RandomForestTest, ThrowsOnEmptyDataset) {
  Dataset data({"x"});
  EXPECT_THROW(train_forest_parallel(data, {}), std::invalid_argument);
}

TEST(RandomForestTest, TrainsRequestedTreeCount) {
  const auto data = noisy_separable(100, 1);
  ForestOptions options;
  options.num_trees = 7;
  const auto forest = train_forest_parallel(data, options);
  EXPECT_EQ(forest.num_trees(), 7u);
}

TEST(RandomForestTest, ClassifiesNoisySeparableData) {
  const auto data = noisy_separable(400, 2);
  ForestOptions options;
  options.num_trees = 20;
  options.seed = 3;
  const auto forest = FlatForest::compile(train_forest_parallel(data, options));
  int correct = 0;
  dm::util::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const bool positive = i % 2 == 0;
    const double base = positive ? 10.0 : 0.0;
    const std::vector<double> x{base + rng.normal(0, 2.0), rng.normal(0, 1.0),
                                base / 2 + rng.normal(0, 3.0)};
    correct += forest.predict(x) == (positive ? kInfection : kBenign);
  }
  EXPECT_GT(correct, 180);  // > 90% on held-out noise
}

TEST(RandomForestTest, DeterministicForSameSeed) {
  const auto data = noisy_separable(100, 5);
  ForestOptions options;
  options.seed = 77;
  const auto f1 = FlatForest::compile(train_forest_parallel(data, options));
  const auto f2 = FlatForest::compile(train_forest_parallel(data, options));
  dm::util::Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{rng.uniform(-5, 15), rng.normal(0, 1),
                                rng.uniform(-5, 10)};
    EXPECT_DOUBLE_EQ(f1.predict_proba(x), f2.predict_proba(x));
  }
}

TEST(RandomForestTest, ProbabilityAveragingIsSmootherThanVoting) {
  const auto data = noisy_separable(200, 7);
  ForestOptions averaging;
  averaging.combination = Combination::kProbabilityAveraging;
  averaging.seed = 8;
  ForestOptions voting = averaging;
  voting.combination = Combination::kMajorityVote;

  const auto forest_avg = FlatForest::compile(train_forest_parallel(data, averaging));
  const auto forest_vote = FlatForest::compile(train_forest_parallel(data, voting));

  // Voting scores are quantized to k/num_trees; averaging scores take many
  // more distinct values across a probe set.
  std::set<double> avg_scores;
  std::set<double> vote_scores;
  dm::util::Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> x{rng.uniform(-2, 12), rng.normal(0, 1),
                                rng.uniform(-2, 8)};
    avg_scores.insert(forest_avg.predict_proba(x));
    vote_scores.insert(forest_vote.predict_proba(x));
  }
  EXPECT_GE(avg_scores.size(), vote_scores.size());
  EXPECT_LE(vote_scores.size(), 21u);  // at most num_trees+1 voting levels
}

TEST(RandomForestTest, ScoresAreProbabilities) {
  const auto data = noisy_separable(100, 10);
  const auto forest = FlatForest::compile(train_forest_parallel(data, {}));
  dm::util::Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x{rng.uniform(-20, 30), rng.uniform(-5, 5),
                                rng.uniform(-20, 30)};
    const double p = forest.predict_proba(x);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForestTest, ThresholdShiftsDecisions) {
  const auto data = noisy_separable(200, 12);
  const auto forest = FlatForest::compile(train_forest_parallel(data, {}));
  const std::vector<double> borderline{5.0, 0.0, 2.5};
  const double p = forest.predict_proba(borderline);
  EXPECT_EQ(forest.predict(borderline, p - 0.01), kInfection);
  EXPECT_EQ(forest.predict(borderline, p + 0.01), kBenign);
}

class ForestSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestSizeTest, AccuracyHoldsAcrossSizes) {
  const auto data = noisy_separable(300, 13);
  ForestOptions options;
  options.num_trees = GetParam();
  options.seed = 14;
  const auto forest = FlatForest::compile(train_forest_parallel(data, options));
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    correct += forest.predict(data.row(i)) == data.label(i);
  }
  EXPECT_GT(static_cast<double>(correct) / data.size(), 0.9);
}

INSTANTIATE_TEST_SUITE_P(TreeCounts, ForestSizeTest,
                         ::testing::Values(1, 5, 10, 20, 40));

}  // namespace
}  // namespace dm::ml
