// Property-based tests for the ML substrate: score bounds, monotonicity,
// determinism and stability on randomly generated datasets.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "ml/cross_validation.h"
#include "ml/feature_ranking.h"
#include "ml/flat_forest.h"
#include "ml/metrics.h"
#include "ml/parallel_trainer.h"
#include "ml/random_forest.h"
#include "ml/serialization.h"
#include "reference_forest.h"
#include "util/rng.h"

namespace dm::ml {
namespace {

Dataset random_dataset(std::uint64_t seed, std::size_t n, std::size_t features,
                       double signal) {
  dm::util::Rng rng(seed);
  std::vector<std::string> names;
  for (std::size_t f = 0; f < features; ++f) names.push_back("f" + std::to_string(f));
  Dataset data(std::move(names));
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = rng.chance(0.4);
    std::vector<double> row;
    for (std::size_t f = 0; f < features; ++f) {
      const double base = (f == 0 && positive) ? signal : 0.0;
      row.push_back(base + rng.normal(0, 1.0));
    }
    data.add_row(std::move(row), positive ? kInfection : kBenign);
  }
  return data;
}

class RandomDatasetTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDatasetTest, ForestScoresAlwaysProbabilities) {
  const auto data = random_dataset(GetParam(), 150, 5, 2.0);
  const auto forest = FlatForest::compile(train_forest_parallel(data, {}));
  dm::util::Rng rng(GetParam() ^ 0xf);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x;
    for (int f = 0; f < 5; ++f) x.push_back(rng.uniform(-10, 10));
    const double p = forest.predict_proba(x);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_P(RandomDatasetTest, SignalImprovesAuc) {
  // A dataset with signal must yield a better CV AUC than pure noise.
  const auto with_signal = random_dataset(GetParam(), 300, 5, 3.0);
  const auto pure_noise = random_dataset(GetParam() ^ 1, 300, 5, 0.0);
  const auto r_signal = cross_validate(with_signal, 5, {}, GetParam());
  const auto r_noise = cross_validate(pure_noise, 5, {}, GetParam());
  EXPECT_GT(r_signal.roc_area, 0.8);
  EXPECT_LT(r_noise.roc_area, 0.75);
  EXPECT_GT(r_signal.roc_area, r_noise.roc_area);
}

TEST_P(RandomDatasetTest, GainRatioIdentifiesTheSignalFeature) {
  const auto data = random_dataset(GetParam(), 400, 6, 3.0);
  const double g0 = gain_ratio(data, 0);
  for (std::size_t f = 1; f < 6; ++f) {
    EXPECT_GT(g0, gain_ratio(data, f)) << "feature " << f;
  }
}

TEST_P(RandomDatasetTest, GainRatioWithinUnitInterval) {
  const auto data = random_dataset(GetParam(), 100, 4, 1.0);
  for (std::size_t f = 0; f < 4; ++f) {
    const double g = gain_ratio(data, f);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 1.0 + 1e-9);
  }
}

TEST_P(RandomDatasetTest, RocAucInvariantToMonotoneScoreTransform) {
  const auto data = random_dataset(GetParam(), 200, 3, 2.0);
  const auto forest = FlatForest::compile(train_forest_parallel(data, {}));
  std::vector<int> labels;
  std::vector<double> scores;
  std::vector<double> squashed;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double s = forest.predict_proba(data.row(i));
    labels.push_back(data.label(i));
    scores.push_back(s);
    squashed.push_back(s * s * 0.5 + 0.1);  // strictly increasing transform
  }
  EXPECT_NEAR(roc_auc(labels, scores), roc_auc(labels, squashed), 1e-12);
}

TEST_P(RandomDatasetTest, MoreTreesNeverMuchWorse) {
  const auto data = random_dataset(GetParam(), 250, 5, 2.0);
  ForestOptions small;
  small.num_trees = 2;
  small.seed = GetParam();
  ForestOptions large = small;
  large.num_trees = 30;
  const auto r_small = cross_validate(data, 5, small, GetParam());
  const auto r_large = cross_validate(data, 5, large, GetParam());
  EXPECT_GE(r_large.roc_area, r_small.roc_area - 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDatasetTest,
                         ::testing::Values(101, 202, 303, 404));

TEST(MetricsPropertyTest, ConfusionTotalsAlwaysConsistent) {
  dm::util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 200));
    std::vector<int> labels(n);
    std::vector<int> preds(n);
    for (std::size_t i = 0; i < n; ++i) {
      labels[i] = rng.chance(0.5) ? kInfection : kBenign;
      preds[i] = rng.chance(0.5) ? kInfection : kBenign;
    }
    const auto c = confusion_from(labels, preds);
    EXPECT_EQ(c.total(), n);
    EXPECT_GE(c.accuracy(), 0.0);
    EXPECT_LE(c.accuracy(), 1.0);
    EXPECT_GE(c.f_score(), 0.0);
    EXPECT_LE(c.f_score(), 1.0);
  }
}

TEST(MetricsPropertyTest, AucSymmetry) {
  // Reversing all scores must map AUC to 1 - AUC.
  dm::util::Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> labels;
    std::vector<double> scores;
    std::vector<double> reversed;
    for (int i = 0; i < 60; ++i) {
      labels.push_back(rng.chance(0.5) ? kInfection : kBenign);
      const double s = rng.next_double();
      scores.push_back(s);
      reversed.push_back(1.0 - s);
    }
    bool has_both = false;
    has_both = std::count(labels.begin(), labels.end(), kInfection) > 0 &&
               std::count(labels.begin(), labels.end(), kBenign) > 0;
    if (!has_both) continue;
    EXPECT_NEAR(roc_auc(labels, scores) + roc_auc(labels, reversed), 1.0, 1e-9);
  }
}

// --- counter-based per-tree RNG streams (the parallel-trainer contract) ----

std::string serialized(const RandomForest& forest) {
  std::stringstream out;
  save_forest(forest, out);
  return out.str();
}

TEST(RngStreamPropertyTest, TreeStreamSeedsDistinctWithinAndAcrossSeeds) {
  std::set<std::uint64_t> seen;
  for (const std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    for (std::size_t tree = 0; tree < 256; ++tree) {
      EXPECT_TRUE(seen.insert(tree_stream_seed(seed, tree)).second)
          << "collision at seed " << seed << " tree " << tree;
    }
    // The stream of tree 0 must not alias the raw seed either, or a
    // caller's own Rng(seed) would correlate with the first tree.
    EXPECT_NE(tree_stream_seed(seed, 0), seed);
  }
}

TEST_P(RandomDatasetTest, SeededForestsReproducibleAcrossRunsAndThreads) {
  const auto data = random_dataset(GetParam(), 200, 5, 1.5);
  ForestOptions options;
  options.seed = GetParam();
  const auto first = train_forest_parallel(data, options, {.threads = 4});
  const auto second = train_forest_parallel(data, options, {.threads = 4});
  const auto sequential = train_forest_parallel(data, options);
  EXPECT_EQ(serialized(first), serialized(second));
  EXPECT_EQ(serialized(first), serialized(sequential));
}

TEST_P(RandomDatasetTest, DistinctSeedsGiveDistinctBootstraps) {
  ForestOptions options;
  // Across seeds: tree 0's bootstrap sample differs.
  dm::util::Rng a(tree_stream_seed(GetParam(), 0));
  dm::util::Rng b(tree_stream_seed(GetParam() ^ 0x5a5aULL, 0));
  EXPECT_NE(bootstrap_sample(500, options, a), bootstrap_sample(500, options, b));
  // Within one seed: consecutive trees draw different bootstraps.
  dm::util::Rng t0(tree_stream_seed(GetParam(), 0));
  dm::util::Rng t1(tree_stream_seed(GetParam(), 1));
  EXPECT_NE(bootstrap_sample(500, options, t0),
            bootstrap_sample(500, options, t1));
}

TEST_P(RandomDatasetTest, FlatForestBitIdenticalToParallelTrainedForest) {
  const auto data = random_dataset(GetParam(), 200, 5, 2.0);
  ForestOptions options;
  options.seed = GetParam();
  const auto forest = train_forest_parallel(data, options, {.threads = 8});
  const auto flat = FlatForest::compile(forest);
  dm::util::Rng rng(GetParam() ^ 0xff);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x;
    for (int f = 0; f < 5; ++f) x.push_back(rng.uniform(-8, 8));
    EXPECT_EQ(flat.predict_proba(x), reference::predict_proba(forest, x));
  }
}

TEST(CrossValidationPropertyTest, FoldsPartitionForAnyK) {
  const auto data = random_dataset(9, 97, 3, 1.0);  // awkward prime size
  for (std::size_t k : {2u, 3u, 5u, 7u, 10u}) {
    const auto result = cross_validate(data, k, {}, 1);
    EXPECT_EQ(result.labels.size(), data.size()) << "k=" << k;
    EXPECT_EQ(result.fold_confusions.size(), k);
  }
}

}  // namespace
}  // namespace dm::ml
