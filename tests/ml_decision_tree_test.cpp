#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include "reference_forest.h"

namespace dm::ml {
namespace {

/// Linearly separable data on one feature.
Dataset separable(std::size_t n_per_class) {
  Dataset data({"x", "noise"});
  for (std::size_t i = 0; i < n_per_class; ++i) {
    data.add_row({static_cast<double>(i), 0.5}, kBenign);
    data.add_row({static_cast<double>(i) + 100.0, 0.5}, kInfection);
  }
  return data;
}

TEST(DecisionTreeTest, LearnsSeparableData) {
  const auto data = separable(20);
  dm::util::Rng rng(1);
  const auto tree = DecisionTree::train(data, {}, rng);
  EXPECT_EQ(reference::predict(tree, {5.0, 0.5}), kBenign);
  EXPECT_EQ(reference::predict(tree, {110.0, 0.5}), kInfection);
  EXPECT_LT(reference::predict_proba(tree, {0.0, 0.5}), 0.5);
  EXPECT_GT(reference::predict_proba(tree, {150.0, 0.5}), 0.5);
}

TEST(DecisionTreeTest, PureLeafOnUniformLabels) {
  Dataset data({"x"});
  for (int i = 0; i < 10; ++i) data.add_row({double(i)}, kInfection);
  dm::util::Rng rng(2);
  const auto tree = DecisionTree::train(data, {}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(reference::predict_proba(tree, {3.0}), 1.0);
}

TEST(DecisionTreeTest, EmptyTrainingSetPredictsBenign) {
  Dataset data({"x"});
  dm::util::Rng rng(3);
  const auto tree = DecisionTree::train(data, {}, rng);
  EXPECT_EQ(reference::predict(tree, {1.0}), kBenign);
}

TEST(DecisionTreeTest, MaxDepthLimitsGrowth) {
  // XOR-ish data that needs depth 2; with depth 1 it cannot be pure.
  Dataset data({"x", "y"});
  for (int i = 0; i < 10; ++i) {
    data.add_row({0.0, 0.0}, kBenign);
    data.add_row({1.0, 1.0}, kBenign);
    data.add_row({0.0, 1.0}, kInfection);
    data.add_row({1.0, 0.0}, kInfection);
  }
  TreeOptions shallow;
  shallow.max_depth = 0;
  dm::util::Rng rng(4);
  const auto stump = DecisionTree::train(data, shallow, rng);
  EXPECT_EQ(stump.node_count(), 1u);

  TreeOptions deep;
  deep.max_depth = 4;
  const auto tree = DecisionTree::train(data, deep, rng);
  EXPECT_EQ(reference::predict(tree, {0.0, 1.0}), kInfection);
  EXPECT_EQ(reference::predict(tree, {1.0, 1.0}), kBenign);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  Dataset data({"x"});
  data.add_row({0.0}, kBenign);
  data.add_row({1.0}, kInfection);
  TreeOptions options;
  options.min_samples_leaf = 2;  // cannot split 2 samples into leaves of 2
  dm::util::Rng rng(5);
  const auto tree = DecisionTree::train(data, options, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(reference::predict_proba(tree, {0.5}), 0.5);
}

TEST(DecisionTreeTest, DuplicateFeatureValuesNotSplit) {
  // All feature values identical: no valid threshold exists.
  Dataset data({"x"});
  for (int i = 0; i < 6; ++i) data.add_row({7.0}, i % 2 ? kInfection : kBenign);
  dm::util::Rng rng(6);
  const auto tree = DecisionTree::train(data, {}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(reference::predict_proba(tree, {7.0}), 0.5);
}

TEST(DecisionTreeTest, TrainOnBootstrapIndices) {
  const auto data = separable(10);
  // Bootstrap with duplicates, only benign rows (even indices).
  std::vector<std::size_t> indices{0, 0, 2, 2, 4, 4};
  dm::util::Rng rng(7);
  const auto tree = DecisionTree::train(data, indices, {}, rng);
  EXPECT_DOUBLE_EQ(reference::predict_proba(tree, {0.0, 0.5}), 0.0);
}

TEST(DecisionTreeTest, FeatureSubsamplingStillLearns) {
  const auto data = separable(30);
  TreeOptions options;
  options.features_per_split = 1;
  dm::util::Rng rng(8);
  const auto tree = DecisionTree::train(data, options, rng);
  // With 2 features and 1 sampled per split, retries deeper in the tree
  // still find the informative one.
  EXPECT_EQ(reference::predict(tree, {0.0, 0.5}), kBenign);
  EXPECT_EQ(reference::predict(tree, {150.0, 0.5}), kInfection);
}

class TreeGeneralizationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeGeneralizationTest, SeparableDataAlwaysLearned) {
  const auto data = separable(GetParam());
  dm::util::Rng rng(9);
  const auto tree = DecisionTree::train(data, {}, rng);
  EXPECT_EQ(reference::predict(tree, {-5.0, 0.5}), kBenign);
  EXPECT_EQ(reference::predict(tree, {500.0, 0.5}), kInfection);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeGeneralizationTest,
                         ::testing::Values(2, 5, 20, 100));

}  // namespace
}  // namespace dm::ml
