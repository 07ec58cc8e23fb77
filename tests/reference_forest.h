// Reference forest: a sequential trainer and a pointer-walk scorer for the
// ERF (§V-A), the oracles of the one trainer (ml::train_forest_parallel)
// and the one scorer (ml::FlatForest).
//
// train() builds tree 0, then tree 1, and so on, on the caller's thread.
// predict_proba() walks each tree's node links from its root and combines
// the trees in order.  Neither shares code with FlatForest's arena or its
// traversal, nor with the WorkerPool fan-out of the parallel trainer, so
// the fences that compare against them check those paths independently:
// ml_flat_forest_test (score bits), ml_parallel_trainer_test and
// bench_training (byte-identical forests), and the online engine's oracle
// in reference_online.h.  Header-only, included from tests/.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

#include "ml/random_forest.h"

namespace dm::ml::reference {

/// P(label == infection) for a feature vector: the leaf reached from the
/// root, x <= threshold going left and everything else (NaN included)
/// going right.  An empty tree scores 0.0.
inline double predict_proba(const DecisionTree& tree,
                            std::span<const double> features) {
  const auto& nodes = tree.nodes();
  if (nodes.empty()) return 0.0;
  std::int32_t at = 0;
  while (true) {
    const DecisionTree::Node& node = nodes[static_cast<std::size_t>(at)];
    if (node.left < 0) return node.positive_probability;
    at = features[node.feature] <= node.threshold ? node.left : node.right;
  }
}
inline double predict_proba(const DecisionTree& tree,
                            std::initializer_list<double> features) {
  return predict_proba(tree, std::span<const double>(features.begin(), features.size()));
}

/// Hard decision at threshold 0.5.
inline int predict(const DecisionTree& tree, std::span<const double> features) {
  return predict_proba(tree, features) >= 0.5 ? kInfection : kBenign;
}
inline int predict(const DecisionTree& tree, std::initializer_list<double> features) {
  return predict(tree, std::span<const double>(features.begin(), features.size()));
}

/// Trains Nt trees on bootstrap samples of `data`, one after another.  Tree
/// i draws its bootstrap and split randomness from the stream
/// tree_stream_seed(options.seed, i), so the forest is a pure function of
/// (data, options).
inline RandomForest train(const Dataset& data, const ForestOptions& options) {
  if (data.empty()) throw std::invalid_argument("reference::train: empty dataset");
  TreeOptions tree_options = options.tree;
  tree_options.features_per_split =
      options.features_per_split > 0
          ? options.features_per_split
          : default_features_per_split(data.num_features());

  std::vector<DecisionTree> trees;
  trees.reserve(options.num_trees);
  for (std::size_t t = 0; t < options.num_trees; ++t) {
    dm::util::Rng tree_rng(tree_stream_seed(options.seed, t));
    const auto bootstrap = bootstrap_sample(data.size(), options, tree_rng);
    trees.push_back(DecisionTree::train(data, bootstrap, tree_options, tree_rng));
  }
  return RandomForest::assemble(std::move(trees), options);
}

/// Ensemble positive-class score in [0, 1]: mean per-tree probability
/// under kProbabilityAveraging, or the fraction of positive votes under
/// kMajorityVote.
inline double predict_proba(const RandomForest& forest,
                            std::span<const double> features) {
  const auto& trees = forest.trees();
  if (trees.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& tree : trees) {
    if (forest.options().combination == Combination::kProbabilityAveraging) {
      sum += predict_proba(tree, features);
    } else {
      sum += predict(tree, features) == kInfection ? 1.0 : 0.0;
    }
  }
  return sum / static_cast<double>(trees.size());
}

/// Hard decision at `threshold` on the ensemble score.
inline int predict(const RandomForest& forest, std::span<const double> features,
                   double threshold = 0.5) {
  return predict_proba(forest, features) >= threshold ? kInfection : kBenign;
}

}  // namespace dm::ml::reference
