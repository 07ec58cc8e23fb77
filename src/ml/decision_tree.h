// CART decision tree for binary classification with Gini impurity and
// optional per-split feature subsampling (the randomness source for the
// Ensemble Random Forest).  The paper observes that a single decision tree
// overfits the internally-variable WCG data (§V-A); the tree is the RF's
// building block, and a one-tree forest is the ablation's single-tree
// baseline.  A tree is trained and stored here; ml::FlatForest scores it.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "util/rng.h"

namespace dm::ml {

struct TreeOptions {
  std::size_t max_depth = 24;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of candidate features examined per split; 0 = all features.
  std::size_t features_per_split = 0;
};

/// A trained CART tree.  Nodes are stored in a flat vector; leaves carry the
/// positive-class probability observed in training.
class DecisionTree {
 public:
  /// Trains on the rows of `data` selected by `indices` (duplicates allowed —
  /// that is how the forest passes bootstrap samples).  `rng` drives feature
  /// subsampling; it is unused when features_per_split == 0.
  static DecisionTree train(const Dataset& data,
                            std::span<const std::size_t> indices,
                            const TreeOptions& options, dm::util::Rng& rng);

  /// Convenience: train on all rows.
  static DecisionTree train(const Dataset& data, const TreeOptions& options,
                            dm::util::Rng& rng);

  struct Node {
    // Internal nodes: feature/threshold and child links; leaves: left == -1.
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::uint32_t feature = 0;
    double threshold = 0.0;
    double positive_probability = 0.0;
  };

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t depth() const noexcept { return depth_; }

  /// Read-only view of the node storage (root at index 0); lets
  /// ml/flat_forest.h compile the tree into its contiguous SoA arena.
  const std::vector<Node>& nodes() const noexcept { return nodes_; }

  /// Persistence (format documented in ml/serialization.h).
  void serialize(std::ostream& out) const;

 private:
  friend class ForestReader;  // ml/serialization.cpp fills a loaded tree

  struct SplitCandidate {
    std::size_t feature = 0;
    double threshold = 0.0;
    double impurity_decrease = 0.0;
  };

  std::int32_t build(const Dataset& data, std::vector<std::size_t>& indices,
                     std::size_t begin, std::size_t end, std::size_t depth,
                     const TreeOptions& options, dm::util::Rng& rng);

  static std::optional<SplitCandidate> best_split(
      const Dataset& data, std::span<const std::size_t> indices,
      std::span<const std::size_t> features, std::size_t min_leaf);

  std::vector<Node> nodes_;
  std::size_t depth_ = 0;
};

}  // namespace dm::ml
