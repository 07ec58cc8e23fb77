#include "ml/flat_forest.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dm::ml {

FlatForest FlatForest::compile(const RandomForest& forest) {
  FlatForest flat;
  flat.combination_ = forest.options().combination;

  std::size_t total_nodes = 0;
  for (const auto& tree : forest.trees()) {
    // An empty (untrained) tree predicts 0.0; represent it as one leaf so
    // the traversal needs no special case.
    total_nodes += std::max<std::size_t>(1, tree.nodes().size());
  }
  flat.feature_.reserve(total_nodes);
  flat.threshold_.reserve(total_nodes);
  flat.left_.reserve(total_nodes);
  flat.prob_.reserve(total_nodes);
  flat.roots_.reserve(forest.num_trees());

  std::vector<std::int32_t> order;  // source node indices in BFS order
  for (const auto& tree : forest.trees()) {
    const auto& nodes = tree.nodes();
    const auto base = static_cast<std::uint32_t>(flat.feature_.size());
    flat.roots_.push_back(base);

    if (nodes.empty()) {
      flat.feature_.push_back(-1);
      flat.threshold_.push_back(0.0);
      flat.left_.push_back(0);
      flat.prob_.push_back(0.0);
      continue;
    }

    // Breadth-first slot assignment: the node at order[k] lands in arena
    // slot base + k, and a node's children are appended together, making
    // them adjacent (right child slot == left child slot + 1).
    order.clear();
    order.push_back(0);
    for (std::size_t k = 0; k < order.size(); ++k) {
      const auto& node = nodes[static_cast<std::size_t>(order[k])];
      if (node.left < 0) {
        flat.feature_.push_back(-1);
        flat.threshold_.push_back(0.0);
        flat.left_.push_back(0);
        flat.prob_.push_back(node.positive_probability);
      } else {
        const auto left_slot = base + static_cast<std::uint32_t>(order.size());
        flat.feature_.push_back(static_cast<std::int32_t>(node.feature));
        flat.required_features_ =
            std::max<std::size_t>(flat.required_features_, node.feature + std::size_t{1});
        flat.threshold_.push_back(node.threshold);
        flat.left_.push_back(left_slot);
        flat.prob_.push_back(0.0);
        order.push_back(node.left);
        order.push_back(node.right);
      }
    }
  }
  return flat;
}

double FlatForest::tree_proba(std::uint32_t root,
                              std::span<const double> features) const {
  std::uint32_t at = root;
  std::int32_t f = feature_[at];
  while (f >= 0) {
    // x <= t goes left; everything else, NaN included, goes right
    // (= left + 1).
    at = left_[at] +
         static_cast<std::uint32_t>(
             !(features[static_cast<std::size_t>(f)] <= threshold_[at]));
    f = feature_[at];
  }
  return prob_[at];
}

double FlatForest::predict_proba(std::span<const double> features) const {
  // One check per call keeps every split's feature read in bounds, however
  // the forest was built or loaded.
  if (features.size() < required_features_) {
    throw std::out_of_range("flat forest: splits on feature " +
                            std::to_string(required_features_ - 1) + " of a " +
                            std::to_string(features.size()) + "-feature vector");
  }
  if (roots_.empty()) return 0.0;
  double sum = 0.0;
  if (combination_ == Combination::kProbabilityAveraging) {
    for (const auto root : roots_) sum += tree_proba(root, features);
  } else {
    for (const auto root : roots_) {
      sum += tree_proba(root, features) >= 0.5 ? 1.0 : 0.0;
    }
  }
  return sum / static_cast<double>(roots_.size());
}

int FlatForest::predict(std::span<const double> features, double threshold) const {
  return predict_proba(features) >= threshold ? kInfection : kBenign;
}

}  // namespace dm::ml
