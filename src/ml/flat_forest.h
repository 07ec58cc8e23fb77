// Flattened, cache-friendly inference form of the Ensemble Random Forest:
// the one scorer.  The wire's Detector, cross-validation (Table III,
// Fig. 10) and every offline tool score through it.
//
// RandomForest/DecisionTree remain the training and serialization
// representation: per-tree vectors of 32-byte nodes with explicit
// left/right links.  FlatForest compiles the trained ensemble once into a
// single contiguous structure-of-arrays arena shared by all trees:
//
//        slot:      0      1      2      3      4     ...
//   feature_ :  [  f0  |  f1  |  -1  |  -1  |  f4  | ... ]  int32, -1 = leaf
//   threshold_: [  t0  |  t1  |  --  |  --  |  t4  | ... ]  double
//   left_     : [   1  |   3  |  --  |  --  |   7  | ... ]  uint32 arena slot
//   prob_     : [  --  |  --  |  p2  |  p3  |  --  | ... ]  leaf probability
//
// Each tree is laid out breadth-first, so the two children of any internal
// node occupy adjacent slots: right == left + 1, and the branch direction
// becomes an arithmetic index increment instead of a second pointer load.
// The first few levels of every tree — the slots nearly every query
// touches — sit in a handful of consecutive cache lines.
//
// Equivalence contract: predict_proba() is bit-identical to the pointer
// walk over the source forest's node links that tests/reference_forest.h
// keeps as the oracle, for every input, including NaN features (both send
// NaN to the right child) — enforced by ml_flat_forest_test.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/random_forest.h"

namespace dm::ml {

class FlatForest {
 public:
  FlatForest() = default;

  /// Compiles a trained forest into the flat arena.  The source forest is
  /// not referenced afterwards.
  static FlatForest compile(const RandomForest& forest);

  /// Ensemble positive-class score in [0, 1]: the mean per-tree leaf
  /// probability under kProbabilityAveraging, or the fraction of trees
  /// whose leaf probability is >= 0.5 under kMajorityVote.  Trees are
  /// summed in training order.  Throws std::out_of_range when `features`
  /// does not reach the largest split feature.
  double predict_proba(std::span<const double> features) const;
  double predict_proba(std::initializer_list<double> features) const {
    return predict_proba(std::span<const double>(features.begin(), features.size()));
  }

  /// Hard decision at `threshold` on the ensemble score.
  int predict(std::span<const double> features, double threshold = 0.5) const;

  std::size_t num_trees() const noexcept { return roots_.size(); }
  std::size_t node_count() const noexcept { return feature_.size(); }

 private:
  double tree_proba(std::uint32_t root, std::span<const double> features) const;

  // Parallel SoA arrays, indexed by arena slot.
  std::vector<std::int32_t> feature_;    // split feature; -1 marks a leaf
  std::vector<double> threshold_;        // split threshold (internal nodes)
  std::vector<std::uint32_t> left_;      // left-child slot; right = left + 1
  std::vector<double> prob_;             // positive probability (leaves)
  std::vector<std::uint32_t> roots_;     // root slot of each tree, in order
  std::size_t required_features_ = 0;    // largest split feature + 1
  Combination combination_ = Combination::kProbabilityAveraging;
};

}  // namespace dm::ml
