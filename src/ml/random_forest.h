// Ensemble Random Forest (ERF), the paper's classifier (§V-A).
//
// The paper's configuration: Nt = 20 trees, Nf = log2(num_features) + 1
// candidate features per split, and — crucially — ensemble combination by
// AVERAGING per-tree probabilistic predictions instead of majority voting,
// which the paper argues reduces variance on internally-variable WCG data.
// Majority voting is retained as an option for the design ablation bench.
//
// RandomForest is the trained artifact: the trees as training grew them,
// the options that grew them, and the serving layer's version stamp.  It is
// what the model file persists.  ml::train_forest_parallel builds it, and
// ml::FlatForest compiles it into the form every score is computed with.
#pragma once

#include <vector>

#include "ml/decision_tree.h"

namespace dm::ml {

enum class Combination {
  kProbabilityAveraging,  // the paper's ERF
  kMajorityVote,          // ablation baseline
};

/// The one documented default training seed.  Every option path that ends
/// in a trained ERF — ForestOptions{}, core::paper_forest_options(),
/// core::train_dynaminer()'s default argument — resolves to this constant,
/// so "the model trained with defaults" means exactly one forest.
inline constexpr std::uint64_t kDefaultTrainingSeed = 42;

struct ForestOptions {
  std::size_t num_trees = 20;  // paper's Nt
  /// Candidate features per split; 0 -> log2(num_features) + 1 (paper's Nf).
  std::size_t features_per_split = 0;
  TreeOptions tree;
  Combination combination = Combination::kProbabilityAveraging;
  /// Bootstrap sample size as a fraction of the training set.
  double bootstrap_fraction = 1.0;
  std::uint64_t seed = kDefaultTrainingSeed;
};

/// Returns the paper's default Nf for a feature count.
std::size_t default_features_per_split(std::size_t num_features) noexcept;

/// Seed of tree `tree`'s private RNG stream: util::stream_seed(seed, tree).
/// Tree identity alone determines the stream — not training order, not
/// thread — which is what makes parallel and sequential training produce
/// bit-identical forests (see ml/parallel_trainer.h).
std::uint64_t tree_stream_seed(std::uint64_t seed, std::size_t tree) noexcept;

/// The bootstrap sample (row indices, duplicates expected) tree `tree`
/// trains on; consumes the leading draws of that tree's RNG stream.  Shared
/// by ml::train_forest_parallel and the test suite's sequential reference
/// trainer (tests/reference_forest.h), so both sample identically.
std::vector<std::size_t> bootstrap_sample(std::size_t dataset_size,
                                          const ForestOptions& options,
                                          dm::util::Rng& tree_rng);

class RandomForest {
 public:
  /// Wraps trained trees into a forest carrying `options`.  Tree i must
  /// have been trained on the stream tree_stream_seed(options.seed, i), as
  /// ml::train_forest_parallel trains it.
  static RandomForest assemble(std::vector<DecisionTree> trees,
                               const ForestOptions& options);

  std::size_t num_trees() const noexcept { return trees_.size(); }
  const std::vector<DecisionTree>& trees() const noexcept { return trees_; }
  const ForestOptions& options() const noexcept { return options_; }

  /// Serving-layer provenance: which published model version this forest
  /// was (or will be) deployed as.  0 — the training default — means
  /// "unversioned"; the serving layer stamps a candidate at publication
  /// time.  Deliberately NOT part of ForestOptions: it says nothing about
  /// how the forest was trained, so the byte-identity fences (parallel
  /// trainer, no-op retrain) compare forests before stamping.  Serialized
  /// as an optional v2 trailer (see ml/serialization.h) — a zero version
  /// writes nothing, keeping pre-serve artifacts byte-stable.
  std::uint64_t model_version() const noexcept { return model_version_; }
  void set_model_version(std::uint64_t version) noexcept {
    model_version_ = version;
  }

  /// Persistence (format documented in ml/serialization.h).
  void serialize(std::ostream& out) const;

 private:
  std::vector<DecisionTree> trees_;
  ForestOptions options_;
  std::uint64_t model_version_ = 0;
};

}  // namespace dm::ml
