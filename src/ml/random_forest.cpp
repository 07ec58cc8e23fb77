#include "ml/random_forest.h"

#include <cmath>

namespace dm::ml {

std::size_t default_features_per_split(std::size_t num_features) noexcept {
  if (num_features == 0) return 0;
  return static_cast<std::size_t>(std::log2(static_cast<double>(num_features))) + 1;
}

std::uint64_t tree_stream_seed(std::uint64_t seed, std::size_t tree) noexcept {
  return dm::util::stream_seed(seed, static_cast<std::uint64_t>(tree));
}

std::vector<std::size_t> bootstrap_sample(std::size_t dataset_size,
                                          const ForestOptions& options,
                                          dm::util::Rng& tree_rng) {
  const auto sample_size = static_cast<std::size_t>(
      static_cast<double>(dataset_size) * options.bootstrap_fraction);
  std::vector<std::size_t> bootstrap(std::max<std::size_t>(1, sample_size));
  for (auto& idx : bootstrap) {
    idx = static_cast<std::size_t>(
        tree_rng.uniform_int(0, static_cast<std::int64_t>(dataset_size) - 1));
  }
  return bootstrap;
}

RandomForest RandomForest::assemble(std::vector<DecisionTree> trees,
                                    const ForestOptions& options) {
  RandomForest forest;
  forest.options_ = options;
  forest.trees_ = std::move(trees);
  return forest;
}

}  // namespace dm::ml
