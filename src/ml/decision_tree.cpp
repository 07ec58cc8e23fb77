#include "ml/decision_tree.h"

#include <algorithm>
#include <numeric>

namespace dm::ml {
namespace {

double gini(std::size_t positives, std::size_t total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(positives) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

}  // namespace

DecisionTree DecisionTree::train(const Dataset& data,
                                 std::span<const std::size_t> indices,
                                 const TreeOptions& options, dm::util::Rng& rng) {
  DecisionTree tree;
  std::vector<std::size_t> work(indices.begin(), indices.end());
  if (!work.empty()) {
    tree.build(data, work, 0, work.size(), 0, options, rng);
  }
  return tree;
}

DecisionTree DecisionTree::train(const Dataset& data, const TreeOptions& options,
                                 dm::util::Rng& rng) {
  std::vector<std::size_t> all(data.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return train(data, all, options, rng);
}

std::int32_t DecisionTree::build(const Dataset& data,
                                 std::vector<std::size_t>& indices,
                                 std::size_t begin, std::size_t end,
                                 std::size_t depth, const TreeOptions& options,
                                 dm::util::Rng& rng) {
  depth_ = std::max(depth_, depth);
  const std::size_t count = end - begin;
  std::size_t positives = 0;
  for (std::size_t i = begin; i < end; ++i) {
    positives += static_cast<std::size_t>(data.label(indices[i]) == kInfection);
  }

  const auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.positive_probability =
        count == 0 ? 0.0 : static_cast<double>(positives) / static_cast<double>(count);
    nodes_.push_back(leaf);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  const bool pure = positives == 0 || positives == count;
  if (pure || depth >= options.max_depth || count < options.min_samples_split) {
    return make_leaf();
  }

  // Choose the candidate feature set for this split.  When subsampling,
  // follow the standard random-forest convention: if none of the sampled
  // features admits a valid split, keep examining further features rather
  // than giving up (otherwise a draw of constant features would truncate
  // the tree).
  std::vector<std::size_t> features(data.num_features());
  std::iota(features.begin(), features.end(), std::size_t{0});
  const std::size_t sample_count =
      (options.features_per_split > 0 &&
       options.features_per_split < features.size())
          ? options.features_per_split
          : features.size();
  if (sample_count < features.size()) rng.shuffle(features);

  const auto rows =
      std::span<const std::size_t>(indices).subspan(begin, count);
  auto split = best_split(
      data, rows,
      std::span<const std::size_t>(features.data(), sample_count),
      options.min_samples_leaf);
  for (std::size_t extra = sample_count; !split && extra < features.size();
       ++extra) {
    split = best_split(data, rows,
                       std::span<const std::size_t>(&features[extra], 1),
                       options.min_samples_leaf);
  }
  if (!split) return make_leaf();

  // Partition [begin, end) in place around the chosen threshold.
  auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t row) {
        return data.value(row, split->feature) <= split->threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return make_leaf();  // degenerate split

  // Reserve this node's slot before recursing so children line up after it.
  nodes_.emplace_back();
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t left = build(data, indices, begin, mid, depth + 1, options, rng);
  const std::int32_t right = build(data, indices, mid, end, depth + 1, options, rng);
  Node& node = nodes_[static_cast<std::size_t>(self)];
  node.left = left;
  node.right = right;
  node.feature = static_cast<std::uint32_t>(split->feature);
  node.threshold = split->threshold;
  node.positive_probability =
      static_cast<double>(positives) / static_cast<double>(count);
  return self;
}

std::optional<DecisionTree::SplitCandidate> DecisionTree::best_split(
    const Dataset& data, std::span<const std::size_t> indices,
    std::span<const std::size_t> features, std::size_t min_leaf) {
  const std::size_t count = indices.size();
  std::size_t total_pos = 0;
  for (std::size_t row : indices) {
    total_pos += static_cast<std::size_t>(data.label(row) == kInfection);
  }
  const double parent_impurity = gini(total_pos, count);

  std::optional<SplitCandidate> best;
  std::vector<std::pair<double, int>> column;  // (value, label)
  column.reserve(count);

  for (std::size_t f : features) {
    column.clear();
    for (std::size_t row : indices) {
      column.emplace_back(data.value(row, f), data.label(row));
    }
    std::sort(column.begin(), column.end());

    std::size_t left_pos = 0;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      left_pos += static_cast<std::size_t>(column[i].second == kInfection);
      // Only split between distinct values.
      if (column[i].first == column[i + 1].first) continue;
      const std::size_t left_n = i + 1;
      const std::size_t right_n = count - left_n;
      if (left_n < min_leaf || right_n < min_leaf) continue;
      const std::size_t right_pos = total_pos - left_pos;
      const double weighted =
          (static_cast<double>(left_n) * gini(left_pos, left_n) +
           static_cast<double>(right_n) * gini(right_pos, right_n)) /
          static_cast<double>(count);
      const double decrease = parent_impurity - weighted;
      if (!best || decrease > best->impurity_decrease) {
        best = SplitCandidate{
            .feature = f,
            .threshold = (column[i].first + column[i + 1].first) / 2.0,
            .impurity_decrease = decrease,
        };
      }
    }
  }
  // Zero-decrease splits are kept: Gini is concave so decrease >= 0 always,
  // and refusing exact ties would make XOR-like interactions unlearnable
  // (the gain only appears one level deeper).
  return best;
}

}  // namespace dm::ml
