// The 37 payload-agnostic features of Table II, extracted from an annotated
// WCG.  Order and names follow the paper:
//   f1-f6   High-Level Features (HLFs)
//   f7-f25  Graph Features (GFs)
//   f26-f35 Header Features (HFs)
//   f36-f37 Temporal Features (TFs)
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/wcg.h"
#include "graph/metrics.h"

namespace dm::core {

inline constexpr std::size_t kNumFeatures = 37;

enum class FeatureGroup { kHighLevel, kGraph, kHeader, kTemporal };

/// Canonical feature names, index i = f_{i+1} of Table II.
const std::array<std::string, kNumFeatures>& feature_names();

/// Group of feature index i (0-based).
FeatureGroup feature_group(std::size_t index) noexcept;

/// 0-based indices of every feature in a group; used by the Table III
/// ablation (GFs alone vs HLFs+HFs+TFs).
std::vector<std::size_t> feature_indices(FeatureGroup group);
std::vector<std::size_t> feature_indices_excluding(FeatureGroup group);
std::vector<std::size_t> all_feature_indices();

struct FeatureExtractorOptions {
  dm::graph::MetricsOptions metrics;
};

/// Memoizes the expensive part of feature extraction — the 19 graph
/// features (f7–f25), which cost a full metrics pass (betweenness, load,
/// closeness, PageRank, ...) but depend only on the graph's *structure*.
/// Keyed by (Wcg identity, topology version): attribute-only updates
/// (payload tallies, header counters, URIs, node retyping) leave the
/// version untouched and hit the cache; a new node or edge misses.
///
/// A cache is only meaningful against one live Wcg evolved in place (a
/// WcgFold's) and one MetricsOptions value; reuse across different graphs
/// is detected via the pointer key and simply misses.
struct FeatureCache {
  const Wcg* wcg = nullptr;
  std::uint64_t topology_version = 0;
  dm::graph::GraphMetrics metrics;
  // Diagnostics for tests/bench.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Extracts the full 37-dimensional feature vector from a WCG.
std::vector<double> extract_features(const Wcg& wcg,
                                     const FeatureExtractorOptions& options = {});

/// Cache-aware variant: identical output, but graph metrics are reused from
/// `cache` when the WCG's topology is unchanged since the previous call.
/// `cache` may be null (plain extraction).
std::vector<double> extract_features(const Wcg& wcg,
                                     const FeatureExtractorOptions& options,
                                     FeatureCache* cache);

}  // namespace dm::core
