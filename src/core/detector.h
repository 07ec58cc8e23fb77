// Offline (forensic) detection: score a fully-built WCG with a trained ERF.
#pragma once

#include "core/features.h"
#include "ml/flat_forest.h"
#include "ml/random_forest.h"

namespace dm::core {

/// Wraps a trained forest with the feature extractor and a decision
/// threshold; the unit the on-the-wire engine queries after each WCG update.
///
/// Inference runs through a FlatForest compiled from the trained ensemble
/// at construction, the only scorer.  The trained RandomForest is kept as
/// the artifact the serving layer persists, re-stamps and rolls back, and
/// stays reachable via forest(); the online engine's test oracle
/// (tests/reference_online.h) scores it with the test suite's pointer walk.
class Detector {
 public:
  Detector(dm::ml::RandomForest forest, FeatureExtractorOptions options = {},
           double threshold = 0.5);

  /// Ensemble infection score in [0, 1].
  double score(const Wcg& wcg) const;

  /// Cache-aware variant for the online hot path: graph metrics are
  /// reused from `cache` when the WCG topology is unchanged.  `cache` may
  /// be null.  Output is identical to score(wcg) in all cases.
  double score(const Wcg& wcg, FeatureCache* cache) const;

  /// Hard verdict at the configured threshold.
  bool is_infection(const Wcg& wcg) const;

  double threshold() const noexcept { return threshold_; }
  const dm::ml::RandomForest& forest() const noexcept { return forest_; }
  const dm::ml::FlatForest& flat_forest() const noexcept { return flat_; }

 private:
  dm::ml::RandomForest forest_;
  dm::ml::FlatForest flat_;
  FeatureExtractorOptions options_;
  double threshold_;
};

}  // namespace dm::core
