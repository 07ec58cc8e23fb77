// Stratified k-fold cross-validation for the ERF, producing the aggregate
// TPR/FPR/F-score/ROC-area quadruple the paper reports in Table III, plus
// the pooled (label, score) pairs that draw Figure 10's ROC curve.
#pragma once

#include "ml/metrics.h"
#include "ml/parallel_trainer.h"
#include "ml/random_forest.h"

namespace dm::ml {

struct CrossValidationResult {
  Confusion confusion;            // pooled over all folds
  double roc_area = 0.0;          // AUC on pooled scores
  std::vector<int> labels;        // pooled test labels (fold order)
  std::vector<double> scores;     // pooled ensemble scores
  std::vector<Confusion> fold_confusions;

  double tpr() const noexcept { return confusion.tpr(); }
  double fpr() const noexcept { return confusion.fpr(); }
  double f_score() const noexcept { return confusion.f_score(); }
  double accuracy() const noexcept { return confusion.accuracy(); }
};

/// Runs stratified k-fold CV: trains a forest on k-1 folds, scores the held
/// out fold through ml::FlatForest (the wire's scorer), pools results.
/// `decision_threshold` converts scores to hard predictions for the
/// confusion matrix.  `trainer` controls the per-fold forest training
/// (threads, dm.train.* metrics incl. the per-fold dm.train.fold_ns
/// latency); the result is identical for every thread count.
CrossValidationResult cross_validate(const Dataset& data, std::size_t k,
                                     const ForestOptions& options,
                                     std::uint64_t seed,
                                     double decision_threshold = 0.5,
                                     const TrainerOptions& trainer = {});

}  // namespace dm::ml
