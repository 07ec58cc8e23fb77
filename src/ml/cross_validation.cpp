#include "ml/cross_validation.h"

#include "ml/flat_forest.h"

namespace dm::ml {

CrossValidationResult cross_validate(const Dataset& data, std::size_t k,
                                     const ForestOptions& options,
                                     std::uint64_t seed,
                                     double decision_threshold,
                                     const TrainerOptions& trainer) {
  dm::util::Rng rng(seed);
  const auto folds = stratified_folds(data, k, rng);
  TrainerMetrics obs = trainer_metrics(trainer);
  const dm::obs::StageTimer timer(trainer.clock);

  CrossValidationResult result;
  for (std::size_t fold = 0; fold < k; ++fold) {
    auto fold_span = timer.span(obs.fold_ns);
    std::vector<std::size_t> train_rows;
    for (std::size_t other = 0; other < k; ++other) {
      if (other == fold) continue;
      train_rows.insert(train_rows.end(), folds[other].begin(), folds[other].end());
    }
    ForestOptions fold_options = options;
    fold_options.seed = seed ^ (0x9e3779b97f4a7c15ULL * (fold + 1));
    const Dataset train = data.subset(train_rows);
    const FlatForest forest =
        FlatForest::compile(train_forest_parallel(train, fold_options, trainer));

    std::vector<int> fold_labels;
    std::vector<int> fold_predictions;
    for (std::size_t row : folds[fold]) {
      const double score = forest.predict_proba(data.row(row));
      result.labels.push_back(data.label(row));
      result.scores.push_back(score);
      fold_labels.push_back(data.label(row));
      fold_predictions.push_back(score >= decision_threshold ? kInfection : kBenign);
    }
    result.fold_confusions.push_back(confusion_from(fold_labels, fold_predictions));
  }

  std::vector<int> pooled_predictions;
  pooled_predictions.reserve(result.scores.size());
  for (double s : result.scores) {
    pooled_predictions.push_back(s >= decision_threshold ? kInfection : kBenign);
  }
  result.confusion = confusion_from(result.labels, pooled_predictions);
  result.roc_area = roc_auc(result.labels, result.scores);
  return result;
}

}  // namespace dm::ml
