// Differential suite for the parallel deterministic Stage-1 trainer:
// parallel training must produce forests byte-identical to the test-side
// sequential trainer (tests/reference_forest.h) at every thread count (the
// counter-based per-tree RNG-stream contract), the fan-out dataset
// extraction must be row-identical, and every seed-default path must
// resolve to the one documented training seed.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "core/trainer.h"
#include "core/wcg_builder.h"
#include "ml/cross_validation.h"
#include "ml/flat_forest.h"
#include "ml/parallel_trainer.h"
#include "ml/serialization.h"
#include "reference_forest.h"
#include "synth/dataset.h"
#include "util/rng.h"

namespace dm::ml {
namespace {

std::string serialized(const RandomForest& forest) {
  std::stringstream out;
  save_forest(forest, out);
  return out.str();
}

Dataset synth_dataset(std::uint64_t seed, std::size_t n = 400,
                      std::size_t features = 10) {
  dm::util::Rng rng(seed);
  std::vector<std::string> names;
  for (std::size_t f = 0; f < features; ++f) names.push_back("f" + std::to_string(f));
  Dataset data(std::move(names));
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = rng.chance(0.45);
    std::vector<double> row;
    for (std::size_t f = 0; f < features; ++f) {
      const double base = (f % 3 == 0 && positive) ? 1.5 : 0.0;
      row.push_back(base + rng.normal(0, 1.0));
    }
    data.add_row(std::move(row), positive ? kInfection : kBenign);
  }
  return data;
}

TEST(ParallelTrainerTest, ForestsByteIdenticalAcrossThreadCounts) {
  const auto data = synth_dataset(11);
  ForestOptions options;
  options.seed = 1234;
  const auto sequential = reference::train(data, options);
  const std::string golden = serialized(sequential);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto parallel =
        train_forest_parallel(data, options, {.threads = threads});
    EXPECT_EQ(serialized(parallel), golden) << "threads=" << threads;
  }
}

TEST(ParallelTrainerTest, PredictProbaAgreesOnRandomVectorsAtEveryThreadCount) {
  const auto data = synth_dataset(12);
  ForestOptions options;
  options.seed = 77;
  const auto sequential = FlatForest::compile(reference::train(data, options));
  const auto two =
      FlatForest::compile(train_forest_parallel(data, options, {.threads = 2}));
  const auto eight =
      FlatForest::compile(train_forest_parallel(data, options, {.threads = 8}));

  dm::util::Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    std::vector<double> x;
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      x.push_back(rng.uniform(-5, 5));
    }
    const double want = sequential.predict_proba(x);
    EXPECT_EQ(two.predict_proba(x), want);
    EXPECT_EQ(eight.predict_proba(x), want);
  }
}

TEST(ParallelTrainerTest, CrossValidationIdenticalAcrossThreadCounts) {
  const auto data = synth_dataset(13, 250, 6);
  const auto serial = cross_validate(data, 5, {}, 3, 0.5, {.threads = 1});
  const auto parallel = cross_validate(data, 5, {}, 3, 0.5, {.threads = 8});
  EXPECT_EQ(serial.scores, parallel.scores);
  EXPECT_EQ(serial.labels, parallel.labels);
  EXPECT_EQ(serial.roc_area, parallel.roc_area);
  EXPECT_EQ(serial.confusion.true_positives, parallel.confusion.true_positives);
  EXPECT_EQ(serial.confusion.false_positives, parallel.confusion.false_positives);
  EXPECT_EQ(serial.confusion.true_negatives, parallel.confusion.true_negatives);
  EXPECT_EQ(serial.confusion.false_negatives, parallel.confusion.false_negatives);
}

TEST(ParallelTrainerTest, DatasetFromWcgsRowIdenticalAcrossThreadCounts) {
  const auto gt = dm::synth::generate_ground_truth(21, 0.03);
  std::vector<dm::core::Wcg> infections;
  std::vector<dm::core::Wcg> benign;
  for (const auto& e : gt.infections) {
    infections.push_back(dm::core::build_wcg(e.transactions));
  }
  for (const auto& e : gt.benign) {
    benign.push_back(dm::core::build_wcg(e.transactions));
  }

  const auto serial = dm::core::dataset_from_wcgs(infections, benign);
  const auto fanned =
      dm::core::dataset_from_wcgs(infections, benign, {}, {.threads = 8});
  ASSERT_EQ(serial.size(), fanned.size());
  EXPECT_EQ(serial.labels(), fanned.labels());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto a = serial.row(i);
    const auto b = fanned.row(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t f = 0; f < a.size(); ++f) {
      EXPECT_EQ(a[f], b[f]) << "row " << i << " feature " << f;
    }
  }
}

TEST(ParallelTrainerTest, TrainDynaminerParallelMatchesSequentialDefault) {
  const auto gt = dm::synth::generate_ground_truth(22, 0.02);
  std::vector<dm::core::Wcg> infections;
  std::vector<dm::core::Wcg> benign;
  for (const auto& e : gt.infections) {
    infections.push_back(dm::core::build_wcg(e.transactions));
  }
  for (const auto& e : gt.benign) {
    benign.push_back(dm::core::build_wcg(e.transactions));
  }
  const auto data = dm::core::dataset_from_wcgs(infections, benign);
  const auto sequential = dm::core::train_dynaminer(data);
  const auto parallel =
      dm::core::train_dynaminer(data, kDefaultTrainingSeed, {.threads = 8});
  EXPECT_EQ(serialized(parallel), serialized(sequential));
}

// Satellite regression: one source of truth for the training seed — every
// defaulted option path must resolve to the documented 42.
TEST(ParallelTrainerTest, DefaultSeedSingleSourceOfTruth) {
  EXPECT_EQ(kDefaultTrainingSeed, 42u);
  EXPECT_EQ(ForestOptions{}.seed, kDefaultTrainingSeed);
  EXPECT_EQ(dm::core::paper_forest_options().seed, kDefaultTrainingSeed);
  EXPECT_EQ(dm::core::paper_forest_options(5).seed, kDefaultTrainingSeed);

  const auto data = synth_dataset(14, 120, 5);
  // train_dynaminer's default, its explicit-42 spelling, and the raw
  // paper_forest_options path must all be the same forest.
  const auto by_default = dm::core::train_dynaminer(data);
  const auto by_constant = dm::core::train_dynaminer(data, kDefaultTrainingSeed);
  const auto by_options = train_forest_parallel(
      data, dm::core::paper_forest_options(data.num_features()));
  EXPECT_EQ(serialized(by_default), serialized(by_constant));
  EXPECT_EQ(serialized(by_default), serialized(by_options));
}

// --- dm.train.* instrumentation ---------------------------------------------

std::atomic<std::uint64_t> g_fake_now{0};
std::uint64_t fake_clock() { return g_fake_now.fetch_add(1000); }

TEST(ParallelTrainerTest, TrainMetricsCountTreesFoldsAndExtractions) {
  dm::obs::MetricsRegistry reg;
  TrainerOptions trainer{.threads = 2, .metrics = &reg, .clock = &fake_clock};

  const auto data = synth_dataset(15, 150, 5);
  ForestOptions options;
  options.num_trees = 12;
  (void)train_forest_parallel(data, options, trainer);

  auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("dm.train.trees_built"), 12u);
  EXPECT_EQ(snap.counter_value("dm.train.forests_trained"), 1u);
  const auto* tree_hist = snap.histogram("dm.train.tree_build_ns");
  ASSERT_NE(tree_hist, nullptr);
  EXPECT_EQ(tree_hist->count, 12u);
  const auto* forest_hist = snap.histogram("dm.train.forest_train_ns");
  ASSERT_NE(forest_hist, nullptr);
  EXPECT_EQ(forest_hist->count, 1u);

  (void)cross_validate(data, 4, options, 1, 0.5, trainer);
  snap = reg.snapshot();
  const auto* fold_hist = snap.histogram("dm.train.fold_ns");
  ASSERT_NE(fold_hist, nullptr);
  EXPECT_EQ(fold_hist->count, 4u);
  // 4 folds x 12 trees on top of the first forest's 12.
  EXPECT_EQ(snap.counter_value("dm.train.trees_built"), 12u + 48u);

  const auto gt = dm::synth::generate_ground_truth(23, 0.02);
  std::vector<dm::core::Wcg> infections;
  std::vector<dm::core::Wcg> benign;
  for (const auto& e : gt.infections) {
    infections.push_back(dm::core::build_wcg(e.transactions));
  }
  for (const auto& e : gt.benign) {
    benign.push_back(dm::core::build_wcg(e.transactions));
  }
  (void)dm::core::dataset_from_wcgs(infections, benign, {}, trainer);
  snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("dm.train.wcgs_extracted"),
            infections.size() + benign.size());
  const auto* extract_hist = snap.histogram("dm.train.extract_ns");
  ASSERT_NE(extract_hist, nullptr);
  EXPECT_EQ(extract_hist->count, infections.size() + benign.size());
}

}  // namespace
}  // namespace dm::ml
