// Detector-level tests: thresholds, determinism, and the offline-train /
// serialize / deploy round trip the paper's two-stage design implies.
#include "core/detector.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "core/wcg_builder.h"
#include "ml/serialization.h"
#include "synth/dataset.h"

namespace dm::core {
namespace {

struct Fixture {
  dm::ml::RandomForest forest;
  Wcg infection_wcg;
  Wcg benign_wcg;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    const auto gt = dm::synth::generate_ground_truth(600, 0.05);
    std::vector<Wcg> infections;
    std::vector<Wcg> benign;
    for (const auto& e : gt.infections) {
      infections.push_back(build_wcg(e.transactions));
    }
    for (const auto& e : gt.benign) benign.push_back(build_wcg(e.transactions));
    auto forest = train_dynaminer(dataset_from_wcgs(infections, benign), 3);

    dm::synth::TraceGenerator fresh(601);
    return Fixture{
        std::move(forest),
        build_wcg(fresh.infection(dm::synth::family_by_name("Nuclear")).transactions),
        build_wcg(fresh.benign().transactions),
    };
  }();
  return f;
}

TEST(DetectorTest, ScoresAreProbabilities) {
  const Detector detector(fixture().forest);
  for (const Wcg* wcg : {&fixture().infection_wcg, &fixture().benign_wcg}) {
    const double s = detector.score(*wcg);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(DetectorTest, SeparatesFreshEpisodes) {
  const Detector detector(fixture().forest);
  EXPECT_GT(detector.score(fixture().infection_wcg),
            detector.score(fixture().benign_wcg));
}

TEST(DetectorTest, ThresholdControlsVerdict) {
  const double score = Detector(fixture().forest).score(fixture().infection_wcg);
  const Detector lenient(fixture().forest, {}, score - 0.01);
  const Detector strict(fixture().forest, {}, score + 0.01);
  EXPECT_TRUE(lenient.is_infection(fixture().infection_wcg));
  EXPECT_FALSE(strict.is_infection(fixture().infection_wcg));
  EXPECT_DOUBLE_EQ(lenient.threshold(), score - 0.01);
}

TEST(DetectorTest, ScoreDeterministic) {
  const Detector detector(fixture().forest);
  EXPECT_DOUBLE_EQ(detector.score(fixture().infection_wcg),
                   detector.score(fixture().infection_wcg));
}

TEST(DetectorTest, SurvivesSerializationRoundTrip) {
  // Offline-train -> persist -> deploy must reproduce scores bit-exactly.
  std::stringstream buffer;
  dm::ml::save_forest(fixture().forest, buffer);
  const Detector original(fixture().forest);
  const Detector deployed(dm::ml::load_forest(buffer));
  EXPECT_DOUBLE_EQ(original.score(fixture().infection_wcg),
                   deployed.score(fixture().infection_wcg));
  EXPECT_DOUBLE_EQ(original.score(fixture().benign_wcg),
                   deployed.score(fixture().benign_wcg));
}

TEST(DetectorTest, EmptyWcgScoresAsBenignSide) {
  const Detector detector(fixture().forest);
  const Wcg empty;
  EXPECT_LT(detector.score(empty), 0.5);
}

// The sharded runtime shares ONE trained model read-only across shard
// threads, so the whole inference path must be callable on const objects.
// Compile-time contract, checked here so a future `mutable` cache or
// non-const predict overload breaks the build loudly.
static_assert(requires(const Detector& d, const Wcg& w) {
  d.score(w);
  d.is_infection(w);
  d.threshold();
});
static_assert(requires(const dm::ml::FlatForest& f,
                       std::span<const double> x) {
  f.predict_proba(x);
  f.predict(x);
});

TEST(DetectorTest, ConstDetectorSharedAcrossThreadsScoresIdentically) {
  // Concurrent scoring through a const reference must be race-free and
  // bit-identical to sequential scoring (the runtime determinism guarantee
  // leans on this; the TSan job verifies the race-freedom half).
  const Detector& detector = *[] {
    static const Detector d(fixture().forest);
    return &d;
  }();
  const double expected_infection = detector.score(fixture().infection_wcg);
  const double expected_benign = detector.score(fixture().benign_wcg);

  constexpr int kThreads = 8;
  constexpr int kRepeats = 25;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) {
        if (detector.score(fixture().infection_wcg) != expected_infection ||
            detector.score(fixture().benign_wcg) != expected_benign) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

}  // namespace
}  // namespace dm::core
