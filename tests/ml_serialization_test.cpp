#include "ml/serialization.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/features.h"
#include "ml/flat_forest.h"
#include "ml/parallel_trainer.h"
#include "pipe_file.h"
#include "util/rng.h"

namespace dm::ml {
namespace {

Dataset training_data(std::uint64_t seed, std::size_t n = 200) {
  dm::util::Rng rng(seed);
  Dataset data({"a", "b", "c"});
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    data.add_row({(positive ? 5.0 : 0.0) + rng.normal(0, 1.5),
                  rng.normal(0, 1.0), rng.uniform(-3, 3)},
                 positive ? kInfection : kBenign);
  }
  return data;
}

TEST(SerializationTest, RoundTripPreservesEveryScore) {
  const auto data = training_data(1);
  const auto forest = train_forest_parallel(data, {});
  std::stringstream buffer;
  save_forest(forest, buffer);
  const auto loaded = load_forest(buffer);

  ASSERT_EQ(loaded.num_trees(), forest.num_trees());
  const auto flat = FlatForest::compile(forest);
  const auto loaded_flat = FlatForest::compile(loaded);
  dm::util::Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> x{rng.uniform(-10, 10), rng.uniform(-5, 5),
                                rng.uniform(-10, 10)};
    // Hex-float serialization must round-trip bit-exactly.
    EXPECT_EQ(flat.predict_proba(x), loaded_flat.predict_proba(x));
  }
}

TEST(SerializationTest, CombinationModePreserved) {
  const auto data = training_data(3);
  ForestOptions options;
  options.combination = Combination::kMajorityVote;
  const auto forest = train_forest_parallel(data, options);
  std::stringstream buffer;
  save_forest(forest, buffer);
  const auto loaded = load_forest(buffer);
  EXPECT_EQ(loaded.options().combination, Combination::kMajorityVote);
}

TEST(SerializationTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dm_forest_test.model";
  const auto data = training_data(4);
  const auto forest = train_forest_parallel(data, {});
  save_forest_file(forest, path);
  const auto loaded = load_forest_file(path);
  EXPECT_EQ(loaded.num_trees(), forest.num_trees());
  EXPECT_EQ(FlatForest::compile(forest).predict_proba({5.0, 0.0, 0.0}),
            FlatForest::compile(loaded).predict_proba({5.0, 0.0, 0.0}));
  std::remove(path.c_str());
}

TEST(SerializationTest, RoundTripPreservesEveryForestOption) {
  // Regression for the v1 format silently dropping ForestOptions fields:
  // v2 must round-trip every one of them.
  const auto data = training_data(6);
  ForestOptions options;
  options.num_trees = 7;
  options.features_per_split = 2;
  options.combination = Combination::kMajorityVote;
  options.bootstrap_fraction = 0.75;
  options.seed = 0xfeedfacecafeULL;
  options.tree.max_depth = 9;
  options.tree.min_samples_split = 4;
  options.tree.min_samples_leaf = 2;
  const auto forest = train_forest_parallel(data, options);

  std::stringstream buffer;
  save_forest(forest, buffer);
  const auto loaded = load_forest(buffer);
  EXPECT_EQ(loaded.options().num_trees, options.num_trees);
  EXPECT_EQ(loaded.options().features_per_split, options.features_per_split);
  EXPECT_EQ(loaded.options().combination, options.combination);
  EXPECT_EQ(loaded.options().bootstrap_fraction, options.bootstrap_fraction);
  EXPECT_EQ(loaded.options().seed, options.seed);
  EXPECT_EQ(loaded.options().tree.max_depth, options.tree.max_depth);
  EXPECT_EQ(loaded.options().tree.min_samples_split,
            options.tree.min_samples_split);
  EXPECT_EQ(loaded.options().tree.min_samples_leaf,
            options.tree.min_samples_leaf);
}

TEST(SerializationTest, ParallelTrainedForestRoundTripsByteIdentically) {
  const auto data = training_data(7);
  ForestOptions options;
  options.seed = 31337;
  const auto forest = train_forest_parallel(data, options, {.threads = 8});

  std::stringstream buffer;
  save_forest(forest, buffer);
  const auto loaded = load_forest(buffer);

  // Identical scores on random vectors...
  const auto flat = FlatForest::compile(forest);
  const auto loaded_flat = FlatForest::compile(loaded);
  dm::util::Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> x{rng.uniform(-10, 10), rng.uniform(-5, 5),
                                rng.uniform(-10, 10)};
    EXPECT_EQ(flat.predict_proba(x), loaded_flat.predict_proba(x));
  }
  // ...and a byte-identical second serialization (options included).
  std::stringstream again;
  save_forest(loaded, again);
  EXPECT_EQ(again.str(), buffer.str());
}

TEST(SerializationTest, LegacyV1LoadsWithDefaultOptions) {
  // v1 carried only tree count + combination; the remaining options load
  // as ForestOptions defaults.
  std::stringstream buffer(
      "dynaminer-forest v1\ntrees 1 combination vote\n"
      "tree 1 0\nnode -1 -1 0 0x0p+0 0x1p-1\n");
  const auto loaded = load_forest(buffer);
  EXPECT_EQ(loaded.num_trees(), 1u);
  EXPECT_EQ(loaded.options().combination, Combination::kMajorityVote);
  EXPECT_EQ(loaded.options().seed, kDefaultTrainingSeed);
  EXPECT_EQ(loaded.options().features_per_split, ForestOptions{}.features_per_split);
  EXPECT_EQ(loaded.options().bootstrap_fraction, ForestOptions{}.bootstrap_fraction);
}

TEST(SerializationTest, MissingFileThrows) {
  EXPECT_THROW(load_forest_file("/definitely/not/here.model"),
               std::runtime_error);
}

TEST(SerializationTest, RejectsBadMagic) {
  std::stringstream buffer("not-a-forest v1\ntrees 0 combination avg\n");
  EXPECT_THROW(load_forest(buffer), std::runtime_error);
}

TEST(SerializationTest, RejectsWrongVersion) {
  std::stringstream buffer("dynaminer-forest v9\ntrees 0 combination avg\n");
  EXPECT_THROW(load_forest(buffer), std::runtime_error);
}

TEST(SerializationTest, RejectsTruncation) {
  const auto data = training_data(5);
  const auto forest = train_forest_parallel(data, {});
  std::stringstream buffer;
  save_forest(forest, buffer);
  const std::string full = buffer.str();
  for (const double fraction : {0.1, 0.5, 0.9}) {
    std::stringstream cut(full.substr(
        0, static_cast<std::size_t>(full.size() * fraction)));
    EXPECT_THROW(load_forest(cut), std::runtime_error) << fraction;
  }
}

TEST(SerializationTest, RejectsCorruptNodeStructure) {
  // Child index beyond the node table must be rejected.
  std::stringstream buffer(
      "dynaminer-forest v1\ntrees 1 combination avg\n"
      "tree 1 0\nnode 5 6 0 0x0p+0 0x1p-1\n");
  EXPECT_THROW(load_forest(buffer), std::runtime_error);
}

TEST(SerializationTest, RejectsHalfLeaf) {
  std::stringstream buffer(
      "dynaminer-forest v1\ntrees 1 combination avg\n"
      "tree 1 0\nnode -1 0 0 0x0p+0 0x1p-1\n");
  EXPECT_THROW(load_forest(buffer), std::runtime_error);
}

TEST(SerializationTest, RejectsUnknownCombination) {
  std::stringstream buffer("dynaminer-forest v1\ntrees 0 combination xor\n");
  EXPECT_THROW(load_forest(buffer), std::runtime_error);
}

TEST(SerializationTest, ModelVersionTrailerRoundTrips) {
  const auto data = training_data(6);
  auto forest = train_forest_parallel(data, {});
  std::stringstream unstamped;
  save_forest(forest, unstamped);
  // Version 0 writes no trailer: stamped-then-cleared output must stay
  // byte-identical to the pre-serve v2 layout.
  EXPECT_EQ(unstamped.str().find("model-version"), std::string::npos);
  EXPECT_EQ(load_forest(unstamped).model_version(), 0u);

  forest.set_model_version(7);
  std::stringstream stamped;
  save_forest(forest, stamped);
  EXPECT_NE(stamped.str().find("model-version 7"), std::string::npos);
  const auto loaded = load_forest(stamped);
  EXPECT_EQ(loaded.model_version(), 7u);
  // The stamp is provenance metadata only — scores are untouched.
  const auto flat = FlatForest::compile(forest);
  const auto loaded_flat = FlatForest::compile(loaded);
  dm::util::Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{rng.uniform(-10, 10), rng.uniform(-5, 5),
                                rng.uniform(-10, 10)};
    EXPECT_EQ(flat.predict_proba(x), loaded_flat.predict_proba(x));
  }
}

TEST(SerializationTest, AbsentTrailerLoadsAsVersionZero) {
  // A v2 artifact written before the serving layer existed: no trailer.
  const auto data = training_data(9);
  const auto forest = train_forest_parallel(data, {});
  std::stringstream buffer;
  save_forest(forest, buffer);
  EXPECT_EQ(load_forest(buffer).model_version(), 0u);
}

TEST(SerializationTest, EmptyForestRoundTrips) {
  // A zero-tree forest is degenerate but must survive the format.
  std::stringstream buffer("dynaminer-forest v1\ntrees 0 combination avg\n");
  const auto loaded = load_forest(buffer);
  EXPECT_EQ(loaded.num_trees(), 0u);
  EXPECT_EQ(FlatForest::compile(loaded).predict_proba({1.0}), 0.0);
}

TEST(SerializationTest, ShippedModelLoadsAndRoundTripsByteForByte) {
  // The model the examples and pipebench deploy, through the file loader.
  const auto forest = load_forest_file(DM_SHIPPED_MODEL);
  EXPECT_EQ(forest.num_trees(), 20u);
  std::size_t nodes = 0;
  std::uint32_t largest_feature = 0;
  for (const auto& tree : forest.trees()) {
    nodes += tree.node_count();
    for (const auto& node : tree.nodes()) {
      if (node.left >= 0) largest_feature = std::max(largest_feature, node.feature);
    }
  }
  EXPECT_EQ(nodes, 456u);
  EXPECT_EQ(largest_feature, 36u);
  EXPECT_LT(largest_feature, dm::core::kNumFeatures);

  std::ifstream in(DM_SHIPPED_MODEL, std::ios::binary);
  std::ostringstream file;
  file << in.rdbuf();
  std::ostringstream out;
  save_forest(forest, out);
  EXPECT_EQ(out.str(), file.str());
}

TEST(SerializationTest, FileLoadersReadAPipeToItsEnd) {
  // A FIFO or a process substitution (`<(zcat model.gz)`) cannot seek: the
  // file loaders must read it to its end, not refuse to open it.
  std::ifstream in(DM_SHIPPED_MODEL, std::ios::binary);
  std::ostringstream file;
  file << in.rdbuf();
  {
    const dm::pipetest::PipeFile pipe(file.str());
    std::ostringstream out;
    save_forest(load_forest_file(pipe.path()), out);
    EXPECT_EQ(out.str(), file.str());
  }
  const dm::pipetest::PipeFile pipe(file.str());
  const auto loaded = try_load_forest_file(pipe.path());
  ASSERT_TRUE(loaded.has_value()) << loaded.error().to_string();
  EXPECT_EQ(loaded->num_trees(), 20u);
}

}  // namespace
}  // namespace dm::ml
