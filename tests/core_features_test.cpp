#include "core/features.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"

#include "core/online.h"
#include "core/wcg_builder.h"
#include "synth/families.h"
#include "synth/generator.h"

namespace dm::core {
namespace {

TEST(FeatureNamesTest, ThirtySevenNamedFeatures) {
  const auto& names = feature_names();
  EXPECT_EQ(names.size(), kNumFeatures);
  EXPECT_EQ(kNumFeatures, 37u);
  EXPECT_EQ(names[0], "Origin");                      // f1
  EXPECT_EQ(names[6], "Order");                       // f7
  EXPECT_EQ(names[24], "Avg-PageRank");               // f25
  EXPECT_EQ(names[25], "GETs");                       // f26
  EXPECT_EQ(names[34], "No-Referrer-Ctrs");           // f35
  EXPECT_EQ(names[36], "Avg-Inter-Transact-Time");    // f37
}

TEST(FeatureGroupsTest, GroupBoundariesMatchTable2) {
  EXPECT_EQ(feature_group(0), FeatureGroup::kHighLevel);
  EXPECT_EQ(feature_group(5), FeatureGroup::kHighLevel);
  EXPECT_EQ(feature_group(6), FeatureGroup::kGraph);
  EXPECT_EQ(feature_group(24), FeatureGroup::kGraph);
  EXPECT_EQ(feature_group(25), FeatureGroup::kHeader);
  EXPECT_EQ(feature_group(34), FeatureGroup::kHeader);
  EXPECT_EQ(feature_group(35), FeatureGroup::kTemporal);
  EXPECT_EQ(feature_group(36), FeatureGroup::kTemporal);
}

TEST(FeatureGroupsTest, IndexSetsPartition) {
  const auto hlf = feature_indices(FeatureGroup::kHighLevel);
  const auto gf = feature_indices(FeatureGroup::kGraph);
  const auto hf = feature_indices(FeatureGroup::kHeader);
  const auto tf = feature_indices(FeatureGroup::kTemporal);
  EXPECT_EQ(hlf.size(), 6u);
  EXPECT_EQ(gf.size(), 19u);
  EXPECT_EQ(hf.size(), 10u);
  EXPECT_EQ(tf.size(), 2u);
  EXPECT_EQ(hlf.size() + gf.size() + hf.size() + tf.size(), kNumFeatures);

  const auto non_graph = feature_indices_excluding(FeatureGroup::kGraph);
  EXPECT_EQ(non_graph.size(), kNumFeatures - gf.size());
  EXPECT_EQ(all_feature_indices().size(), kNumFeatures);
}

TEST(FeatureExtractionTest, WidthAlwaysThirtySeven) {
  const Wcg empty;
  EXPECT_EQ(extract_features(empty).size(), kNumFeatures);

  dm::synth::TraceGenerator gen(1);
  const auto episode = gen.infection(dm::synth::family_by_name("Angler"));
  const auto wcg = build_wcg(episode.transactions);
  EXPECT_EQ(extract_features(wcg).size(), kNumFeatures);
}

TEST(FeatureExtractionTest, ValuesAreFinite) {
  dm::synth::TraceGenerator gen(2);
  for (int i = 0; i < 5; ++i) {
    const auto episode = gen.benign();
    const auto wcg = build_wcg(episode.transactions);
    for (double x : extract_features(wcg)) {
      EXPECT_TRUE(std::isfinite(x));
    }
  }
}

TEST(FeatureExtractionTest, DeterministicPerWcg) {
  dm::synth::TraceGenerator gen(3);
  const auto episode = gen.infection(dm::synth::family_by_name("RIG"));
  const auto wcg = build_wcg(episode.transactions);
  const auto f1 = extract_features(wcg);
  const auto f2 = extract_features(wcg);
  EXPECT_EQ(f1, f2);
}

TEST(FeatureExtractionTest, OrderExcludesNothingButConversationLengthExcludesOrigin) {
  dm::synth::TraceGenerator gen(4);
  const auto episode = gen.infection(dm::synth::family_by_name("Nuclear"));
  const auto wcg = build_wcg(episode.transactions);
  const auto f = extract_features(wcg);
  const double order = f[6];                // f7: all nodes
  const double conversation_len = f[3];     // f4: hosts only
  if (wcg.origin() != dm::graph::kInvalidNode) {
    EXPECT_EQ(conversation_len, order - 1);
  } else {
    EXPECT_EQ(conversation_len, order);
  }
}

TEST(FeatureExtractionTest, HeaderCountsMatchAnnotations) {
  dm::synth::TraceGenerator gen(5);
  const auto episode = gen.infection(dm::synth::family_by_name("Angler"));
  const auto wcg = build_wcg(episode.transactions);
  const auto f = extract_features(wcg);
  const auto& ann = wcg.annotations();
  EXPECT_EQ(f[25], ann.get_count);
  EXPECT_EQ(f[26], ann.post_count);
  EXPECT_EQ(f[30], ann.response_class_counts[2]);  // 30X
  EXPECT_EQ(f[33], ann.referrer_count);
  EXPECT_EQ(f[36], ann.avg_inter_transaction_s);
}

TEST(FeatureExtractionTest, InfectionVsBenignSeparation) {
  // Statistical sanity: key features must separate the classes.  Medians are
  // used for graph order because the benign corpus deliberately includes a
  // heavy multi-tab tail (up to 34 hosts, §II-A) that inflates the mean.
  dm::synth::TraceGenerator gen(6);
  double infection_inter_txn = 0;
  double benign_inter_txn = 0;
  std::vector<double> infection_order;
  std::vector<double> benign_order;
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    const auto inf =
        build_wcg(gen.infection(dm::synth::family_by_name("Angler")).transactions);
    const auto ben = build_wcg(gen.benign().transactions);
    const auto fi = extract_features(inf);
    const auto fb = extract_features(ben);
    infection_inter_txn += fi[36];
    benign_inter_txn += fb[36];
    infection_order.push_back(fi[6]);
    benign_order.push_back(fb[6]);
  }
  EXPECT_LT(infection_inter_txn, benign_inter_txn);  // faster
  EXPECT_GT(dm::util::median(infection_order),
            dm::util::median(benign_order));  // typically bigger graphs
}

/// Scores 0 and leaves feature extraction to the verdict tap.
class ZeroScorer final : public WcgScorer {
 public:
  double score(const Wcg&, FeatureCache*) override { return 0.0; }
};

/// Feature bits of a WCG corpus: FNV-1a over the little-endian bytes of all
/// 37 features of each WCG, the graph count and the largest order seen.
struct FeatureDigest {
  std::uint64_t hash = dm::util::fnv1a("");
  std::size_t wcgs = 0;
  std::size_t max_order = 0;

  void add(const Wcg& wcg) {
    for (double x : extract_features(wcg)) {
      const auto bits = std::bit_cast<std::uint64_t>(x);
      char bytes[sizeof bits];
      for (std::size_t b = 0; b < sizeof bits; ++b) {
        bytes[b] = static_cast<char>(bits >> (8 * b));
      }
      hash = dm::util::fnv1a_append(hash, std::string_view(bytes, sizeof bytes));
    }
    ++wcgs;
    max_order = std::max(max_order, wcg.node_count());
  }
};

TEST(FeatureExtractionTest, CatalogFeatureBitsMatchRecordedDigest) {
  // Every feature bit of every verdict WCG of the first 300 catalog
  // episodes at l=2 (no score reaches the threshold, so every clue's
  // session is re-scored to its end), and of each episode's full WCG.  The
  // digest was recorded before the graph metrics moved to one
  // shortest-path sweep per source and one flow network per graph; it pins
  // the connectivity, centrality and k-nearest features that the golden
  // file leaves out.  The largest WCGs take connectivity's sampled branch
  // (65 nodes or more).
  const auto& catalog = dm::synth::trace_family_catalog();
  ASSERT_EQ(catalog.size(), 18u);
  // The engine is bound to a detector, but the stub scorer answers every
  // query, so a forest with no trees serves.
  const auto detector = std::make_shared<const Detector>(
      dm::ml::RandomForest::assemble({}, dm::ml::ForestOptions{}));
  FeatureDigest digest;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const auto episode = dm::synth::episode_for_family(
        dm::util::stream_seed(1, i), catalog[i % catalog.size()]);
    OnlineOptions options;
    options.redirect_chain_threshold = 2;
    options.decision_threshold = 2.0;
    options.scorer = std::make_shared<ZeroScorer>();
    options.verdict_tap = [&digest](const Wcg& wcg, double, bool,
                                    std::uint64_t) { digest.add(wcg); };
    OnlineDetector engine(detector, options);
    for (const auto& txn : episode.transactions) engine.observe(txn);
    digest.add(build_wcg(episode.transactions));
  }
  EXPECT_EQ(digest.wcgs, 3984u);
  EXPECT_GE(digest.max_order, 65u);
  EXPECT_EQ(digest.hash, 16277075020150565607ULL);
}

}  // namespace
}  // namespace dm::core
