// Golden end-to-end regression: fixed-seed synthetic episodes are rendered
// to real pcap bytes, re-ingested through the full decode stack (pcap ->
// frames -> TCP reassembly -> HTTP transactions), built into WCGs, scored
// by an ERF trained with the default Stage-1 path, and the verdicts plus
// headline feature values are compared byte-for-byte against a checked-in
// golden file.  Per-module suites prove each stage in isolation; this fence
// catches silent drift in ANY stage (a decoder off-by-one, a feature
// re-ordering, an RNG derivation change) the moment it shifts the product.
//
// Doubles are rendered as hex-floats, so the comparison is bit-exact.
// To regenerate after an intentional change:
//   DM_UPDATE_GOLDEN=1 ./build/tests/e2e_golden_test
// and review the diff of tests/golden/e2e_pipeline.golden like any code.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/detector.h"
#include "core/trainer.h"
#include "core/wcg_builder.h"
#include "http/transaction_stream.h"
#include "synth/dataset.h"
#include "synth/families.h"
#include "synth/pcap_export.h"

#ifndef DM_GOLDEN_FILE
#error "DM_GOLDEN_FILE must point at the checked-in golden (set by CMake)"
#endif

namespace {

std::string hexf(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

/// The headline features asserted per episode, from each Table II group:
/// Origin (HLF, f1), Order and Avg-In-Degree (GF, f7 and f13),
/// Other-Methods (HF, f28) and Duration (TF, f36).
constexpr std::size_t kHeadlineFeatures[] = {0, 6, 12, 27, 35};

std::string scan_episode(const dm::core::Detector& detector,
                         const std::string& name,
                         const dm::synth::Episode& episode,
                         const std::string& pcap_dir) {
  // Render to genuine pcap bytes and read back through the whole stack.
  const std::string path = pcap_dir + "/" + name + ".pcap";
  dm::net::write_pcap_file(path, dm::synth::episode_to_pcap(episode));
  const auto transactions = dm::http::transactions_from_pcap_file(path);
  const auto wcg = dm::core::build_wcg(transactions);
  const double score = detector.score(wcg);

  std::ostringstream out;
  out << "episode " << name << " txns " << transactions.size() << " nodes "
      << wcg.node_count() << " edges " << wcg.edge_count() << " score "
      << hexf(score) << " verdict "
      << (score >= detector.threshold() ? "infection" : "benign") << "\n";
  const auto features = dm::core::extract_features(wcg);
  const auto& names = dm::core::feature_names();
  for (const std::size_t f : kHeadlineFeatures) {
    out << "feature " << f << " " << names[f] << " " << hexf(features[f])
        << "\n";
  }
  std::remove(path.c_str());
  return out.str();
}

TEST(E2eGoldenTest, PipelineMatchesCheckedInGolden) {
  // Stage 1: corpus -> WCGs -> features -> ERF, via the parallel trainer
  // (2 threads — the model is identical at any count, which the `train`
  // suite proves; here it feeds the golden).
  const auto gt = dm::synth::generate_ground_truth(42, 0.05);
  std::vector<dm::core::Wcg> infections;
  std::vector<dm::core::Wcg> benign;
  for (const auto& e : gt.infections) {
    infections.push_back(dm::core::build_wcg(e.transactions));
  }
  for (const auto& e : gt.benign) {
    benign.push_back(dm::core::build_wcg(e.transactions));
  }
  const auto data =
      dm::core::dataset_from_wcgs(infections, benign, {}, {.threads = 2});
  const dm::core::Detector detector(
      dm::core::train_dynaminer(data, dm::ml::kDefaultTrainingSeed,
                                {.threads = 2}));

  std::ostringstream got;
  got << "e2e-golden v1\n";
  got << "corpus infections " << gt.infections.size() << " benign "
      << gt.benign.size() << " rows " << data.size() << " features "
      << data.num_features() << "\n";

  // Fixed-seed unseen episodes, exercised through the pcap round-trip.
  dm::synth::TraceGenerator fresh(4242);
  const std::string dir = ::testing::TempDir();
  got << scan_episode(detector, "angler",
                      fresh.infection(dm::synth::family_by_name("Angler")), dir);
  got << scan_episode(detector, "nuclear",
                      fresh.infection(dm::synth::family_by_name("Nuclear")), dir);
  got << scan_episode(detector, "benign_browse", fresh.benign(), dir);
  got << scan_episode(detector, "benign_stream", fresh.benign(), dir);

  // Golden-corpus fence for the modern-web and adversarial families: one
  // fixed-seed trace per catalog family (episode_for_family is a pure
  // function of (seed, family), independent of `fresh` above).
  for (const auto& family : dm::synth::trace_family_catalog()) {
    if (family.kind == dm::synth::FamilyKind::kExploitKit ||
        family.kind == dm::synth::FamilyKind::kClassicBenign) {
      continue;  // classic families are covered by the episodes above
    }
    got << scan_episode(detector, "family_" + family.name,
                        dm::synth::episode_for_family(777, family), dir);
  }

  if (std::getenv("DM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(DM_GOLDEN_FILE, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << DM_GOLDEN_FILE;
    out << got.str();
    GTEST_SKIP() << "golden regenerated at " << DM_GOLDEN_FILE;
  }

  std::ifstream in(DM_GOLDEN_FILE);
  ASSERT_TRUE(in) << "missing golden " << DM_GOLDEN_FILE
                  << " — run once with DM_UPDATE_GOLDEN=1";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got.str(), want.str())
      << "end-to-end pipeline drifted from the golden; if intentional, "
         "regenerate with DM_UPDATE_GOLDEN=1 and review the diff";
}

}  // namespace
