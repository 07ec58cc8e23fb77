// Stage-1 training A/B: sequential vs parallel trainer on one fixed corpus.
//
// Two phases are timed separately, because they scale differently:
//   extract — core::dataset_from_wcgs fans per-WCG feature extraction
//             (19 graph metrics each) over the WorkerPool; and
//   train   — ml::train_forest_parallel builds the ERF's Nt trees on
//             counter-based per-tree RNG streams, one task per tree.
//
// Before any ratio is reported, the correctness fence is enforced: the
// dataset rows and the serialized forests at 1, 2, and 8 threads must be
// BYTE-IDENTICAL to the sequential reference (the test suite's
// reference::train, tests/reference_forest.h).  The
// process exits nonzero on divergence — a speedup for a different model is
// worthless.  This is the same determinism bar the test suite holds
// (`ctest -L train`), re-checked here on the bench corpus.
//
// Acceptance target (ISSUE 5): >= 3x training speedup at 8 threads on an
// 8-hardware-thread box.  `--json <path>` appends the result record (both
// phases, ratios, dm.train.* percentiles, hardware_threads so readers can
// judge the ratios in context); BENCH_training.json at the repo root is the
// checked-in baseline for this container.
//
// Knobs: DM_SCALE (corpus scale, default 0.25), DM_SEED (default 42),
// DM_BENCH_THREADS (parallel arm width, default 8).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ml/parallel_trainer.h"
#include "ml/serialization.h"
#include "obs/metrics.h"
#include "reference_forest.h"

namespace {

std::size_t threads_from_env(std::size_t fallback) {
  if (const char* s = std::getenv("DM_BENCH_THREADS")) {
    const long long v = std::atoll(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string serialized(const dm::ml::RandomForest& forest) {
  std::stringstream out;
  dm::ml::save_forest(forest, out);
  return out.str();
}

struct PhaseResult {
  double elapsed_ms = 0;
  double p50_ns = 0;   // per-item time from the dm.train.* histogram
  double p95_ns = 0;
  std::uint64_t items = 0;
};

/// Times one trainer arm; the private registry isolates its histograms.
template <typename Fn>
PhaseResult run_phase(const char* histogram_name, Fn&& fn) {
  dm::obs::MetricsRegistry metrics;
  const double t0 = now_ms();
  fn(metrics);
  PhaseResult result;
  result.elapsed_ms = now_ms() - t0;
  const auto snap = metrics.snapshot();
  if (const auto* h = snap.histogram(histogram_name)) {
    result.p50_ns = h->p50();
    result.p95_ns = h->p95();
    result.items = h->count;
  }
  return result;
}

void print_phase(const char* phase, std::size_t threads,
                 const PhaseResult& r, const char* unit) {
  std::printf("%-8s %zu thread%s %9.1f ms   per-%s p50=%.1f us p95=%.1f us "
              "(n=%llu)\n",
              phase, threads, threads == 1 ? ": " : "s:", r.elapsed_ms, unit,
              r.p50_ns / 1e3, r.p95_ns / 1e3,
              static_cast<unsigned long long>(r.items));
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = dm::bench::extract_json_path(argc, argv);
  // Baseline sanity before any work: never extend a baseline captured on a
  // wider machine (see check_baseline_hardware).
  if (json_path && !dm::bench::check_baseline_hardware(*json_path)) return 1;
  const double scale = dm::bench::scale_from_env(0.25);
  const std::uint64_t seed = dm::bench::seed_from_env();
  const std::size_t threads = threads_from_env(8);
  const unsigned hardware = std::thread::hardware_concurrency();
  dm::bench::print_header(
      "bench_training: sequential vs parallel Stage-1 training", scale, seed);

  const auto corpus = dm::bench::build_corpus(seed, scale);
  const auto forest_options =
      dm::core::paper_forest_options(dm::core::kNumFeatures, seed);
  std::printf("corpus: %zu infection + %zu benign WCGs, Nt=%zu trees, "
              "%u hardware threads, parallel arm = %zu threads\n\n",
              corpus.infection_wcgs.size(), corpus.benign_wcgs.size(),
              forest_options.num_trees, hardware, threads);

  // --- phase 1: WCG feature extraction --------------------------------------
  dm::ml::Dataset data_1t;
  const auto extract_1t = run_phase(
      "dm.train.extract_ns", [&](dm::obs::MetricsRegistry& metrics) {
        data_1t = dm::core::dataset_from_wcgs(
            corpus.infection_wcgs, corpus.benign_wcgs, {},
            {.threads = 1, .metrics = &metrics});
      });
  dm::ml::Dataset data_nt;
  const auto extract_nt = run_phase(
      "dm.train.extract_ns", [&](dm::obs::MetricsRegistry& metrics) {
        data_nt = dm::core::dataset_from_wcgs(
            corpus.infection_wcgs, corpus.benign_wcgs, {},
            {.threads = threads, .metrics = &metrics});
      });
  print_phase("extract", 1, extract_1t, "wcg");
  print_phase("extract", threads, extract_nt, "wcg");

  // Dataset fence: identical rows and labels at every thread count.
  bool rows_equal = data_1t.size() == data_nt.size() &&
                    data_1t.labels() == data_nt.labels();
  for (std::size_t i = 0; rows_equal && i < data_1t.size(); ++i) {
    const auto a = data_1t.row(i);
    const auto b = data_nt.row(i);
    rows_equal = std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  if (!rows_equal) {
    std::fprintf(stderr, "FATAL: %zu-thread dataset diverged from the "
                         "sequential extraction\n", threads);
    return 1;
  }

  // --- phase 2: ERF training ------------------------------------------------
  const std::string reference =
      serialized(dm::ml::reference::train(data_1t, forest_options));
  dm::ml::RandomForest trained = dm::ml::RandomForest::assemble({}, {});
  const auto train_1t = run_phase(
      "dm.train.tree_build_ns", [&](dm::obs::MetricsRegistry& metrics) {
        trained = dm::ml::train_forest_parallel(
            data_1t, forest_options, {.threads = 1, .metrics = &metrics});
      });
  if (serialized(trained) != reference) {
    std::fprintf(stderr, "FATAL: 1-thread parallel trainer diverged from "
                         "reference::train\n");
    return 1;
  }
  PhaseResult train_nt;
  for (const std::size_t arm : {std::size_t{2}, std::size_t{8}, threads}) {
    const auto result = run_phase(
        "dm.train.tree_build_ns", [&](dm::obs::MetricsRegistry& metrics) {
          trained = dm::ml::train_forest_parallel(
              data_1t, forest_options, {.threads = arm, .metrics = &metrics});
        });
    if (serialized(trained) != reference) {
      std::fprintf(stderr, "FATAL: %zu-thread forest diverged from the "
                           "sequential reference\n", arm);
      return 1;
    }
    if (arm == threads) train_nt = result;
  }
  print_phase("train", 1, train_1t, "tree");
  print_phase("train", threads, train_nt, "tree");
  std::printf("\nforests byte-identical at 1/2/8/%zu threads "
              "(%zu rows, %zu trees)\n",
              threads, data_1t.size(), forest_options.num_trees);

  const double extract_speedup = extract_1t.elapsed_ms /
                                 std::max(extract_nt.elapsed_ms, 1e-9);
  const double train_speedup =
      train_1t.elapsed_ms / std::max(train_nt.elapsed_ms, 1e-9);
  std::printf("extract speedup: %.2fx   train speedup: %.2fx   "
              "(target >= 3x at 8 threads on >= 8 hardware threads)\n",
              extract_speedup, train_speedup);

  if (json_path) {
    dm::bench::JsonRecord record;
    record.set("bench", "bench_training");
    record.set("scale", scale);
    record.set("seed", seed);
    record.set("threads", static_cast<std::uint64_t>(threads));
    record.set("hardware_threads", static_cast<std::uint64_t>(hardware));
    record.set("rows", static_cast<std::uint64_t>(data_1t.size()));
    record.set("features", static_cast<std::uint64_t>(data_1t.num_features()));
    record.set("trees", static_cast<std::uint64_t>(forest_options.num_trees));
    record.set("extract_ms_1t", extract_1t.elapsed_ms);
    record.set("extract_ms_nt", extract_nt.elapsed_ms);
    record.set("extract_speedup", extract_speedup);
    record.set("extract_p95_ns", extract_1t.p95_ns);
    record.set("train_ms_1t", train_1t.elapsed_ms);
    record.set("train_ms_nt", train_nt.elapsed_ms);
    record.set("train_speedup", train_speedup);
    record.set("tree_build_p50_ns", train_1t.p50_ns);
    record.set("tree_build_p95_ns", train_1t.p95_ns);
    record.set("forests_byte_identical", 1);
    if (record.append_to(*json_path)) {
      std::printf("result record appended to %s\n", json_path->c_str());
    } else {
      std::fprintf(stderr, "WARNING: could not write %s\n", json_path->c_str());
    }
  }
  return 0;
}
