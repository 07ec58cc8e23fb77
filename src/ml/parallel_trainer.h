// Parallel deterministic Stage-1 training: the one ERF trainer.
//
// The ERF's trees are independent given their RNG streams: tree i draws its
// bootstrap and split randomness from the counter-based stream
// tree_stream_seed(options.seed, i) (util::stream_seed), never from a
// shared sequential generator.  Training is therefore a pure function of
// (data, options) — the trees can be built in any order on any number of
// threads and the assembled forest is bit-identical to building them one
// after another, the same determinism contract the inference side
// established for the flat ERF and the sharded runtime.  The differential
// suite (ml_parallel_trainer_test, `ctest -L train`) and the
// bench_training --json A/B both assert byte-identical serialization at
// 1, 2, and 8 threads against the test suite's sequential reference
// trainer (tests/reference_forest.h).
//
// Work is fanned over the existing runtime::WorkerPool (one task per tree,
// round-robin); results land in pre-sized slots so no ordering or merging
// step can perturb the ensemble.  Instrumentation reports into dm.train.*
// (see TrainerMetrics below).
#pragma once

#include <cstddef>

#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace dm::ml {

/// Knobs shared by every Stage-1 training entry point (forest training,
/// WCG feature extraction in core::dataset_from_wcgs, cross-validation).
struct TrainerOptions {
  /// Worker threads for tree building / feature extraction.
  /// 1 = inline on the caller (no pool); 0 = hardware_concurrency.
  /// The trained model is identical for every value.
  std::size_t threads = 1;
  /// Observability: registry receiving the dm.train.* counters and
  /// histograms (null -> the process-wide obs::registry()), and the clock
  /// stamping the spans (null -> steady clock).  Tests inject both.
  dm::obs::MetricsRegistry* metrics = nullptr;
  dm::obs::ClockFn clock = nullptr;
};

/// The dm.train.* instrument panel, resolved once (cold path) into
/// wait-free handles — same pattern as obs::PipelineMetrics.
struct TrainerMetrics {
  dm::obs::Counter& trees_built;        // dm.train.trees_built
  dm::obs::Counter& forests_trained;    // dm.train.forests_trained
  dm::obs::Counter& wcgs_extracted;     // dm.train.wcgs_extracted (core::dataset_from_wcgs)
  dm::obs::Histogram& tree_build_ns;    // dm.train.tree_build_ns   per-tree build time
  dm::obs::Histogram& forest_train_ns;  // dm.train.forest_train_ns whole-forest wall clock
  dm::obs::Histogram& extract_ns;       // dm.train.extract_ns      per-WCG feature extraction
  dm::obs::Histogram& fold_ns;          // dm.train.fold_ns         per-CV-fold train+score
  static TrainerMetrics of(dm::obs::MetricsRegistry& reg);
};

/// Resolves trainer.metrics (falling back to the process-wide registry).
TrainerMetrics trainer_metrics(const TrainerOptions& trainer);

/// Trains Nt trees on bootstrap samples of `data` across trainer.threads
/// workers; at threads = 1 they are built inline on the caller.  The forest
/// is the same at every thread count.  Throws std::invalid_argument on an
/// empty dataset.
RandomForest train_forest_parallel(const Dataset& data,
                                   const ForestOptions& options,
                                   const TrainerOptions& trainer = {});

/// Resolved worker count for a TrainerOptions::threads value (0 -> the
/// hardware concurrency, never 0).
std::size_t resolve_trainer_threads(std::size_t threads) noexcept;

}  // namespace dm::ml
