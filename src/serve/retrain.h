// RetrainDriver: the model-lifecycle loop around the live engine.
//
//                    verdict tap (core::OnlineOptions::verdict_tap)
//   live engine  ────────────────────────────────►  WcgReservoir
//        ▲                                               │ trigger (count
//        │ RCU hot swap                                  │  or clock)
//   ModelHandle ◄── cutover gate ◄── ShadowEvaluator ◄── background retrain
//                                                        (train_forest_parallel
//                                                         on a WorkerPool)
//
// The driver owns every piece of that loop:
//   * on_verdict() — installed as the engine's verdict tap — samples scored
//     WCGs into the reservoir and fires a retrain when the count or clock
//     trigger lands (both off by default; tests also call retrain_now()).
//   * Retraining runs on a private one-worker pool, off the scoring path:
//     snapshot the reservoir, extract features, train a candidate forest
//     via PR 5's deterministic parallel trainer (train_threads wide), wrap
//     it in a Detector.  Training is a pure function of (snapshot, forest
//     options), so retraining on an unchanged reservoir yields a
//     byte-identical forest — the no-op fence bench_serve enforces.
//   * Before a candidate may stage, it must clear the held-out *fence set*
//     gate (ServeOptions::fence_holdout_fraction): a seeded split of the
//     reservoir snapshot is held out of training and the candidate's F1 on
//     it must reach the incumbent's minus fence_epsilon.
//   * The candidate then shadow-scores live queries beside the incumbent
//     (see serve/shadow.h) and is published into the ModelHandle only when
//     the agreement gate clears — or immediately when
//     ServeOptions::shadow_before_cutover is off.
//   * Every publication is durably committed to the serve::ModelStore when
//     one is configured; construction recovers the persisted lineage and
//     rollback_now() demotes to a parent version.
//   * A delayed LabelOracle (ServeOptions::oracle) re-labels aged reservoir
//     entries; enough overturned verdicts demote the incumbent via rollback
//     and fire a retrain on the corrected corpus (audit_now()).
//   * make_scorer() builds the per-shard serving scorer: an epoch-pinned
//     read of the current model plus the shadow side-channel.  Wire it as
//     runtime::ShardedOptions::scorer_factory (one scorer per shard) or as
//     core::OnlineOptions::scorer for a sequential engine.
//
// Every state change lands in the dm.model.* panel (obs::ModelMetrics).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/detector.h"
#include "core/online.h"
#include "ml/random_forest.h"
#include "obs/flight_recorder.h"
#include "obs/pipeline.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "runtime/worker_pool.h"
#include "serve/model_handle.h"
#include "serve/model_store.h"
#include "serve/oracle.h"
#include "serve/reservoir.h"
#include "serve/shadow.h"

namespace dm::serve {

struct ServeOptions {
  ReservoirOptions reservoir;
  ShadowOptions shadow;
  /// Kick a retrain after every N reservoir *admissions* (0 = no count
  /// trigger).  Admissions, not offers: a saturated reservoir that rejects
  /// everything is not learning anything new.
  std::size_t retrain_every_admissions = 0;
  /// Kick a retrain when this many seconds of verdict-tap clock time have
  /// passed since the last one (0 = no clock trigger).  Uses the injectable
  /// `clock`, so tests drive it deterministically.
  double retrain_every_s = 0.0;
  /// Run the candidate through the shadow-scoring gate before cutover.
  /// When false a trained candidate is published immediately.
  bool shadow_before_cutover = true;
  /// Retrains are skipped (not counted) while the reservoir holds fewer
  /// than this many samples in either class.
  std::size_t min_per_class = 1;
  /// Worker threads for the candidate training itself (the retrain task
  /// always runs on the driver's single background worker).
  std::size_t train_threads = 1;
  /// Training configuration for candidates; seed fixed here so retraining
  /// on an identical reservoir is byte-identical (the no-op fence).
  dm::ml::ForestOptions forest;
  /// Feature extraction for candidate detectors — must match the incumbent's
  /// so shadow scoring can share the extraction memo the engine hands each
  /// query.
  dm::core::FeatureExtractorOptions features;
  /// Decision threshold for candidate detectors and shadow hard decisions;
  /// keep equal to OnlineOptions::decision_threshold.
  double decision_threshold = 0.4;
  /// Observability (null -> process-wide registry / steady clock).
  dm::obs::MetricsRegistry* metrics = nullptr;
  dm::obs::ClockFn clock = nullptr;
  /// Causal tracing: every lifecycle transition (trigger, fence gate,
  /// shadow verdict, promote, demote, rollback, store commit/recover) lands
  /// in this sink as an instant/span under session fnv1a("serve.lifecycle"),
  /// and in a bounded in-driver ring that feeds the demotion flight dump
  /// (null -> process-wide obs::trace_sink(), which starts disabled).
  dm::obs::TraceSink* trace = nullptr;
  /// Forensic dumps: an oracle demotion snapshots the lifecycle ring through
  /// this recorder (null -> process-wide obs::flight_recorder()).
  dm::obs::FlightRecorder* flight = nullptr;

  /// Crash-safe persistence (serve/model_store.h).  A non-empty
  /// `store.dir` enables the store: every publication is durably committed,
  /// the constructor recovers the newest valid on-disk version (overriding
  /// the `initial` detector and resuming its version number), and rollback
  /// walks the persisted lineage.  `store.metrics`/`store.clock` default to
  /// this struct's when unset.
  StoreOptions store;

  /// Held-out fence gate: before a candidate may shadow-score (or publish),
  /// it must meet the incumbent's F1 on a seeded held-out split of the
  /// reservoir snapshot.  Agreement alone cannot catch a candidate that
  /// faithfully reproduces the incumbent's mistakes; the fence can.
  /// Fraction of each class held out (0 = gate disabled — the default
  /// preserves the byte-identity no-op fence, which trains on the full
  /// snapshot).  At least one sample per class is held out and at least one
  /// is kept for training.
  double fence_holdout_fraction = 0.0;
  /// Pass condition: candidate_f1 >= incumbent_f1 - fence_epsilon.
  double fence_epsilon = 0.02;
  /// Seed of the fence split (class c shuffles with
  /// util::stream_seed(fence_seed, c)) — the split is a pure function of
  /// (snapshot, fence_seed), keeping gated retrains deterministic.
  std::uint64_t fence_seed = 42;

  /// Delayed oracle (serve/oracle.h; null = no label correction).  Audits
  /// re-label reservoir entries older than `oracle_delay_s`; when the
  /// oracle overturns enough recent incumbent verdicts the incumbent is
  /// demoted via rollback and a retrain fires on the corrected corpus.
  std::shared_ptr<LabelOracle> oracle;
  /// Trace-time age an entry must reach before it is offered to the oracle.
  double oracle_delay_s = 0.0;
  /// Audit cadence in trace seconds, driven off the verdict tap (0 = audits
  /// run only via audit_now()).
  double oracle_audit_every_s = 0.0;
  /// Demotion trigger: at least this many overturns since the last demotion…
  std::size_t oracle_min_overturns = 4;
  /// …and overturns >= this fraction of entries audited since then.
  double oracle_overturn_fraction = 0.25;
};

class RetrainDriver {
 public:
  /// `initial` is published as model version 1 — unless the model store is
  /// enabled and holds a recoverable lineage, in which case the recovered
  /// head (forest + version) takes over and `initial` is discarded.
  RetrainDriver(std::shared_ptr<const dm::core::Detector> initial,
                ServeOptions options = {});
  ~RetrainDriver();  // drains in-flight retrains

  RetrainDriver(const RetrainDriver&) = delete;
  RetrainDriver& operator=(const RetrainDriver&) = delete;

  /// The verdict tap: offer the scored WCG to the reservoir, then check the
  /// retrain triggers.  Thread-safe (called from every shard worker).
  void on_verdict(const dm::core::Wcg& wcg, double score, bool alert,
                  std::uint64_t ts_micros);

  /// Convenience: on_verdict as a std::function for
  /// core::OnlineOptions::verdict_tap.
  std::function<void(const dm::core::Wcg&, double, bool, std::uint64_t)>
  verdict_tap();

  /// A serving scorer holding its own model pin.  One per shard / engine —
  /// wire via runtime::ShardedOptions::scorer_factory or
  /// core::OnlineOptions::scorer.
  std::shared_ptr<dm::core::WcgScorer> make_scorer();

  /// Synchronous retrain on the current reservoir (ops/test seam): runs the
  /// full trigger path — train, then shadow-stage or publish — and waits
  /// for the background task.  Returns false when skipped (below
  /// min_per_class, empty reservoir, or a retrain already in flight).
  /// Not safe concurrently with a live verdict stream (drain() semantics).
  bool retrain_now();

  /// Waits for any in-flight background retrain.  Call after the stream is
  /// finished (not concurrently with on_verdict).
  void drain();

  /// Explicit rollback: demote the incumbent to its parent's *content*,
  /// republished under a fresh monotone version (readers never see the
  /// version counter move backwards).  The parent comes from the persisted
  /// manifest lineage when the store is enabled, else from the in-memory
  /// previously-published model.  Returns false when no parent is available.
  bool rollback_now(std::string reason = "rollback");

  /// Outcome of one delayed-oracle audit (see ServeOptions oracle knobs).
  struct AuditResult {
    std::uint64_t audited = 0;
    std::uint64_t confirmed = 0;
    std::uint64_t overturned = 0;
    std::uint64_t unavailable = 0;
    bool demoted = false;        // overturn threshold tripped -> rollback
    bool retrain_fired = false;  // corrective retrain submitted
  };

  /// Runs one oracle audit sweep at trace time `now_micros`: re-labels
  /// eligible reservoir entries, corrects overturned ones, and — when the
  /// overturn threshold trips — discards any staged candidate, demotes the
  /// incumbent via rollback, and fires a retrain on the corrected corpus.
  /// No-op (all zeros) without an oracle.  Also driven automatically off
  /// the verdict tap every `oracle_audit_every_s` of trace time.
  AuditResult audit_now(std::uint64_t now_micros);

  ModelHandle& handle() noexcept { return handle_; }
  const WcgReservoir& reservoir() const noexcept { return reservoir_; }
  std::uint64_t version() const noexcept { return handle_.version(); }
  std::uint64_t retrains() const noexcept {
    return retrains_.load(std::memory_order_relaxed);
  }
  std::uint64_t swaps() const noexcept {
    return swaps_.load(std::memory_order_relaxed);
  }
  std::uint64_t candidates_rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }
  std::uint64_t rollbacks() const noexcept {
    return rollbacks_.load(std::memory_order_relaxed);
  }
  std::uint64_t fence_rejects() const noexcept {
    return fence_rejects_.load(std::memory_order_relaxed);
  }
  /// The model store (null when persistence is disabled).
  const ModelStore* store() const noexcept { return store_.get(); }
  /// Whether construction resumed a persisted lineage instead of `initial`.
  bool recovered_from_store() const noexcept { return boot_recovered_; }
  /// Whether a candidate is currently shadow-scoring.
  bool shadow_active() const noexcept {
    return shadow_active_.load(std::memory_order_acquire);
  }
  /// Agreement rate of the current/last shadow phase (1.0 if none yet).
  double shadow_agreement_rate() const;

  /// Serialization of the most recently *trained* candidate forest, before
  /// any version stamp — the byte-identity fence hook: two retrains on an
  /// unchanged reservoir must return equal strings here.
  std::string last_trained_serialization() const;

 private:
  class ServingScorer;

  /// What the handle boots with: `initial`, or the store's recovered head.
  struct Boot {
    std::shared_ptr<const dm::core::Detector> model;
    std::uint64_t version = 1;
    bool recovered = false;
  };
  static std::unique_ptr<ModelStore> make_store(const ServeOptions& options);
  static Boot boot_model(std::shared_ptr<const dm::core::Detector> initial,
                         ModelStore* store, const ServeOptions& options);

  /// The background task body: snapshot -> fence split -> dataset ->
  /// candidate forest -> fence gate -> shadow-stage or publish.
  void run_retrain();

  /// Called by scorers on every live query while a shadow phase is active.
  void shadow_observe(const dm::core::Wcg& wcg, dm::core::FeatureCache* cache,
                      bool incumbent_alert);

  /// Serialized promote/reject of the evaluator (idempotent per candidate).
  void resolve_candidate(const std::shared_ptr<ShadowEvaluator>& evaluator,
                         ShadowEvaluator::Gate gate);

  /// Publishes `detector`, remembers the displaced incumbent for in-memory
  /// rollback, updates the panel, and durably persists the new version
  /// (parent/fence/reason land in the manifest entry).
  void publish(std::shared_ptr<const dm::core::Detector> detector,
               std::string_view reason, std::uint64_t parent, double fence_f1);

  /// True when a trigger condition holds (callers must have admitted work).
  bool should_retrain_locked(std::uint64_t now_ns);

  /// Emits one lifecycle trace event into the sink *and* the bounded
  /// lifecycle ring (the demotion dump's source).  `span_id` reuses a
  /// begin's id for its end event; returns the event id (0 when tracing is
  /// off).  Thread-safe (the ring is mutex-guarded: triggers, the retrain
  /// worker, and shadowing shard workers all emit).
  std::uint64_t lifecycle_event(dm::obs::TraceOp op, dm::obs::TraceKind kind,
                                std::uint64_t arg, std::uint64_t span_id = 0);

  ServeOptions options_;
  dm::obs::TraceSink* trace_ = nullptr;       // options_.trace or global
  dm::obs::FlightRecorder* flight_ = nullptr; // options_.flight or global
  /// Recent lifecycle events, oldest overwritten first — what a demotion
  /// dump captures (guarded by lifecycle_mutex_).
  mutable std::mutex lifecycle_mutex_;
  dm::obs::SessionRing lifecycle_ring_;
  dm::obs::ModelMetrics metrics_;
  dm::obs::OracleMetrics oracle_metrics_;
  dm::obs::StageTimer timer_;
  std::unique_ptr<ModelStore> store_;  // null when persistence is disabled
  Boot boot_;                          // handle_'s initializer; kept for flags
  ModelHandle handle_;
  WcgReservoir reservoir_;
  bool boot_recovered_ = false;

  /// Trigger state (guarded by trigger_mutex_; touched per admission only).
  std::mutex trigger_mutex_;
  std::uint64_t admissions_since_retrain_ = 0;
  std::uint64_t last_retrain_ns_ = 0;
  bool clock_anchored_ = false;

  /// True while a retrain task is queued/running or a candidate is staged —
  /// a second trigger in that window is ignored, not queued.
  std::atomic<bool> retrain_in_flight_{false};

  /// Shadow phase (candidate_ guarded by shadow_mutex_; the flag is the
  /// hot-path fast-out).  Parent/fence provenance of the staged candidate
  /// travel with it so promotion writes them into the manifest.
  std::atomic<bool> shadow_active_{false};
  mutable std::mutex shadow_mutex_;
  std::shared_ptr<ShadowEvaluator> candidate_;
  std::shared_ptr<ShadowEvaluator> last_evaluator_;  // for post-hoc stats
  std::uint64_t candidate_parent_ = 0;
  double candidate_fence_f1_ = 0.0;

  /// The displaced incumbent, for rollback when no store lineage exists.
  mutable std::mutex previous_mutex_;
  std::shared_ptr<const dm::core::Detector> previous_;
  std::uint64_t previous_version_ = 0;

  /// Oracle audit state (cadence anchor + overturn accumulator since the
  /// last demotion).
  std::mutex oracle_mutex_;
  std::uint64_t last_audit_micros_ = 0;
  bool audit_anchored_ = false;
  std::uint64_t audited_since_demotion_ = 0;
  std::uint64_t overturned_since_demotion_ = 0;

  mutable std::mutex serialization_mutex_;
  std::string last_trained_serialization_;

  std::atomic<std::uint64_t> retrains_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> rollbacks_{0};
  std::atomic<std::uint64_t> fence_rejects_{0};

  /// One background worker: at most one retrain in flight, serialized FIFO.
  /// Declared last so it is destroyed first — the pool joins (running any
  /// queued retrain to completion) while every member the task touches is
  /// still alive.
  dm::runtime::WorkerPool pool_;
};

}  // namespace dm::serve
