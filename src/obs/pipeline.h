// The instrument panel's wiring diagram: every metric the DynaMiner
// pipelines emit, resolved once into wait-free handles.
//
// Naming scheme (`dm.<area>.<metric>[_<unit>]`, see DESIGN.md §8):
//   dm.net.*      packet/frame counts (Stage-1 reconstruction)
//   dm.http.*     reconstructed transaction counts
//   dm.stage.*_ns per-stage latency histograms, pcap decode through verdict
//   dm.detect.*   on-the-wire engine events and the headline
//                 dm.detect.clue_to_verdict_ns latency
//   dm.runtime.*  sharded-engine throughput/shed counters and queue depth
//                 (callback-sourced from runtime::Stats and the shard
//                 queues) and dispatcher/queue/worker timing
//   dm.train.*    Stage-1 training: per-tree build / per-WCG extract /
//                 per-CV-fold latency + throughput counters (handles live
//                 in ml::TrainerMetrics, see ml/parallel_trainer.h)
//   dm.model.*    model lifecycle: reservoir levels, retrains, shadow-
//                 scoring agreement and hot-swap publications (written by
//                 src/serve; panel defined in ModelMetrics below)
//   dm.store.*    crash-safe model persistence: saves, recoveries, exact
//                 quarantine accounting (serve::ModelStore; StoreMetrics)
//   dm.oracle.*   delayed-oracle label correction: audits, overturns,
//                 demotions (serve layer + src/baseline; OracleMetrics)
//   dm.trace.*    flight-recorder dump accounting: dumps written,
//                 rate-gate suppressions, dumped events (obs/flight_recorder.h)
//   dm.health.*   watchdog self-monitoring: overall + per-rule state gauges,
//                 tick/transition/trip/recovery counters (obs/health.h,
//                 HealthMetrics — the panel lives there, next to the rules)
//
// Decode faults are not registry metrics: each reconstruction run counts
// them in the util::FaultStats its caller passes and reads them back from
// that run's FaultStatsSnapshot.
//
// Hot paths construct a PipelineMetrics once (a bundle of references into a
// registry) and touch only the wait-free handles afterwards.
#pragma once

#include "obs/metrics.h"

namespace dm::obs {

struct PipelineMetrics {
  // Stage-1 reconstruction counters.
  Counter& net_packets;           // pcap records offered to frame parsing
  Counter& http_transactions;     // transactions reconstructed from captures
  // Stage-1 latency (per capture / per flow).
  Histogram& stage_pcap_decode_ns;     // capture bytes -> PcapFile records
  Histogram& stage_tcp_reassembly_ns;  // frame parse + flow grouping, per capture
  Histogram& stage_http_parse_ns;      // one flow: reassembly + HTTP parse
  // Stage-2 detection counters.
  Counter& detect_observed;   // transactions fed to OnlineDetector::observe
  Counter& detect_clues;      // infection clues fired
  Counter& detect_verdicts;   // completed ERF verdicts (scored, not failed)
  Counter& detect_alerts;     // alerts issued
  // Stage-2 latency (per transaction / per query).
  Histogram& stage_observe_ns;          // whole observe() call
  Histogram& stage_wcg_build_ns;        // potential-infection WCG construction
  Histogram& stage_feature_extract_ns;  // 37-feature extraction
  Histogram& stage_erf_infer_ns;        // ERF predict_proba
  Histogram& stage_verdict_ns;          // classify_session end to end
  /// The headline product metric: clue fired -> first completed ERF verdict,
  /// recorded once per clue-bearing WCG.
  Histogram& detect_clue_to_verdict_ns;
  // Sharded-runtime timing.
  Histogram& runtime_dispatch_ns;      // dispatcher: batch handoff (incl. backpressure)
  Histogram& runtime_queue_wait_ns;    // batch enqueue -> worker pop
  Histogram& runtime_worker_batch_ns;  // worker: one batch through the detector

  /// Resolves (creating on first use) every handle in `reg`.  Cold path —
  /// call once per component, keep the result.
  static PipelineMetrics of(MetricsRegistry& reg);
};

/// Handles into the process-wide registry.
PipelineMetrics& pipeline_metrics();

/// The dm.session.* panel: the online detector's session-lifecycle
/// instrument cluster (budgeted session state, DESIGN.md §15).  Eviction
/// accounting is exact by construction: every session leaves the map
/// through exactly one of the four eviction counters, so
///   sessions opened == resident + evicted_idle + evicted_alerted
///                    + evicted_budget_sessions + evicted_budget_bytes
/// (core_session_budget_test holds that as a conservation fence).
struct SessionMetrics {
  Gauge& resident;      // dm.session.resident — live sessions in the map
  Gauge& bytes_pinned;  // dm.session.bytes_pinned — approx. session memory
  Counter& evicted_idle;     // dm.session.evicted_idle — idle-timeout expiry
  Counter& evicted_alerted;  // dm.session.evicted_alerted — terminated on alert
  /// Budget evictions (LRU-first) by cause: session-count cap vs bytes cap.
  Counter& evicted_budget_sessions;  // dm.session.evicted_budget_sessions
  Counter& evicted_budget_bytes;     // dm.session.evicted_budget_bytes
  /// Expiry + budget-enforcement work per sweep — timed *outside*
  /// dm.stage.observe_ns so eviction cost never pollutes verdict latency
  /// (obs_timer_test holds that separation as a fence).
  Histogram& expiry_ns;  // dm.session.expiry_ns
  static SessionMetrics of(MetricsRegistry& reg);
};

/// dm.session.* handles into the process-wide registry.
SessionMetrics& session_metrics();

/// The dm.model.* panel: the continual-learning serving layer's instrument
/// cluster (src/serve writes it; the obs layer owns the naming so one
/// snapshot covers the model lifecycle next to the pipeline stages).
///
/// Agreement accounting is exact by construction:
///   shadow_scored == shadow_agree + shadow_disagree_infection
///                                 + shadow_disagree_benign
/// (serve_shadow_test holds that as a conservation fence.)
struct ModelMetrics {
  Gauge& version;                // dm.model.version — currently-published model
  Gauge& reservoir_infections;   // dm.model.reservoir_infections — held samples
  Gauge& reservoir_benign;       // dm.model.reservoir_benign
  Counter& reservoir_offered;    // dm.model.reservoir_offered — verdict-tap events
  Counter& reservoir_admitted;   // dm.model.reservoir_admitted — kept by sampling
  Counter& retrains;             // dm.model.retrains — candidate forests trained
  Counter& swaps;                // dm.model.swaps — publications (hot swaps)
  Counter& candidates_rejected;  // dm.model.candidates_rejected — failed the gate
  Counter& shadow_scored;        // dm.model.shadow_scored — side-by-side queries
  Counter& shadow_agree;         // dm.model.shadow_agree — same hard decision
  /// Candidate alerts where the incumbent does not (per-class disagreement).
  Counter& shadow_disagree_infection;  // dm.model.shadow_disagree_infection
  /// Incumbent alerts where the candidate does not.
  Counter& shadow_disagree_benign;     // dm.model.shadow_disagree_benign
  /// Fence-set gate (held-out split of the reservoir, scored before shadow
  /// scoring starts): fence_evaluations == fence passes + fence_rejects.
  Counter& fence_evaluations;    // dm.model.fence_evaluations — gated candidates
  Counter& fence_rejects;        // dm.model.fence_rejects — F1 below incumbent−ε
  Counter& rollbacks;            // dm.model.rollbacks — demotions to a parent
  Histogram& shadow_score_ns;    // dm.model.shadow_score_ns — added latency/query
  Histogram& retrain_ns;         // dm.model.retrain_ns — snapshot->candidate wall
  Histogram& swap_publish_ns;    // dm.model.swap_publish_ns — publish() duration
  static ModelMetrics of(MetricsRegistry& reg);
};

/// dm.model.* handles into the process-wide registry.
ModelMetrics& model_metrics();

/// The dm.store.* panel: crash-safe model persistence (serve::ModelStore).
/// Quarantine accounting is exact: every artifact/manifest the recovery
/// scan rejects is renamed aside and counted, never silently deleted —
/// serve_model_store_test holds the counts as a fence.
struct StoreMetrics {
  Counter& saves;                  // dm.store.saves — committed persists
  Counter& save_failures;          // dm.store.save_failures — I/O errors / crashes
  Counter& save_bytes;             // dm.store.save_bytes — artifact payload bytes
  Counter& recoveries;             // dm.store.recoveries — successful startups
  Counter& artifacts_quarantined;  // dm.store.artifacts_quarantined — torn/corrupt
  Counter& manifests_quarantined;  // dm.store.manifests_quarantined
  Counter& uncommitted_discarded;  // dm.store.uncommitted_discarded — renamed but
                                   //   never manifest-committed (crash window)
  Counter& temps_removed;          // dm.store.temps_removed — stale .tmp files
  Counter& pruned;                 // dm.store.pruned — artifacts beyond max_history
  Gauge& latest_version;           // dm.store.latest_version — manifest head
  Histogram& persist_ns;           // dm.store.persist_ns — one durable commit
  Histogram& recover_ns;           // dm.store.recover_ns — startup scan + load
  static StoreMetrics of(MetricsRegistry& reg);
};

/// dm.store.* handles into the process-wide registry.
StoreMetrics& store_metrics();

/// The dm.oracle.* panel: delayed-oracle label correction (serve layer
/// re-labeling reservoir entries through the src/baseline VT simulator).
/// Conservation: audited == confirmed + overturned; unavailable entries
/// (outage / verdict not yet published) stay eligible for the next audit.
struct OracleMetrics {
  Counter& audits;       // dm.oracle.audits — audit sweeps run
  Counter& audited;      // dm.oracle.audited — entries the oracle labeled
  Counter& confirmed;    // dm.oracle.confirmed — incumbent verdict upheld
  Counter& overturned;   // dm.oracle.overturned — reservoir label corrected
  Counter& unavailable;  // dm.oracle.unavailable — no verdict yet (outage/delay)
  Counter& demotions;    // dm.oracle.demotions — overturn threshold tripped
  Histogram& audit_ns;   // dm.oracle.audit_ns — one sweep's wall time
  static OracleMetrics of(MetricsRegistry& reg);
};

/// dm.oracle.* handles into the process-wide registry.
OracleMetrics& oracle_metrics();

}  // namespace dm::obs
