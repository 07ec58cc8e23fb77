#include "obs/pipeline.h"

namespace dm::obs {

PipelineMetrics PipelineMetrics::of(MetricsRegistry& reg) {
  return PipelineMetrics{
      reg.counter("dm.net.packets"),
      reg.counter("dm.http.transactions"),
      reg.histogram("dm.stage.pcap_decode_ns"),
      reg.histogram("dm.stage.tcp_reassembly_ns"),
      reg.histogram("dm.stage.http_parse_ns"),
      reg.counter("dm.detect.observed"),
      reg.counter("dm.detect.clues"),
      reg.counter("dm.detect.verdicts"),
      reg.counter("dm.detect.alerts"),
      reg.histogram("dm.stage.observe_ns"),
      reg.histogram("dm.stage.wcg_build_ns"),
      reg.histogram("dm.stage.feature_extract_ns"),
      reg.histogram("dm.stage.erf_infer_ns"),
      reg.histogram("dm.stage.verdict_ns"),
      reg.histogram("dm.detect.clue_to_verdict_ns"),
      reg.histogram("dm.runtime.dispatch_ns"),
      reg.histogram("dm.runtime.queue_wait_ns"),
      reg.histogram("dm.runtime.worker_batch_ns"),
  };
}

PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics* instance =
      new PipelineMetrics(PipelineMetrics::of(registry()));  // never destroyed
  return *instance;
}

SessionMetrics SessionMetrics::of(MetricsRegistry& reg) {
  return SessionMetrics{
      reg.gauge("dm.session.resident"),
      reg.gauge("dm.session.bytes_pinned"),
      reg.counter("dm.session.evicted_idle"),
      reg.counter("dm.session.evicted_alerted"),
      reg.counter("dm.session.evicted_budget_sessions"),
      reg.counter("dm.session.evicted_budget_bytes"),
      reg.histogram("dm.session.expiry_ns"),
  };
}

SessionMetrics& session_metrics() {
  static SessionMetrics* instance =
      new SessionMetrics(SessionMetrics::of(registry()));  // never destroyed
  return *instance;
}

ModelMetrics ModelMetrics::of(MetricsRegistry& reg) {
  return ModelMetrics{
      reg.gauge("dm.model.version"),
      reg.gauge("dm.model.reservoir_infections"),
      reg.gauge("dm.model.reservoir_benign"),
      reg.counter("dm.model.reservoir_offered"),
      reg.counter("dm.model.reservoir_admitted"),
      reg.counter("dm.model.retrains"),
      reg.counter("dm.model.swaps"),
      reg.counter("dm.model.candidates_rejected"),
      reg.counter("dm.model.shadow_scored"),
      reg.counter("dm.model.shadow_agree"),
      reg.counter("dm.model.shadow_disagree_infection"),
      reg.counter("dm.model.shadow_disagree_benign"),
      reg.counter("dm.model.fence_evaluations"),
      reg.counter("dm.model.fence_rejects"),
      reg.counter("dm.model.rollbacks"),
      reg.histogram("dm.model.shadow_score_ns"),
      reg.histogram("dm.model.retrain_ns"),
      reg.histogram("dm.model.swap_publish_ns"),
  };
}

ModelMetrics& model_metrics() {
  static ModelMetrics* instance =
      new ModelMetrics(ModelMetrics::of(registry()));  // never destroyed
  return *instance;
}

StoreMetrics StoreMetrics::of(MetricsRegistry& reg) {
  return StoreMetrics{
      reg.counter("dm.store.saves"),
      reg.counter("dm.store.save_failures"),
      reg.counter("dm.store.save_bytes"),
      reg.counter("dm.store.recoveries"),
      reg.counter("dm.store.artifacts_quarantined"),
      reg.counter("dm.store.manifests_quarantined"),
      reg.counter("dm.store.uncommitted_discarded"),
      reg.counter("dm.store.temps_removed"),
      reg.counter("dm.store.pruned"),
      reg.gauge("dm.store.latest_version"),
      reg.histogram("dm.store.persist_ns"),
      reg.histogram("dm.store.recover_ns"),
  };
}

StoreMetrics& store_metrics() {
  static StoreMetrics* instance =
      new StoreMetrics(StoreMetrics::of(registry()));  // never destroyed
  return *instance;
}

OracleMetrics OracleMetrics::of(MetricsRegistry& reg) {
  return OracleMetrics{
      reg.counter("dm.oracle.audits"),
      reg.counter("dm.oracle.audited"),
      reg.counter("dm.oracle.confirmed"),
      reg.counter("dm.oracle.overturned"),
      reg.counter("dm.oracle.unavailable"),
      reg.counter("dm.oracle.demotions"),
      reg.histogram("dm.oracle.audit_ns"),
  };
}

OracleMetrics& oracle_metrics() {
  static OracleMetrics* instance =
      new OracleMetrics(OracleMetrics::of(registry()));  // never destroyed
  return *instance;
}

}  // namespace dm::obs
