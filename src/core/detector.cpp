#include "core/detector.h"

#include "obs/pipeline.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace dm::core {

Detector::Detector(dm::ml::RandomForest forest, FeatureExtractorOptions options,
                   double threshold)
    : forest_(std::move(forest)),
      flat_(dm::ml::FlatForest::compile(forest_)),
      options_(options),
      threshold_(threshold) {}

double Detector::score(const Wcg& wcg) const { return score(wcg, nullptr); }

double Detector::score(const Wcg& wcg, FeatureCache* cache) const {
  // Inference is const and shared across shard workers; the histograms are
  // sharded-concurrent, so timing here is thread-safe.  (The cache itself
  // is caller-owned, per-session state.)
  auto& obs = dm::obs::pipeline_metrics();
  const dm::obs::StageTimer timer;
  // Trace sub-spans ride the caller's ambient TraceContext (the engine's
  // observe() installs it); outside a traced unit of work they are inert.
  auto extract_span = timer.span(obs.stage_feature_extract_ns);
  dm::obs::ScopedTraceSpan extract_tspan(dm::obs::TraceOp::kFeatureExtract);
  const auto features = extract_features(wcg, options_, cache);
  extract_tspan.end();
  extract_span.stop();
  auto infer_span = timer.span(obs.stage_erf_infer_ns);
  dm::obs::ScopedTraceSpan infer_tspan(dm::obs::TraceOp::kErfInfer);
  const double proba = flat_.predict_proba(features);
  infer_tspan.end();
  infer_span.stop();
  return proba;
}

bool Detector::is_infection(const Wcg& wcg) const {
  return score(wcg) >= threshold_;
}

}  // namespace dm::core
