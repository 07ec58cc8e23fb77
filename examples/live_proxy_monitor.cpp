// Live proxy monitor (Stage 2, on-the-wire): streams a mixed workload of
// benign browsing and exploit-kit infections through the on-the-wire
// detector — the deployment mode of §V-B where DynaMiner "sits at the edge
// of a network or as a web proxy".
//
// Usage: live_proxy_monitor [--threads N] [--train-threads N] [--metrics]
//                           [--retrain-every N] [--shadow] [--model-dir P]
//                           [--trace-dir P] [--health] [--session-budget N]
//   --threads 1 (default) replays through the sequential core engine;
//   --threads N>1 runs the session-sharded concurrent runtime with N shard
//   workers.  Both modes produce the same alert set on the same stream —
//   that equivalence is the runtime's core invariant (see DESIGN.md,
//   "Runtime architecture").
//   --train-threads N fans the Stage-1 offline training (WCG feature
//   extraction + ERF tree building) over N workers before the stream
//   starts; the model is bit-identical at any count (DESIGN.md,
//   "Training at scale").
//   --metrics turns on the observability panel: a periodic one-line
//   reporter while the stream flows, then the full dm::obs snapshot
//   (counters + per-stage latency histograms incl. clue-to-verdict) in
//   human-table form.
//   --retrain-every N turns on the continual-learning serving layer
//   (DESIGN.md, "Model lifecycle"): every completed verdict feeds the
//   retraining reservoir, and every N admissions a candidate forest is
//   retrained in the background and hot-swapped into the live engine —
//   the stream never pauses.
//   --shadow (with --retrain-every) gates each candidate behind shadow
//   scoring: it rides along on live queries and is published only once
//   its decisions agree with the incumbent's.
//   --model-dir P makes the lifecycle survive restarts (DESIGN.md, "Crash
//   safety & label correction"): every promotion is durably committed to a
//   versioned store under P, and on startup the monitor resumes from the
//   newest CRC-valid committed model instead of the freshly trained one.
//   Run the monitor twice with the same P to watch it resume.
//   --trace-dir P turns on causal tracing (DESIGN.md §14): per-session
//   flight dumps land under P as they trigger, and at exit the whole
//   capture is written to P/trace.json — load it at ui.perfetto.dev (or
//   chrome://tracing) to see every alert's decode → verdict span tree.
//   Replay a dump with `wcg_explorer --trace-dir P`.
//   --health runs the watchdog (DESIGN.md §14) on its own cadence thread
//   while the stream flows: the stock rule set is ticked every ~500 ms,
//   every state transition prints as it happens, and the final dm.health.*
//   panel is reported at exit.
//   --session-budget N caps resident session state at N sessions
//   (DESIGN.md §15): least-recently-active sessions are evicted first, and
//   on a trace whose live concurrency fits the budget the alert set is
//   unchanged.
//
// The monitor prints each alert as it fires, then a session summary (and,
// with --retrain-every, the model-lifecycle panel).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/online.h"
#include "core/trainer.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/sharded_online.h"
#include "serve/retrain.h"
#include "synth/dataset.h"

namespace {

void print_alert(const dm::core::Alert& alert, std::uint64_t stream_start_micros) {
  std::printf("ALERT  t=%.1fs  client=%s  trigger=%s (%s)  score=%.3f  "
              "wcg=%zun/%zue\n",
              alert.ts_micros / 1e6 - stream_start_micros / 1e6,
              alert.client.c_str(), alert.trigger_host.c_str(),
              std::string(dm::http::payload_type_name(alert.trigger_payload))
                  .c_str(),
              alert.score, alert.wcg_order, alert.wcg_size);
}

/// Periodic reporter (--metrics): one line every `every` transactions with
/// the live counters and the p95 of the whole-observe stage — the at-a-
/// glance view an operator watches while traffic flows.
class MetricsReporter {
 public:
  explicit MetricsReporter(bool enabled, std::size_t every = 100)
      : enabled_(enabled), every_(every) {}

  void tick(std::size_t streamed, std::uint64_t ts_micros,
            std::uint64_t stream_start_micros) {
    if (!enabled_ || streamed == 0 || streamed % every_ != 0) return;
    const auto snap = dm::obs::snapshot();
    const auto* observe = snap.histogram("dm.stage.observe_ns");
    std::printf(
        "METRICS t=%.1fs streamed=%zu sessions=%lld clues=%llu verdicts=%llu "
        "alerts=%llu p95(observe)=%.1fus\n",
        ts_micros / 1e6 - stream_start_micros / 1e6, streamed,
        static_cast<long long>(snap.gauge_value("dm.session.resident")),
        static_cast<unsigned long long>(snap.counter_value("dm.detect.clues")),
        static_cast<unsigned long long>(
            snap.counter_value("dm.detect.verdicts")),
        static_cast<unsigned long long>(snap.counter_value("dm.detect.alerts")),
        (observe != nullptr ? observe->p95() : 0) / 1e3);
  }

  void final_panel() const {
    if (!enabled_) return;
    std::printf("\n--- observability snapshot (dm::obs) ---\n%s",
                dm::obs::to_table(dm::obs::snapshot()).c_str());
  }

 private:
  bool enabled_;
  std::size_t every_;
};

/// --health: the watchdog on its own cadence thread, the deployment shape
/// DESIGN.md §14 describes.  The watchdog is not thread-safe, so ONLY the
/// ticker thread calls tick(); main reads state after finish() joins it.
class HealthTicker {
 public:
  explicit HealthTicker(bool enabled) {
    if (!enabled) return;
    watchdog_.emplace(dm::obs::default_health_rules());
    ticker_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        for (const auto& t : watchdog_->tick()) {
          std::printf("HEALTH %s: %s -> %s (value %.4g)\n", t.rule.c_str(),
                      dm::obs::health_state_name(t.from),
                      dm::obs::health_state_name(t.to), t.value);
        }
        // ~500 ms cadence, responsive to shutdown.
        for (int i = 0; i < 10 && !stop_.load(std::memory_order_acquire); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
  }

  /// Joins the ticker and prints the final dm.health.* panel.
  void finish() {
    if (!watchdog_) return;
    stop_.store(true, std::memory_order_release);
    ticker_.join();
    const auto snap = dm::obs::snapshot();
    std::printf("\n--- health (dm.health.*) ---\n");
    std::printf("state:                  %s\n",
                dm::obs::health_state_name(watchdog_->state()));
    std::printf("ticks:                  %llu\n",
                static_cast<unsigned long long>(
                    snap.counter_value("dm.health.ticks")));
    std::printf("transitions:            %llu (%llu trip(s), "
                "%llu recover(ies))\n",
                static_cast<unsigned long long>(
                    snap.counter_value("dm.health.transitions")),
                static_cast<unsigned long long>(
                    snap.counter_value("dm.health.trips")),
                static_cast<unsigned long long>(
                    snap.counter_value("dm.health.recoveries")));
    watchdog_.reset();
  }

  ~HealthTicker() { finish(); }

 private:
  std::optional<dm::obs::HealthWatchdog> watchdog_;
  std::thread ticker_;
  std::atomic<bool> stop_{false};
};

void print_summary(const dm::core::OnlineStats& stats) {
  std::printf("\n--- proxy session summary ---\n");
  std::printf("transactions seen:      %zu\n", stats.transactions_seen);
  std::printf("weeded (trusted):       %zu\n", stats.transactions_weeded);
  std::printf("sessions opened:        %zu\n", stats.sessions_opened);
  std::printf("infection clues fired:  %zu\n", stats.clues_fired);
  std::printf("classifier queries:     %zu\n", stats.classifier_queries);
  std::printf("alerts issued:          %zu (3 infections were in the mix)\n",
              stats.alerts);
}

void print_model_panel(const dm::serve::RetrainDriver& driver) {
  std::printf("\n--- model lifecycle (dm.model.*) ---\n");
  std::printf("published version:      %llu\n",
              static_cast<unsigned long long>(driver.version()));
  std::printf("reservoir:              %zu infection + %zu benign samples "
              "(%llu offered, %llu admitted)\n",
              driver.reservoir().infection_count(),
              driver.reservoir().benign_count(),
              static_cast<unsigned long long>(driver.reservoir().offered()),
              static_cast<unsigned long long>(driver.reservoir().admitted()));
  std::printf("retrains:               %llu\n",
              static_cast<unsigned long long>(driver.retrains()));
  std::printf("hot swaps:              %llu\n",
              static_cast<unsigned long long>(driver.swaps()));
  std::printf("candidates rejected:    %llu\n",
              static_cast<unsigned long long>(driver.candidates_rejected()));
  std::printf("shadow agreement:       %.3f%s\n",
              driver.shadow_agreement_rate(),
              driver.shadow_active() ? " (candidate still shadowing)" : "");
  if (const auto* store = driver.store()) {
    const auto counts = store->counts();
    std::printf("\n--- model store (dm.store.*) ---\n");
    std::printf("directory:              %s\n", store->options().dir.c_str());
    std::printf("committed head:         version %llu (%zu in history)\n",
                static_cast<unsigned long long>(store->latest_version()),
                store->manifest().size());
    std::printf("durable saves:          %llu (%llu failed)\n",
                static_cast<unsigned long long>(counts.saves),
                static_cast<unsigned long long>(counts.save_failures));
    std::printf("recovery sweeps:        %llu (%llu temps removed, "
                "%llu uncommitted discarded)\n",
                static_cast<unsigned long long>(counts.recoveries),
                static_cast<unsigned long long>(counts.temps_removed),
                static_cast<unsigned long long>(counts.uncommitted_discarded));
    std::printf("quarantined:            %llu artifact(s), %llu manifest(s)\n",
                static_cast<unsigned long long>(counts.artifacts_quarantined),
                static_cast<unsigned long long>(counts.manifests_quarantined));
    std::printf("pruned:                 %llu old artifact(s)\n",
                static_cast<unsigned long long>(counts.pruned));
  }
}

/// --trace-dir teardown: drain the sink into a Perfetto-loadable JSON file
/// next to whatever flight dumps the stream produced.
void write_trace(const std::string& trace_dir) {
  if (trace_dir.empty()) return;
  const auto events = dm::obs::trace_sink().snapshot();
  const std::string path = trace_dir + "/trace.json";
  std::ofstream out(path);
  out << dm::obs::to_chrome_trace(events);
  std::printf("\ntrace: %zu event(s) -> %s (load at ui.perfetto.dev), "
              "%llu flight dump(s)\n",
              events.size(), path.c_str(),
              static_cast<unsigned long long>(
                  dm::obs::flight_recorder().dumps()));
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t threads = 1;
  std::size_t train_threads = 1;
  std::size_t retrain_every = 0;
  std::size_t session_budget = 0;
  bool shadow = false;
  bool metrics = false;
  bool health = false;
  std::string model_dir;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const long long v = std::atoll(argv[++i]);
      if (v < 1) {
        std::fprintf(stderr, "--threads wants a positive integer\n");
        return 2;
      }
      threads = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--train-threads") == 0 && i + 1 < argc) {
      const long long v = std::atoll(argv[++i]);
      if (v < 1) {
        std::fprintf(stderr, "--train-threads wants a positive integer\n");
        return 2;
      }
      train_threads = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--retrain-every") == 0 && i + 1 < argc) {
      const long long v = std::atoll(argv[++i]);
      if (v < 1) {
        std::fprintf(stderr, "--retrain-every wants a positive integer\n");
        return 2;
      }
      retrain_every = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--shadow") == 0) {
      shadow = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--health") == 0) {
      health = true;
    } else if (std::strcmp(argv[i], "--session-budget") == 0 && i + 1 < argc) {
      const long long v = std::atoll(argv[++i]);
      if (v < 1) {
        std::fprintf(stderr, "--session-budget wants a positive integer\n");
        return 2;
      }
      session_budget = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--model-dir") == 0 && i + 1 < argc) {
      model_dir = argv[++i];
      if (model_dir.empty()) {
        std::fprintf(stderr, "--model-dir wants a directory path\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc) {
      trace_dir = argv[++i];
      if (trace_dir.empty()) {
        std::fprintf(stderr, "--trace-dir wants a directory path\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--train-threads N] [--metrics] "
                   "[--retrain-every N] [--shadow] [--model-dir P] "
                   "[--trace-dir P] [--health] [--session-budget N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!trace_dir.empty()) {
    std::filesystem::create_directories(trace_dir);
    dm::obs::FlightRecorderOptions flight;
    flight.dir = trace_dir;
    dm::obs::flight_recorder().configure(flight);
    dm::obs::trace_sink().set_enabled(true);
    std::printf("tracing on: sample 1/%llu sessions + every alert; dumps "
                "under %s\n",
                static_cast<unsigned long long>(
                    dm::obs::trace_sink().sample_period()),
                trace_dir.c_str());
  }
  if (shadow && retrain_every == 0) {
    std::fprintf(stderr, "--shadow only matters with --retrain-every N\n");
    return 2;
  }

  // Train on the offline corpus (Stage 1).  One read-only model is shared
  // by every shard worker.
  std::printf("training on the offline ground-truth corpus...\n");
  const auto gt = dm::synth::generate_ground_truth(42, 0.1);
  std::vector<dm::core::Wcg> infections;
  std::vector<dm::core::Wcg> benign;
  for (const auto& e : gt.infections) {
    infections.push_back(dm::core::build_wcg(e.transactions));
  }
  for (const auto& e : gt.benign) {
    benign.push_back(dm::core::build_wcg(e.transactions));
  }
  const dm::ml::TrainerOptions trainer{.threads = train_threads};
  const auto detector = std::make_shared<const dm::core::Detector>(
      dm::core::train_dynaminer(
          dm::core::dataset_from_wcgs(infections, benign, {}, trainer),
          dm::ml::kDefaultTrainingSeed, trainer));

  // Assemble the live mix: 12 benign sessions, 3 infections, interleaved.
  dm::synth::TraceGenerator live(/*seed=*/9001);
  std::vector<dm::synth::Episode> episodes;
  for (int i = 0; i < 12; ++i) episodes.push_back(live.benign());
  episodes.push_back(live.infection(dm::synth::family_by_name("Angler")));
  episodes.push_back(live.infection(dm::synth::family_by_name("Neutrino")));
  episodes.push_back(live.infection(dm::synth::family_by_name("Goon")));

  std::vector<dm::http::HttpTransaction> stream;
  for (const auto& episode : episodes) {
    for (const auto& txn : episode.transactions) stream.push_back(txn);
  }
  std::stable_sort(stream.begin(), stream.end(), [](const auto& a, const auto& b) {
    return a.request.ts_micros < b.request.ts_micros;
  });
  const std::uint64_t stream_start = stream.front().request.ts_micros;

  dm::core::OnlineOptions options;
  options.redirect_chain_threshold = 2;
  if (session_budget > 0) {
    options.budget.max_sessions = session_budget;
    std::printf("session budget: at most %zu resident sessions "
                "(LRU eviction beyond that)\n",
                session_budget);
  }

  // Continual learning (--retrain-every): the serving layer taps every
  // completed verdict into its reservoir and hot-swaps retrained candidates
  // into the live engine while the stream flows.
  std::unique_ptr<dm::serve::RetrainDriver> serving;
  if (retrain_every > 0 || !model_dir.empty()) {
    dm::serve::ServeOptions serve;
    serve.retrain_every_admissions = retrain_every;
    serve.shadow_before_cutover = shadow;
    serve.shadow.min_queries = 16;
    serve.shadow.agreement_threshold = 0.9;
    serve.forest = dm::core::paper_forest_options();
    serve.train_threads = train_threads;
    serve.decision_threshold = options.decision_threshold;
    serve.store.dir = model_dir;
    serving = std::make_unique<dm::serve::RetrainDriver>(detector, serve);
    options.verdict_tap = serving->verdict_tap();
    if (retrain_every > 0) {
      std::printf("continual learning on: retrain every %zu reservoir "
                  "admissions%s\n",
                  retrain_every, shadow ? ", shadow-gated cutover" : "");
    }
    if (!model_dir.empty()) {
      if (serving->recovered_from_store()) {
        std::printf("model store: resumed model version %llu from %s "
                    "(freshly trained model discarded)\n",
                    static_cast<unsigned long long>(serving->version()),
                    model_dir.c_str());
      } else {
        std::printf("model store: initialized %s with model version %llu\n",
                    model_dir.c_str(),
                    static_cast<unsigned long long>(serving->version()));
      }
    }
  }

  MetricsReporter reporter(metrics);
  HealthTicker health_ticker(health);
  if (health) {
    std::printf("health watchdog on: stock rule set, ~500 ms cadence\n");
  }

  if (threads <= 1) {
    // Sequential watch: alerts print the moment they fire.
    if (serving) options.scorer = serving->make_scorer();
    dm::core::OnlineDetector proxy(detector, options);
    std::printf("streaming %zu transactions through the proxy (sequential)...\n\n",
                stream.size());
    std::size_t streamed = 0;
    for (const auto& txn : stream) {
      if (const auto alert = proxy.observe(txn)) {
        print_alert(*alert, stream_start);
      }
      reporter.tick(++streamed, txn.request.ts_micros, stream_start);
    }
    print_summary(proxy.stats());
    if (serving) {
      serving->drain();
      print_model_panel(*serving);
    }
    health_ticker.finish();
    reporter.final_panel();
    write_trace(trace_dir);
    return 0;
  }

  // Sharded watch: dispatch by client onto `threads` shard workers, then
  // merge the per-shard alert streams back into time order.
  dm::runtime::ShardedOptions sharded;
  sharded.num_shards = threads;
  sharded.online = options;
  if (serving) {
    // One epoch-pinned scorer per shard: each worker refreshes onto a newly
    // published model at its own query boundary, never mid-score.
    sharded.scorer_factory = [&serving](std::size_t) {
      return serving->make_scorer();
    };
  }
  dm::runtime::ShardedOnlineEngine proxy(detector, sharded);
  std::printf("streaming %zu transactions through the proxy (%zu shards)...\n\n",
              stream.size(), proxy.num_shards());
  std::size_t streamed = 0;
  for (const auto& txn : stream) {
    proxy.observe(txn);
    reporter.tick(++streamed, txn.request.ts_micros, stream_start);
  }
  proxy.finish();
  for (const auto& alert : proxy.merged_alerts()) {
    print_alert(alert, stream_start);
  }
  print_summary(proxy.aggregated_stats());

  const auto runtime = proxy.runtime_stats();
  std::printf("\n--- runtime ---\n");
  std::printf("shards:                 %zu\n", proxy.num_shards());
  std::printf("dispatched batches:     %llu\n",
              static_cast<unsigned long long>(runtime.batches_dispatched));
  std::printf("queue high-water:       %zu batch(es)\n", runtime.queue_highwater);
  for (std::size_t s = 0; s < runtime.per_shard_transactions.size(); ++s) {
    std::printf("shard %zu:                %llu txns, %llu alert(s)\n", s,
                static_cast<unsigned long long>(runtime.per_shard_transactions[s]),
                static_cast<unsigned long long>(runtime.per_shard_alerts[s]));
  }
  if (serving) {
    serving->drain();
    print_model_panel(*serving);
  }
  health_ticker.finish();
  reporter.final_panel();
  write_trace(trace_dir);
  return 0;
}
