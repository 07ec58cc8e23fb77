#include "core/online.h"

#include <algorithm>

#include <cmath>
#include <cstddef>
#include <span>

#include "http/classify.h"
#include "http/redirect_miner.h"
#include "util/hash.h"
#include "util/rate_limit.h"
#include "util/strings.h"

namespace dm::core {
namespace {

using dm::http::HttpTransaction;

/// Host named by the transaction's referrer, if any.
std::string referrer_host_of(const HttpTransaction& txn) {
  if (const auto ref = txn.request.referrer()) {
    return dm::http::host_of_url(*ref);
  }
  return {};
}

/// The same reading of a logged transaction's referrer.
std::string referrer_host_of(const TxnFacts& txn) {
  return txn.has_referrer ? dm::http::host_of_url(txn.referrer) : std::string();
}

/// Consecutive quarantined queries in one session before the failure is
/// treated as a burst (a stronger forensic signal than one-off faults).
constexpr std::uint32_t kQuarantineBurstRun = 3;

/// Scores travel in trace events as integer microunits.
std::uint64_t score_microunits(double score) noexcept {
  return static_cast<std::uint64_t>(std::llround(score * 1e6));
}

// --- Byte accounting: what session storage allocates, from sizeof and
// capacity().  Each allocation is charged the chunk malloc reserves for it;
// a footprint inside its owner (a fact's slot in a vector, a string's
// small-string buffer) is charged with the owner.

/// The chunk malloc reserves for an `n`-byte request: a size word of header,
/// rounded up to malloc's alignment, and never less than four words
/// (glibc's layout).  Sessions make many small allocations, so this
/// overhead is about a fifth of a redirect-chain session's storage.
constexpr std::size_t chunk_bytes(std::size_t n) noexcept {
  constexpr std::size_t word = sizeof(std::size_t);
  constexpr std::size_t align = alignof(std::max_align_t);
  return std::max(4 * word, (n + word + align - 1) / align * align);
}

/// A vector's buffer of `capacity` slots: none until it reserves one.
template <typename T>
constexpr std::size_t buffer_bytes(std::size_t capacity) noexcept {
  return capacity == 0 ? 0 : chunk_bytes(capacity * sizeof(T));
}

/// Heap bytes `s` owns: its buffer and terminator once it outgrew the
/// small-string buffer, else none.
std::size_t heap_bytes(const std::string& s) noexcept {
  return s.capacity() > std::string().capacity() ? chunk_bytes(s.capacity() + 1)
                                                 : 0;
}

/// Heap bytes a fact owns beyond its own slot.
std::size_t heap_bytes(const TxnFacts& facts) noexcept {
  std::size_t total =
      heap_bytes(facts.server_host) + heap_bytes(facts.server_ip) +
      heap_bytes(facts.method) + heap_bytes(facts.uri) +
      heap_bytes(facts.referrer) + heap_bytes(facts.x_flash_version) +
      buffer_bytes<std::string>(facts.redirect_targets.capacity());
  for (const auto& host : facts.redirect_targets) total += heap_bytes(host);
  return total;
}

/// One std::set/std::map node holding a `Value`: the value plus the
/// red-black links (parent, left, right) and the colour word.
template <typename Value>
constexpr std::size_t tree_node_bytes() noexcept {
  return chunk_bytes(sizeof(Value) + 4 * sizeof(void*));
}

/// The engine's scorer when none is installed: the bound Detector, which
/// stamps its model version into the ambient trace context.
class DetectorScorer final : public WcgScorer {
 public:
  explicit DetectorScorer(std::shared_ptr<const Detector> detector)
      : detector_(std::move(detector)) {}

  double score(const Wcg& wcg, FeatureCache* cache) override {
    dm::obs::trace_set_model_version(
        static_cast<std::uint32_t>(detector_->forest().model_version()));
    return detector_->score(wcg, cache);
  }

 private:
  std::shared_ptr<const Detector> detector_;
};

}  // namespace

OnlineStats& OnlineStats::operator+=(const OnlineStats& other) noexcept {
  // A new counter must be summed here too.
  static_assert(sizeof(OnlineStats) == 11 * sizeof(std::size_t));
  transactions_seen += other.transactions_seen;
  transactions_weeded += other.transactions_weeded;
  clues_fired += other.clues_fired;
  classifier_queries += other.classifier_queries;
  classifier_failures += other.classifier_failures;
  alerts += other.alerts;
  sessions_opened += other.sessions_opened;
  sessions_expired += other.sessions_expired;
  sessions_evicted += other.sessions_evicted;
  scope_rescans += other.scope_rescans;
  queries_skipped_unchanged += other.queries_skipped_unchanged;
  return *this;
}

OnlineDetector::OnlineDetector(Detector detector, OnlineOptions options)
    : OnlineDetector(std::make_shared<const Detector>(std::move(detector)),
                     std::move(options)) {}

OnlineDetector::OnlineDetector(std::shared_ptr<const Detector> detector,
                               OnlineOptions options)
    : scorer_(options.scorer != nullptr
                  ? options.scorer
                  : std::make_shared<DetectorScorer>(std::move(detector))),
      options_(std::move(options)),
      timer_(options_.clock),
      obs_(options_.metrics != nullptr
               ? dm::obs::PipelineMetrics::of(*options_.metrics)
               : dm::obs::pipeline_metrics()),
      trace_(options_.trace != nullptr ? options_.trace
                                       : &dm::obs::trace_sink()),
      flight_(options_.flight != nullptr ? options_.flight
                                         : &dm::obs::flight_recorder()),
      sess_obs_(options_.metrics != nullptr
                    ? dm::obs::SessionMetrics::of(*options_.metrics)
                    : dm::obs::session_metrics()) {}

bool OnlineDetector::joinable(const Session& session,
                              std::uint64_t ts_micros) const noexcept {
  if (ts_micros < session.last_activity) return true;  // clock skew: keep
  const double idle_s =
      static_cast<double>(ts_micros - session.last_activity) / 1e6;
  return idle_s <= options_.session_idle_timeout_s;
}

OnlineDetector::Session& OnlineDetector::find_or_create_session(
    const HttpTransaction& txn, const std::optional<std::string>& sid) {
  // Both grouping rules only ever join a transaction to a session of the
  // SAME client, and session keys are exactly "client#seq" (client hosts
  // never contain '#'), so one client's sessions occupy a contiguous key
  // range of the ordered map.  Scanning just that range visits the same
  // candidates in the same (lexicographic-key) order a walk of the whole map
  // would, so a lookup costs O(log n + this client's sessions).
  const std::string prefix = txn.client_host + "#";
  const auto range_begin = sessions_.lower_bound(prefix);
  const auto in_range = [&](const std::map<std::string, Session>::iterator& it) {
    return it != sessions_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;
  };

  // 1. Session-ID match (the primary grouping rule, §V-B).  A session idle
  //    past the timeout is terminated — "the WCG stops growing" — so even a
  //    matching id opens a fresh session rather than resurrecting it.
  if (sid) {
    for (auto it = range_begin; in_range(it); ++it) {
      Session& session = it->second;
      if (session.session_id == sid &&
          joinable(session, txn.request.ts_micros)) {
        return session;
      }
    }
  }
  // 2. Referrer/timestamp heuristic: join the most recent session of this
  //    client that already involves the server or referrer host and whose
  //    last activity is within the join gap.
  const std::string ref_host = referrer_host_of(txn);
  Session* best = nullptr;
  for (auto it = range_begin; in_range(it); ++it) {
    Session& session = it->second;
    if (!joinable(session, txn.request.ts_micros)) continue;
    const double gap_s =
        static_cast<double>(txn.request.ts_micros - session.last_activity) / 1e6;
    if (txn.request.ts_micros < session.last_activity ||
        gap_s <= options_.session_join_gap_s) {
      const bool host_link =
          session.hosts.count(txn.server_host) > 0 ||
          (!ref_host.empty() && session.hosts.count(ref_host) > 0);
      if (host_link && (!best || session.last_activity > best->last_activity)) {
        best = &session;
      }
    }
  }
  if (best) return *best;

  // 3. New session.  The map node holds its key; the session points at it.
  const std::string key =
      txn.client_host + "#" + std::to_string(next_session_seq_[txn.client_host]++);
  ++stats_.sessions_opened;
  sess_obs_.resident.add(1);
  const auto it = sessions_.try_emplace(key).first;
  Session& created = it->second;
  created.key = &it->first;
  created.client = txn.client_host;
  // The map node, its key and the session's client string.
  pin_bytes(created, tree_node_bytes<std::pair<const std::string, Session>>() +
                         heap_bytes(it->first) + heap_bytes(created.client));
  return created;
}

std::optional<Alert> OnlineDetector::observe(HttpTransaction arriving) {
  ++stats_.transactions_seen;
  obs_.detect_observed.add(1);
  // RAII: records the whole observe() path on every return below.
  auto observe_span = timer_.span(obs_.stage_observe_ns);
  const std::uint64_t now = arriving.request.ts_micros;

  if (options_.builder.trusted.is_trusted(arriving.server_host)) {
    ++stats_.transactions_weeded;
    return std::nullopt;
  }

  const auto sid = dm::http::extract_session_id(arriving);
  Session& session = find_or_create_session(arriving, sid);
  lru_touch(session);  // most recently active; last in eviction order

  // The engine keeps the transaction's facts, derived once here, and reads
  // them for the rest of this call.  The argument stays whole for the
  // classifier fault hook and is freed, with its body, header lists and
  // shell, when observe() returns.  The session log takes the facts by move.
  // A transaction without a server host (one a WcgBuilder would weed) is not
  // logged.
  TxnFacts arriving_facts = derive_facts(arriving, options_.builder.miner);
  const bool logged = !arriving_facts.server_host.empty();
  if (logged) {
    const std::size_t slots = session.log.capacity();
    session.log.push_back(std::move(arriving_facts));
    pin_bytes(session, buffer_bytes<TxnFacts>(session.log.capacity()) -
                           buffer_bytes<TxnFacts>(slots) +
                           heap_bytes(session.log.back()));
  }
  const TxnFacts& txn = logged ? session.log.back() : arriving_facts;

  // --- Causal tracing: install the session-tagged ambient context --------
  // The guard and span are torn down explicitly *before* expire_idle(),
  // which may erase this very session (and with it the flight ring the
  // context points into).
  const bool tracing = trace_->enabled();
  dm::obs::TraceContext tctx;
  std::optional<dm::obs::TraceContextGuard> tguard;
  std::optional<dm::obs::ScopedTraceSpan> tspan;
  if (tracing) {
    if (session.trace_session == 0) {
      session.trace_session = dm::util::fnv1a(*session.key);
      session.trace_sampled = trace_->sampled(dm::util::fnv1a(session.client));
    }
    if (session.flight_ring == nullptr) {
      session.flight_ring =
          std::make_unique<dm::obs::SessionRing>(flight_->ring_capacity());
      pin_bytes(session,
                chunk_bytes(sizeof(dm::obs::SessionRing)) +
                    buffer_bytes<dm::obs::TraceEvent>(
                        session.flight_ring->capacity()));
    }
    tctx.sink = trace_;
    tctx.ring = session.flight_ring.get();
    tctx.session = session.trace_session;
    tctx.to_sink = session.trace_sampled;
    tctx.clock = timer_.clock_fn();
    // Chain under an enclosing unit of work (the shard worker's batch span).
    if (const auto* outer = dm::obs::current_trace_context()) {
      tctx.parent = outer->parent;
    }
    tguard.emplace(&tctx);
    tspan.emplace(dm::obs::TraceOp::kObserve);
  }

  if (!session.session_id && sid) {
    session.session_id = sid;
    pin_bytes(session, heap_bytes(*session.session_id));
  }
  insert_host(session, session.hosts, txn.server_host);
  const std::string ref_host = referrer_host_of(txn);
  if (!ref_host.empty()) insert_host(session, session.hosts, ref_host);
  session.last_activity = std::max(session.last_activity, now);

  // --- Redirect-run tracking for clue inference --------------------------
  // A 30x answer, or a response with mined redirect evidence.
  const bool is_redirect_hop =
      txn.has_response && ((txn.status >= 300 && txn.status < 400) ||
                           !txn.redirect_targets.empty());

  std::optional<Alert> alert;
  const bool risky_download = dm::http::is_download_type(txn.payload) &&
                              txn.has_response && txn.status == 200;

  if (is_redirect_hop) {
    ++session.current_redirect_run;
    session.longest_redirect_run =
        std::max(session.longest_redirect_run, session.current_redirect_run);
    // Chain members and their targets are implicated hosts.
    insert_host(session, session.suspicious_hosts, txn.server_host);
    for (const auto& target : txn.redirect_targets) {
      insert_host(session, session.suspicious_hosts, target);
    }
  } else {
    // Clue check happens on the first non-redirect after a chain.
    if (risky_download &&
        session.longest_redirect_run >= options_.redirect_chain_threshold) {
      insert_host(session, session.suspicious_hosts, txn.server_host);
      if (session.scoped == nullptr) {
        session.clue = session.log.size() - (logged ? 1 : 0);
        // Going back in time (§V-B) starts here: the first verdict below
        // folds the log from its first fact.  The fold's state is charged
        // once; the WCG it builds is not (see session_bytes_pinned).
        session.scoped = std::make_unique<WcgFold>();
        pin_bytes(session, chunk_bytes(sizeof(WcgFold)));
        ++stats_.clues_fired;
        obs_.detect_clues.add(1);
        dm::obs::trace_instant(dm::obs::TraceOp::kClue,
                               session.longest_redirect_run);
        // Clue-to-verdict starts now; recorded at the first completed score.
        if (dm::obs::enabled()) session.clue_fired_ns = timer_.now();
      }
    }
    session.current_redirect_run = 0;
  }

  if (session.scoped != nullptr) {
    // Post-clue expansion: requests referred from an implicated host join
    // the potential-infection WCG, as do call-back candidates — POSTs to
    // hosts never seen before the clue (§II-D's never-seen C&C endpoints).
    if (!ref_host.empty() && session.suspicious_hosts.count(ref_host)) {
      insert_host(session, session.suspicious_hosts, txn.server_host);
    }
    // A host was seen before the clue iff a fact logged before it,
    // log[0, clue), names it; the clue download's own host is implicated
    // already.  Implicated hosts skip the scan, so a call-back host is
    // scanned for once.
    if (txn.method == "POST" &&
        !session.suspicious_hosts.contains(txn.server_host)) {
      const auto before_clue = std::span(session.log).first(session.clue);
      if (std::none_of(before_clue.begin(), before_clue.end(),
                       [&](const TxnFacts& seen) {
                         return seen.server_host == txn.server_host;
                       })) {
        insert_host(session, session.suspicious_hosts, txn.server_host);
      }
    }
  }

  // --- Classification -----------------------------------------------------
  // Once a clue has fired, every update re-extracts features and queries
  // the classifier (§V-B "each update ... triggers feature extraction and
  // invoking of the ERF classifier").
  const std::size_t queries_before = stats_.classifier_queries;
  const std::size_t failures_before = stats_.classifier_failures;
  if (session.scoped != nullptr) {
    alert = classify_session(session, txn, arriving);
  }

  if (tracing) {
    const bool failed = stats_.classifier_failures > failures_before;
    const bool completed =
        stats_.classifier_queries > queries_before && !failed;
    if (alert) {
      dm::obs::trace_instant(dm::obs::TraceOp::kAlert,
                             score_microunits(alert->score));
    }
    if (failed) {
      ++session.failure_run;
      dm::obs::trace_instant(dm::obs::TraceOp::kClassifierFailure,
                             session.failure_run);
      if (session.failure_run == kQuarantineBurstRun) {
        dm::obs::trace_instant(dm::obs::TraceOp::kQuarantineBurst,
                               session.failure_run);
      }
    } else if (completed) {
      session.failure_run = 0;
    }
    // End the observe span and pop the context while the flight ring is
    // still alive, so the end event lands in the ring before any flush.
    tspan.reset();
    tguard.reset();
    // Always-sample-on-alert: a session whose head-sampling decision was
    // "skip" replays its ring into the sink when it alerts — the capture
    // holds every alert's causal tree exactly once (sampled sessions
    // already streamed theirs live).
    if (alert && !session.trace_sampled) {
      dm::obs::flush_session_ring(*trace_, *session.flight_ring);
    }
    // Forensic dumps (rate-gated inside the recorder, on trace time).
    if (alert) {
      flight_->dump(dm::obs::DumpTrigger::kAlert, session.trace_session,
                    *session.key, session.flight_ring->events(), now);
    } else if (failed) {
      flight_->dump(session.failure_run >= kQuarantineBurstRun
                        ? dm::obs::DumpTrigger::kQuarantineBurst
                        : dm::obs::DumpTrigger::kClassifierFailure,
                    session.trace_session, *session.key,
                    session.flight_ring->events(), now);
    }
  }
  // --- Session maintenance, off the hot path -----------------------------
  // The observe span records *here*: expiry and budget eviction run after
  // it, timed in dm.session.expiry_ns instead, so per-transaction verdict
  // latency never includes garbage collection (obs_timer_test fence).
  observe_span.stop();
  if (alert) {
    // Paper: the corresponding session is terminated — erased here, not
    // left to idle out.
    erase_session(sessions_.find(*session.key), EvictCause::kAlerted);
    // `session` is dangling from here on.
  }
  // One idle test of the LRU head when nothing is due, however far the
  // clock jumped.
  expire_idle(now);
  enforce_budget();
  return alert;
}

std::optional<Alert> OnlineDetector::classify_session(
    Session& session, const TxnFacts& txn, const HttpTransaction& arriving) {
  auto verdict_span = timer_.span(obs_.stage_verdict_ns);
  dm::obs::ScopedTraceSpan verdict_tspan(dm::obs::TraceOp::kVerdict);

  // Short-circuit: the scoped WCG is a pure function of the facts in
  // scope, so if none joined and the scope did not grow since the last
  // completed evaluation the verdict cannot change — and a changed verdict
  // below threshold is the only way this path continues (at or above it
  // the session was terminated).  Skipping is therefore alert-equivalent
  // to re-scoring.  Failed queries clear scope_eval_valid, so a faulting
  // classifier is retried on every update, never silently skipped.
  WcgFold& scoped = *session.scoped;
  if (session.scope_eval_valid &&
      !scoped.needs_update(session.log, &session.suspicious_hosts)) {
    ++stats_.queries_skipped_unchanged;
    verdict_span.cancel();
    return std::nullopt;
  }

  auto wcg_span = timer_.span(obs_.stage_wcg_build_ns);
  dm::obs::ScopedTraceSpan wcg_tspan(dm::obs::TraceOp::kWcgBuild);
  const std::uint64_t scope_refolds = scoped.scope_refolds();
  const Wcg& wcg = scoped.update(options_.builder, session.log, session.client,
                                 &session.suspicious_hosts);
  stats_.scope_rescans += scoped.scope_refolds() - scope_refolds;
  wcg_tspan.set_arg(wcg.node_count());
  wcg_tspan.end();
  wcg_span.stop();

  if (wcg.node_count() < 2) {
    session.scope_eval_valid = true;  // deterministic outcome: no query
    verdict_span.cancel();  // nothing was classified
    return std::nullopt;
  }
  ++stats_.classifier_queries;
  // Failure isolation: a throwing classifier (or injected fault) quarantines
  // this one query — the session stays live and is re-scored on its next
  // update, so a transient failure costs one data point, not the stream.
  double score = 0.0;
  try {
    if (options_.classifier_fault_hook) options_.classifier_fault_hook(arriving);
    // A memo per query, not per session: every query follows a fold that
    // raised the WCG's topology version (each folded fact adds an edge), so
    // a session's memo could hit only on the retry of a failed query.
    // Within one query, a serving scorer's shadow candidate reuses it.
    FeatureCache cache;
    score = scorer_->score(wcg, &cache);
  } catch (const std::exception& e) {
    ++stats_.classifier_failures;
    session.scope_eval_valid = false;  // retry on the next update
    dm::util::log_every_n(classifier_failure_gate_, dm::util::LogLevel::kWarn,
                          "online: classifier failure quarantined: ", e.what());
    return std::nullopt;
  } catch (...) {
    ++stats_.classifier_failures;
    session.scope_eval_valid = false;  // retry on the next update
    dm::util::log_every_n(classifier_failure_gate_, dm::util::LogLevel::kWarn,
                          "online: classifier failure quarantined");
    return std::nullopt;
  }
  session.scope_eval_valid = true;
  obs_.detect_verdicts.add(1);
  dm::obs::trace_instant(dm::obs::TraceOp::kVerdictScore,
                         score_microunits(score));
  // Headline metric: clue fired -> first completed ERF verdict, once per
  // clue-bearing WCG ("operates as traffic flows", §V).
  if (session.clue_fired_ns != 0) {
    const std::uint64_t now_ns = timer_.now();
    obs_.detect_clue_to_verdict_ns.record(
        now_ns >= session.clue_fired_ns ? now_ns - session.clue_fired_ns : 0);
    session.clue_fired_ns = 0;  // recorded
  }
  // Feed the serving layer's retraining loop: every completed verdict is an
  // observation of (WCG, label-as-classified).
  const bool infection = score >= options_.decision_threshold;
  if (options_.verdict_tap) {
    options_.verdict_tap(wcg, score, infection, txn.request_ts);
  }
  if (!infection) return std::nullopt;

  Alert alert;
  alert.ts_micros = txn.request_ts;
  alert.client = session.client;
  alert.session_key = *session.key;
  alert.score = score;
  // Attribute the alert to the clue download (the paper reports alerts as
  // issued "right after a download of" the offending payload), not to
  // whichever later update crossed the threshold.
  const TxnFacts& clue =
      session.clue < session.log.size() ? session.log[session.clue] : txn;
  alert.trigger_host = clue.server_host;
  alert.trigger_payload = clue.payload;
  alert.wcg_order = wcg.node_count();
  alert.wcg_size = wcg.edge_count();
  ++stats_.alerts;
  obs_.detect_alerts.add(1);
  alerts_.push_back(alert);
  return alert;
}

void OnlineDetector::expire_idle(std::uint64_t now_micros) {
  // The grouping rule is the expiry rule: a session leaves once it can no
  // longer be joined.  The head is the least recently touched session, on a
  // time-ordered stream the one with the oldest activity, so a joinable
  // head means nothing is due.
  const auto head_due = [&] {
    return lru_head_ != nullptr && !joinable(*lru_head_, now_micros);
  };
  if (!head_due()) return;
  // Timed in dm.session.expiry_ns — by design NOT part of the observe span
  // (obs_timer_test asserts verdict latency excludes this sweep).
  auto sweep_span = timer_.span(sess_obs_.expiry_ns);
  while (head_due()) {
    erase_session(sessions_.find(*lru_head_->key), EvictCause::kIdle);
  }
  sweep_span.stop();
}

void OnlineDetector::erase_session(
    std::map<std::string, Session>::iterator it, EvictCause cause) {
  Session& session = it->second;
  lru_unlink(session);
  bytes_pinned_ -= session.approx_bytes;
  sess_obs_.bytes_pinned.add(-static_cast<std::int64_t>(session.approx_bytes));
  sess_obs_.resident.add(-1);
  switch (cause) {
    case EvictCause::kIdle:
      ++stats_.sessions_expired;
      sess_obs_.evicted_idle.add(1);
      break;
    case EvictCause::kAlerted:
      // Aggregated into sessions_expired for compatibility with the
      // pre-budget engine, which counted alerted erasures there.
      ++stats_.sessions_expired;
      sess_obs_.evicted_alerted.add(1);
      break;
    case EvictCause::kBudgetSessions:
      ++stats_.sessions_evicted;
      sess_obs_.evicted_budget_sessions.add(1);
      break;
    case EvictCause::kBudgetBytes:
      ++stats_.sessions_evicted;
      sess_obs_.evicted_budget_bytes.add(1);
      break;
  }
  sessions_.erase(it);
}

void OnlineDetector::enforce_budget() {
  const SessionBudget& budget = options_.budget;
  const bool over_sessions =
      budget.max_sessions != 0 && sessions_.size() > budget.max_sessions;
  const bool over_bytes =
      budget.max_bytes != 0 && bytes_pinned_ > budget.max_bytes;
  if (!over_sessions && !over_bytes) return;  // steady state: two compares
  auto sweep_span = timer_.span(sess_obs_.expiry_ns);
  // LRU-first, never the tail (the session the current transaction just
  // touched).  Recency is stream order, so eviction — and therefore every
  // downstream alert — is a deterministic function of the trace.
  if (budget.max_sessions != 0) {
    while (sessions_.size() > budget.max_sessions && lru_head_ != nullptr &&
           lru_head_ != lru_tail_) {
      erase_session(sessions_.find(*lru_head_->key),
                    EvictCause::kBudgetSessions);
    }
  }
  if (budget.max_bytes != 0) {
    while (bytes_pinned_ > budget.max_bytes && lru_head_ != nullptr &&
           lru_head_ != lru_tail_) {
      erase_session(sessions_.find(*lru_head_->key), EvictCause::kBudgetBytes);
    }
  }
  sweep_span.stop();
}

void OnlineDetector::lru_unlink(Session& session) noexcept {
  if (session.lru_prev != nullptr) {
    session.lru_prev->lru_next = session.lru_next;
  } else if (lru_head_ == &session) {
    lru_head_ = session.lru_next;
  }
  if (session.lru_next != nullptr) {
    session.lru_next->lru_prev = session.lru_prev;
  } else if (lru_tail_ == &session) {
    lru_tail_ = session.lru_prev;
  }
  session.lru_prev = nullptr;
  session.lru_next = nullptr;
}

void OnlineDetector::lru_touch(Session& session) noexcept {
  if (lru_tail_ == &session) return;
  lru_unlink(session);
  session.lru_prev = lru_tail_;
  if (lru_tail_ != nullptr) {
    lru_tail_->lru_next = &session;
  } else {
    lru_head_ = &session;
  }
  lru_tail_ = &session;
}

void OnlineDetector::pin_bytes(Session& session, std::size_t bytes) noexcept {
  session.approx_bytes += bytes;
  bytes_pinned_ += bytes;
  sess_obs_.bytes_pinned.add(static_cast<std::int64_t>(bytes));
}

void OnlineDetector::insert_host(Session& session,
                                 std::set<std::string>& hosts,
                                 const std::string& host) {
  const auto [it, inserted] = hosts.insert(host);
  if (inserted) {
    pin_bytes(session, tree_node_bytes<std::string>() + heap_bytes(*it));
  }
}

}  // namespace dm::core
