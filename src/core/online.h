// Stage 2: on-the-wire detection (§V-B).
//
// The engine sits on a live HTTP transaction stream (network edge or web
// proxy).  For each transaction it:
//   1. weeds out trusted-vendor traffic,
//   2. assigns the transaction to a session — by session ID when one is
//     present, otherwise by the referrer/timestamp clustering heuristic,
//   3. runs infection-clue inference: a redirect chain of length >= l
//      followed by a download of a risky payload type,
//   4. on a clue, "goes back in time": builds the potential-infection WCG
//      from the session's logged transaction facts, extracts features, and
//      queries the ERF classifier,
//   5. alerts and terminates the session if infectious; otherwise keeps
//      watching — every further transaction updates the WCG and re-queries
//      the classifier until the session ends or stops growing.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/wcg_builder.h"
#include "http/session.h"
#include "obs/flight_recorder.h"
#include "obs/pipeline.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "util/rate_limit.h"

namespace dm::core {

/// Classifier seam for the scoring hot path.  The engine's default is the
/// constructor-bound Detector; a serving layer (src/serve) installs an
/// implementation that scores through an RCU-pinned, hot-swappable model
/// instead.  Implementations must be deterministic in the WCG — identical
/// graphs must yield identical scores, the property every alert-identity
/// fence (sharded determinism, the reference-engine oracle, no-op swap)
/// rests on.
class WcgScorer {
 public:
  virtual ~WcgScorer() = default;
  /// Infection score in [0, 1] for a potential-infection WCG.  `cache` (may
  /// be null) memoizes graph-metric extraction exactly like
  /// Detector::score(wcg, cache).  The engine hands each query a fresh
  /// cache, so it saves work only when the scorer extracts the same WCG
  /// twice, as a serving scorer does for its shadow candidate.  Called from
  /// the owning detector's thread only; a sharded engine gives each shard
  /// its own scorer instance.
  virtual double score(const Wcg& wcg, FeatureCache* cache) = 0;
};

/// Hard cap on resident session state (0 = unbounded).  When either limit
/// is exceeded after an observe, least-recently-active sessions are evicted
/// until the engine is back under budget — deterministically: recency is
/// stream (transaction-timestamp) order, not wall-clock, so identical
/// streams evict identically, and because each shard of the sharded engine
/// sees a client-subset of the sequential stream, a trace whose per-shard
/// state fits the budget yields bit-identical alerts at any shard count.
/// The session currently being observed is never evicted out from under
/// its own transaction.
struct SessionBudget {
  /// Maximum resident sessions.
  std::size_t max_sessions = 0;
  /// Maximum resident session bytes (see OnlineDetector::
  /// session_bytes_pinned): what the sessions' storage allocates, summed
  /// from sizeof and capacity(), not an estimate.  On unscored, untraced
  /// sessions of one page or of two redirect hops it reads 0.998-0.999 of
  /// the allocator's growth (core_session_budget_test); it leaves out the
  /// engine's per-client session counters and the WCG a scored session's
  /// fold has built.
  std::size_t max_bytes = 0;
};

struct OnlineOptions {
  BuilderOptions builder;
  /// Redirect-chain threshold l for the infection clue (the paper's
  /// forensic case study used 3).
  std::uint32_t redirect_chain_threshold = 3;
  /// Transactions within this many seconds of a session's last activity can
  /// join it via the referrer/timestamp heuristic.
  double session_join_gap_s = 30.0;
  /// Sessions idle longer than this are considered terminated ("the WCG
  /// stops growing").
  double session_idle_timeout_s = 120.0;
  /// Decision threshold on the clue-scoped potential-infection WCG.  Set
  /// below the offline 0.5 because classification here is already gated by
  /// the infection clue (redirect chain + risky download), so the prior of
  /// the WCG under test is far from the corpus prior; the clue gate, not
  /// the threshold, carries the false-positive control (§V-B).
  double decision_threshold = 0.4;
  /// Resident session-state budget; see SessionBudget.
  SessionBudget budget;
  /// Fault-injection seam: invoked (when set) right before every classifier
  /// query, inside the engine's failure isolation.  An exception thrown here
  /// — or by feature extraction / the classifier itself — is recorded as a
  /// classifier_failure and the session keeps streaming; it never tears the
  /// engine down.  Tests use it to prove that property deterministically.
  std::function<void(const dm::http::HttpTransaction&)> classifier_fault_hook;
  /// Observability: registry receiving this engine's stage spans and the
  /// clue-to-verdict latency (null -> the process-wide obs::registry()),
  /// and the clock stamping those spans (null -> steady clock).  Tests
  /// inject both for deterministic, isolated latency assertions.
  dm::obs::MetricsRegistry* metrics = nullptr;
  dm::obs::ClockFn clock = nullptr;
  /// When set, classify_session queries this scorer instead of the
  /// constructor-bound detector, with a FeatureCache local to the query.
  /// Exceptions it throws are quarantined exactly like detector failures.
  std::shared_ptr<WcgScorer> scorer;
  /// Verdict tap: invoked after every *completed* classifier query with the
  /// scored WCG, its score, the hard decision at decision_threshold, and
  /// the trace timestamp of the triggering transaction (for time-window
  /// sampling).  This is where the serving layer streams verdict-labeled
  /// WCGs into its retraining reservoir.  Runs on the scoring thread —
  /// implementations must be cheap on the common path and thread-safe when
  /// the options are shared across shards.  Never invoked for failed
  /// (thrown) queries or skipped (unchanged-WCG) updates.
  std::function<void(const Wcg& wcg, double score, bool alert,
                     std::uint64_t ts_micros)>
      verdict_tap;
  /// Causal tracing (null -> the process-wide obs::trace_sink()).  When the
  /// sink is enabled, every observe() runs under a session-tagged
  /// TraceContext: head-sampled sessions stream spans into the sink,
  /// unsampled sessions buffer them in their flight ring and flush on alert.
  dm::obs::TraceSink* trace = nullptr;
  /// Flight recorder for forensic dumps on alert / quarantined failure /
  /// failure burst (null -> the process-wide obs::flight_recorder()).
  dm::obs::FlightRecorder* flight = nullptr;
};

struct Alert {
  std::uint64_t ts_micros = 0;
  std::string client;
  std::string session_key;
  double score = 0.0;
  std::string trigger_host;  // host serving the clue download
  dm::http::PayloadType trigger_payload = dm::http::PayloadType::kNone;
  std::size_t wcg_order = 0;
  std::size_t wcg_size = 0;
};

/// Counters for reporting (Table VI's per-host breakdown uses these).
/// Counted beside the registry's dm.detect.* counters, not read from them:
/// callers hold stats() by reference across observe() and want this
/// engine's totals, while registry counters are shared by every engine on a
/// registry and outlive each one (a view would need per-engine atomics).
struct OnlineStats {
  std::size_t transactions_seen = 0;
  std::size_t transactions_weeded = 0;
  std::size_t clues_fired = 0;
  std::size_t classifier_queries = 0;
  /// Classifier queries that threw instead of scoring; the query is
  /// quarantined (no alert, no state corruption) and the stream continues.
  std::size_t classifier_failures = 0;
  std::size_t alerts = 0;
  std::size_t sessions_opened = 0;
  /// Sessions erased because they ended: idle past the timeout or
  /// terminated by their alert (the pre-budget engine counted both here;
  /// kept aggregated for stats compatibility).
  std::size_t sessions_expired = 0;
  /// Sessions evicted by the SessionBudget (LRU-first, both causes); always
  /// zero when the budget is unbounded.
  std::size_t sessions_evicted = 0;
  // Hot-path diagnostics:
  /// Folds of a session's scope from the start of its log: the first when
  /// its clue fires, then one per later growth of suspicious_hosts (a host
  /// implicated retroactively may admit earlier transactions).
  std::size_t scope_rescans = 0;
  /// Classifier queries skipped because the scoped WCG was unchanged since
  /// the last completed evaluation (identical input -> identical verdict).
  std::size_t queries_skipped_unchanged = 0;

  /// Field-wise sum: the one place that lists every counter (the sharded
  /// engine aggregates its shards through it).
  OnlineStats& operator+=(const OnlineStats& other) noexcept;
  friend bool operator==(const OnlineStats&, const OnlineStats&) = default;
};

class OnlineDetector {
 public:
  OnlineDetector(Detector detector, OnlineOptions options = {});

  /// Shares one trained detector read-only (inference is const and
  /// state-free), so N engine instances — e.g. the shards of
  /// runtime::ShardedOnlineEngine — can query a single model copy.
  OnlineDetector(std::shared_ptr<const Detector> detector,
                 OnlineOptions options = {});

  /// Feeds one transaction; returns an alert if this update tipped a
  /// session over the decision threshold.  The engine keeps the
  /// transaction's facts (TxnFacts, derived once here), not the
  /// transaction: the argument, with its body, header lists and shell, is
  /// freed when observe() returns.  Until then it stays whole, and
  /// OnlineOptions::classifier_fault_hook is handed it.  Every call ends
  /// with expire_idle(the transaction's timestamp).
  ///
  /// The stream should be in time order, as every producer in this
  /// repository emits it.  Then each call leaves exactly the sessions a
  /// full scan at that timestamp would leave.  On out-of-order input a
  /// session never leaves early, and leaves late by at most how far the
  /// stream clock led the transaction that last touched it (see
  /// expire_idle).  While it lingers, joinable() keeps it out of grouping
  /// at timestamps past its timeout, but a later transaction stamped
  /// within the timeout of its last activity can still join it where a
  /// full scan would already have erased it and opened a new session.
  std::optional<Alert> observe(dm::http::HttpTransaction transaction);

  /// Expires idle sessions relative to `now_micros`: erases from the LRU
  /// head while the head is not joinable() at `now_micros`.  On a
  /// time-ordered stream recency order is last-activity order, so the walk
  /// stops at the first live session and erases exactly the sessions idle
  /// past the timeout, at O(log n) each; when nothing is due it is one idle
  /// test of the head.  A session touched by a transaction that lagged the
  /// stream clock by L sits behind sessions at most L newer than its last
  /// activity, so it can outlive its timeout by at most L.
  void expire_idle(std::uint64_t now_micros);

  const OnlineStats& stats() const noexcept { return stats_; }
  const std::vector<Alert>& alerts() const noexcept { return alerts_; }
  std::size_t active_sessions() const noexcept { return sessions_.size(); }
  /// Bytes pinned by resident session state — the quantity
  /// SessionBudget::max_bytes caps: each session's map node, its strings
  /// that outgrew the small-string buffer, its host-set nodes, the capacity
  /// of its log, each fact's heap strings, the scoped fold's state (once,
  /// when the clue allocates it) and the flight ring, derived from sizeof
  /// and capacity(), each allocation charged with malloc's chunk header and
  /// rounding.
  std::size_t session_bytes_pinned() const noexcept { return bytes_pinned_; }

 private:
  struct Session {
    /// The key of this session's map node ("client#n"), which holds the one
    /// copy; std::map nodes are address-stable.
    const std::string* key = nullptr;
    std::string client;
    /// The facts of every transaction of the session in stream order,
    /// minus the ones a WcgBuilder would weed (trusted vendor, no server
    /// host).  Facts only: observe() frees each transaction's body, headers
    /// and shell before it returns.
    std::vector<TxnFacts> log;
    std::set<std::string> hosts;            // hosts seen in this session
    std::optional<std::string> session_id;  // sticky once discovered
    std::uint64_t last_activity = 0;
    std::uint32_t current_redirect_run = 0;  // consecutive redirect hops
    std::uint32_t longest_redirect_run = 0;
    /// Hosts implicated by the clue: redirect-chain members, mined redirect
    /// targets, the triggering download host, and post-clue call-back
    /// candidates.  The potential-infection WCG (§V-B "goes back in time")
    /// is built from the session transactions touching these hosts, so a
    /// malicious flow is not diluted by co-resident benign traffic.  Grows
    /// only.
    std::set<std::string> suspicious_hosts;
    /// The clue download's position in `log`, set when the clue fires (a
    /// session has fired its clue iff `scoped` is set): log[0, clue) holds
    /// the facts logged before it, and log[clue] is the download an alert
    /// names.  A clue download with no server host is not logged, so its
    /// position is the log's size at the clue (DESIGN.md §15).
    std::size_t clue = 0;
    /// Clock stamp of the moment the clue fired, zeroed once the headline
    /// clue-to-verdict latency is recorded (once per clue-bearing WCG, at
    /// the first *completed* ERF verdict).
    std::uint64_t clue_fired_ns = 0;

    // --- Scoring state ---------------------------------------------------
    /// The potential-infection WCG: a fold of `log`, the session's one
    /// record of its transactions, through suspicious_hosts.  Allocated
    /// when the clue fires — most sessions never fire one — and driven by
    /// classify_session; it refolds in place when suspicious_hosts has
    /// grown since its last update.
    std::unique_ptr<WcgFold> scoped;
    /// Whether the scoped WCG as of its last update has a completed
    /// evaluation: classify_session skips the query while the fold has
    /// nothing new.  A failed (throwing) query clears it so faults are
    /// retried on the next update, preserving the quarantine semantics of
    /// the fault harness.
    bool scope_eval_valid = false;

    // --- Causal tracing (populated lazily while the sink is enabled) -----
    /// fnv1a(key): the session tag on every trace event (0 = not yet set).
    std::uint64_t trace_session = 0;
    /// Head-sampling decision, made once per session on fnv1a(client) — the
    /// shard-selection idiom — so a sampled session's tree is complete.
    bool trace_sampled = false;
    /// Flight ring of recent events (obs/flight_recorder.h); single-writer
    /// (the owning shard), lazily allocated on the first traced observe.
    std::unique_ptr<dm::obs::SessionRing> flight_ring;
    /// Consecutive quarantined classifier queries (reset on a completed
    /// one); hitting the burst threshold triggers a kQuarantineBurst dump.
    std::uint32_t failure_run = 0;

    // --- Budgeted-lifecycle state (DESIGN.md §15) ------------------------
    /// Bytes this session's storage allocates (see session_bytes_pinned):
    /// grown as it allocates, released in full when it is erased.
    std::size_t approx_bytes = 0;
    /// Intrusive LRU list by stream recency (std::map nodes are
    /// address-stable).  Head = least recently active = first evicted by
    /// the budget and first to idle out (expire_idle).
    Session* lru_prev = nullptr;
    Session* lru_next = nullptr;
  };

  /// Why a session left the map; each cause has its own dm.session.* counter.
  enum class EvictCause { kIdle, kAlerted, kBudgetSessions, kBudgetBytes };

  Session& find_or_create_session(const dm::http::HttpTransaction& txn,
                                  const std::optional<std::string>& sid);
  /// Scores the session after `txn`'s update.  `arriving` is observe()'s
  /// argument, read only by the classifier fault hook.
  std::optional<Alert> classify_session(
      Session& session, const TxnFacts& txn,
      const dm::http::HttpTransaction& arriving);

  /// True when `session` may still be joined at time `ts_micros`: sessions
  /// idle past the timeout are dead even if not yet garbage-collected.
  /// Keeping this a pure function of (transaction, session) makes grouping
  /// on a time-ordered stream independent of when expire_idle happens to
  /// run — the property the sharded runtime's determinism guarantee rests
  /// on.  It is also expire_idle's test: a session leaves the map once it
  /// can no longer be joined.
  bool joinable(const Session& session, std::uint64_t ts_micros) const noexcept;

  // --- Budgeted session lifecycle (DESIGN.md §15) ------------------------
  /// Unlinks + erases one session, charging the right eviction counter and
  /// releasing its pinned bytes.  The only way sessions leave the map.
  void erase_session(std::map<std::string, Session>::iterator it,
                     EvictCause cause);
  /// Evicts LRU-first until both budget limits hold again.  Never evicts
  /// the most-recently-touched session (the one being observed).
  void enforce_budget();
  void lru_touch(Session& session) noexcept;
  void lru_unlink(Session& session) noexcept;
  void pin_bytes(Session& session, std::size_t bytes) noexcept;
  /// Inserts `host` into one of `session`'s host sets, charging a new node.
  void insert_host(Session& session, std::set<std::string>& hosts,
                   const std::string& host);

  /// options.scorer, or the bound Detector when none is installed;
  /// classify_session's single scoring call.
  std::shared_ptr<WcgScorer> scorer_;
  OnlineOptions options_;
  dm::obs::StageTimer timer_;      // options_.clock or the steady clock
  dm::obs::PipelineMetrics obs_;   // handles into options_.metrics or global
  dm::obs::TraceSink* trace_;      // options_.trace or the process-wide sink
  dm::obs::FlightRecorder* flight_;  // options_.flight or process-wide
  /// Rate limit for quarantined-classifier warnings.  Per instance — a
  /// process-wide (function-local static) gate would let one noisy shard
  /// consume the log budget of every other detector.  Makes the class
  /// non-movable, which is fine: shards construct their detector in place.
  dm::util::EveryN classifier_failure_gate_{128};
  std::map<std::string, Session> sessions_;  // key -> state
  OnlineStats stats_;
  std::vector<Alert> alerts_;
  dm::obs::SessionMetrics sess_obs_;  // dm.session.* panel handles
  /// Intrusive LRU list endpoints (see Session::lru_prev/lru_next).
  Session* lru_head_ = nullptr;
  Session* lru_tail_ = nullptr;
  std::size_t bytes_pinned_ = 0;
  /// Next session ordinal per client.  Keys are "client#n" with a
  /// per-client counter so they are reproducible for any partition of the
  /// stream by client (a global counter would depend on arrival interleaving
  /// across clients).  Grows with the number of distinct clients seen.
  std::map<std::string, std::uint64_t> next_session_seq_;
};

}  // namespace dm::core
