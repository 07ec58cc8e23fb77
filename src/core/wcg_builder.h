// WCG construction from a time-ordered HTTP transaction stream (§III-B).
//
// The builder folds each transaction's facts (TxnFacts below), not the
// transaction itself: the payload-agnostic attributes §III annotates the
// WCG with, derived once by derive_facts().  It:
//  * weeds out transactions to trusted software vendors (§V-B noise rule),
//  * adds the synthetic origin node from the first transaction's referrer
//    ("empty" when the referrer was stripped),
//  * creates request/response edges between the victim and each host,
//  * infers redirect edges from Location headers, Referer chaining under a
//    short-delay rule (automatic redirects are fast; human clicks are slow),
//    and the obfuscated-JS/meta/iframe miner (§III-D) — the mined target
//    hosts are part of the facts, so a body is mined once, not per fold,
//  * assigns each edge a conversation stage — pre-download / download /
//    post-download — using the paper's §III-C heuristics, and
//  * fills the graph-level annotations that the 37 features consume.
//
// Two evaluation modes share one fold engine (see wcg_builder.cpp):
//
//  * build() — the from-scratch reference: materializes a fresh WCG from
//    every transaction added so far.  Pure, repeatable, O(n) per call.
//  * current() — the incremental hot path: maintains a persistent WCG and
//    folds only the transactions added since the previous call.  A small
//    set of retroactive events (a new exploit download re-staging earlier
//    edges, the origin node being invalidated by a new conversation host)
//    trigger a transparent full re-fold, so current() is always
//    bit-identical to build() — the property the on-the-wire engine's
//    incremental-vs-rebuild determinism guarantee rests on.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/wcg.h"
#include "core/whitelist.h"
#include "http/classify.h"
#include "http/message.h"
#include "http/redirect_miner.h"

namespace dm::core {

struct BuilderOptions {
  /// Trusted-vendor weed-out list; use TrustedVendors::none() to disable.
  TrustedVendors trusted = TrustedVendors::default_list();
  /// Optional heuristic: treat a Referer-chain transition faster than the
  /// delay below as an automatic redirect even without explicit evidence.
  /// Off by default — sub-resource fetches (page -> CDN) also follow their
  /// referrer within milliseconds, so the bare timing rule manufactures
  /// redirect structure in benign graphs; explicit evidence (Location,
  /// meta-refresh, iframe, mined JavaScript) is the reliable signal.
  /// Enabling it also disables incremental folding (the rule makes early
  /// edges depend on hosts seen later), so current() degrades to a full
  /// re-fold per call.
  bool referrer_timing_redirects = false;
  double referrer_redirect_max_delay_s = 2.0;
  dm::http::RedirectMinerOptions miner;
};

/// What the fold, clue inference and the online engine's scope filter read
/// of one transaction — and all the engine keeps of it.  Headers and bodies
/// are not kept: the payload type, body length and mined redirect targets
/// stand in for them.  Nor is the client host: a builder (and an online
/// session) holds its victim once.
struct TxnFacts {
  // Request side.
  std::string server_host;
  std::string server_ip;
  std::string method;
  std::string uri;
  /// Raw Referer value; both referrer-host readings (the builder's, which
  /// accepts a bare hostname, and the engine's absolute-URL one) derive
  /// from it.  Empty when has_referrer is false.
  std::string referrer;
  std::string x_flash_version;  // empty unless has_x_flash_version
  std::uint64_t request_ts = 0;
  // Response side: zero / kNone / empty without a response.
  std::uint64_t response_ts = 0;
  std::uint64_t body_bytes = 0;
  /// Target host of each piece of redirect evidence mine_redirects found,
  /// in its order, duplicates kept (each one is a redirect edge).
  std::vector<std::string> redirect_targets;
  int status = 0;
  dm::http::PayloadType payload = dm::http::PayloadType::kNone;
  bool has_response = false;
  bool has_referrer = false;
  bool do_not_track = false;  // first DNT header is "1"
  bool has_x_flash_version = false;
};

/// Derives one transaction's facts: classify_payload and mine_redirects run
/// here, once.  The strings the facts keep are copied; `txn` is left whole.
TxnFacts derive_facts(const dm::http::HttpTransaction& txn,
                      const dm::http::RedirectMinerOptions& miner);

namespace detail {

/// Everything the per-transaction fold engine needs, beyond the Wcg itself,
/// to extend a WCG by one transaction and keep every annotation consistent.
/// Internal to WcgBuilder; a plain value type so builders stay copyable.
struct WcgBuildState {
  Wcg wcg;
  std::size_t folded = 0;  // transactions folded into `wcg` so far

  // Download timeline (§III-C stage assignment).  Fixed between re-folds:
  // a transaction that would change it forces a full re-fold instead.
  std::uint64_t first_exploit_ts = 0;  // 0 = none
  std::uint64_t last_exploit_ts = 0;
  std::set<std::string> exploit_hosts;

  // Origin / victim bookkeeping.
  std::string origin_name = "empty";
  dm::graph::NodeId origin_id = dm::graph::kInvalidNode;
  dm::graph::NodeId victim_id = dm::graph::kInvalidNode;
  std::set<std::string> conversation_hosts;

  // Redirect bookkeeping.
  std::map<std::string, std::set<std::string>> redirect_adj;
  std::set<std::string> redirect_hosts;
  std::set<std::string> redirect_tlds;
  /// Redirect timestamps; kept sorted unless `redirect_ts_unsorted`, in
  /// which case finalize() re-sorts and re-accumulates.  The running delay
  /// total accumulates left-to-right exactly like the from-scratch loop so
  /// the derived annotation is bit-identical in both modes.
  std::vector<std::uint64_t> redirect_ts;
  double redirect_delay_total_s = 0.0;
  bool redirect_ts_unsorted = false;

  // Conversation timing.
  std::uint64_t first_ts = 0;
  std::uint64_t last_ts = 0;
  std::vector<std::uint64_t> txn_times;  // request timestamps, see above
  double inter_txn_total_s = 0.0;
  bool txn_times_unsorted = false;

  /// Most recent response per host, for the referrer-delay redirect rule.
  std::map<std::string, std::uint64_t> last_response_ts;
};

}  // namespace detail

/// Accumulates transaction facts (time order expected) and materializes the
/// annotated WCG.  `build()`/`current()` may be called repeatedly as the
/// conversation grows — the on-the-wire detector does exactly that (§V-B
/// "each update of a WCG then triggers feature extraction").
class WcgBuilder {
 public:
  /// Default: shares one immutable process-wide BuilderOptions (cheap —
  /// no per-builder copy of the trusted-vendor set).
  WcgBuilder();
  explicit WcgBuilder(BuilderOptions options);
  /// Shares immutable options across builders.  At a million live sessions
  /// (each holding a builder) a per-builder BuilderOptions copy — which
  /// contains the whole TrustedVendors whitelist — dominates session
  /// memory; the online detector builds the options once and hands every
  /// session this shared handle instead.  Null falls back to the default.
  explicit WcgBuilder(std::shared_ptr<const BuilderOptions> options);

  /// Derives the transaction's facts and appends them; returns false if it
  /// was weeded out (trusted vendor) or malformed (no server host).  The
  /// first transaction kept names the victim.  Cheap apart from the one
  /// derivation: folding into the incremental graph is deferred to the next
  /// current() call.
  bool add(const dm::http::HttpTransaction& transaction);
  /// Appends facts derived elsewhere (the online engine's session log), of
  /// a transaction from `client_host`; same weeding and victim rule.
  bool add(TxnFacts facts, std::string_view client_host);

  std::size_t transaction_count() const noexcept { return facts_.size(); }
  /// Slots reserved in the facts store (byte accounting).
  std::size_t facts_capacity() const noexcept { return facts_.capacity(); }

  /// Builds the full annotated WCG from scratch from everything added so
  /// far.  The reference implementation; current() must match it bitwise.
  Wcg build() const;

  /// Incremental view: folds transactions added since the last call into a
  /// persistent WCG and returns it.  Falls back to a full re-fold when a
  /// new transaction retroactively changes earlier structure (new exploit
  /// download, origin invalidation) — callers never observe the difference,
  /// only the amortized O(delta) cost.  The reference lives until the next
  /// add()/current() call.
  const Wcg& current();

  /// Number of full re-folds current() has performed (diagnostics/tests).
  std::uint64_t full_refolds() const noexcept { return full_refolds_; }

 private:
  /// True when the pending suffix [state_.folded, n) cannot be folded
  /// incrementally onto state_ without changing already-built structure.
  bool requires_refold() const;
  /// The weeding rule: a server host that is present and not trusted.
  bool admits(const std::string& server_host) const;

  std::shared_ptr<const BuilderOptions> options_;  // immutable, never null
  std::vector<TxnFacts> facts_;
  std::string victim_;  // client host of the first facts kept
  detail::WcgBuildState state_;  // incremental graph for current()
  std::uint64_t full_refolds_ = 0;
};

/// One-shot convenience.
Wcg build_wcg(const std::vector<dm::http::HttpTransaction>& transactions,
              BuilderOptions options = {});

}  // namespace dm::core
