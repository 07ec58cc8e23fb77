// WCG construction from a time-ordered HTTP transaction stream (§III-B).
//
// The builder folds each transaction's facts (TxnFacts below), not the
// transaction itself: the payload-agnostic attributes §III annotates the
// WCG with, derived once by derive_facts().  It:
//  * weeds out transactions to trusted software vendors (§V-B noise rule),
//  * adds the synthetic origin node from the first transaction's referrer
//    ("empty" when the referrer was stripped),
//  * creates request/response edges between the victim and each host,
//  * infers redirect edges from explicit evidence only: Location headers
//    and the obfuscated-JS/meta/iframe miner (§III-D) — the mined target
//    hosts are part of the facts, so a body is mined once, not per fold,
//  * assigns each edge a conversation stage — pre-download / download /
//    post-download — using the paper's §III-C heuristics, and
//  * fills the graph-level annotations that the 37 features consume.
//
// One fold engine (see wcg_builder.cpp), run two ways:
//
//  * WcgBuilder::build() — the from-scratch reference: materializes a fresh
//    WCG from every transaction added so far.  Pure, repeatable, O(n) per
//    call.
//  * WcgFold — the incremental hot path: a persistent WCG over a facts
//    sequence its caller owns, optionally seen through a set of scope
//    hosts, that folds only the facts appended since the previous call.
//    WcgBuilder::current() runs one over the builder's own facts; the
//    on-the-wire engine runs one over a session log, scoped to the hosts
//    its infection clue implicates.  A small set of retroactive events (a
//    new exploit download re-staging earlier edges, the origin node being
//    invalidated by a new conversation host, the scope growing) trigger a
//    transparent full re-fold in place, so the fold is always
//    bit-identical to build() over the facts in scope — the property the
//    on-the-wire engine's incremental-vs-rebuild determinism guarantee
//    rests on.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
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
  dm::http::RedirectMinerOptions miner;
};

/// What the fold and clue inference read of one transaction — and all the
/// online engine keeps of it.  Headers and bodies are not kept: the payload
/// type, body length and mined redirect targets stand in for them.  Nor is
/// the client host: a builder (and an online session) holds its victim
/// once.
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
/// Internal to WcgFold; a plain value type so folds stay copyable.
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
};

}  // namespace detail

/// The incremental WCG over a facts sequence its caller owns and only
/// appends to, seen through an optional set of scope hosts: a fact is in
/// scope when its server host or its absolute-URL referrer host is a scope
/// host (with no set, every fact is).  update() folds the in-scope facts
/// appended since the previous call into a persistent WCG.  It re-folds from
/// the first fact, in place, when a new fact changes already-built
/// structure (a new exploit download, origin invalidation) or the scope has
/// grown (facts passed over before may be in scope now).  Callers never
/// observe the difference, only the amortized O(delta) cost: the WCG is
/// always bit-identical to WcgBuilder::build() over the facts in scope.  It
/// keeps one address for the fold's lifetime and its topology_version only
/// rises, so a FeatureCache keyed on (address, version) stays sound across
/// re-folds.
class WcgFold {
 public:
  /// Folds what is new and returns the WCG.  Every call passes the same
  /// options and victim, the same facts sequence (appended to only) and the
  /// same scope set (grown only).  The reference lives until the next call.
  const Wcg& update(const BuilderOptions& options,
                    std::span<const TxnFacts> facts, const std::string& victim,
                    const std::set<std::string>* scope = nullptr);

  /// Whether update() would change the WCG: the scope has grown, or a fact
  /// appended since the last update is in scope.  Steps past appended facts
  /// that are out of scope, so each is tested once.
  bool needs_update(std::span<const TxnFacts> facts,
                    const std::set<std::string>* scope);

  /// Re-folds of an already-built WCG, any cause (diagnostics/tests).
  std::uint64_t full_refolds() const noexcept { return full_refolds_; }
  /// Folds from the first fact that a grown scope forced, the first fold
  /// through a non-empty scope included.
  std::uint64_t scope_refolds() const noexcept { return scope_refolds_; }

 private:
  detail::WcgBuildState state_;
  std::size_t consumed_ = 0;    // facts [0, consumed_) have been filtered
  std::size_t scope_size_ = 0;  // the scope's size at the last update
  std::uint64_t full_refolds_ = 0;
  std::uint64_t scope_refolds_ = 0;
};

/// Accumulates transaction facts (time order expected) and materializes the
/// annotated WCG.  `build()`/`current()` may be called repeatedly as the
/// conversation grows (§V-B "each update of a WCG then triggers feature
/// extraction").
class WcgBuilder {
 public:
  /// Default: shares one immutable process-wide BuilderOptions (cheap —
  /// no per-builder copy of the trusted-vendor set).
  WcgBuilder();
  explicit WcgBuilder(BuilderOptions options);
  /// Shares immutable options across builders: a BuilderOptions copy holds
  /// the whole TrustedVendors whitelist, so a caller building many WCGs
  /// (the test oracle builds one per verdict) hands every builder one
  /// shared handle instead.  Null falls back to the default.
  explicit WcgBuilder(std::shared_ptr<const BuilderOptions> options);

  /// Derives the transaction's facts and appends them; returns false if it
  /// was weeded out (trusted vendor) or malformed (no server host).  The
  /// first transaction kept names the victim.  Cheap apart from the one
  /// derivation: folding into the incremental graph is deferred to the next
  /// current() call.
  bool add(const dm::http::HttpTransaction& transaction);

  std::size_t transaction_count() const noexcept { return facts_.size(); }

  /// Builds the full annotated WCG from scratch from everything added so
  /// far.  The reference implementation; current() must match it bitwise.
  Wcg build() const;

  /// Incremental view: a WcgFold over everything added so far.  The
  /// reference lives until the next add()/current() call.
  const Wcg& current() { return fold_.update(*options_, facts_, victim_); }

  /// Number of full re-folds current() has performed (diagnostics/tests).
  std::uint64_t full_refolds() const noexcept { return fold_.full_refolds(); }

 private:
  std::shared_ptr<const BuilderOptions> options_;  // immutable, never null
  std::vector<TxnFacts> facts_;
  std::string victim_;  // client host of the first facts kept
  WcgFold fold_;        // incremental graph for current()
};

/// One-shot convenience.
Wcg build_wcg(const std::vector<dm::http::HttpTransaction>& transactions,
              BuilderOptions options = {});

}  // namespace dm::core
