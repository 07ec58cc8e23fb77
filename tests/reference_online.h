// Naive reference engine for the on-the-wire detector (§V-B): the oracle
// that OnlineDetector's alert sets and verdict scores are compared against,
// bit for bit.
//
// It is the slowest faithful reading of the paper.  On every transaction it
// scans all sessions to group it.  On every post-clue update it rebuilds the
// potential-infection WCG from the session's whole log with
// WcgBuilder::build(), extracts features without a cache, and scores the
// detector's trained RandomForest with the pointer walk of
// reference_forest.h; it never skips a query.  It shares no code with
// the engine's scope maintenance, unchanged-scope skip, FeatureCache,
// FlatForest, range-scan session lookup or LRU expiry walk, so agreement is
// evidence that each of those shortcuts is exact.  Session budgets, fault
// hooks, the scorer seam and tracing are out of its scope.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/detector.h"
#include "core/online.h"
#include "core/wcg_builder.h"
#include "http/classify.h"
#include "http/redirect_miner.h"
#include "http/session.h"
#include "reference_forest.h"

namespace dm::core::reference {

/// One completed classifier query.
struct Verdict {
  std::uint64_t ts_micros = 0;
  std::string session_key;
  double score = 0.0;
  std::size_t wcg_size = 0;  // edges of the scored WCG
};

class ReferenceOnline {
 public:
  /// Takes grouping, clue and decision settings from `options`; scores with
  /// `detector.forest()` under default FeatureExtractorOptions.
  ReferenceOnline(const Detector& detector, const OnlineOptions& options)
      : forest_(detector.forest()),
        options_(options),
        builder_options_(
            std::make_shared<const BuilderOptions>(options.builder)) {}

  void observe(const dm::http::HttpTransaction& txn) {
    if (options_.builder.trusted.is_trusted(txn.server_host)) return;
    const std::uint64_t now = txn.request.ts_micros;
    const auto sid = dm::http::extract_session_id(txn);
    Session& s = session_for(txn, sid);
    if (!s.session_id) s.session_id = sid;
    const std::string ref_host = referrer_host(txn);
    s.hosts.insert(txn.server_host);
    if (!ref_host.empty()) s.hosts.insert(ref_host);
    s.last_activity = std::max(s.last_activity, now);
    if (!txn.server_host.empty()) s.log.push_back(txn);
    if (!s.clue_fired) s.hosts_before_clue.insert(txn.server_host);

    // Clue inference: a redirect run of length >= l, then a risky download.
    auto payload = dm::http::PayloadType::kNone;
    std::vector<dm::http::RedirectEvidence> mined;
    bool redirect_hop = false;
    if (txn.response) {
      payload = dm::http::classify_payload(
          txn.response->content_type().value_or(""), txn.request.uri);
      mined = dm::http::mine_redirects(txn, options_.builder.miner);
      redirect_hop = txn.response->is_redirect() || !mined.empty();
    }
    if (redirect_hop) {
      s.longest_run = std::max(s.longest_run, ++s.run);
      s.suspicious.insert(txn.server_host);
      for (const auto& evidence : mined) {
        s.suspicious.insert(evidence.target_host);
      }
    } else {
      const bool risky_download = txn.response &&
                                  dm::http::is_download_type(payload) &&
                                  txn.response->status_code == 200;
      if (risky_download &&
          s.longest_run >= options_.redirect_chain_threshold) {
        s.suspicious.insert(txn.server_host);
        if (!s.clue_fired) {
          s.clue_fired = true;
          s.clue_host = txn.server_host;
          s.clue_payload = payload;
          ++clues_fired_;
        }
      }
      s.run = 0;
    }
    if (s.clue_fired) {
      // Post-clue expansion: referred from an implicated host, or a POST to
      // a host never seen before the clue.
      if (!ref_host.empty() && s.suspicious.count(ref_host) > 0) {
        s.suspicious.insert(txn.server_host);
      }
      if (txn.request.method == "POST" &&
          s.hosts_before_clue.count(txn.server_host) == 0) {
        s.suspicious.insert(txn.server_host);
      }
      if (classify(s, txn)) sessions_.erase(std::string(s.key));
    }
    std::erase_if(sessions_, [&](const auto& entry) {
      const std::uint64_t last = entry.second.last_activity;
      const double idle_s =
          now >= last ? static_cast<double>(now - last) / 1e6 : 0.0;
      return idle_s > options_.session_idle_timeout_s;
    });
  }

  const std::vector<Alert>& alerts() const noexcept { return alerts_; }
  const std::vector<Verdict>& verdicts() const noexcept { return verdicts_; }
  std::size_t clues_fired() const noexcept { return clues_fired_; }

 private:
  struct Session {
    std::string key;
    std::string client;
    std::optional<std::string> session_id;
    std::vector<dm::http::HttpTransaction> log;
    std::set<std::string> hosts;
    std::set<std::string> hosts_before_clue;
    std::set<std::string> suspicious;
    std::uint64_t last_activity = 0;
    std::uint32_t run = 0;
    std::uint32_t longest_run = 0;
    bool clue_fired = false;
    std::string clue_host;
    dm::http::PayloadType clue_payload = dm::http::PayloadType::kNone;
  };

  static std::string referrer_host(const dm::http::HttpTransaction& txn) {
    const auto ref = txn.request.referrer();
    return ref ? dm::http::host_of_url(*ref) : std::string();
  }

  bool joinable(const Session& s, std::uint64_t ts) const {
    return ts < s.last_activity ||
           static_cast<double>(ts - s.last_activity) / 1e6 <=
               options_.session_idle_timeout_s;
  }

  /// Session-ID match first, then the referrer/timestamp heuristic (most
  /// recent linked session within the join gap), else a new "client#n".
  Session& session_for(const dm::http::HttpTransaction& txn,
                       const std::optional<std::string>& sid) {
    const std::uint64_t ts = txn.request.ts_micros;
    if (sid) {
      for (auto& [key, s] : sessions_) {
        if (s.client == txn.client_host && s.session_id == sid &&
            joinable(s, ts)) {
          return s;
        }
      }
    }
    const std::string ref_host = referrer_host(txn);
    Session* best = nullptr;
    for (auto& [key, s] : sessions_) {
      if (s.client != txn.client_host || !joinable(s, ts)) continue;
      const bool within_gap =
          ts < s.last_activity ||
          static_cast<double>(ts - s.last_activity) / 1e6 <=
              options_.session_join_gap_s;
      const bool linked = s.hosts.count(txn.server_host) > 0 ||
                          (!ref_host.empty() && s.hosts.count(ref_host) > 0);
      if (within_gap && linked &&
          (best == nullptr || s.last_activity > best->last_activity)) {
        best = &s;
      }
    }
    if (best != nullptr) return *best;
    Session fresh;
    fresh.key = txn.client_host + "#" +
                std::to_string(next_seq_[txn.client_host]++);
    fresh.client = txn.client_host;
    return sessions_.emplace(fresh.key, std::move(fresh)).first->second;
  }

  /// Rebuilds and scores the potential-infection WCG; true on an alert.
  bool classify(const Session& s, const dm::http::HttpTransaction& txn) {
    WcgBuilder scoped(builder_options_);
    for (const auto& logged : s.log) {
      const std::string ref_host = referrer_host(logged);
      if (s.suspicious.count(logged.server_host) > 0 ||
          (!ref_host.empty() && s.suspicious.count(ref_host) > 0)) {
        scoped.add(logged);
      }
    }
    const Wcg wcg = scoped.build();
    if (wcg.node_count() < 2) return false;
    const double score =
        dm::ml::reference::predict_proba(forest_, extract_features(wcg));
    verdicts_.push_back({txn.request.ts_micros, s.key, score, wcg.edge_count()});
    if (score < options_.decision_threshold) return false;
    Alert alert;
    alert.ts_micros = txn.request.ts_micros;
    alert.client = s.client;
    alert.session_key = s.key;
    alert.score = score;
    alert.trigger_host = s.clue_host.empty() ? txn.server_host : s.clue_host;
    alert.trigger_payload = s.clue_payload;
    alert.wcg_order = wcg.node_count();
    alert.wcg_size = wcg.edge_count();
    alerts_.push_back(alert);
    return true;
  }

  const dm::ml::RandomForest& forest_;
  OnlineOptions options_;
  std::shared_ptr<const BuilderOptions> builder_options_;
  std::map<std::string, Session> sessions_;
  std::map<std::string, std::uint64_t> next_seq_;
  std::vector<Alert> alerts_;
  std::vector<Verdict> verdicts_;
  std::size_t clues_fired_ = 0;
};

/// Runs `stream` through a fresh reference engine.
inline ReferenceOnline run_reference(
    const Detector& detector, const OnlineOptions& options,
    const std::vector<dm::http::HttpTransaction>& stream) {
  ReferenceOnline engine(detector, options);
  for (const auto& txn : stream) engine.observe(txn);
  return engine;
}

/// An alert's identity for the fences: everything but the payload type,
/// with the score compared through its bit pattern.
using AlertKey = std::tuple<std::uint64_t, std::string, std::string,
                            std::uint64_t, std::string, std::size_t,
                            std::size_t>;

/// Sorted alert keys; two engines agree iff these vectors are equal.
inline std::vector<AlertKey> alert_keys(const std::vector<Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const auto& a : alerts) {
    keys.emplace_back(a.ts_micros, a.session_key, a.client,
                      std::bit_cast<std::uint64_t>(a.score), a.trigger_host,
                      a.wcg_order, a.wcg_size);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace dm::core::reference
