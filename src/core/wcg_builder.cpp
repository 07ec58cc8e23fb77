#include "core/wcg_builder.h"

#include <algorithm>

#include "util/strings.h"

namespace dm::core {
namespace {

using detail::WcgBuildState;
using dm::http::HttpTransaction;
using dm::http::PayloadType;
using dm::util::registrable_domain;
using dm::util::top_level_domain;

/// The facts one fold step reads, in sequence order.
using FactsRef = std::vector<const TxnFacts*>;

/// Host component of a (possibly absolute-URL) referrer value, lower-cased.
std::string referrer_host(std::string_view referrer) {
  const std::string host = dm::http::host_of_url(referrer);
  if (!host.empty()) return host;
  // Bare hostname referrers occur in the wild; accept them when they look
  // like a hostname.
  const auto trimmed = dm::util::trim(referrer);
  if (!trimmed.empty() && trimmed.find('/') == std::string_view::npos) {
    return dm::util::to_lower(trimmed);
  }
  return {};
}

/// The scope rule: with no scope every fact is in; otherwise a fact is in
/// when its server host or its absolute-URL referrer host is a scope host.
bool in_scope(const TxnFacts& txn, const std::set<std::string>* scope) {
  if (scope == nullptr || scope->contains(txn.server_host)) return true;
  if (!txn.has_referrer) return false;
  const std::string host = dm::http::host_of_url(txn.referrer);
  return !host.empty() && scope->contains(host);
}

std::size_t size_of(const std::set<std::string>* scope) noexcept {
  return scope != nullptr ? scope->size() : 0;
}

/// The facts of `facts` in scope, in order.
FactsRef in_scope_facts(std::span<const TxnFacts> facts,
                        const std::set<std::string>* scope) {
  FactsRef kept;
  for (const auto& txn : facts) {
    if (in_scope(txn, scope)) kept.push_back(&txn);
  }
  return kept;
}

bool is_exploit_transaction(const TxnFacts& txn) {
  return txn.has_response && dm::http::is_exploit_type(txn.payload);
}

/// Stage assignment per §III-C: GET with no prior exploit download and a
/// 30x answer -> pre-download; POST to a non-exploit host answered 200/40x
/// after the first download -> post-download; everything else -> download.
/// The download timeline lives in the build state and is *frozen* between
/// re-folds: a transaction that would change it forces a full re-fold, so
/// incremental stage assignment always sees the same timeline build() would.
Stage stage_of(const TxnFacts& txn, const WcgBuildState& s) {
  const std::uint64_t ts = txn.request_ts;
  const int code = txn.status;
  const bool before_first_download =
      s.first_exploit_ts == 0 || ts < s.first_exploit_ts;

  if (txn.method == "GET" && before_first_download &&
      code >= 300 && code < 400) {
    return Stage::kPreDownload;
  }
  if (txn.method == "POST" &&
      s.exploit_hosts.find(txn.server_host) == s.exploit_hosts.end() &&
      s.first_exploit_ts != 0 && ts > s.last_exploit_ts &&
      (code == 200 || (code >= 400 && code < 500))) {
    return Stage::kPostDownload;
  }
  return Stage::kDownload;
}

/// Longest simple path (in edges) through the redirect-edge host graph.
/// Redirect subgraphs are tiny chains/trees, so a depth-capped DFS is fine.
std::uint32_t longest_chain(const std::map<std::string, std::set<std::string>>& redirect_adj) {
  std::uint32_t best = 0;
  constexpr std::uint32_t kDepthCap = 64;

  struct Dfs {
    const std::map<std::string, std::set<std::string>>& adj;
    std::set<std::string> on_path;
    std::uint32_t best = 0;

    void run(const std::string& host, std::uint32_t depth) {
      best = std::max(best, depth);
      if (depth >= kDepthCap) return;
      const auto it = adj.find(host);
      if (it == adj.end()) return;
      for (const auto& next : it->second) {
        if (on_path.insert(next).second) {
          run(next, depth + 1);
          on_path.erase(next);
        }
      }
    }
  };

  Dfs dfs{redirect_adj, {}, 0};
  for (const auto& [host, targets] : redirect_adj) {
    dfs.on_path = {host};
    dfs.run(host, 0);
    best = std::max(best, dfs.best);
  }
  return best;
}

void add_redirect_edge(WcgBuildState& s, const std::string& from_host,
                       const std::string& to_host, std::uint64_t ts) {
  if (from_host.empty() || to_host.empty() || from_host == to_host) return;
  auto& ann = s.wcg.annotations();
  const auto from_id = s.wcg.add_host(from_host);
  const auto to_id = s.wcg.add_host(to_host);
  WcgEdge edge;
  edge.kind = EdgeKind::kRedirect;
  edge.ts_micros = ts;
  edge.stage = (s.first_exploit_ts == 0 || ts < s.first_exploit_ts)
                   ? Stage::kPreDownload
                   : Stage::kDownload;
  s.wcg.add_edge(from_id, to_id, edge);
  s.redirect_adj[from_host].insert(to_host);

  // Running avg-delay total: as long as timestamps arrive in order, each
  // append performs exactly the next iteration of the from-scratch
  // sort-then-accumulate loop (same operand order, so bit-identical).  An
  // out-of-order timestamp flips the dirty flag; finalize() then re-sorts
  // and replays the whole loop.
  if (!s.redirect_ts.empty()) {
    if (ts < s.redirect_ts.back()) {
      s.redirect_ts_unsorted = true;
    } else if (!s.redirect_ts_unsorted) {
      s.redirect_delay_total_s +=
          static_cast<double>(ts - s.redirect_ts.back()) / 1e6;
    }
  }
  s.redirect_ts.push_back(ts);

  for (const std::string* host : {&from_host, &to_host}) {
    if (s.redirect_hosts.insert(*host).second) {
      const auto tld = top_level_domain(*host);
      if (!tld.empty()) s.redirect_tlds.insert(std::string(tld));
    }
  }
  ++ann.total_redirects;
  if (registrable_domain(from_host) != registrable_domain(to_host)) {
    ++ann.cross_domain_redirects;
  }
}

/// One-time setup for a (re-)fold: download timeline, conversation hosts,
/// origin and victim nodes, entice edge.  Precondition: at least one
/// transaction, `s` freshly default-constructed.
void prologue(WcgBuildState& s, const FactsRef& txns,
              const std::string& victim) {
  auto& ann = s.wcg.annotations();

  // Download timeline (fixed for this fold; see stage_of).
  for (const TxnFacts* txn : txns) {
    if (!is_exploit_transaction(*txn)) continue;
    const std::uint64_t ts = txn->response_ts;
    if (s.first_exploit_ts == 0 || ts < s.first_exploit_ts) {
      s.first_exploit_ts = ts;
    }
    s.last_exploit_ts = std::max(s.last_exploit_ts, ts);
    s.exploit_hosts.insert(txn->server_host);
  }

  // ---- Origin node -------------------------------------------------------
  // The enticement source is the referrer of the earliest transaction whose
  // referrer host is outside the conversation (§III-B "origin node").
  for (const TxnFacts* txn : txns) s.conversation_hosts.insert(txn->server_host);
  for (const TxnFacts* txn : txns) {
    if (txn->has_referrer) {
      const std::string host = referrer_host(txn->referrer);
      if (!host.empty() &&
          s.conversation_hosts.find(host) == s.conversation_hosts.end()) {
        s.origin_name = host;
        break;
      }
    }
  }
  ann.origin_known = s.origin_name != "empty";
  s.origin_id = s.wcg.add_host(s.origin_name);
  s.wcg.node(s.origin_id).type = NodeType::kOrigin;
  s.wcg.set_origin(s.origin_id);

  // ---- Victim node -------------------------------------------------------
  s.victim_id = s.wcg.add_host(victim);
  s.wcg.node(s.victim_id).type = NodeType::kVictim;
  s.wcg.node(s.victim_id).ip = victim;
  s.wcg.set_victim(s.victim_id);

  // Origin enticed the victim into the conversation.
  if (ann.origin_known) {
    WcgEdge entice;
    entice.kind = EdgeKind::kRedirect;
    entice.stage = Stage::kPreDownload;
    entice.ts_micros = txns.front()->request_ts;
    s.wcg.add_edge(s.origin_id, s.victim_id, entice);
  }

  s.first_ts = txns.front()->request_ts;
  s.last_ts = s.first_ts;
}

/// Extends the state by one transaction.  The single per-transaction code
/// path shared by build() and WcgFold — equivalence by construction.
void fold(const BuilderOptions& options, WcgBuildState& s,
          const TxnFacts& txn) {
  Wcg& wcg = s.wcg;
  auto& ann = wcg.annotations();

  const auto server_id = wcg.add_host(txn.server_host);
  if (wcg.node(server_id).ip.empty()) wcg.node(server_id).ip = txn.server_ip;
  wcg.add_uri(server_id, txn.uri);

  const Stage stage = stage_of(txn, s);
  const std::uint64_t req_ts = txn.request_ts;
  if (stage == Stage::kPostDownload) ann.has_post_download_stage = true;

  // Running inter-transaction total; same dirty-flag scheme as redirects.
  if (!s.txn_times.empty()) {
    if (req_ts < s.txn_times.back()) {
      s.txn_times_unsorted = true;
    } else if (!s.txn_times_unsorted) {
      s.inter_txn_total_s +=
          static_cast<double>(req_ts - s.txn_times.back()) / 1e6;
    }
  }
  s.txn_times.push_back(req_ts);
  s.first_ts = std::min(s.first_ts, req_ts);
  s.last_ts = std::max(s.last_ts, req_ts);

  // Request edge: victim -> server.
  WcgEdge req;
  req.kind = EdgeKind::kRequest;
  req.stage = stage;
  req.ts_micros = req_ts;
  req.method = txn.method;
  req.uri_length = static_cast<std::uint32_t>(txn.uri.size());
  req.has_referrer = txn.has_referrer;
  wcg.add_edge(s.victim_id, server_id, req);

  // Header tallies.
  if (txn.method == "GET") ++ann.get_count;
  else if (txn.method == "POST") ++ann.post_count;
  else ++ann.other_method_count;
  if (req.has_referrer) ++ann.referrer_count;
  else ++ann.no_referrer_count;
  if (txn.do_not_track) ann.do_not_track = true;
  if (txn.has_x_flash_version) {
    ann.x_flash_version_set = true;
    ann.x_flash_version = txn.x_flash_version;
  }

  // Response edge: server -> victim.
  if (txn.has_response) {
    const std::uint64_t res_ts = txn.response_ts ? txn.response_ts : req_ts;
    s.last_ts = std::max(s.last_ts, res_ts);
    WcgEdge resp;
    resp.kind = EdgeKind::kResponse;
    resp.stage = stage;
    resp.ts_micros = res_ts;
    resp.response_code = txn.status;
    resp.payload_type = txn.payload;
    resp.payload_size = txn.body_bytes;
    wcg.add_edge(server_id, s.victim_id, resp);

    const int cls = txn.status / 100;
    if (cls >= 1 && cls <= 5) ++ann.response_class_counts[cls - 1];
    if (resp.payload_type != PayloadType::kNone && txn.body_bytes != 0) {
      ++ann.payload_count;
      ann.total_payload_bytes += resp.payload_size;
      ++ann.payload_type_counts[resp.payload_type];
      ++wcg.node(server_id).payloads_served[resp.payload_type];
    }

    // Explicit redirect evidence: Location header / meta / iframe / JS,
    // including the de-obfuscated layers, mined once by derive_facts.
    for (const auto& target : txn.redirect_targets) {
      if (options.trusted.is_trusted(target)) continue;
      add_redirect_edge(s, txn.server_host, target, res_ts);
    }
  }

  ++s.folded;
}

/// Derives every annotation that depends on the whole state.  Idempotent —
/// WcgFold re-runs it after each incremental fold.  Cost is O(nodes +
/// redirect subgraph), independent of the transaction count.
void finalize(WcgBuildState& s) {
  Wcg& wcg = s.wcg;
  auto& ann = wcg.annotations();

  // Node typing: a pure function of (uris, redirect participation, exploit
  // hosts), re-applied from scratch each time so that e.g. an intermediary
  // that later receives a direct request reverts to remote exactly as a
  // from-scratch build would type it.
  for (dm::graph::NodeId id = 0; id < wcg.node_count(); ++id) {
    WcgNode& node = wcg.node(id);
    if (node.type == NodeType::kVictim || node.type == NodeType::kOrigin) continue;
    if (s.exploit_hosts.find(node.host) != s.exploit_hosts.end()) {
      node.type = NodeType::kMalicious;
    } else if (node.uris.empty() &&
               s.redirect_hosts.find(node.host) != s.redirect_hosts.end()) {
      node.type = NodeType::kIntermediary;  // only chains, never queried
    } else {
      node.type = NodeType::kRemote;
    }
  }

  ann.transaction_count = static_cast<std::uint32_t>(s.folded);
  ann.longest_redirect_chain = longest_chain(s.redirect_adj);
  ann.tld_diversity = static_cast<std::uint32_t>(s.redirect_tlds.size());

  if (s.redirect_ts_unsorted) {
    std::sort(s.redirect_ts.begin(), s.redirect_ts.end());
    s.redirect_delay_total_s = 0.0;
    for (std::size_t i = 1; i < s.redirect_ts.size(); ++i) {
      s.redirect_delay_total_s +=
          static_cast<double>(s.redirect_ts[i] - s.redirect_ts[i - 1]) / 1e6;
    }
    s.redirect_ts_unsorted = false;
  }
  ann.avg_redirect_delay_s =
      s.redirect_ts.size() >= 2
          ? s.redirect_delay_total_s /
                static_cast<double>(s.redirect_ts.size() - 1)
          : 0.0;

  ann.duration_s = static_cast<double>(s.last_ts - s.first_ts) / 1e6;

  if (s.txn_times_unsorted) {
    std::sort(s.txn_times.begin(), s.txn_times.end());
    s.inter_txn_total_s = 0.0;
    for (std::size_t i = 1; i < s.txn_times.size(); ++i) {
      s.inter_txn_total_s +=
          static_cast<double>(s.txn_times[i] - s.txn_times[i - 1]) / 1e6;
    }
    s.txn_times_unsorted = false;
  }
  ann.avg_inter_transaction_s =
      s.txn_times.size() >= 2
          ? s.inter_txn_total_s / static_cast<double>(s.txn_times.size() - 1)
          : 0.0;

  ann.has_download_stage = s.first_exploit_ts != 0;
}

/// Folds `txns` into the freshly default-constructed `s`; leaves it empty
/// when there are none.
void fold_from_scratch(const BuilderOptions& options, WcgBuildState& s,
                       const FactsRef& txns, const std::string& victim) {
  if (txns.empty()) return;
  prologue(s, txns, victim);
  for (const TxnFacts* txn : txns) fold(options, s, *txn);
}

/// True when appending `pending` to what `s` has folded would change
/// already-built structure, so the fold must start over.
bool requires_refold(const WcgBuildState& s, const FactsRef& pending) {
  for (const TxnFacts* txn : pending) {
    // A new exploit download moves the timeline: stages (and node typing)
    // of already-folded transactions may change.
    if (is_exploit_transaction(*txn)) return true;
    // The chosen origin's referrer host just joined the conversation, so
    // the origin scan would now pick a different source (or "empty").
    if (s.origin_name != "empty" && txn->server_host == s.origin_name) {
      return true;
    }
  }

  if (s.origin_name == "empty") {
    // No enticement source so far: does any pending transaction carry a
    // referrer that stays outside the *grown* conversation-host set?
    std::set<std::string> pending_hosts;
    for (const TxnFacts* txn : pending) pending_hosts.insert(txn->server_host);
    for (const TxnFacts* txn : pending) {
      if (txn->has_referrer) {
        const std::string host = referrer_host(txn->referrer);
        if (!host.empty() && !s.conversation_hosts.contains(host) &&
            !pending_hosts.contains(host)) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

TxnFacts derive_facts(const HttpTransaction& txn,
                      const dm::http::RedirectMinerOptions& miner) {
  TxnFacts facts;
  const dm::http::HttpRequest& req = txn.request;
  facts.server_host = txn.server_host;
  facts.server_ip = txn.server_ip;
  facts.method = req.method;
  facts.uri = req.uri;
  facts.request_ts = req.ts_micros;
  if (const auto ref = req.referrer()) {
    facts.has_referrer = true;
    facts.referrer = *ref;
  }
  if (const auto dnt = req.headers.get("DNT")) facts.do_not_track = *dnt == "1";
  if (const auto xf = req.headers.get("X-Flash-Version")) {
    facts.has_x_flash_version = true;
    facts.x_flash_version = *xf;
  }
  if (txn.response) {
    const dm::http::HttpResponse& res = *txn.response;
    facts.has_response = true;
    facts.status = res.status_code;
    facts.response_ts = res.ts_micros;
    facts.body_bytes = res.body.size();
    facts.payload =
        dm::http::classify_payload(res.content_type().value_or(""), req.uri);
    for (auto& evidence : dm::http::mine_redirects(txn, miner)) {
      facts.redirect_targets.push_back(std::move(evidence.target_host));
    }
  }
  return facts;
}

namespace {

/// One immutable default-options instance shared by every
/// default-constructed builder (refcount bumps are the only per-builder
/// cost; atomic, so concurrent shard threads may default-construct freely).
const std::shared_ptr<const BuilderOptions>& shared_default_options() {
  static const std::shared_ptr<const BuilderOptions> instance =
      std::make_shared<const BuilderOptions>();
  return instance;
}

}  // namespace

WcgBuilder::WcgBuilder() : options_(shared_default_options()) {}

WcgBuilder::WcgBuilder(BuilderOptions options)
    : options_(std::make_shared<const BuilderOptions>(std::move(options))) {}

WcgBuilder::WcgBuilder(std::shared_ptr<const BuilderOptions> options)
    : options_(options != nullptr ? std::move(options)
                                  : shared_default_options()) {}

bool WcgBuilder::add(const HttpTransaction& transaction) {
  if (transaction.server_host.empty() ||
      options_->trusted.is_trusted(transaction.server_host)) {
    return false;
  }
  if (facts_.empty()) victim_ = transaction.client_host;
  facts_.push_back(derive_facts(transaction, options_->miner));
  return true;
}

Wcg WcgBuilder::build() const {
  detail::WcgBuildState state;
  fold_from_scratch(*options_, state, in_scope_facts(facts_, nullptr), victim_);
  finalize(state);
  return std::move(state.wcg);
}

bool WcgFold::needs_update(std::span<const TxnFacts> facts,
                           const std::set<std::string>* scope) {
  if (size_of(scope) != scope_size_) return true;
  while (consumed_ < facts.size() && !in_scope(facts[consumed_], scope)) {
    ++consumed_;
  }
  return consumed_ < facts.size();
}

const Wcg& WcgFold::update(const BuilderOptions& options,
                           std::span<const TxnFacts> facts,
                           const std::string& victim,
                           const std::set<std::string>* scope) {
  FactsRef pending;
  for (; consumed_ < facts.size(); ++consumed_) {
    if (in_scope(facts[consumed_], scope)) pending.push_back(&facts[consumed_]);
  }
  const bool scope_grew = size_of(scope) != scope_size_;
  scope_size_ = size_of(scope);
  if (!scope_grew && pending.empty()) return state_.wcg;  // finalized already

  if (scope_grew || state_.folded == 0 || requires_refold(state_, pending)) {
    if (scope_grew) ++scope_refolds_;
    if (state_.folded > 0) ++full_refolds_;
    const std::uint64_t prev_version = state_.wcg.topology_version();
    state_ = detail::WcgBuildState{};
    fold_from_scratch(options, state_, in_scope_facts(facts, scope), victim);
    // The graph object kept its address but was rebuilt; keep the version
    // strictly increasing so (pointer, version) cache keys stay sound.
    state_.wcg.ensure_topology_version_above(prev_version);
  } else {
    for (const TxnFacts* txn : pending) {
      state_.conversation_hosts.insert(txn->server_host);
    }
    for (const TxnFacts* txn : pending) fold(options, state_, *txn);
  }
  finalize(state_);
  return state_.wcg;
}

Wcg build_wcg(const std::vector<HttpTransaction>& transactions,
              BuilderOptions options) {
  WcgBuilder builder(std::move(options));
  for (const auto& txn : transactions) builder.add(txn);
  return builder.build();
}

}  // namespace dm::core
