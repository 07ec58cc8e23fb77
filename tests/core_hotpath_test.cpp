// Determinism fences around the incremental scoring hot path:
//   * WcgBuilder::current() must equal WcgBuilder::build() bitwise after
//     every single append — including the retroactive events (new exploit
//     download, origin invalidation) that force a transparent re-fold;
//   * a WcgFold through a growing scope must equal build() over the facts
//     in scope after every update, in place: one WCG address, a topology
//     version that only rises;
//   * OnlineDetector — sequential and sharded at 1/2/8 shards — must
//     produce the alert set of the naive reference engine
//     (reference_online.h), score bit for score bit, on mixed traces and
//     the 18-family catalog; with no alert to end a session, every oracle
//     verdict must carry the engine's score bits, including after a host is
//     implicated retroactively (a scope refold); the shard aggregate must
//     match the sequential engine's counters;
//   * a post-clue POST implicates its host only if no transaction before
//     the clue contacted it, and an alert names the clue download, not the
//     transaction that raised it, without reading past the log when the
//     clue download was not logged;
//   * the fence itself must fail on an injected divergence;
//   * observe() keeps only a transaction's facts: passing by copy or by
//     std::move must be indistinguishable, and so must padding the header
//     lists and rewriting the bodies the facts do not read.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "core/online.h"
#include "core/trainer.h"
#include "core/wcg_builder.h"
#include "http/classify.h"
#include "http/redirect_miner.h"
#include "reference_online.h"
#include "runtime/sharded_online.h"
#include "synth/dataset.h"
#include "synth/families.h"
#include "synth/generator.h"
#include "util/strings.h"

namespace dm::core {
namespace {

using dm::http::HttpTransaction;

/// Asserts two feature vectors agree to the last bit, reporting the first
/// differing feature by name.
void expect_features_identical(const std::vector<double>& a,
                               const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "feature " << i << " (" << feature_names()[i] << "): " << a[i]
        << " vs " << b[i];
  }
}

/// Structural + annotation equality of two WCGs (node/edge identity in
/// insertion order), beyond what the 37 features observe.
void expect_wcgs_identical(const Wcg& a, const Wcg& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.victim(), b.victim());
  EXPECT_EQ(a.origin(), b.origin());
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    const auto& na = a.nodes()[i];
    const auto& nb = b.nodes()[i];
    EXPECT_EQ(na.host, nb.host);
    EXPECT_EQ(na.ip, nb.ip);
    EXPECT_EQ(na.type, nb.type) << "node " << na.host;
    EXPECT_EQ(na.uris, nb.uris);
    EXPECT_EQ(na.payloads_served, nb.payloads_served);
  }
  for (std::size_t i = 0; i < a.edge_count(); ++i) {
    const auto& ea = a.edges()[i];
    const auto& eb = b.edges()[i];
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.stage, eb.stage) << "edge " << i;
    EXPECT_EQ(ea.ts_micros, eb.ts_micros);
    EXPECT_EQ(ea.method, eb.method);
    EXPECT_EQ(ea.uri_length, eb.uri_length);
    EXPECT_EQ(ea.response_code, eb.response_code);
    EXPECT_EQ(ea.payload_type, eb.payload_type);
    EXPECT_EQ(ea.payload_size, eb.payload_size);
    const auto id = static_cast<dm::graph::EdgeId>(i);
    EXPECT_EQ(a.graph().edge(id).src, b.graph().edge(id).src);
    EXPECT_EQ(a.graph().edge(id).dst, b.graph().edge(id).dst);
  }
  EXPECT_EQ(a.total_unique_uris(), b.total_unique_uris());
  EXPECT_EQ(a.total_uri_length(), b.total_uri_length());
}

/// Replays an episode through one builder, checking current() == build()
/// after every append.  Returns the number of full re-folds current() used.
std::uint64_t check_episode(const std::vector<HttpTransaction>& txns) {
  WcgBuilder builder;
  const FeatureExtractorOptions features;
  for (const auto& txn : txns) {
    builder.add(txn);
    const Wcg& incremental = builder.current();
    const Wcg rebuilt = builder.build();
    expect_wcgs_identical(incremental, rebuilt);
    expect_features_identical(extract_features(incremental, features),
                              extract_features(rebuilt, features));
  }
  return builder.full_refolds();
}

TEST(HotpathBuilderTest, IncrementalMatchesRebuildOnInfectionEpisodes) {
  dm::synth::TraceGenerator gen(7001);
  for (const char* family : {"Angler", "Nuclear"}) {
    const auto episode = gen.infection(dm::synth::family_by_name(family));
    check_episode(episode.transactions);
  }
}

TEST(HotpathBuilderTest, IncrementalMatchesRebuildOnBenignEpisodes) {
  dm::synth::TraceGenerator gen(7002);
  for (int i = 0; i < 3; ++i) {
    const auto episode = gen.benign();
    // Benign browsing has no exploit downloads; incremental folding should
    // rarely if ever fall back (origin invalidation remains possible).
    const auto refolds = check_episode(episode.transactions);
    EXPECT_LE(refolds, episode.transactions.size() / 2);
  }
}

HttpTransaction make_txn(const std::string& server, const std::string& uri,
                         std::uint64_t ts_micros) {
  HttpTransaction txn;
  txn.client_host = "10.0.5.77";
  txn.server_host = server;
  txn.server_ip = "93.184.216.34";
  txn.request.method = "GET";
  txn.request.uri = uri;
  txn.request.ts_micros = ts_micros;
  // Shared cookie: the online tests below need every hand-crafted
  // transaction to land in one session.
  txn.request.headers.add("Cookie", "PHPSESSID=hotpath");
  dm::http::HttpResponse res;
  res.status_code = 200;
  res.ts_micros = ts_micros + 20'000;
  res.headers.add("Content-Type", "text/html");
  res.body.assign(64, 'x');
  txn.response = res;
  return txn;
}

/// `from` answering 302 to `to`: one hop of a redirect chain.
HttpTransaction redirect_hop(const std::string& from, const std::string& to,
                             std::uint64_t ts_micros) {
  auto txn = make_txn(from, "/r", ts_micros);
  txn.response->status_code = 302;
  txn.response->headers = {};
  txn.response->headers.add("Location", "http://" + to + "/r");
  txn.response->body.clear();
  return txn;
}

/// A risky download: `server` serving /update.exe as an executable.
HttpTransaction exe_download(const std::string& server,
                             std::uint64_t ts_micros) {
  auto txn = make_txn(server, "/update.exe", ts_micros);
  txn.response->headers = {};
  txn.response->headers.add("Content-Type", "application/octet-stream");
  return txn;
}

TEST(HotpathBuilderTest, OriginInvalidationForcesRefoldAndStaysIdentical) {
  WcgBuilder builder;
  builder.add(make_txn("a.example", "/", 1'000'000));
  auto with_ref = make_txn("b.example", "/page", 2'000'000);
  with_ref.request.headers.add("Referer", "http://portal.example/");
  builder.add(with_ref);
  builder.current();
  EXPECT_TRUE(builder.current().annotations().origin_known);

  // portal.example now joins the conversation as a server: the origin scan
  // must stop treating it as the enticement source.
  builder.add(make_txn("portal.example", "/self", 3'000'000));
  const Wcg& incremental = builder.current();
  EXPECT_GE(builder.full_refolds(), 1u);
  EXPECT_FALSE(incremental.annotations().origin_known);
  expect_wcgs_identical(incremental, builder.build());
}

TEST(HotpathBuilderTest, LateExploitDownloadForcesRefoldAndStaysIdentical) {
  WcgBuilder builder;
  for (int i = 0; i < 6; ++i) {
    builder.add(make_txn("site" + std::to_string(i) + ".example", "/p",
                         1'000'000 * (static_cast<std::uint64_t>(i) + 1)));
    builder.current();
  }
  EXPECT_EQ(builder.full_refolds(), 0u);

  // A late exploit download restages everything before it.
  auto exploit = make_txn("evil.example", "/payload.exe", 10'000'000);
  exploit.response->headers = {};
  exploit.response->headers.add("Content-Type", "application/octet-stream");
  builder.add(exploit);
  const Wcg& incremental = builder.current();
  EXPECT_GE(builder.full_refolds(), 1u);
  EXPECT_TRUE(incremental.annotations().has_download_stage);
  expect_wcgs_identical(incremental, builder.build());
}

TEST(HotpathBuilderTest, OutOfOrderTimestampsResortExactly) {
  // Timestamp regressions flip the dirty flag; the re-sorted averages must
  // still match the from-scratch sort bit for bit.
  WcgBuilder builder;
  builder.add(make_txn("a.example", "/1", 5'000'000));
  builder.current();
  builder.add(make_txn("b.example", "/2", 3'000'000));  // regressed clock
  builder.current();
  builder.add(make_txn("c.example", "/3", 4'000'000));
  const Wcg& incremental = builder.current();
  expect_wcgs_identical(incremental, builder.build());
  expect_features_identical(extract_features(incremental, {}),
                            extract_features(builder.build(), {}));
}

// ---------------------------------------------------------------------------
// The scoped fold against build() over the facts in scope.
// ---------------------------------------------------------------------------

/// What a fold update did, tallied across a corpus so the fence can show it
/// reached every re-fold path.
struct ScopeEvents {
  std::size_t earlier_hosts = 0;    // growth admitting facts already passed
  std::size_t unseen_hosts = 0;     // growth by a host no fact has named yet
  std::size_t exploit_refolds = 0;  // an exploit download joining a built scope
  std::size_t origin_refolds = 0;   // a new fact served by the built origin
};

/// The scope rule, read off the transaction: its server host or its
/// absolute-URL referrer host is a scope host.
bool touches(const HttpTransaction& txn, const std::set<std::string>& scope) {
  if (scope.contains(txn.server_host)) return true;
  const auto ref = txn.request.referrer();
  return ref && scope.contains(dm::http::host_of_url(*ref));
}

/// Folds `txns` through a WcgFold whose scope grows at points drawn from
/// `seed`: first by the first transaction's server host, then by hosts
/// named by earlier or later transactions.  After every update the fold
/// must equal WcgBuilder::build() over the transactions in scope, WCG and
/// features both (the fold's extracted through one FeatureCache kept for
/// its whole life, as a session keeps it).  Its WCG keeps one address, and
/// its topology version rises exactly when needs_update() said it would.
void check_scoped_episode(const std::vector<HttpTransaction>& txns,
                          std::uint64_t seed, ScopeEvents& seen) {
  const BuilderOptions options;
  const FeatureExtractorOptions features;
  // What an online session logs: the transactions a builder would keep.
  std::vector<const HttpTransaction*> kept;
  for (const auto& txn : txns) {
    if (!txn.server_host.empty() && !options.trusted.is_trusted(txn.server_host)) {
      kept.push_back(&txn);
    }
  }
  if (kept.empty()) return;
  const std::string victim = kept.front()->client_host;
  const auto hosts_of = [](const HttpTransaction& txn) {
    std::vector<std::string> hosts{txn.server_host};
    if (const auto ref = txn.request.referrer()) {
      const std::string host = dm::http::host_of_url(*ref);
      if (!host.empty()) hosts.push_back(host);
    }
    return hosts;
  };

  std::mt19937_64 rng(seed);
  std::vector<TxnFacts> log;
  std::set<std::string> scope;
  WcgFold fold;
  FeatureCache cache;
  const Wcg* address = nullptr;
  std::uint64_t version = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    SCOPED_TRACE("fact " + std::to_string(i) + " of " + kept[i]->server_host);
    log.push_back(derive_facts(*kept[i], options.miner));
    bool grew = false;
    if (i == 0 || rng() % 3 == 0) {
      const std::size_t from = i == 0 ? 0 : rng() % kept.size();
      const auto hosts = hosts_of(*kept[from]);
      const std::string host = hosts[rng() % hosts.size()];
      bool admits_earlier = false;
      bool named = false;
      for (std::size_t j = 0; j <= i; ++j) {
        const auto named_by = hosts_of(*kept[j]);
        named |= std::find(named_by.begin(), named_by.end(), host) !=
                 named_by.end();
        admits_earlier |= j < i && !touches(*kept[j], scope) &&
                          touches(*kept[j], {host});
      }
      grew = scope.insert(host).second;
      if (grew && admits_earlier) ++seen.earlier_hosts;
      if (grew && !named) ++seen.unseen_hosts;
    }

    const bool joins = touches(*kept[i], scope);
    const bool built = address != nullptr && address->edge_count() > 0;
    const std::string origin =
        built && address->annotations().origin_known
            ? address->node(address->origin()).host
            : std::string();
    const std::uint64_t refolds = fold.full_refolds();
    const bool needs = fold.needs_update(log, &scope);
    const Wcg& folded = fold.update(options, log, victim, &scope);
    if (!grew && joins && fold.full_refolds() > refolds) {
      if (log.back().has_response && dm::http::is_exploit_type(log.back().payload)) {
        ++seen.exploit_refolds;
      } else if (log.back().server_host == origin) {
        ++seen.origin_refolds;
      }
    }

    if (address == nullptr) address = &folded;
    EXPECT_EQ(&folded, address) << "the fold's WCG moved";
    EXPECT_GE(folded.topology_version(), version);
    EXPECT_EQ(folded.topology_version() > version, needs);
    version = folded.topology_version();

    WcgBuilder reference;
    for (std::size_t j = 0; j <= i; ++j) {
      if (touches(*kept[j], scope)) reference.add(*kept[j]);
    }
    const Wcg rebuilt = reference.build();
    expect_wcgs_identical(folded, rebuilt);
    expect_features_identical(extract_features(folded, features, &cache),
                              extract_features(rebuilt, features));
  }
}

TEST(HotpathBuilderTest, ScopedFoldMatchesBuildOverTheFactsInScope) {
  ScopeEvents seen;
  dm::synth::TraceGenerator gen(7003);
  for (const auto& family : dm::synth::exploit_kit_families()) {
    const auto episode = gen.infection(family);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(family.name + " seed " + std::to_string(seed));
      check_scoped_episode(episode.transactions, seed, seen);
    }
  }
  for (int i = 0; i < 4; ++i) {
    const auto episode = gen.benign();
    SCOPED_TRACE("benign " + std::to_string(i));
    check_scoped_episode(episode.transactions, 11 + static_cast<std::uint64_t>(i),
                         seen);
  }

  // A hand-built conversation that reaches the origin and exploit paths:
  // portal.example entices the victim, later serves it (origin
  // invalidation), and an exploit download follows; every request is
  // referred from a.example, the first scope host.
  std::vector<HttpTransaction> crafted;
  const auto referred = [](HttpTransaction txn, const std::string& ref) {
    txn.request.headers.add("Referer", ref);
    return txn;
  };
  crafted.push_back(referred(make_txn("a.example", "/", 1'000'000),
                             "http://portal.example/"));
  crafted.push_back(referred(make_txn("b.example", "/page", 2'000'000),
                             "http://a.example/"));
  crafted.push_back(referred(make_txn("portal.example", "/self", 3'000'000),
                             "http://a.example/"));
  auto exploit = referred(make_txn("evil.example", "/payload.exe", 4'000'000),
                          "http://a.example/");
  exploit.response->headers = {};
  exploit.response->headers.add("Content-Type", "application/octet-stream");
  crafted.push_back(exploit);
  crafted.push_back(referred(make_txn("c.example", "/after", 5'000'000),
                             "http://a.example/"));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("crafted seed " + std::to_string(seed));
    check_scoped_episode(crafted, seed, seen);
  }

  EXPECT_GT(seen.earlier_hosts, 0u);
  EXPECT_GT(seen.unseen_hosts, 0u);
  EXPECT_GT(seen.exploit_refolds, 0u);
  EXPECT_GT(seen.origin_refolds, 0u);
  std::printf("[ scoped fold ] %zu earlier-host and %zu unseen-host growths, "
              "%zu exploit and %zu origin refolds\n",
              seen.earlier_hosts, seen.unseen_hosts, seen.exploit_refolds,
              seen.origin_refolds);
}

// ---------------------------------------------------------------------------
// Online-engine fences against the naive reference engine
// (tests/reference_online.h).
// ---------------------------------------------------------------------------

const Detector& shared_detector() {
  static const Detector detector = [] {
    const auto gt = dm::synth::generate_ground_truth(100, 0.06);
    std::vector<Wcg> infections;
    std::vector<Wcg> benign;
    for (const auto& e : gt.infections) {
      infections.push_back(build_wcg(e.transactions));
    }
    for (const auto& e : gt.benign) benign.push_back(build_wcg(e.transactions));
    return Detector(train_dynaminer(dataset_from_wcgs(infections, benign), 5));
  }();
  return detector;
}

std::shared_ptr<const Detector> shared_detector_ptr() {
  static const auto ptr =
      std::shared_ptr<const Detector>(&shared_detector(), [](const Detector*) {});
  return ptr;
}

OnlineOptions online_options(std::uint32_t redirect_chain_threshold = 2) {
  OnlineOptions options;
  options.redirect_chain_threshold = redirect_chain_threshold;
  return options;
}

std::vector<HttpTransaction> time_ordered(std::vector<HttpTransaction> stream) {
  std::stable_sort(stream.begin(), stream.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  return stream;
}

/// Mixed multi-family trace, episodes staggered onto one clock.
std::vector<HttpTransaction> mixed_trace(std::uint64_t seed) {
  dm::synth::TraceGenerator gen(seed);
  std::vector<dm::synth::Episode> episodes;
  for (int i = 0; i < 10; ++i) episodes.push_back(gen.benign());
  const auto& families = dm::synth::exploit_kit_families();
  for (int i = 0; i < 8; ++i) {
    episodes.push_back(
        gen.infection(families[static_cast<std::size_t>(i) % families.size()]));
  }
  std::vector<HttpTransaction> stream;
  std::uint64_t start = 1'600'000'000ULL * 1'000'000;
  for (auto& episode : episodes) {
    if (episode.transactions.empty()) continue;
    const std::uint64_t base = episode.transactions.front().request.ts_micros;
    for (auto& txn : episode.transactions) {
      txn.request.ts_micros = txn.request.ts_micros - base + start;
      if (txn.response) {
        txn.response->ts_micros = txn.response->ts_micros - base + start;
      }
      stream.push_back(std::move(txn));
    }
    start += 400'000;
  }
  return time_ordered(std::move(stream));
}

/// Every family of the 18-family catalog, 3 episodes each, one client per
/// episode.
std::vector<HttpTransaction> catalog_trace() {
  std::vector<HttpTransaction> stream;
  std::size_t c = 0;
  for (const auto& family : dm::synth::trace_family_catalog()) {
    for (std::uint64_t seed = 7300; seed < 7303; ++seed, ++c) {
      const std::string client = "10.73." + std::to_string(c / 200) + "." +
                                 std::to_string(2 + c % 200);
      for (auto& txn : dm::synth::episode_for_family(seed, family).transactions) {
        txn.client_host = client;
        stream.push_back(std::move(txn));
      }
    }
  }
  return time_ordered(std::move(stream));
}

/// The fence's one comparison: alert sets equal bit for bit, score bits
/// included.
void expect_same_alerts(const std::vector<Alert>& engine,
                        const std::vector<Alert>& reference,
                        const std::string& what) {
  EXPECT_EQ(reference::alert_keys(engine), reference::alert_keys(reference))
      << what << ": alert set diverged from the reference engine";
}

/// Counters that depend only on each client's own transactions: all but
/// expiry and eviction, whose timing follows the timestamps each shard
/// happens to see.
OnlineStats per_client(OnlineStats stats) {
  stats.sessions_expired = 0;
  stats.sessions_evicted = 0;
  return stats;
}

struct ShardedRun {
  std::vector<Alert> alerts;
  OnlineStats stats;
};

ShardedRun run_sharded(const std::vector<HttpTransaction>& stream,
                       const OnlineOptions& options, std::size_t shards) {
  dm::runtime::ShardedOptions sharded;
  sharded.num_shards = shards;
  sharded.online = options;
  dm::runtime::ShardedOnlineEngine engine(shared_detector_ptr(), sharded);
  for (const auto& txn : stream) engine.observe(txn);
  engine.finish();
  return {engine.merged_alerts(), engine.aggregated_stats()};
}

/// Runs `stream` through the reference engine, the sequential engine, and
/// the sharded engine at 1/2/8 shards.  Every engine must reproduce the
/// reference's non-empty alert set, and each shard aggregate must equal the
/// sequential engine's per-client counters.  Returns the sequential stats.
OnlineStats expect_engines_match_reference(
    const std::vector<HttpTransaction>& stream, const OnlineOptions& options) {
  const auto reference =
      reference::run_reference(shared_detector(), options, stream);
  EXPECT_GT(reference.alerts().size(), 0u) << "vacuous fence: no alerts";

  OnlineDetector sequential(shared_detector(), options);
  for (const auto& txn : stream) sequential.observe(txn);
  expect_same_alerts(sequential.alerts(), reference.alerts(), "sequential");
  EXPECT_EQ(sequential.stats().clues_fired, reference.clues_fired());
  // The oracle never skips a query; the engine skips unchanged scopes.
  EXPECT_LE(sequential.stats().classifier_queries, reference.verdicts().size());

  for (const std::size_t shards : {1u, 2u, 8u}) {
    const auto run = run_sharded(stream, options, shards);
    const std::string what = std::to_string(shards) + " shards";
    expect_same_alerts(run.alerts, reference.alerts(), what);
    EXPECT_EQ(per_client(run.stats), per_client(sequential.stats()))
        << what << ": aggregated stats diverged from the sequential engine";
  }
  return sequential.stats();
}

TEST(HotpathOnlineTest, EnginesMatchReferenceOnMixedTrace7100) {
  const auto stats = expect_engines_match_reference(mixed_trace(7100),
                                                    online_options());
  // Every clue folds its scope from the start of the log once, so the shard
  // aggregate is checked on a nonzero scope_rescans.  This trace alerts on
  // first verdicts and never refolds a grown scope: the post-clue refold
  // path is fenced by the lockstep verdict tests below.
  EXPECT_GE(stats.scope_rescans, 1u);
}

TEST(HotpathOnlineTest, EnginesMatchReferenceOnMixedTrace7200) {
  expect_engines_match_reference(mixed_trace(7200), online_options());
}

TEST(HotpathOnlineTest, EnginesMatchReferenceOnFamilyCatalogAtL2AndL3) {
  const auto stream = catalog_trace();
  for (const std::uint32_t l : {2u, 3u}) {
    SCOPED_TRACE("redirect_chain_threshold " + std::to_string(l));
    expect_engines_match_reference(stream, online_options(l));
  }
}

/// What a lockstep run of the engine against the oracle shows.
struct VerdictRun {
  OnlineStats stats;  // the engine's
  std::size_t engine_verdicts = 0;
  std::size_t oracle_verdicts = 0;
};

/// Feeds `stream` to the engine and the oracle in lockstep and checks every
/// oracle verdict against the engine's.  The oracle scores every post-clue
/// update; the engine skips updates that leave the scope unchanged.  So each
/// oracle verdict must carry the score bits and WCG size of the engine's
/// verdict at the same update or, where the engine skipped, of the engine's
/// latest earlier verdict in that session (engine and oracle group
/// transactions into the same session keys); and the engine must make no
/// verdict the oracle did not.
VerdictRun expect_verdicts_match_reference(
    const std::vector<HttpTransaction>& stream, OnlineOptions options) {
  struct Scored {
    std::uint64_t score_bits;
    std::size_t wcg_size;
  };
  std::optional<Scored> tapped;
  options.verdict_tap = [&tapped](const Wcg& wcg, double score, bool,
                                  std::uint64_t) {
    tapped = Scored{std::bit_cast<std::uint64_t>(score), wcg.edge_count()};
  };
  OnlineDetector engine(shared_detector(), options);
  reference::ReferenceOnline oracle(shared_detector(), options);
  std::map<std::string, Scored> latest;  // session key -> engine verdict
  VerdictRun run;
  for (const auto& txn : stream) {
    tapped.reset();
    const std::size_t oracle_before = oracle.verdicts().size();
    engine.observe(txn);
    oracle.observe(txn);
    run.engine_verdicts += tapped.has_value();
    if (oracle.verdicts().size() == oracle_before) {
      EXPECT_FALSE(tapped.has_value())
          << "engine verdict the oracle never made at " << txn.request.ts_micros;
      continue;
    }
    const reference::Verdict& verdict = oracle.verdicts().back();
    if (tapped) latest[verdict.session_key] = *tapped;
    const auto it = latest.find(verdict.session_key);
    if (it == latest.end()) {
      ADD_FAILURE() << "oracle scored " << verdict.session_key
                    << " before the engine did";
      continue;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(verdict.score), it->second.score_bits)
        << verdict.session_key << " update at " << verdict.ts_micros;
    EXPECT_EQ(verdict.wcg_size, it->second.wcg_size)
        << verdict.session_key << " update at " << verdict.ts_micros;
  }
  EXPECT_EQ(engine.stats().clues_fired, oracle.clues_fired());
  run.stats = engine.stats();
  run.oracle_verdicts = oracle.verdicts().size();
  return run;
}

TEST(HotpathOnlineTest, RetroactiveSuspiciousHostRescansAndStaysIdentical) {
  // cnc.example is contacted *before* the clue; only a post-clue request
  // referred from the clue host implicates it, forcing the scoped fold to
  // refold from the start of the log and admit the earlier transaction.
  std::vector<HttpTransaction> stream;
  auto at = [](std::uint64_t s) { return s * 1'000'000; };

  stream.push_back(make_txn("cnc.example", "/beacon", at(1)));
  stream.push_back(redirect_hop("landing.example", "hop1.example", at(2)));
  stream.push_back(redirect_hop("hop1.example", "hop2.example", at(3)));
  stream.push_back(redirect_hop("hop2.example", "drop.example", at(4)));
  stream.push_back(exe_download("drop.example", at(5)));

  auto callback = make_txn("cnc.example", "/report", at(6));
  callback.request.headers.add("Referer", "http://drop.example/update.exe");
  stream.push_back(callback);

  // A further fetch from the implicated drop host grows the scope without a
  // rescan, so the engine must re-score, not skip.
  stream.push_back(make_txn("drop.example", "/module", at(7)));

  // Unrelated noise afterwards: scope unchanged -> queries skipped.
  for (int i = 0; i < 5; ++i) {
    stream.push_back(make_txn("news.example", "/a" + std::to_string(i),
                              at(8 + static_cast<std::uint64_t>(i))));
  }

  // Keep the session alive past the clue (an alert would terminate it
  // before the retroactive implication happens) so the refold and the
  // unchanged-scope skip are both reached deterministically.  With no
  // alert to compare, the fence compares every verdict's score bits.
  auto options = online_options();
  options.decision_threshold = 2.0;
  const VerdictRun run = expect_verdicts_match_reference(stream, options);
  EXPECT_EQ(run.stats.clues_fired, 1u);
  // The first fold at the clue, then a refold when cnc.example is implicated.
  EXPECT_GT(run.stats.scope_rescans, run.stats.clues_fired);
  EXPECT_GE(run.stats.queries_skipped_unchanged, 1u);
  EXPECT_GT(run.engine_verdicts, 0u);
  EXPECT_LT(run.engine_verdicts, run.oracle_verdicts);

  // A stream that skips queries: the shard aggregate must sum
  // queries_skipped_unchanged too.
  for (const std::size_t shards : {1u, 2u, 8u}) {
    EXPECT_EQ(per_client(run_sharded(stream, options, shards).stats),
              per_client(run.stats))
        << shards << " shards";
  }
}

/// A session whose clue fires on its last transaction, at 4 s: three
/// redirect hops from landing.example to drop.example, then an executable
/// download from drop.example.
std::vector<HttpTransaction> clue_chain() {
  return {redirect_hop("landing.example", "hop1.example", 1'000'000),
          redirect_hop("hop1.example", "hop2.example", 2'000'000),
          redirect_hop("hop2.example", "drop.example", 3'000'000),
          exe_download("drop.example", 4'000'000)};
}

/// A POST to `server`, answered with a page.
HttpTransaction post(const std::string& server, std::uint64_t ts_micros) {
  auto txn = make_txn(server, "/report", ts_micros);
  txn.request.method = "POST";
  return txn;
}

TEST(HotpathOnlineTest, PostClueCallBackIsAHostFirstContactedAfterTheClue) {
  // The call-back rule implicates a POST's host only if no transaction
  // before the clue contacted it.  seen.example is contacted before the
  // clue, fresh.example only after it (by a GET, then a POST).
  std::vector<HttpTransaction> stream = {make_txn("seen.example", "/", 500'000)};
  for (auto& txn : clue_chain()) stream.push_back(std::move(txn));
  stream.push_back(post("seen.example", 5'000'000));         // skipped
  stream.push_back(make_txn("fresh.example", "/", 6'000'000));  // skipped
  stream.push_back(post("fresh.example", 7'000'000));        // refolds

  // No score reaches the threshold, so every verdict is compared.
  auto options = online_options();
  options.decision_threshold = 2.0;
  const VerdictRun run = expect_verdicts_match_reference(stream, options);
  EXPECT_EQ(run.stats.clues_fired, 1u);
  // The POST to seen.example leaves the scope as it was, and so does the
  // GET to fresh.example; the POST to fresh.example grows it.
  EXPECT_EQ(run.stats.queries_skipped_unchanged, 2u);
  EXPECT_EQ(run.stats.scope_rescans, 2u);  // the clue's fold, then one refold
  EXPECT_EQ(run.engine_verdicts, 2u);
  EXPECT_EQ(run.oracle_verdicts, 4u);
}

/// Scores 0 before its `alerting`-th query and 1 from it on.
class AlertsFromQuery final : public WcgScorer {
 public:
  explicit AlertsFromQuery(std::size_t alerting) : alerting_(alerting) {}
  double score(const Wcg&, FeatureCache*) override {
    return ++queries_ >= alerting_ ? 1.0 : 0.0;
  }

 private:
  std::size_t alerting_;
  std::size_t queries_ = 0;
};

TEST(HotpathOnlineTest, AlertNamesTheClueDownloadNotTheAlertingTransaction) {
  // The clue's own verdict scores 0; a call-back POST after it refolds the
  // scope and scores 1.  The alert comes on the POST, but names the clue
  // download's host and payload.
  auto options = online_options();
  options.scorer = std::make_shared<AlertsFromQuery>(2);
  OnlineDetector engine(shared_detector(), options);
  for (auto& txn : clue_chain()) ASSERT_FALSE(engine.observe(std::move(txn)));
  const auto callback = post("cnc.example", 5'000'000);
  const auto clue_payload =
      dm::http::classify_payload("application/octet-stream", "/update.exe");
  ASSERT_NE(dm::http::classify_payload("text/html", callback.request.uri),
            clue_payload);

  const auto alert = engine.observe(callback);
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(engine.stats().classifier_queries, 2u);
  EXPECT_EQ(alert->ts_micros, callback.request.ts_micros);
  EXPECT_EQ(alert->trigger_host, "drop.example");
  EXPECT_EQ(alert->trigger_payload, clue_payload);
}

TEST(HotpathOnlineTest, UnloggedClueDownloadIsNeverReadFromTheLog) {
  // A clue download with no server host is not logged, so its log position
  // is past the log's end; the alert it raises at once names it from the
  // transaction at hand.
  auto options = online_options();
  options.scorer = std::make_shared<AlertsFromQuery>(1);
  OnlineDetector engine(shared_detector(), options);
  auto chain = clue_chain();
  chain.back().server_host.clear();
  const auto clue = chain.back();
  chain.pop_back();
  for (auto& txn : chain) ASSERT_FALSE(engine.observe(std::move(txn)));

  const auto alert = engine.observe(clue);
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(engine.stats().clues_fired, 1u);
  EXPECT_EQ(alert->trigger_host, "");
  EXPECT_EQ(alert->trigger_payload, dm::http::PayloadType::kExe);
}

TEST(HotpathOnlineTest, PostClueRefoldsMatchReferenceOnFamilyCatalogAtL2AndL3) {
  // With a threshold no score reaches, no alert ends a session: every
  // clue-bearing session is scored through the rest of its episode, its
  // suspicious hosts keep growing after the first fold, and each growth
  // refolds the scoped WCG in place.  Every oracle verdict must carry the
  // engine's score bits across those refolds.
  const auto stream = catalog_trace();
  for (const std::uint32_t l : {2u, 3u}) {
    SCOPED_TRACE("redirect_chain_threshold " + std::to_string(l));
    auto options = online_options(l);
    options.decision_threshold = 2.0;
    const VerdictRun run = expect_verdicts_match_reference(stream, options);
    EXPECT_GT(run.engine_verdicts, 0u);
    EXPECT_GT(run.stats.scope_rescans, run.stats.clues_fired)
        << "no scope grew after its first fold";
    std::printf("[ catalog l=%u ] %zu clues, %zu scope folds, %zu engine / "
                "%zu oracle verdicts\n",
                l, run.stats.clues_fired, run.stats.scope_rescans,
                run.engine_verdicts, run.oracle_verdicts);
  }
}

TEST(HotpathOnlineTest, FenceFailsOnAnInjectedDivergence) {
  // Feed the reference the stream minus the transaction that tipped one
  // session into its alert: the comparison every fence uses must object.
  const auto stream = mixed_trace(7100);
  OnlineDetector engine(shared_detector(), online_options());
  for (const auto& txn : stream) engine.observe(txn);
  ASSERT_FALSE(engine.alerts().empty());
  const Alert& alert = engine.alerts().front();
  auto tampered = stream;
  const auto trigger = std::find_if(
      tampered.begin(), tampered.end(), [&](const HttpTransaction& txn) {
        return txn.client_host == alert.client &&
               txn.request.ts_micros == alert.ts_micros;
      });
  ASSERT_NE(trigger, tampered.end());
  tampered.erase(trigger);
  const auto reference =
      reference::run_reference(shared_detector(), online_options(), tampered);
  EXPECT_NONFATAL_FAILURE(
      expect_same_alerts(engine.alerts(), reference.alerts(), "tampered"),
      "tampered: alert set diverged");
}

TEST(HotpathOnlineTest, ObserveByMoveMatchesObserveByCopy) {
  // observe() moves its argument into the session log and reads the logged
  // transaction for the rest of the call.  A copy and a move must give the
  // same run, and the classifier fault hook must see the whole transaction:
  // a read of the moved-from argument would find its host and body gone.
  const auto stream = mixed_trace(7100);
  std::map<std::tuple<std::string, std::uint64_t, std::string>,
           const HttpTransaction*>
      original;
  for (const auto& txn : stream) {
    ASSERT_TRUE(original
                    .emplace(std::tuple(txn.client_host, txn.request.ts_micros,
                                        txn.request.uri),
                             &txn)
                    .second);
  }
  struct Run {
    std::vector<Alert> alerts;
    OnlineStats stats;
    std::vector<std::size_t> pinned;  // session_bytes_pinned() after each call
    std::vector<std::tuple<std::uint64_t, std::size_t, std::size_t>> taps;
    std::size_t hooked = 0;
    std::size_t hollow = 0;  // hook calls that saw a partial transaction
  };
  const auto run = [&](bool by_move) {
    Run r;
    auto options = online_options();
    options.classifier_fault_hook = [&](const HttpTransaction& txn) {
      ++r.hooked;
      const auto it = original.find(
          std::tuple(txn.client_host, txn.request.ts_micros, txn.request.uri));
      const bool whole =
          it != original.end() && !txn.server_host.empty() &&
          txn.server_host == it->second->server_host &&
          txn.response.has_value() == it->second->response.has_value() &&
          (!txn.response || txn.response->body == it->second->response->body);
      r.hollow += !whole;
    };
    options.verdict_tap = [&r](const Wcg& wcg, double, bool, std::uint64_t ts) {
      r.taps.emplace_back(ts, wcg.node_count(), wcg.edge_count());
    };
    OnlineDetector engine(shared_detector(), options);
    auto input = stream;
    for (auto& txn : input) {
      if (by_move) {
        engine.observe(std::move(txn));
      } else {
        engine.observe(txn);
      }
      r.pinned.push_back(engine.session_bytes_pinned());
    }
    r.alerts = engine.alerts();
    r.stats = engine.stats();
    return r;
  };
  const Run by_copy = run(false);
  const Run by_move = run(true);
  ASSERT_FALSE(by_copy.alerts.empty());
  ASSERT_GT(by_copy.hooked, 0u);
  EXPECT_EQ(reference::alert_keys(by_move.alerts),
            reference::alert_keys(by_copy.alerts));
  EXPECT_EQ(by_move.stats, by_copy.stats);
  EXPECT_EQ(by_move.pinned, by_copy.pinned);
  EXPECT_EQ(by_move.taps, by_copy.taps);
  EXPECT_EQ(by_move.hooked, by_copy.hooked);
  EXPECT_EQ(by_copy.hollow, 0u);
  EXPECT_EQ(by_move.hollow, 0u);
}

/// Everything a run of the engine shows: alerts, counters, the verdict-tap
/// sequence and the bytes pinned after every call.
struct FactsRun {
  std::vector<Alert> alerts;
  OnlineStats stats;
  /// (timestamp, score bits, WCG order, WCG size) per completed verdict.
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::size_t, std::size_t>>
      taps;
  std::vector<std::size_t> pinned;  // session_bytes_pinned() after each call
};

FactsRun run_engine(std::vector<HttpTransaction> input) {
  FactsRun r;
  auto options = online_options();
  options.verdict_tap = [&r](const Wcg& wcg, double score, bool,
                             std::uint64_t ts) {
    r.taps.emplace_back(ts, std::bit_cast<std::uint64_t>(score),
                        wcg.node_count(), wcg.edge_count());
  };
  OnlineDetector engine(shared_detector(), options);
  for (auto& txn : input) {
    engine.observe(std::move(txn));
    r.pinned.push_back(engine.session_bytes_pinned());
  }
  r.alerts = engine.alerts();
  r.stats = engine.stats();
  return r;
}

/// One failure naming every part of `run` that differs from `base`.
void expect_same_run(const FactsRun& run, const FactsRun& base,
                     const std::string& what) {
  std::string differs;
  if (reference::alert_keys(run.alerts) != reference::alert_keys(base.alerts)) {
    differs += " alerts";
  }
  if (run.stats != base.stats) differs += " stats";
  if (run.taps != base.taps) differs += " verdict-taps";
  if (run.pinned != base.pinned) differs += " pinned-bytes";
  EXPECT_TRUE(differs.empty()) << what << ": the run differs in" << differs;
}

/// The redirect miner's rule: only markup and script bodies are mined.
bool minable(const dm::http::HttpResponse& res) {
  const auto ct = res.content_type().value_or("");
  return ct.empty() || dm::util::ifind(ct, "html") != std::string_view::npos ||
         dm::util::ifind(ct, "javascript") != std::string_view::npos ||
         dm::util::ifind(ct, "ecmascript") != std::string_view::npos;
}

/// `stream` with 64 headers of 100 bytes added to every request and
/// response, and every body the miner does not read replaced by other bytes
/// of the same length.
std::vector<HttpTransaction> padded(std::vector<HttpTransaction> stream) {
  const std::string pad(100, 'p');
  for (auto& txn : stream) {
    for (int k = 0; k < 64; ++k) {
      txn.request.headers.add("X-Pad-" + std::to_string(k), pad);
    }
    if (!txn.response) continue;
    for (int k = 0; k < 64; ++k) {
      txn.response->headers.add("X-Pad-" + std::to_string(k), pad);
    }
    if (!minable(*txn.response)) {
      for (char& c : txn.response->body) c = static_cast<char>(c ^ 0x55);
    }
  }
  return stream;
}

TEST(HotpathOnlineTest, EngineKeepsNothingButTransactionFacts) {
  // The engine keeps a transaction's facts and frees the rest before
  // observe() returns.  Header lists and the bytes of bodies the miner does
  // not read are no facts, so growing and rewriting them must leave the run
  // and the pinned bytes exactly as they were.
  const auto stream = mixed_trace(7100);
  const auto pad = padded(stream);
  std::size_t rewritten = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    rewritten += stream[i].response && !stream[i].response->body.empty() &&
                 stream[i].response->body != pad[i].response->body;
  }
  ASSERT_GT(rewritten, 10u);

  const FactsRun base = run_engine(stream);
  ASSERT_FALSE(base.alerts.empty());
  ASSERT_FALSE(base.taps.empty());
  expect_same_run(run_engine(pad), base, "padded");

  // The comparison objects when the padded run loses one risky download:
  // the clue download of the first alert.
  const Alert& alert = base.alerts.front();
  auto tampered = pad;
  const auto clue = std::find_if(
      tampered.begin(), tampered.end(), [&](const HttpTransaction& txn) {
        return txn.client_host == alert.client &&
               txn.server_host == alert.trigger_host && txn.response &&
               txn.response->status_code == 200 &&
               dm::http::is_download_type(dm::http::classify_payload(
                   txn.response->content_type().value_or(""),
                   txn.request.uri));
      });
  ASSERT_NE(clue, tampered.end());
  tampered.erase(clue);
  const FactsRun tampered_run = run_engine(tampered);
  EXPECT_NONFATAL_FAILURE(expect_same_run(tampered_run, base, "tampered"),
                          "tampered: the run differs in alerts stats "
                          "verdict-taps pinned-bytes");
}

}  // namespace
}  // namespace dm::core
