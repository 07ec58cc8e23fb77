// Budgeted-session-lifecycle fences (DESIGN.md §15).
//
// Idle expiry from the LRU head and the LRU budget replaced the
// per-observe O(all-sessions) scan, so these tests hold the replacement to
// the scan's exact semantics:
//
//  * SessionLifecycleModelTest — the whole engine against a brute-force
//    model that re-applies the old full-scan expiry predicate after every
//    event: resident set, opened count, and expired count must agree at
//    every step.  Three gap profiles: 0-40 s gaps (straddling the 30 s
//    join gap), mostly sub-second gaps (activity and sweeps within one
//    second, where an off-by-one idle test shows), and occasional
//    multi-day jumps (everything due at once).
//  * SessionLifecycleSkewTest — the same stream with late transactions:
//    the engine stays between a full scan at the timeout and one at the
//    timeout plus the largest lag.
//  * SessionBudgetTest — determinism (same stream twice -> identical
//    counters and alerts), the resident cap holding after every observe,
//    per-cause conservation through the dm.session.* panel, the byte
//    accounting tracking the allocator's own growth within 15%, and the
//    budget-invisibility fence: on a trace whose live concurrency fits the
//    budget, budgeted sequential and 1/2/8-shard engines reproduce the
//    unbounded engine's alert set bit for bit — and that fence's
//    comparison is shown to object to an injected divergence.
#include "core/online.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>


#include "core/trainer.h"
#include "malloc_probe.h"
#include "obs/metrics.h"
#include "runtime/sharded_online.h"
#include "synth/dataset.h"
#include "synth/families.h"
#include "synth/generator.h"

namespace dm::core {
namespace {

/// Trains a small detector once; shared by every test in this binary.
std::shared_ptr<const Detector> shared_detector() {
  static const auto detector = [] {
    const auto gt = dm::synth::generate_ground_truth(100, 0.06);
    std::vector<Wcg> infections;
    std::vector<Wcg> benign;
    for (const auto& e : gt.infections) {
      infections.push_back(build_wcg(e.transactions));
    }
    for (const auto& e : gt.benign) benign.push_back(build_wcg(e.transactions));
    return std::make_shared<const Detector>(
        Detector(train_dynaminer(dataset_from_wcgs(infections, benign), 5)));
  }();
  return detector;
}

constexpr std::uint64_t kEpoch = 1'700'000'000ULL * 1'000'000;

// ---------------------------------------------------------------------------
// Engine vs brute-force full-scan model
// ---------------------------------------------------------------------------

/// How far apart the lifecycle model's events are drawn.
enum class GapProfile { kUpTo40s, kSubSecond, kMultiDayJumps };

std::uint64_t draw_gap(GapProfile profile, std::mt19937_64& rng) {
  switch (profile) {
    case GapProfile::kUpTo40s:
      break;
    case GapProfile::kSubSecond:
      if (rng() % 3 != 0) return rng() % 1'500'000;  // two in three: 0-1.5 s
      break;
    case GapProfile::kMultiDayJumps:
      if (rng() % 50 == 0) {
        return (2 + rng() % 5) * 86'400ULL * 1'000'000;  // 2-6 days
      }
      break;
  }
  return rng() % 40'000'000;  // 0-40 s: straddles the 30 s join gap
}

const char* profile_name(GapProfile profile) {
  switch (profile) {
    case GapProfile::kUpTo40s:
      return "UpTo40s";
    case GapProfile::kSubSecond:
      return "SubSecond";
    case GapProfile::kMultiDayJumps:
      return "MultiDayJumps";
  }
  return "Unknown";
}

void PrintTo(GapProfile profile, std::ostream* os) {
  *os << profile_name(profile);
}

class SessionLifecycleModelTest : public ::testing::TestWithParam<GapProfile> {
};

TEST_P(SessionLifecycleModelTest, ExpiryMatchesFullScanModel) {
  OnlineOptions options;
  options.redirect_chain_threshold = 2;
  OnlineDetector online(shared_detector(), options);

  std::mt19937_64 rng(77);
  constexpr std::size_t kClients = 40;
  std::uint64_t now = kEpoch;
  // Model: per client, the last-activity stamp of every live session.  One
  // fixed server host per client keeps the heuristic's host link always
  // satisfied, and no clue material ever fires, so grouping + expiry are the
  // only behaviors in play.
  std::map<std::string, std::vector<std::uint64_t>> model;
  std::size_t model_opened = 0;
  std::size_t model_expired = 0;

  // The old full-map scan, verbatim: strictly-past-timeout sessions leave.
  const auto model_expire = [&](std::uint64_t ts) {
    for (auto& [client, live] : model) {
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](std::uint64_t last) {
                                  if (ts < last) return false;
                                  const double idle_s =
                                      static_cast<double>(ts - last) / 1e6;
                                  if (idle_s > options.session_idle_timeout_s) {
                                    ++model_expired;
                                    return true;
                                  }
                                  return false;
                                }),
                 live.end());
    }
  };

  for (int event = 0; event < 1500; ++event) {
    now += draw_gap(GetParam(), rng);
    if (rng() % 10 == 0) {
      online.expire_idle(now);
      model_expire(now);
    } else {
      const std::size_t c = rng() % kClients;
      const std::string client = "10.1.1." + std::to_string(c);
      dm::http::HttpTransaction txn;
      txn.client_host = client;
      txn.server_host = "svc-" + std::to_string(c) + ".example";
      txn.request.method = "GET";
      txn.request.uri = "/p" + std::to_string(event);
      txn.request.ts_micros = now;
      dm::http::HttpResponse res;
      res.status_code = 200;
      res.ts_micros = now + 200;
      res.headers.add("Content-Type", "text/html");
      txn.response = std::move(res);
      online.observe(std::move(txn));

      // Model join: the most recent live session within the join gap (the
      // timestamp heuristic; the host link always holds here).  Timestamps
      // are monotone, so joinable (idle <= timeout) is implied by the
      // tighter gap test.
      auto& live = model[client];
      std::uint64_t* best = nullptr;
      for (auto& last : live) {
        const double gap_s = static_cast<double>(now - last) / 1e6;
        if (gap_s <= options.session_join_gap_s &&
            (best == nullptr || last > *best)) {
          best = &last;
        }
      }
      if (best != nullptr) {
        *best = now;
      } else {
        live.push_back(now);
        ++model_opened;
      }
      // observe() ends with the LRU walk, and on a time-ordered stream the
      // LRU list is in last-activity order, so the engine is scan-clean
      // after every transaction.
      model_expire(now);
    }

    std::size_t model_live = 0;
    for (const auto& [client, live] : model) model_live += live.size();
    ASSERT_EQ(online.active_sessions(), model_live) << "event " << event;
    ASSERT_EQ(online.stats().sessions_opened, model_opened)
        << "event " << event;
    ASSERT_EQ(online.stats().sessions_expired, model_expired)
        << "event " << event;
  }
  // The interleaving actually exercised churn, not one steady state.
  EXPECT_GT(model_opened, kClients);
  EXPECT_GT(model_expired, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    GapProfiles, SessionLifecycleModelTest,
    ::testing::Values(GapProfile::kUpTo40s, GapProfile::kSubSecond,
                      GapProfile::kMultiDayJumps),
    [](const ::testing::TestParamInfo<GapProfile>& info) {
      return std::string(profile_name(info.param));
    });

// ---------------------------------------------------------------------------
// Out-of-order input: expiry late by at most the lag, never early
// ---------------------------------------------------------------------------

/// A full-scan model of the engine's sessions on the lifecycle stream: it
/// groups by the engine's joinable and join-gap rules (the engine's idle
/// timeout, late timestamps included) over its own resident sessions, and
/// expires by a full scan at `expiry_timeout_s`.
class FullScanModel {
 public:
  FullScanModel(const OnlineOptions& options, double expiry_timeout_s)
      : options_(options), expiry_timeout_s_(expiry_timeout_s) {}

  /// One transaction of `client` stamped `ts`, then a full scan at `ts`.
  void observe(const std::string& client, std::uint64_t ts) {
    auto& live = live_[client];
    std::uint64_t* best = nullptr;
    for (auto& last : live) {
      const bool late = ts < last;
      const double gap_s = late ? 0.0 : static_cast<double>(ts - last) / 1e6;
      const bool joinable = late || gap_s <= options_.session_idle_timeout_s;
      if (joinable && (late || gap_s <= options_.session_join_gap_s) &&
          (best == nullptr || last > *best)) {
        best = &last;
      }
    }
    if (best != nullptr) {
      *best = std::max(*best, ts);
    } else {
      live.push_back(ts);
      ++opened_;
    }
    expire(ts);
  }

  void expire(std::uint64_t ts) {
    for (auto& [client, live] : live_) {
      std::erase_if(live, [&](std::uint64_t last) {
        return ts >= last &&
               static_cast<double>(ts - last) / 1e6 > expiry_timeout_s_;
      });
    }
  }

  std::size_t live() const {
    std::size_t n = 0;
    for (const auto& [client, live] : live_) n += live.size();
    return n;
  }
  std::size_t opened() const { return opened_; }

 private:
  const OnlineOptions& options_;
  double expiry_timeout_s_;
  /// Per client, the last-activity stamp of every resident session.
  std::map<std::string, std::vector<std::uint64_t>> live_;
  std::size_t opened_ = 0;
};

TEST(SessionLifecycleSkewTest, LateTransactionsDelayExpiryByAtMostTheirLag) {
  // The lifecycle model's 40-client stream, except that one transaction in
  // five is stamped up to kLag behind the stream clock.  Expiry walks the
  // LRU list, which such a transaction leaves out of last-activity order,
  // so the engine must hold between a full scan at the timeout (never
  // early) and one at the timeout + kLag (late by at most the lag).  The
  // timeout minus the lag exceeds the join gap and no transaction carries a
  // session id, so no transaction can join a session one side has erased
  // and the other has not: all three group alike.
  OnlineOptions options;
  options.redirect_chain_threshold = 2;
  OnlineDetector online(shared_detector(), options);
  constexpr std::uint64_t kLag = 20'000'000;
  ASSERT_GT(options.session_idle_timeout_s - kLag / 1e6,
            options.session_join_gap_s);
  FullScanModel on_time(options, options.session_idle_timeout_s);
  FullScanModel lagged(options, options.session_idle_timeout_s + kLag / 1e6);

  std::mt19937_64 rng(77);
  constexpr std::size_t kClients = 40;
  std::uint64_t now = kEpoch;  // the stream clock
  std::size_t late_events = 0;  // events after which a session lingered
  for (int event = 0; event < 1500; ++event) {
    now += draw_gap(GapProfile::kUpTo40s, rng);
    if (rng() % 10 == 0) {
      online.expire_idle(now);
      on_time.expire(now);
      lagged.expire(now);
    } else {
      const std::size_t c = rng() % kClients;
      const std::string client = "10.1.1." + std::to_string(c);
      const std::uint64_t ts = rng() % 5 == 0 ? now - rng() % (kLag + 1) : now;
      dm::http::HttpTransaction txn;
      txn.client_host = client;
      txn.server_host = "svc-" + std::to_string(c) + ".example";
      txn.request.method = "GET";
      txn.request.uri = "/p" + std::to_string(event);
      txn.request.ts_micros = ts;
      dm::http::HttpResponse res;
      res.status_code = 200;
      res.ts_micros = ts + 200;
      res.headers.add("Content-Type", "text/html");
      txn.response = std::move(res);
      online.observe(std::move(txn));
      on_time.observe(client, ts);
      lagged.observe(client, ts);
    }

    ASSERT_GE(online.active_sessions(), on_time.live())
        << "event " << event << ": a session left before its timeout";
    ASSERT_LE(online.active_sessions(), lagged.live())
        << "event " << event << ": a session outlived its timeout + lag";
    ASSERT_EQ(online.stats().sessions_opened, on_time.opened())
        << "event " << event;
    ASSERT_EQ(on_time.opened(), lagged.opened()) << "event " << event;
    if (online.active_sessions() > on_time.live()) ++late_events;
  }
  // The late transactions actually reordered the LRU list past a due session.
  EXPECT_GT(late_events, 0u);
  EXPECT_GT(on_time.opened(), kClients);

  online.expire_idle(now + 86'400ULL * 1'000'000);
  EXPECT_EQ(online.active_sessions(), 0u);
  EXPECT_EQ(online.stats().sessions_opened, online.stats().sessions_expired);
}

// ---------------------------------------------------------------------------
// Budget: determinism, cap, conservation, shard invisibility
// ---------------------------------------------------------------------------

/// Session-opening transaction for client index `i` (no clue material).
dm::http::HttpTransaction fill_txn(std::size_t i, std::uint64_t ts_micros,
                                   std::size_t body_bytes = 0) {
  dm::http::HttpTransaction txn;
  txn.client_host = "10.2." + std::to_string(i / 200) + "." +
                    std::to_string(i % 200 + 1);
  txn.server_host = "origin" + std::to_string(i % 31) + ".example";
  txn.request.method = "GET";
  txn.request.uri = "/index";
  txn.request.ts_micros = ts_micros;
  dm::http::HttpResponse res;
  res.status_code = 200;
  res.ts_micros = ts_micros + 100;
  res.headers.add("Content-Type", "text/html");
  res.body.assign(body_bytes, 'x');
  txn.response = std::move(res);
  return txn;
}

struct RunResult {
  OnlineStats stats;
  std::size_t resident = 0;
  std::size_t bytes_pinned = 0;
  std::size_t resident_peak = 0;
};

RunResult run_fill(const OnlineOptions& options, std::size_t clients) {
  OnlineDetector online(shared_detector(), options);
  RunResult r;
  std::mt19937_64 rng(9);
  std::uint64_t ts = kEpoch;
  for (std::size_t i = 0; i < clients; ++i) {
    // Revisit an earlier client now and then so LRU order is non-trivial.
    const std::size_t c = (rng() % 4 == 0 && i > 0) ? rng() % i : i;
    online.observe(fill_txn(c, ts));
    ts += 1'000;
    r.resident_peak = std::max(r.resident_peak, online.active_sessions());
  }
  r.stats = online.stats();
  r.resident = online.active_sessions();
  r.bytes_pinned = online.session_bytes_pinned();
  return r;
}

TEST(SessionBudgetTest, EvictionIsDeterministicAndCapHolds) {
  OnlineOptions options;
  options.session_idle_timeout_s = 1e9;  // isolate the budget from idle expiry
  options.budget.max_sessions = 50;
  const auto first = run_fill(options, 2'000);
  const auto second = run_fill(options, 2'000);

  EXPECT_LE(first.resident_peak, options.budget.max_sessions);
  EXPECT_GT(first.stats.sessions_evicted, 0u);
  EXPECT_EQ(first.stats.sessions_opened, second.stats.sessions_opened);
  EXPECT_EQ(first.stats.sessions_evicted, second.stats.sessions_evicted);
  EXPECT_EQ(first.stats.sessions_expired, second.stats.sessions_expired);
  EXPECT_EQ(first.resident, second.resident);
  EXPECT_EQ(first.bytes_pinned, second.bytes_pinned);
  EXPECT_EQ(first.stats.sessions_opened,
            first.resident + first.stats.sessions_expired +
                first.stats.sessions_evicted);
}

/// Reads one dm.session.* panel from a private registry.
struct PanelReading {
  std::int64_t resident = 0;
  std::int64_t bytes_pinned = 0;
  std::uint64_t evicted_idle = 0;
  std::uint64_t evicted_alerted = 0;
  std::uint64_t evicted_budget_sessions = 0;
  std::uint64_t evicted_budget_bytes = 0;
};

PanelReading read_panel(dm::obs::MetricsRegistry& reg) {
  PanelReading p;
  p.resident = reg.gauge("dm.session.resident").value();
  p.bytes_pinned = reg.gauge("dm.session.bytes_pinned").value();
  p.evicted_idle = reg.counter("dm.session.evicted_idle").value();
  p.evicted_alerted = reg.counter("dm.session.evicted_alerted").value();
  p.evicted_budget_sessions =
      reg.counter("dm.session.evicted_budget_sessions").value();
  p.evicted_budget_bytes =
      reg.counter("dm.session.evicted_budget_bytes").value();
  return p;
}

TEST(SessionBudgetTest, PanelConservationAcrossAllCauses) {
  // Session-count budget + a real idle timeout: opened sessions must leave
  // through exactly one counted door, and the panel must balance against
  // the engine's own view at the end.
  dm::obs::MetricsRegistry reg;
  OnlineOptions options;
  options.metrics = &reg;
  options.session_idle_timeout_s = 60.0;
  options.budget.max_sessions = 24;
  OnlineDetector online(shared_detector(), options);

  std::uint64_t ts = kEpoch;
  for (std::size_t i = 0; i < 300; ++i) {
    online.observe(fill_txn(i, ts));
    ts += 1'000'000;  // 1 s apart: ~60 sessions inside the idle window
  }
  online.expire_idle(ts + 600 * 1'000'000ULL);  // idle everything out

  const auto p = read_panel(reg);
  EXPECT_GT(p.evicted_idle, 0u);
  EXPECT_GT(p.evicted_budget_sessions, 0u);
  EXPECT_EQ(p.resident, static_cast<std::int64_t>(online.active_sessions()));
  EXPECT_EQ(p.bytes_pinned,
            static_cast<std::int64_t>(online.session_bytes_pinned()));
  EXPECT_EQ(online.stats().sessions_opened,
            static_cast<std::size_t>(p.resident) + p.evicted_idle +
                p.evicted_alerted + p.evicted_budget_sessions +
                p.evicted_budget_bytes);
  EXPECT_EQ(online.stats().sessions_expired, p.evicted_idle + p.evicted_alerted);
  EXPECT_EQ(online.stats().sessions_evicted,
            p.evicted_budget_sessions + p.evicted_budget_bytes);
}

TEST(SessionBudgetTest, ByteBudgetEvictsAndBalances) {
  dm::obs::MetricsRegistry reg;
  OnlineOptions options;
  options.metrics = &reg;
  options.session_idle_timeout_s = 1e9;
  options.budget.max_bytes = 96 * 1024;
  OnlineDetector online(shared_detector(), options);

  std::uint64_t ts = kEpoch;
  for (std::size_t i = 0; i < 200; ++i) {
    online.observe(fill_txn(i, ts, /*body_bytes=*/2048));
    ts += 1'000;
    ASSERT_LE(online.session_bytes_pinned(),
              options.budget.max_bytes + 8 * 1024)
        << "byte budget not bounding (one-session slack allowed)";
  }

  const auto p = read_panel(reg);
  EXPECT_GT(p.evicted_budget_bytes, 0u);
  EXPECT_EQ(p.evicted_budget_sessions, 0u);
  EXPECT_EQ(online.stats().sessions_opened,
            online.active_sessions() + online.stats().sessions_expired +
                online.stats().sessions_evicted);
}

#ifndef DM_GLIBC_MALLOC
TEST(SessionBudgetTest, BytesPinnedTracksAllocatorGrowth) {
  GTEST_SKIP() << "needs glibc's malloc (a sanitizer replaces it)";
}
#else
/// One session of the allocator-growth test: its transactions, stamped
/// from `ts_micros` on.  `i` numbers the session.
using SessionShape = std::function<std::vector<dm::http::HttpTransaction>(
    std::size_t i, std::uint64_t ts_micros)>;

/// A page served by `server` to the client of session `i`; 100 sessions per
/// client, so the engine's per-client session counter stays negligible.
dm::http::HttpTransaction probe_txn(std::size_t i, std::string client_prefix,
                                    std::string server, std::uint64_t ts_micros,
                                    int status, std::size_t body_bytes) {
  dm::http::HttpTransaction txn;
  txn.client_host = std::move(client_prefix) + std::to_string(i % 200 / 100) +
                    "." + std::to_string(i % 100 + 1);
  txn.server_host = std::move(server);
  txn.server_ip = "93.184.216.34";
  txn.request.method = "GET";
  txn.request.uri = "/index";
  txn.request.ts_micros = ts_micros;
  txn.request.headers.add("User-Agent", "Mozilla/5.0");
  dm::http::HttpResponse res;
  res.status_code = status;
  res.ts_micros = ts_micros + 100;
  res.headers.add("Content-Type", "text/html");
  res.body.assign(body_bytes, 'x');
  txn.response = std::move(res);
  return txn;
}

TEST(SessionBudgetTest, BytesPinnedTracksAllocatorGrowth) {
  const auto page = [](std::size_t body_bytes) -> SessionShape {
    return [body_bytes](std::size_t i, std::uint64_t ts) {
      return std::vector{probe_txn(i, "10.3.", "h" + std::to_string(i) +
                                                   ".example",
                                   ts, 200, body_bytes)};
    };
  };
  // Two redirect hops under one long session id: each implicates hosts, so
  // the session grows its suspicious-host set, but no clue fires and no
  // scoped WCG is allocated or folded.  Hosts, the client and the id
  // outgrow the small-string buffer, so every string the session keeps is
  // a heap string.
  const SessionShape redirect_chain = [](std::size_t i, std::uint64_t ts) {
    const std::string n = std::to_string(i);
    const std::string client = "2001:db8:ffff:3::";
    const std::string cookie = "PHPSESSID=probe-session-" + n;
    auto first = probe_txn(i, client, "hop-" + n + ".redirect.example", ts,
                           302, 0);
    first.request.headers.add("Cookie", cookie);
    first.response->headers.add("Location",
                                "http://land-" + n + ".redirect.example/go");
    auto second = probe_txn(i, client, "land-" + n + ".redirect.example",
                            ts + 500, 302, 0);
    second.request.headers.add("Cookie", cookie);
    second.request.headers.add("Referer",
                               "http://hop-" + n + ".redirect.example/");
    second.response->headers.add("Location",
                                 "http://next-" + n + ".redirect.example/");
    return std::vector{std::move(first), std::move(second)};
  };
  // 20k sessions of each shape, each to its own server hosts so that no
  // transaction joins an earlier session.  The transactions are built
  // inside the measured window: what observe() frees of them nets out, and
  // what the facts keep is allocated there too.  Bodiless pages are
  // bench_ingest's fill shape; bodies must not be charged once freed.
  struct Case {
    std::string name;
    SessionShape shape;
    std::size_t rescans_per_session;
  };
  const std::vector<Case> cases = {
      {"bodiless page", page(0), 0},
      {"2 KiB page", page(2048), 0},
      {"redirect chain", redirect_chain, 0},
  };
  for (const auto& [name, shape, rescans_per_session] : cases) {
    SCOPED_TRACE(name);
    OnlineOptions options;
    options.session_idle_timeout_s = 1e9;  // nothing expires
    OnlineDetector online(shared_detector(), options);
    constexpr std::size_t kSessions = 20'000;
    std::uint64_t ts = kEpoch;
    // Warm-up, outside the window.
    for (auto& txn : shape(kSessions, ts)) online.observe(std::move(txn));
    const std::size_t heap_before = heap_bytes_in_use();
    const std::size_t pinned_before = online.session_bytes_pinned();
    for (std::size_t i = 0; i < kSessions; ++i) {
      ts += 1'000;
      for (auto& txn : shape(i, ts)) online.observe(std::move(txn));
    }
    const std::size_t heap_after = heap_bytes_in_use();
    ASSERT_EQ(online.active_sessions(), kSessions + 1);
    ASSERT_EQ(online.stats().scope_rescans,
              rescans_per_session * (kSessions + 1));
    ASSERT_EQ(online.stats().clues_fired, 0u);  // no session is scored
    ASSERT_GT(heap_after, heap_before);
    const double growth = static_cast<double>(heap_after - heap_before);
    const double pinned =
        static_cast<double>(online.session_bytes_pinned() - pinned_before);
    EXPECT_NEAR(pinned / growth, 1.0, 0.15)
        << "pinned " << pinned / kSessions << " B/session vs allocator growth "
        << growth / kSessions << " B/session";
    std::printf("[ %s ] pinned / allocator growth %.3f (%.0f / %.0f B/session)\n",
                name.c_str(), pinned / growth, pinned / kSessions,
                growth / kSessions);
  }
}
#endif

// ---------------------------------------------------------------------------
// Budget invisibility at 1/2/8 shards
// ---------------------------------------------------------------------------

/// Alert-bearing trace that FITS a 64-session budget: synth infection and
/// benign episodes, one distinct client each, staggered 2 s apart so live
/// concurrency stays far below the budget.
std::vector<dm::http::HttpTransaction> fence_trace() {
  dm::synth::TraceGenerator gen(501);
  const auto& families = dm::synth::exploit_kit_families();
  std::vector<dm::http::HttpTransaction> stream;
  std::uint64_t episode_start = kEpoch;
  for (std::size_t e = 0; e < 24; ++e) {
    auto episode = (e % 2 == 0) ? gen.infection(families[e % families.size()])
                                : gen.benign();
    if (episode.transactions.empty()) continue;
    const std::string client = "172.16.0." + std::to_string(e + 1);
    const std::uint64_t base = episode.transactions.front().request.ts_micros;
    for (auto& txn : episode.transactions) {
      txn.client_host = client;
      txn.request.ts_micros = txn.request.ts_micros - base + episode_start;
      if (txn.response) {
        txn.response->ts_micros =
            txn.response->ts_micros - base + episode_start;
      }
      stream.push_back(std::move(txn));
    }
    episode_start += 2'000'000;
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const dm::http::HttpTransaction& a,
                      const dm::http::HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  return stream;
}

using AlertKey =
    std::tuple<std::uint64_t, std::string, std::string, std::uint64_t>;

std::vector<AlertKey> sorted_keys(const std::vector<Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const auto& a : alerts) {
    std::uint64_t score_bits;
    static_assert(sizeof(score_bits) == sizeof(a.score));
    std::memcpy(&score_bits, &a.score, sizeof(score_bits));
    keys.emplace_back(a.ts_micros, a.session_key, a.client, score_bits);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

OnlineOptions fence_options(SessionBudget budget) {
  OnlineOptions options;
  options.redirect_chain_threshold = 2;
  options.budget = budget;
  return options;
}

constexpr SessionBudget kFittingBudget{64, 0};

std::vector<AlertKey> run_sequential(
    const std::vector<dm::http::HttpTransaction>& trace, SessionBudget budget) {
  OnlineDetector online(shared_detector(), fence_options(budget));
  for (const auto& txn : trace) online.observe(txn);
  return sorted_keys(online.alerts());
}

/// The fence's one comparison: a budgeted run's alerts equal the unbounded
/// sequential engine's, score bits included.
void expect_same_alerts(const std::vector<AlertKey>& budgeted,
                        const std::vector<AlertKey>& reference,
                        const std::string& what) {
  EXPECT_EQ(budgeted, reference) << what << ": budgeted alerts diverged";
}

TEST(SessionBudgetTest, FittingBudgetIsInvisibleAtAnyShardCount) {
  const auto trace = fence_trace();
  const auto reference = run_sequential(trace, {});
  ASSERT_FALSE(reference.empty())
      << "fence trace produced no alerts — the identity fence is vacuous";

  expect_same_alerts(run_sequential(trace, kFittingBudget), reference,
                     "sequential");
  for (const std::size_t shards : {1, 2, 8}) {
    dm::runtime::ShardedOptions options;
    options.num_shards = shards;
    options.batch_size = 64;
    options.online = fence_options(kFittingBudget);
    dm::runtime::ShardedOnlineEngine engine(shared_detector(), options);
    for (const auto& txn : trace) engine.observe(txn);
    engine.finish();
    expect_same_alerts(sorted_keys(engine.merged_alerts()), reference,
                       std::to_string(shards) + " shards");
  }
}

TEST(SessionBudgetTest, FenceFailsOnAnInjectedDivergence) {
  // Feed the budgeted run the fence trace minus the transaction that tipped
  // one session into its alert: the fence's comparison must object.
  const auto trace = fence_trace();
  const auto reference = run_sequential(trace, {});
  ASSERT_FALSE(reference.empty());
  const std::uint64_t alert_ts = std::get<0>(reference.front());
  const std::string& alert_client = std::get<2>(reference.front());
  auto tampered = trace;
  const auto trigger = std::find_if(
      tampered.begin(), tampered.end(),
      [&](const dm::http::HttpTransaction& txn) {
        return txn.client_host == alert_client &&
               txn.request.ts_micros == alert_ts;
      });
  ASSERT_NE(trigger, tampered.end());
  tampered.erase(trigger);
  EXPECT_NONFATAL_FAILURE(
      expect_same_alerts(run_sequential(tampered, kFittingBudget), reference,
                         "tampered"),
      "tampered: budgeted alerts diverged");
}

}  // namespace
}  // namespace dm::core
