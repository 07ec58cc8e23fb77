// pipebench: capture bytes -> alerts, end to end and layer by layer.
//
//   pipebench --workload edge|catalog|archive --seed N --seconds S --trace 0|1
//             [--model dynaminer.model] [--spans-dir DIR]
//
// Every run first builds the seeded workload and checks the program's
// outputs (decoded stream == generated stream, 3-shard alerts == 1-thread
// alerts, layered pass == library pass, at least one alert); any failure
// exits 1 before a single metric is printed.  --trace 0 then measures the
// end-to-end metrics for S seconds; --trace 1 measures the per-layer
// waterfall and writes its spans.  The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "measure.h"
#include "obs/metrics.h"
#include "obs/pipeline.h"
#include "passes.h"
#include "util/expected.h"
#include "workload.h"

namespace {

using namespace pipebench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string model = "dynaminer.model";
  std::string spans_dir = ".bench_build/pipebench/spans";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload edge|catalog|archive "
               "--seed N --seconds S --trace 0|1 [--model PATH] "
               "[--spans-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || a.seconds <= 0) {
        usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--model") {
      a.model = value;
    } else if (flag == "--spans-dir") {
      a.spans_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("--workload must be edge, catalog or archive");
  }
  return a;
}

// --- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("  %-30s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
  /// The contract line: the last line of stdout.
  void print_json(std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": true, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

// --- checks ------------------------------------------------------------------

struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

using AlertKey = std::tuple<std::uint64_t, std::string, std::string,
                            std::uint64_t, std::string, std::size_t, std::size_t>;

std::vector<AlertKey> alert_keys(const std::vector<dm::core::Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const auto& a : alerts) {
    std::uint64_t score_bits = 0;
    static_assert(sizeof(score_bits) == sizeof(a.score));
    std::memcpy(&score_bits, &a.score, sizeof(score_bits));
    keys.emplace_back(a.ts_micros, a.session_key, a.client, score_bits,
                      a.trigger_host, a.wcg_order, a.wcg_size);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Decoded stream vs generated stream.  Returns the responses the decoder
/// lost; each must be matched by one http/truncated-message quarantine
/// (the exporter tears a connection down 1 ms after its last response
/// while sending segments 50 us apart, so a last body over ~29 KB loses
/// its tail).
std::size_t check_decoded(const Workload& w, const Decoded& d) {
  require(d.txns.size() == w.generated.size(),
          "decoded " + std::to_string(d.txns.size()) + " transactions, generated " +
              std::to_string(w.generated.size()));
  std::vector<TxnKey> decoded;
  decoded.reserve(d.txns.size());
  for (const auto& txn : d.txns) decoded.push_back(key_of(txn));
  std::sort(decoded.begin(), decoded.end());
  const auto request_of = [](const TxnKey& k) {
    return std::tie(k.client, k.server, k.uri, k.ts_micros);
  };
  // Statuses sort last, so equal multisets of requests line up pairwise.
  std::size_t lost = 0;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const TxnKey& got = decoded[i];
    const TxnKey& want = w.generated[i];
    require(request_of(got) == request_of(want),
            "decoded request " + got.client + " " + got.server + got.uri +
                " does not match generated " + want.client + " " + want.server +
                want.uri);
    if (got.status == want.status) continue;
    require(got.status == -1, "decoded status " + std::to_string(got.status) +
                                  " != generated " + std::to_string(want.status) +
                                  " for " + got.server + got.uri);
    ++lost;
  }
  const auto truncated =
      d.faults.count(dm::util::DecodeErrorCode::kHttpTruncatedMessage);
  require(lost == truncated,
          std::to_string(lost) + " responses lost but " +
              std::to_string(truncated) + " http/truncated-message quarantines");
  require(d.faults.total() == truncated,
          "unexpected decode faults: " + d.faults.summary());
  return lost;
}

// --- helpers -----------------------------------------------------------------

double mb(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

struct Percentiles {
  double p50 = 0, p95 = 0, p99 = 0;
  std::size_t n = 0;
};

Percentiles percentiles_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {percentile(v, 50), percentile(v, 95), percentile(v, 99), v.size()};
}

/// Bucket-wise difference of two snapshots of one histogram.
dm::obs::HistogramSnapshot histogram_delta(const dm::obs::HistogramSnapshot& after,
                                           const dm::obs::HistogramSnapshot& before) {
  dm::obs::HistogramSnapshot d = after;
  d.count -= before.count;
  d.sum -= before.sum;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) d.buckets[i] -= before.buckets[i];
  return d;
}

std::string tail_note(std::size_t n) {
  const auto p = highest_supported_percentile(n, default_percentile_ladder());
  char buf[96];
  if (p) {
    std::snprintf(buf, sizeof(buf), "n=%zu, highest supported p%g", n, *p);
  } else {
    std::snprintf(buf, sizeof(buf), "n=%zu, no percentile supported", n);
  }
  return buf;
}

/// Sums of span self times and durations per span name.
struct SpanTotals {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> total_ms;
  std::map<std::string, std::vector<double>> durations_us;
};

SpanTotals totals_of(const std::vector<Span>& spans, bool keep_durations) {
  SpanTotals t;
  const auto self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.self_ms[spans[i].name] += static_cast<double>(self[i]) / 1e6;
    t.total_ms[spans[i].name] += dur / 1e6;
    if (keep_durations) t.durations_us[spans[i].name].push_back(dur / 1e3);
  }
  return t;
}

void print_extra(const char* name, double value, const char* unit) {
  std::printf("  %-30s %16.6f %s\n", name, value, unit);
}

void print_rounds(const char* name, const std::vector<double>& values) {
  std::printf("  rounds %-23s", name);
  for (const double v : values) std::printf(" %.4g", v);
  std::printf("\n");
}

// --- the run -------------------------------------------------------------------

/// What the parent keeps from the checks.
struct Checked {
  std::vector<dm::http::HttpTransaction> decoded;  // library-pass stream
  std::size_t packets = 0;
  std::size_t responses_lost = 0;
  std::size_t alerts = 0;
  double recall = 0;
  double fp_rate = 0;
  double fault_frac = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Checked run_checks(const Workload& w,
                   const std::shared_ptr<const dm::core::Detector>& detector) {
  Checked c;
  Decoded decoded = decode(w.capture);
  c.responses_lost = check_decoded(w, decoded);
  c.packets = decoded.packets;

  const auto single = run_single(w.capture, detector);
  const auto sharded = run_sharded(w.capture, detector);
  const auto reference = alert_keys(single.alerts);
  require(!reference.empty(), "the workload raised no alert");
  require(alert_keys(sharded.alerts) == reference,
          "3-shard alerts differ from 1-thread alerts");

  SpanRecorder rec;
  const auto layered = run_layered(w.capture, detector, rec);
  std::vector<TxnKey> library;
  library.reserve(decoded.txns.size());
  for (const auto& txn : decoded.txns) library.push_back(key_of(txn));
  require(layered.keys == library,
          "layered pass reconstructed a different stream than "
          "http::transactions_from_pcap");
  require(alert_keys(layered.pass.alerts) == reference,
          "layered pass (scorer installed) alerts differ from the library pass");

  std::set<std::string> alerted;
  for (const auto& a : single.alerts) {
    require(w.client_malicious.count(a.client) == 1,
            "alert on a client no episode owns: " + a.client);
    alerted.insert(a.client);
  }
  std::size_t tp = 0, fp = 0;
  for (const auto& client : alerted) (w.client_malicious.at(client) ? tp : fp) += 1;
  c.alerts = reference.size();
  c.recall = static_cast<double>(tp) /
             static_cast<double>(std::max<std::size_t>(1, w.malicious_episodes));
  c.fp_rate = static_cast<double>(fp) /
              static_cast<double>(std::max<std::size_t>(1, w.benign_episodes));
  c.failed = single.failures() + sharded.failures() + layered.pass.failures();
  c.attempted = single.transactions + sharded.transactions + layered.pass.transactions;
  c.fault_frac = static_cast<double>(decoded.faults.total() + single.failures() +
                                     sharded.failures()) /
                 static_cast<double>(w.generated.size());
  c.decoded = std::move(decoded.txns);
  return c;
}

void print_identity(const Workload& w, double gen_s) {
  std::printf("pipebench workload=%s seed=%" PRIu64 "\n", w.name.c_str(), w.seed);
  std::printf("input: capture_bytes=%zu packets=%zu transactions=%zu "
              "episodes=%zu malicious_episodes=%zu benign_episodes=%zu "
              "digest=%016" PRIx64 " (generated in %.2f s)\n",
              w.capture.size(), w.packets, w.generated.size(), w.episodes,
              w.malicious_episodes, w.benign_episodes, w.digest, gen_s);
}

void print_checks(const Checked& c) {
  std::printf("checks passed: decoded == generated (%zu transactions; %zu "
              "responses lost, each an http/truncated-message quarantine), "
              "3-shard alerts == 1-thread alerts (%zu, score bits included), "
              "layered pass == transactions_from_pcap, alerts > 0\n",
              c.decoded.size(), c.responses_lost, c.alerts);
}

// Summaries the clean-heap children hand back (trivially copyable).

struct ThroughputSample {
  double seconds = 0;
  double pinned_peak_bytes = 0;
  std::uint64_t transactions = 0;
  std::uint64_t failures = 0;
};

struct PacedSample {
  double txn_p50 = 0, txn_p99 = 0, verdict_p50 = 0, verdict_p95 = 0, late_p99 = 0;
  std::uint64_t transactions = 0, verdicts = 0, failures = 0;
};

struct LayerSample {
  double pass_ms = 0, unaccounted_ms = 0, keys_ms = 0;
  double decode_ms = 0, reassembly_ms = 0, parse_ms = 0, order_ms = 0;
  double observe_ms = 0, score_ms = 0, features_ms = 0, infer_ms = 0, expiry_ms = 0;
  double observe_p50_us = 0, observe_p99_us = 0;
  std::uint64_t flows = 0, transactions = 0, faults = 0, sessions_opened = 0,
                sessions_peak = 0, verdicts = 0, clues = 0, alerts = 0,
                skipped = 0, rescans = 0, infer_calls = 0, cache_hits = 0,
                cache_misses = 0, failures = 0;
};

struct RuntimeSample {
  double dispatch_ms = 0, finish_ms = 0, txn_per_batch = 0, skew = 0,
         queue_wait_p50_us = 0, queue_wait_p99_us = 0, worker_busy_ms = 0;
  std::uint64_t idle_flushes = 0, highwater = 0, transactions = 0, failures = 0;
};

/// Cycles through `tasks` task kinds while the next one, at the longest
/// duration seen for its kind, still ends inside the budget.  Every kind
/// runs at least once.
class Schedule {
 public:
  Schedule(double seconds, int tasks)
      : budget_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds))),
        cost_(tasks) {}

  bool next() {
    const auto now = Clock::now();
    if (task_ >= 0) {
      auto& cost = cost_[static_cast<std::size_t>(task_)];
      cost = std::max(cost, now - started_);
    }
    const int next = (task_ + 1) % static_cast<int>(cost_.size());
    if (runs_ >= static_cast<int>(cost_.size()) &&
        now - start_ + cost_[static_cast<std::size_t>(next)] > budget_) {
      return false;
    }
    task_ = next;
    ++runs_;
    started_ = now;
    return true;
  }
  int task() const noexcept { return task_; }

 private:
  Clock::time_point start_ = Clock::now();
  Clock::duration budget_;
  std::vector<Clock::duration> cost_;
  Clock::time_point started_{};
  int task_ = -1;
  int runs_ = 0;
};

template <typename Fn>
auto in_child(Fn&& work) {
  auto result = run_in_child(std::forward<Fn>(work));
  require(result.has_value(), "a measurement child failed");
  return *result;
}

ThroughputSample throughput_of(const PassResult& r) {
  return {r.seconds, static_cast<double>(r.pinned_peak_bytes), r.transactions,
          r.failures()};
}

/// Decodes in the child: replaying the parent's stream would put a
/// copy-on-write fault into every observe() that frees a transaction.
PacedSample paced_sample(const Workload& w,
                         const std::shared_ptr<const dm::core::Detector>& detector) {
  auto paced = run_paced(decode(w.capture).txns, detector, kPacedRatePerSecond);
  const auto txn = percentiles_of(paced.txn_us);
  const auto verdict = percentiles_of(paced.verdict_us);
  const auto late = percentiles_of(paced.late_us);
  return {txn.p50, txn.p99, verdict.p50, verdict.p95, late.p99,
          txn.n, verdict.n, paced.failures};
}

/// Times set-up on each CPU this process may run on, pinning the calling
/// thread to each in turn, then restores its affinity (the passes fork
/// from this thread and inherit it).  On a shared host each CPU's speed
/// follows the load on its core, so the samples cover every core; three
/// per CPU, since the first after a move runs on cold caches.
void sample_setup_on_each_cpu(const std::string& model, std::vector<double>& out) {
  const auto sample = [&] {
    for (int i = 0; i < 3; ++i) out.push_back(time_setup(model));
  };
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return sample();
  bool pinned = false;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    pinned = true;
    sample();
  }
  require(::sched_setaffinity(0, sizeof(allowed), &allowed) == 0,
          "could not restore the CPU affinity");
  if (!pinned) sample();  // pinning refused: sample where the thread runs
}

/// End-to-end metrics from untraced runs, every pass in a clean-heap child.
void measure_end_to_end(const Args& args, const Workload& w, const Checked& c,
                        const std::shared_ptr<const dm::core::Detector>& detector,
                        Report& report, std::uint64_t& attempted,
                        std::uint64_t& failed) {
  std::vector<double> mbps, mbps_1t, rss_mb, rss_mb_1t, p50, p99, v50, v95;
  std::size_t verdict_n = 0;
  const double capture_mb = mb(w.capture.size());
  const auto count = [&](std::uint64_t transactions, std::uint64_t failures) {
    attempted += transactions;
    failed += failures;
  };
  // Alternating single-thread and 3-shard passes, with a paced replay after
  // every kPairs pairs, for as long as the next pass still fits the budget.
  constexpr int kPairs = 2;
  const auto t0 = Clock::now();
  Schedule schedule(args.seconds, 2 * kPairs + 1);
  std::vector<double> setup;
  while (schedule.next()) {
    // Set-up takes under a millisecond; sampled on every CPU before every
    // pass, the run's fastest set-up is one no other guest's load slowed.
    sample_setup_on_each_cpu(args.model, setup);
    const int task = schedule.task();
    if (task == 2 * kPairs) {
      const auto paced = in_child([&] { return paced_sample(w, detector); }).value;
      p50.push_back(paced.txn_p50);
      p99.push_back(paced.txn_p99);
      v50.push_back(paced.verdict_p50);
      v95.push_back(paced.verdict_p95);
      verdict_n = paced.verdicts;
      count(paced.transactions, paced.failures);
    } else if (task % 2 == 0) {
      const auto single =
          in_child([&] { return throughput_of(run_single(w.capture, detector)); });
      mbps_1t.push_back(capture_mb / single.value.seconds);
      rss_mb_1t.push_back(single.growth_mb);
      count(single.value.transactions, single.value.failures);
    } else {
      const auto sharded =
          in_child([&] { return throughput_of(run_sharded(w.capture, detector)); });
      mbps.push_back(capture_mb / sharded.value.seconds);
      rss_mb.push_back(sharded.growth_mb);
      count(sharded.value.transactions, sharded.value.failures);
    }
  }

  std::printf("end-to-end (untraced, each pass in a clean-heap child; %zu "
              "throughput and %zu paced passes in %.1f s; paced at %.0f txn/s; "
              "verdicts %s):\n",
              mbps.size() + mbps_1t.size(), p50.size(),
              std::chrono::duration<double>(Clock::now() - t0).count(),
              kPacedRatePerSecond, tail_note(verdict_n).c_str());
  print_rounds("setup_s", setup);
  print_rounds("peak_rss_mb", rss_mb);
  print_rounds("peak_rss_mb_1t", rss_mb_1t);
  print_rounds("mb_per_s", mbps);
  print_rounds("mb_per_s_1t", mbps_1t);
  print_rounds("txn_p50_us", p50);
  print_rounds("txn_p99_us", p99);
  print_rounds("verdict_p50_us", v50);
  // The fastest set-up, not the median: the median of a run's set-ups
  // follows the host's load, which moved it by up to 35% between two sets
  // of ten runs.  Work added to set-up raises every sample, the fastest
  // too.
  report.add("setup_s", *std::min_element(setup.begin(), setup.end()), "s");
  report.add("peak_rss_mb", median(rss_mb), "MB");
  report.add("peak_rss_mb_1t", median(rss_mb_1t), "MB");
  // Printed but kept out of the JSON line, whose metrics must hold steady
  // from run to run.  On a shared host every wall-clock rate and latency
  // below follows the neighbours' load, which shifts by 30-40% for tens of
  // seconds at a time: one 30 s run cannot average that out.  Verdict
  // latencies on edge also rest on a few dozen verdicts, and the quality
  // ratios move with the seed (fp_rate is 0 on every seed tried).  See
  // README.md.
  print_extra("mb_per_s", median(mbps), "MB/s");
  print_extra("mb_per_s_1t", median(mbps_1t), "MB/s");
  print_extra("txn_p50_us", median(p50), "us");
  print_extra("txn_p99_us", median(p99), "us");
  print_extra("verdict_p50_us", median(v50), "us");
  if (percentile_supported(verdict_n, 95)) {
    print_extra("verdict_p95_us", median(v95), "us");
  } else {
    std::printf("  %-30s %16s us (%zu verdicts: unsupported)\n", "verdict_p95_us",
                "-", verdict_n);
  }
  print_extra("recall", c.recall, "ratio");
  print_extra("fp_rate", c.fp_rate, "ratio");
  print_extra("fault_frac", c.fault_frac, "ratio");
}

/// One traced single-thread layered pass (run in a child); writes its spans.
LayerSample layer_sample(const Workload& w, std::size_t packets,
                         const std::shared_ptr<const dm::core::Detector>& detector,
                         const std::string& span_file) {
  SpanRecorder rec;
  rec.reserve(2 * w.generated.size() + packets / 4 + 1024);
  const auto r = run_layered(w.capture, detector, rec);
  const auto t = totals_of(rec.spans(), true);
  auto observe_us = t.durations_us.at("core.observe");
  std::sort(observe_us.begin(), observe_us.end());
  const auto self = [&](const char* name) {
    return t.self_ms.count(name) ? t.self_ms.at(name) : 0.0;
  };
  const auto total = [&](const char* name) {
    return t.total_ms.count(name) ? t.total_ms.at(name) : 0.0;
  };
  const auto& stats = r.pass.stats;
  LayerSample s;
  s.pass_ms = total("pass");
  s.unaccounted_ms = self("pass");
  s.keys_ms = total("bench.keys");
  s.decode_ms = self("net.decode");
  s.reassembly_ms = self("net.reassembly") + self("net.release");
  s.parse_ms = self("http.parse");
  s.order_ms = self("http.order");
  s.observe_ms = total("core.observe");
  s.score_ms = total("core.score");
  s.features_ms = total("core.features");
  s.infer_ms = total("ml.infer");
  s.expiry_ms = static_cast<double>(r.expiry_ns) / 1e6;
  s.observe_p50_us = percentile(observe_us, 50);
  s.observe_p99_us = percentile(observe_us, 99);
  s.flows = r.flows;
  s.transactions = r.pass.transactions;
  s.faults = r.pass.quarantined;
  s.sessions_opened = stats.sessions_opened;
  s.sessions_peak = r.pass.sessions_peak;
  s.verdicts = stats.classifier_queries - stats.classifier_failures;
  s.clues = stats.clues_fired;
  s.alerts = r.pass.alerts.size();
  s.skipped = stats.queries_skipped_unchanged;
  s.rescans = stats.scope_rescans;
  s.infer_calls = r.score.calls;
  s.cache_hits = r.score.cache_hits;
  s.cache_misses = r.score.cache_misses;
  s.failures = r.pass.failures();
  if (!write_trace_json(span_file, rec.spans())) {
    throw CheckFailure("could not write " + span_file);
  }
  return s;
}

/// One traced 3-shard pass (run in a child): dispatcher spans plus the
/// runtime's own instruments; writes its spans.
RuntimeSample runtime_sample(const Workload& w,
                             const std::shared_ptr<const dm::core::Detector>& detector,
                             const std::string& span_file) {
  const auto before = dm::obs::snapshot();
  SpanRecorder dispatcher(0);
  ShardedTrace trace{&dispatcher, {}};
  const auto r = run_sharded(w.capture, detector, &trace);
  const auto after = dm::obs::snapshot();
  const auto histogram = [&](const char* name) {
    const auto* a = after.histogram(name);
    const auto* b = before.histogram(name);
    return a != nullptr && b != nullptr ? histogram_delta(*a, *b)
                                        : dm::obs::HistogramSnapshot{};
  };
  const auto queue_wait = histogram("dm.runtime.queue_wait_ns");
  const auto t = totals_of(dispatcher.spans(), false);
  RuntimeSample s;
  s.dispatch_ms = t.total_ms.count("runtime.dispatch") ? t.total_ms.at("runtime.dispatch") : 0;
  s.finish_ms = t.total_ms.count("runtime.finish") ? t.total_ms.at("runtime.finish") : 0;
  s.txn_per_batch = r.runtime.batches_dispatched == 0
                        ? 0.0
                        : static_cast<double>(r.runtime.transactions_in) /
                              static_cast<double>(r.runtime.batches_dispatched);
  double sum = 0, max = 0;
  for (const auto n : r.runtime.per_shard_transactions) {
    sum += static_cast<double>(n);
    max = std::max(max, static_cast<double>(n));
  }
  const auto shards = static_cast<double>(r.runtime.per_shard_transactions.size());
  s.skew = sum > 0 ? max / (sum / shards) : 0;
  s.queue_wait_p50_us = static_cast<double>(queue_wait.p50()) / 1e3;
  s.queue_wait_p99_us = static_cast<double>(queue_wait.p99()) / 1e3;
  s.worker_busy_ms =
      static_cast<double>(histogram("dm.runtime.worker_batch_ns").sum) / 1e6;
  s.idle_flushes = r.runtime.idle_flushes;
  s.highwater = r.runtime.queue_highwater;
  s.transactions = r.transactions;
  s.failures = r.failures();
  std::vector<Span> spans = dispatcher.spans();
  for (const auto& shard : trace.shards) {
    const auto base = static_cast<std::int32_t>(spans.size());
    for (Span span : shard->spans()) {
      if (span.parent >= 0) span.parent += base;
      spans.push_back(span);
    }
  }
  if (!write_trace_json(span_file, spans)) {
    throw CheckFailure("could not write " + span_file);
  }
  return s;
}

/// Per-layer metrics from traced runs, every pass in a clean-heap child.
void measure_layers(const Args& args, const Workload& w, const Checked& c,
                    const std::shared_ptr<const dm::core::Detector>& detector,
                    const SideTimes& side, Report& report, std::uint64_t& attempted,
                    std::uint64_t& failed) {
  std::filesystem::create_directories(args.spans_dir);
  const std::string stem =
      args.spans_dir + "/" + w.name + "-seed" + std::to_string(w.seed);

  const auto count = [&](std::uint64_t transactions, std::uint64_t failures) {
    attempted += transactions;
    failed += failures;
  };
  // The one-off passes come first and count against the budget.
  Schedule schedule(args.seconds, 3);
  const auto runtime = in_child([&] {
    return runtime_sample(w, detector, stem + "-3shard.json");
  }).value;
  count(runtime.transactions, runtime.failures);
  const auto memory =
      in_child([&] { return throughput_of(run_sharded(w.capture, detector)); });
  count(memory.value.transactions, memory.value.failures);
  const auto paced = in_child([&] { return paced_sample(w, detector); }).value;
  count(paced.transactions, paced.failures);

  std::vector<LayerSample> layers;
  std::vector<double> traced_s, plain_s, obs_off_s;
  while (schedule.next()) {
    if (schedule.task() == 0) {
      const auto layer = in_child([&] {
        return layer_sample(w, c.packets, detector, stem + "-1t.json");
      }).value;
      layers.push_back(layer);
      traced_s.push_back((layer.pass_ms - layer.keys_ms) / 1e3);
      count(layer.transactions, layer.failures);
    } else {
      // Untraced, with the metrics registry on (task 1) and off (task 2).
      const bool metrics_on = schedule.task() == 1;
      const auto plain = in_child([&] {
        dm::obs::set_enabled(metrics_on);
        return throughput_of(run_single(w.capture, detector));
      }).value;
      (metrics_on ? plain_s : obs_off_s).push_back(plain.seconds);
      count(plain.transactions, plain.failures);
    }
  }

  const auto med = [&](double LayerSample::*field) {
    std::vector<double> v;
    for (const auto& l : layers) v.push_back(l.*field);
    return median(v);
  };
  const LayerSample& last = layers.back();
  std::printf("waterfall (traced 1-thread pass, each in a clean-heap child; "
              "medians of %zu; self ms):\n",
              layers.size());
  const std::pair<const char*, double> rows[] = {
      {"net.decode", med(&LayerSample::decode_ms)},
      {"net.reassembly", med(&LayerSample::reassembly_ms)},
      {"http.parse", med(&LayerSample::parse_ms)},
      {"http.order", med(&LayerSample::order_ms)},
      {"bench.keys", med(&LayerSample::keys_ms)},
      {"core.observe", med(&LayerSample::observe_ms) - med(&LayerSample::score_ms)},
      {"core.score", med(&LayerSample::score_ms) - med(&LayerSample::features_ms) -
                         med(&LayerSample::infer_ms)},
      {"core.features", med(&LayerSample::features_ms)},
      {"ml.infer", med(&LayerSample::infer_ms)},
      {"unaccounted", med(&LayerSample::unaccounted_ms)},
      {"= pass", med(&LayerSample::pass_ms)},
  };
  for (const auto& [name, ms] : rows) std::printf("    %-16s %10.2f\n", name, ms);
  std::printf("    (core.observe self includes core.expiry %.2f ms)\n",
              med(&LayerSample::expiry_ms));
  std::printf("spans: %s-1t.json, %s-3shard.json\n", stem.c_str(), stem.c_str());

  std::printf("per-layer:\n");
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  report.add("net.decode_ms", med(&LayerSample::decode_ms), "ms");
  report.add("net.reassembly_ms", med(&LayerSample::reassembly_ms), "ms");
  report.add("net.packets", n(c.packets), "count");
  report.add("net.flows", n(last.flows), "count");
  report.add("http.parse_ms", med(&LayerSample::parse_ms), "ms");
  report.add("http.order_ms", med(&LayerSample::order_ms), "ms");
  report.add("http.transactions", n(last.transactions), "count");
  report.add("http.faults", n(last.faults), "count");
  report.add("http.classify_ms", side.classify_ms, "ms");
  report.add("http.mine_ms", side.mine_ms, "ms");
  report.add("core.observe_ms", med(&LayerSample::observe_ms), "ms");
  report.add("core.observe_self_ms",
             med(&LayerSample::observe_ms) - med(&LayerSample::score_ms) -
                 med(&LayerSample::expiry_ms),
             "ms");
  report.add("core.observe_p50_us", med(&LayerSample::observe_p50_us), "us");
  report.add("core.observe_p99_us", med(&LayerSample::observe_p99_us), "us");
  report.add("core.expiry_ms", med(&LayerSample::expiry_ms), "ms");
  report.add("core.sessions_opened", n(last.sessions_opened), "count");
  report.add("core.sessions_peak", n(last.sessions_peak), "count");
  report.add("core.score_ms", med(&LayerSample::score_ms), "ms");
  report.add("core.features_ms", med(&LayerSample::features_ms), "ms");
  const auto lookups = last.cache_hits + last.cache_misses;
  report.add("core.feature_cache_hit_frac",
             lookups == 0 ? 0.0 : n(last.cache_hits) / n(lookups), "ratio");
  report.add("ml.infer_ms", med(&LayerSample::infer_ms), "ms");
  report.add("ml.infer_calls", n(last.infer_calls), "count");
  report.add("core.verdicts", n(last.verdicts), "count");
  report.add("core.clues", n(last.clues), "count");
  report.add("core.alerts", n(last.alerts), "count");
  report.add("core.queries_skipped", n(last.skipped), "count");
  report.add("core.scope_rescans", n(last.rescans), "count");
  const double pinned_mb = memory.value.pinned_peak_bytes / 1e6;
  report.add("core.pinned_mb", pinned_mb, "MB");
  report.add("core.pinned_per_rss",
             memory.growth_mb > 0 ? pinned_mb / memory.growth_mb : 0.0, "ratio");
  report.add("runtime.dispatch_ms", runtime.dispatch_ms, "ms");
  report.add("runtime.finish_ms", runtime.finish_ms, "ms");
  report.add("runtime.txn_per_batch", runtime.txn_per_batch, "count");
  report.add("runtime.idle_flushes", n(runtime.idle_flushes), "count");
  report.add("runtime.queue_highwater", n(runtime.highwater), "count");
  report.add("runtime.shard_skew", runtime.skew, "ratio");
  report.add("runtime.queue_wait_p50_us", runtime.queue_wait_p50_us, "us");
  report.add("runtime.queue_wait_p99_us", runtime.queue_wait_p99_us, "us");
  report.add("runtime.worker_busy_ms", runtime.worker_busy_ms, "ms");
  report.add("obs.trace_overhead_pct",
             100.0 * (median(traced_s) - median(plain_s)) / median(plain_s), "%");
  report.add("obs.metrics_overhead_pct",
             100.0 * (median(plain_s) - median(obs_off_s)) / median(obs_off_s), "%");
  report.add("waterfall.unaccounted_pct",
             100.0 * med(&LayerSample::unaccounted_ms) / med(&LayerSample::pass_ms), "%");
  report.add("gen.late_p99_us", paced.late_p99, "us");
}

int run(const Args& args) {
  const auto detector = load_detector(args.model);
  const auto gen_t0 = Clock::now();
  const Workload w = make_workload(args.workload, args.seed);
  print_identity(w, std::chrono::duration<double>(Clock::now() - gen_t0).count());

  Checked c = run_checks(w, detector);
  print_checks(c);

  Report report;
  std::uint64_t attempted = c.attempted;
  std::uint64_t failed = c.failed;
  const SideTimes side = args.trace ? replay_classify_mine(c.decoded) : SideTimes{};
  // The children decode for themselves; do not fork this copy into each.
  std::vector<dm::http::HttpTransaction>().swap(c.decoded);
  if (args.trace) {
    measure_layers(args, w, c, detector, side, report, attempted, failed);
  } else {
    measure_end_to_end(args, w, c, detector, report, attempted, failed);
  }
  report.print_json(attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const CheckFailure& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "pipebench: CHECK FAILED: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "pipebench: error: %s\n", e.what());
  }
  return 1;
}
