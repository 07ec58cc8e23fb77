#include "runtime/sharded_online.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "obs/timer.h"
#include "obs/trace.h"
#include "util/hash.h"
#include "util/rate_limit.h"

namespace dm::runtime {

ShardedOnlineEngine::ShardedOnlineEngine(
    std::shared_ptr<const dm::core::Detector> detector, ShardedOptions options)
    : options_(options),
      trace_(options.online.trace != nullptr ? options.online.trace
                                             : &dm::obs::trace_sink()),
      obs_(options.online.metrics != nullptr
               ? dm::obs::PipelineMetrics::of(*options.online.metrics)
               : dm::obs::pipeline_metrics()) {
  std::size_t n = options_.num_shards;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  if (options_.batch_size == 0) options_.batch_size = 1;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (options_.scorer_factory) {
      // Per-shard scorer: each shard worker scores through its own instance
      // (its own model pin), so shards never share scorer state.
      ShardedOptions shard_options = options_;
      shard_options.online.scorer = options_.scorer_factory(i);
      shards_.push_back(std::make_unique<Shard>(detector, shard_options));
    } else {
      shards_.push_back(std::make_unique<Shard>(detector, options_));
    }
    shards_.back()->pending.txns.reserve(options_.batch_size);
  }

  // Fold the runtime counters into the metrics registry as callback
  // sources: one obs::snapshot() then covers throughput, sheds and drops
  // alongside the latency histograms.  Multiple engines sum per name.
  auto& reg = options_.online.metrics != nullptr ? *options_.online.metrics
                                                 : dm::obs::registry();
  const auto expose = [&](const char* name, const PaddedStatCounter& c) {
    obs_handles_.push_back(reg.register_callback(
        name, [&c] { return c.load(std::memory_order_relaxed); }));
  };
  expose("dm.runtime.transactions_in", stats_.transactions_in);
  expose("dm.runtime.transactions_out", stats_.transactions_out);
  expose("dm.runtime.batches_dispatched", stats_.batches_dispatched);
  expose("dm.runtime.transactions_shed", stats_.transactions_shed);
  expose("dm.runtime.batches_shed", stats_.batches_shed);
  expose("dm.runtime.idle_flushes", stats_.idle_flushes);
  expose("dm.runtime.dropped_after_finish", stats_.dropped_after_finish);
  expose("dm.runtime.detector_failures", stats_.detector_failures);
  obs_handles_.push_back(reg.register_callback("dm.runtime.queue_highwater", [this] {
    std::size_t hw = 0;
    for (const auto& shard : shards_) hw = std::max(hw, shard->queue.highwater());
    return static_cast<std::uint64_t>(hw);
  }));
  // The deepest shard queue now, and the depth it is read against: the
  // health watchdog's queue_saturation rule divides one by the other.
  obs_handles_.push_back(reg.register_callback("dm.runtime.queue_depth", [this] {
    std::size_t deepest = 0;
    for (const auto& shard : shards_) deepest = std::max(deepest, shard->queue.size());
    return static_cast<std::uint64_t>(deepest);
  }));
  const auto depth = static_cast<std::uint64_t>(shards_.front()->queue.capacity());
  obs_handles_.push_back(
      reg.register_callback("dm.runtime.queue_capacity", [depth] { return depth; }));

  for (auto& shard : shards_) {
    shard->thread = std::thread([s = shard.get(), this] {
      const dm::obs::StageTimer timer;  // worker-side steady clock
      while (auto batch = s->queue.pop()) {
        // Worker-side trace scope: the batch span becomes the parent of
        // every observe tree in the batch, so a Perfetto view groups each
        // alert under the worker batch that scored it.
        const bool tracing = trace_->enabled();
        dm::obs::TraceContext tctx;
        std::optional<dm::obs::TraceContextGuard> tguard;
        std::optional<dm::obs::ScopedTraceSpan> batch_tspan;
        if (tracing) {
          tctx.sink = trace_;
          tctx.clock = timer.clock_fn();
          tguard.emplace(&tctx);
        }
        if (batch->enqueue_ns != 0) {
          const std::uint64_t now = timer.now();
          const std::uint64_t wait =
              now >= batch->enqueue_ns ? now - batch->enqueue_ns : 0;
          obs_.runtime_queue_wait_ns.record(wait);
          if (tracing) dm::obs::trace_instant(dm::obs::TraceOp::kQueueWait, wait);
        }
        auto batch_span = timer.span(obs_.runtime_worker_batch_ns);
        if (tracing) {
          batch_tspan.emplace(dm::obs::TraceOp::kWorkerBatch,
                              batch->txns.size());
        }
        for (auto& txn : batch->txns) {
          // Failure isolation: a transaction whose hook or detector throws
          // is quarantined and counted — it costs itself, never the shard.
          // The worker therefore always drains to queue close and finish()
          // always joins, whatever the detector did mid-stream.
          try {
            if (options_.observe_fault_hook) options_.observe_fault_hook(txn);
            s->detector.observe(std::move(txn));
          } catch (const std::exception& e) {
            ++s->detector_failures;
            stats_.detector_failures.fetch_add(1, std::memory_order_relaxed);
            static dm::util::EveryN gate(128);
            dm::util::log_every_n(gate, dm::util::LogLevel::kWarn,
                                  "sharded: detector failure quarantined: ",
                                  e.what());
          } catch (...) {
            ++s->detector_failures;
            stats_.detector_failures.fetch_add(1, std::memory_order_relaxed);
            static dm::util::EveryN gate(128);
            dm::util::log_every_n(gate, dm::util::LogLevel::kWarn,
                                  "sharded: detector failure quarantined");
          }
        }
        batch_tspan.reset();
        batch_span.stop();
        // Quarantined transactions still count as processed (transactions_out):
        // the conservation law in == out + shed holds with failures as a
        // separate, overlapping tally.
        stats_.transactions_out.fetch_add(batch->txns.size(),
                                          std::memory_order_relaxed);
      }
    });
  }
}

ShardedOnlineEngine::~ShardedOnlineEngine() { finish(); }

std::size_t ShardedOnlineEngine::shard_of(const dm::http::HttpTransaction& txn,
                                          std::size_t num_shards) noexcept {
  if (num_shards <= 1) return 0;
  return dm::util::fnv1a(txn.client_host) % num_shards;
}

void ShardedOnlineEngine::dispatch(Shard& shard, Batch&& batch) {
  // Times the whole handoff, including any backpressure block or shed-retry
  // loop — dispatch_ns p99 is where an undersized queue shows up first.
  auto dispatch_span =
      dm::obs::Span(&obs_.runtime_dispatch_ns, &dm::obs::steady_now_ns);
  const bool tracing = trace_->enabled();
  dm::obs::TraceContext tctx;
  std::optional<dm::obs::TraceContextGuard> tguard;
  std::optional<dm::obs::ScopedTraceSpan> dispatch_tspan;
  if (tracing) {
    tctx.sink = trace_;
    tguard.emplace(&tctx);
    dispatch_tspan.emplace(dm::obs::TraceOp::kDispatch, batch.txns.size());
  }
  if (dm::obs::enabled()) batch.enqueue_ns = dm::obs::steady_now_ns();
  const std::uint64_t txns = batch.txns.size();
  const auto shed = [&](std::uint64_t t) {
    stats_.transactions_shed.fetch_add(t, std::memory_order_relaxed);
    stats_.batches_shed.fetch_add(1, std::memory_order_relaxed);
    static dm::util::EveryN gate(64);
    dm::util::log_every_n(gate, dm::util::LogLevel::kWarn,
                          "sharded: overload shed ", t, " transaction(s)");
  };
  switch (options_.overload) {
    case OverloadPolicy::kBlock:
      // Lossless backpressure; push() only fails once the queue is closed,
      // which cannot race finish() (both run on the dispatcher thread).
      if (shard.queue.push(std::move(batch))) {
        stats_.batches_dispatched.fetch_add(1, std::memory_order_relaxed);
      } else {
        shed(txns);
      }
      return;
    case OverloadPolicy::kShedNewest:
      if (shard.queue.try_push(std::move(batch))) {
        stats_.batches_dispatched.fetch_add(1, std::memory_order_relaxed);
      } else {
        shed(txns);  // buffered traffic wins; the incoming batch is dropped
      }
      return;
    case OverloadPolicy::kShedOldest:
      // Fresh traffic wins: evict the oldest queued batch until the new one
      // fits.  offer() leaves `batch` intact on failure, so no transaction
      // is lost between the failed offer and the retry.
      while (!shard.queue.offer(batch)) {
        if (auto victim = shard.queue.try_pop()) {
          shed(victim->txns.size());
          continue;
        }
        if (shard.queue.closed()) {
          shed(txns);
          return;
        }
        // Full but nothing poppable: the worker grabbed the victim first.
        // Its slot frees imminently; retry the offer.
      }
      stats_.batches_dispatched.fetch_add(1, std::memory_order_relaxed);
      return;
  }
}

void ShardedOnlineEngine::observe(dm::http::HttpTransaction txn) {
  if (finished_) {
    // A post-finish observe is a caller bug (the workers are gone; the
    // transaction can never be scored) — never silently lose it.
    stats_.dropped_after_finish.fetch_add(1, std::memory_order_relaxed);
    assert(!"ShardedOnlineEngine::observe() called after finish()");
    return;
  }
  const std::uint64_t now_micros = txn.request.ts_micros;
  Shard& shard = *shards_[shard_of(txn, shards_.size())];
  if (shard.pending.txns.empty()) {
    shard.pending_first_ts = now_micros;
    if (options_.flush_idle_micros != 0) {
      next_idle_flush_ts_ = std::min(next_idle_flush_ts_,
                                     now_micros + options_.flush_idle_micros);
    }
  }
  shard.pending.txns.push_back(std::move(txn));
  stats_.transactions_in.fetch_add(1, std::memory_order_relaxed);
  if (shard.pending.txns.size() >= options_.batch_size) {
    Batch batch;
    batch.txns.reserve(options_.batch_size);
    std::swap(batch.txns, shard.pending.txns);
    shard.pending_first_ts = 0;
    // next_idle_flush_ts_ may still point at this batch's deadline; that is
    // stale-early — maybe_flush_idle recomputes when the gate opens.
    dispatch(shard, std::move(batch));
  }
  if (options_.flush_idle_micros != 0 && now_micros >= next_idle_flush_ts_) {
    maybe_flush_idle(now_micros);
  }
}

void ShardedOnlineEngine::maybe_flush_idle(std::uint64_t now_micros) {
  std::uint64_t next = UINT64_MAX;
  for (auto& shard : shards_) {
    if (shard->pending.txns.empty()) continue;
    const std::uint64_t deadline =
        shard->pending_first_ts + options_.flush_idle_micros;
    if (deadline <= now_micros) {
      Batch batch;
      std::swap(batch.txns, shard->pending.txns);
      shard->pending_first_ts = 0;
      stats_.idle_flushes.fetch_add(1, std::memory_order_relaxed);
      dispatch(*shard, std::move(batch));
    } else {
      next = std::min(next, deadline);
    }
  }
  next_idle_flush_ts_ = next;
}

void ShardedOnlineEngine::flush() {
  if (finished_) return;
  for (auto& shard : shards_) {
    if (shard->pending.txns.empty()) continue;
    Batch batch;
    std::swap(batch.txns, shard->pending.txns);
    shard->pending_first_ts = 0;
    dispatch(*shard, std::move(batch));
  }
  next_idle_flush_ts_ = UINT64_MAX;
}

void ShardedOnlineEngine::finish() {
  if (finished_) return;
  flush();
  finished_ = true;
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

std::vector<dm::core::Alert> ShardedOnlineEngine::merged_alerts() const {
  std::vector<dm::core::Alert> merged;
  for (const auto& shard : shards_) {
    const auto& alerts = shard->detector.alerts();
    merged.insert(merged.end(), alerts.begin(), alerts.end());
  }
  // (ts, session key) is a strict total order: a session alerts at most once
  // and keys are unique per run, so the merge is deterministic.
  std::sort(merged.begin(), merged.end(),
            [](const dm::core::Alert& a, const dm::core::Alert& b) {
              if (a.ts_micros != b.ts_micros) return a.ts_micros < b.ts_micros;
              return a.session_key < b.session_key;
            });
  return merged;
}

dm::core::OnlineStats ShardedOnlineEngine::aggregated_stats() const {
  dm::core::OnlineStats total;
  for (const auto& shard : shards_) total += shard->detector.stats();
  return total;
}

StatsSnapshot ShardedOnlineEngine::runtime_stats() const {
  StatsSnapshot snap;
  snap.transactions_in = stats_.transactions_in.load(std::memory_order_relaxed);
  snap.transactions_out =
      stats_.transactions_out.load(std::memory_order_relaxed);
  snap.batches_dispatched =
      stats_.batches_dispatched.load(std::memory_order_relaxed);
  snap.transactions_shed =
      stats_.transactions_shed.load(std::memory_order_relaxed);
  snap.batches_shed = stats_.batches_shed.load(std::memory_order_relaxed);
  snap.idle_flushes = stats_.idle_flushes.load(std::memory_order_relaxed);
  snap.dropped_after_finish =
      stats_.dropped_after_finish.load(std::memory_order_relaxed);
  snap.detector_failures =
      stats_.detector_failures.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    snap.queue_highwater = std::max(snap.queue_highwater, shard->queue.highwater());
  }
  // The shard detectors belong to the worker threads until finish(); fold
  // their counters in only once the workers have been joined.
  if (finished_) {
    snap.per_shard_transactions.reserve(shards_.size());
    snap.per_shard_alerts.reserve(shards_.size());
    snap.per_shard_detector_failures.reserve(shards_.size());
    for (const auto& shard : shards_) {
      snap.per_shard_transactions.push_back(
          shard->detector.stats().transactions_seen);
      snap.per_shard_alerts.push_back(shard->detector.stats().alerts);
      snap.per_shard_detector_failures.push_back(shard->detector_failures);
    }
  }
  return snap;
}

}  // namespace dm::runtime
