// Session-sharded parallel on-the-wire detection (§V-B at scale).
//
// The sequential core::OnlineDetector scores on one thread.  Its session
// lookup is O(log n + the client's own sessions) and its idle expiry one
// test of the LRU head when nothing is due, so its session table is no
// scaling wall; scoring (WCG fold, feature extraction, the ERF) is what one
// engine cannot spread.  This engine partitions the stream by a *pure
// function of the transaction* — the client host — onto a fixed set of
// shards.  Each shard owns a disjoint set of sessions and runs a private
// OnlineDetector on its own worker, so the hot path takes no locks and
// scoring spreads over K workers.
//
// Why the client host is the shard key: §V-B groups transactions into
// sessions by session ID and by the referrer/timestamp heuristic, and BOTH
// rules only ever merge transactions of the same client.  Client-sharding is
// therefore the coarsest partition that can never split a session across
// shards — which is what makes the engine's output *identical* (as a set;
// the merge re-establishes time order) to the sequential engine on the same
// trace, at any shard count.  Hashing by session ID or referrer host would
// be finer but could place two transactions of one §V-B session on
// different shards, breaking that equivalence.
//
// Determinism also requires the per-shard detectors to behave as pure
// functions of their client subsequences; core::OnlineDetector guarantees
// this via per-client session keys and lazy idle-liveness (see online.h).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/online.h"
#include "obs/pipeline.h"
#include "runtime/mpmc_queue.h"
#include "runtime/stats.h"

namespace dm::runtime {

/// What the dispatcher does when a shard's queue is full.
enum class OverloadPolicy {
  /// Block until the worker frees a slot — lossless backpressure (default).
  kBlock,
  /// Pop and discard the oldest queued batch to make room for the new one:
  /// fresh traffic wins, stale buffered traffic is shed.  Right for live
  /// deployments where detection value decays with age.
  kShedOldest,
  /// Discard the incoming batch: buffered traffic wins, new arrivals are
  /// shed until the worker catches up.  Right when in-flight sessions must
  /// finish scoring.
  kShedNewest,
};

struct ShardedOptions {
  /// Number of shards (= worker threads); 0 -> hardware_concurrency.
  std::size_t num_shards = 0;
  /// Bounded depth of each shard's queue, in batches.  Full queue engages
  /// the overload policy — backpressure or shedding, never unbounded
  /// buffering under burst.  The depth bounds what the engine holds: after
  /// observe() returns, a shard has at most (depth + 2) × batch_size
  /// transactions in flight (queued, at its worker, and pending), so 1,152
  /// over 3 shards of 64-transaction batches, and a batch waits a few
  /// batches' work.  Why 4: one queued batch already keeps a worker busy,
  /// since the dispatcher refills faster than a worker drains; the other
  /// three leave room for partial batches sent by the idle flush and for
  /// uneven load across shards.  The cost: while the one dispatcher waits
  /// on a full queue, the other shards' queues can run dry.
  std::size_t queue_capacity = 4;
  /// Transactions per dispatch batch.  Batching amortizes queue wakeups; a
  /// batch is flushed early whenever the stream ends, flush() is called, or
  /// the flush-on-idle rule below fires, so it trades latency (bounded by
  /// batch_size transactions or flush_idle_micros of stream time, whichever
  /// comes first) for throughput.
  std::size_t batch_size = 64;
  /// Flush-on-idle latency fence: a pending partial batch is dispatched as
  /// soon as *stream* time (transaction timestamps, not wall clock — the
  /// rule stays a pure function of the trace) advances this far past the
  /// batch's first transaction.  Without it a quiet shard could sit on a
  /// clue-bearing transaction for an unbounded wall-clock time while the
  /// dispatcher waits for batch_size - 1 more.  Early dispatch preserves
  /// per-shard FIFO order, so merged alerts are unchanged at any value.
  /// 0 disables (legacy fill-or-flush behaviour).
  std::uint64_t flush_idle_micros = 1'000'000;
  /// Behaviour at a full shard queue; shed counts land in StatsSnapshot.
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// Options forwarded to every shard's core::OnlineDetector.
  dm::core::OnlineOptions online;
  /// Fault-injection seam: invoked (when set) by the shard worker for each
  /// transaction before the detector sees it, inside the worker's failure
  /// isolation.  A throw here is recorded exactly like a real detector
  /// failure; tests use it to prove workers survive mid-stream throws.
  std::function<void(const dm::http::HttpTransaction&)> observe_fault_hook;
  /// Serving seam: when set, invoked once per shard at construction; the
  /// result overrides online.scorer for that shard's detector.  This is how
  /// the model-serving layer (src/serve) gives every shard a *private*
  /// epoch-pinned view of the hot-swappable model — per-shard pins make the
  /// steady-state model read one atomic load, shared by nobody, while a
  /// background publish flips all shards to the new forest at their next
  /// query (see serve/model_handle.h).
  std::function<std::shared_ptr<dm::core::WcgScorer>(std::size_t shard)>
      scorer_factory;
};

/// Parallel drop-in for core::OnlineDetector over a time-ordered stream:
/// feed transactions with observe() from one dispatching thread, then
/// finish() and read the merged, time-ordered alert list.
class ShardedOnlineEngine {
 public:
  ShardedOnlineEngine(std::shared_ptr<const dm::core::Detector> detector,
                      ShardedOptions options = {});
  ~ShardedOnlineEngine();  // implies finish()

  ShardedOnlineEngine(const ShardedOnlineEngine&) = delete;
  ShardedOnlineEngine& operator=(const ShardedOnlineEngine&) = delete;

  /// Shard assignment: a pure function of the transaction (FNV-1a of the
  /// client host).  Exposed so tests can assert stability and so external
  /// dispatchers (e.g. NIC RSS-style steering) can pre-partition.
  static std::size_t shard_of(const dm::http::HttpTransaction& txn,
                              std::size_t num_shards) noexcept;

  /// Dispatches one transaction to its shard.  Call from a single thread
  /// (or externally serialized): per-client order must match stream order,
  /// which a single time-ordered dispatcher guarantees.  A full shard queue
  /// engages ShardedOptions::overload (block or shed).  Calling after
  /// finish() is a caller bug: the transaction is dropped, counted in
  /// StatsSnapshot::dropped_after_finish, and asserts in debug builds.
  void observe(dm::http::HttpTransaction txn);

  /// Pushes any partially-filled batches to their shards.
  void flush();

  /// Flushes, closes the queues, joins the workers.  Idempotent.  Alerts
  /// and stats are only meaningful after finish().
  void finish();

  std::size_t num_shards() const noexcept { return shards_.size(); }

  /// All shard alerts merged into one time-ordered stream
  /// (ts, session key) — requires finish().
  std::vector<dm::core::Alert> merged_alerts() const;

  /// Element-wise sum of the shard detectors' OnlineStats — requires
  /// finish().
  dm::core::OnlineStats aggregated_stats() const;

  /// Runtime counters.  Callable any time; the per-shard vectors are only
  /// populated after finish() (the shard detectors belong to the worker
  /// threads until then).
  StatsSnapshot runtime_stats() const;

 private:
  /// A dispatch unit: the transactions plus the clock stamp taken at
  /// enqueue, so the worker can record queue-wait latency
  /// (dm.runtime.queue_wait_ns) without a side table.
  struct Batch {
    std::vector<dm::http::HttpTransaction> txns;
    std::uint64_t enqueue_ns = 0;  // 0 when metrics were idle at dispatch
  };

  struct Shard {
    explicit Shard(std::shared_ptr<const dm::core::Detector> detector,
                   const ShardedOptions& options)
        : queue(options.queue_capacity),
          detector(std::move(detector), options.online) {}
    MpmcRingQueue<Batch> queue;
    dm::core::OnlineDetector detector;  // touched only by `thread` after start
    Batch pending;                      // dispatcher-side partial batch
    /// Stream timestamp of pending's first transaction (0 when empty):
    /// the flush-on-idle deadline base.
    std::uint64_t pending_first_ts = 0;
    std::thread thread;
    /// Transactions whose observe() threw on this shard (fault hook or
    /// detector).  Touched only by `thread`; read after join.
    std::uint64_t detector_failures = 0;
  };

  /// Hands a full batch to its shard under the configured overload policy.
  void dispatch(Shard& shard, Batch&& batch);
  /// Dispatches every pending batch whose first transaction is older than
  /// flush_idle_micros of stream time.  Gated on next_idle_flush_ts_, so the
  /// steady-state (hint not reached) cost is one compare per observe.
  void maybe_flush_idle(std::uint64_t now_micros);

  ShardedOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  dm::obs::TraceSink* trace_ = nullptr;  // options_.online.trace or global
  Stats stats_;
  /// Earliest flush-on-idle deadline over all pending batches (UINT64_MAX
  /// when nothing is pending) — may be stale-early after a full-batch
  /// dispatch, never stale-late, so the gate cannot miss a deadline.
  std::uint64_t next_idle_flush_ts_ = UINT64_MAX;
  bool finished_ = false;
  dm::obs::PipelineMetrics obs_;  // handles into online.metrics or global
  /// Callback registrations exposing stats_ through obs snapshots; declared
  /// after stats_/shards_ so they unregister first on destruction.
  std::vector<dm::obs::CallbackHandle> obs_handles_;
};

}  // namespace dm::runtime
