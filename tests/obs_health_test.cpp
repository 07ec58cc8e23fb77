// Health watchdog: hysteresis (trip/clear streaks), transition accounting in
// the dm.health.* panel, kHealthTransition trace instants, and the five
// default rules evaluated against synthetic registry snapshots (plus the
// queue depth of one idle and one stalled sharded engine).
#include "obs/health.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/sharded_online.h"

namespace dm::obs {
namespace {

/// One rule watching counter "load" directly (no delta), trip 2 / clear 3.
std::vector<HealthRule> load_rule() {
  std::vector<HealthRule> rules;
  rules.push_back(HealthRule{
      "load",
      [](const RegistrySnapshot& cur, const RegistrySnapshot&) {
        return static_cast<double>(cur.counter_value("load"));
      },
      /*warn=*/10.0, /*critical=*/100.0, /*trip_ticks=*/2, /*clear_ticks=*/3});
  return rules;
}

class HealthRig {
 public:
  HealthRig() {
    WatchdogOptions options;
    options.metrics = &reg_;
    options.trace = &trace_;
    trace_.set_enabled(true);
    dog_ = std::make_unique<HealthWatchdog>(load_rule(), options);
  }

  std::vector<HealthTransition> tick(std::uint64_t load) {
    auto& counter = reg_.counter("load");
    counter.reset();
    counter.add(load);
    return dog_->tick(reg_.snapshot(), ++now_micros_);
  }

  MetricsRegistry reg_;
  TraceSink trace_;
  std::unique_ptr<HealthWatchdog> dog_;
  std::uint64_t now_micros_ = 0;
};

TEST(HealthWatchdogTest, TripRequiresConsecutiveWorseTicks) {
  HealthRig rig;
  EXPECT_TRUE(rig.tick(200).empty());  // 1st critical tick: pending only
  EXPECT_EQ(rig.dog_->state(), HealthState::kOk);

  const auto transitions = rig.tick(200);  // 2nd: trips
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].rule, "load");
  EXPECT_EQ(transitions[0].from, HealthState::kOk);
  EXPECT_EQ(transitions[0].to, HealthState::kCritical);
  EXPECT_EQ(rig.dog_->state(), HealthState::kCritical);
  EXPECT_EQ(rig.dog_->rule_state("load"), HealthState::kCritical);
}

TEST(HealthWatchdogTest, AnInterruptedStreakDoesNotTrip) {
  HealthRig rig;
  rig.tick(200);  // critical (streak 1)
  rig.tick(0);    // back to ok: streak resets
  rig.tick(200);  // critical (streak 1 again)
  EXPECT_EQ(rig.dog_->state(), HealthState::kOk);  // never tripped
}

TEST(HealthWatchdogTest, RecoveryNeedsTheLongerClearStreak) {
  HealthRig rig;
  rig.tick(200);
  rig.tick(200);  // tripped critical
  ASSERT_EQ(rig.dog_->state(), HealthState::kCritical);
  EXPECT_TRUE(rig.tick(0).empty());  // clear streak 1
  EXPECT_TRUE(rig.tick(0).empty());  // clear streak 2
  EXPECT_EQ(rig.dog_->state(), HealthState::kCritical);  // hysteresis holds
  const auto transitions = rig.tick(0);  // clear streak 3: recovers
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].to, HealthState::kOk);
  EXPECT_EQ(rig.dog_->state(), HealthState::kOk);
}

TEST(HealthWatchdogTest, PanelCountsTripsAndRecoveries) {
  HealthRig rig;
  rig.tick(200);
  rig.tick(200);                                   // trip
  for (int i = 0; i < 3; ++i) rig.tick(0);         // recover
  const auto snap = rig.reg_.snapshot();
  EXPECT_EQ(snap.counter_value("dm.health.ticks"), 5u);
  EXPECT_EQ(snap.counter_value("dm.health.transitions"), 2u);
  EXPECT_EQ(snap.counter_value("dm.health.trips"), 1u);
  EXPECT_EQ(snap.counter_value("dm.health.recoveries"), 1u);
  EXPECT_EQ(snap.gauge_value("dm.health.state"), 0);
  EXPECT_EQ(snap.gauge_value("dm.health.rule.load"), 0);
}

TEST(HealthWatchdogTest, TransitionsEmitTraceInstants) {
  HealthRig rig;
  rig.tick(200);
  rig.tick(200);  // trip: ok -> critical
  const auto events = rig.trace_.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].op, TraceOp::kHealthTransition);
  EXPECT_EQ(events[0].kind, TraceKind::kInstant);
  // arg packs (from << 8) | to.
  EXPECT_EQ(events[0].arg,
            (static_cast<std::uint64_t>(HealthState::kOk) << 8) |
                static_cast<std::uint64_t>(HealthState::kCritical));
}

TEST(HealthWatchdogTest, WarnIsAnIntermediateLevel) {
  HealthRig rig;
  rig.tick(50);
  const auto transitions = rig.tick(50);  // warn trips after 2 ticks
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].to, HealthState::kWarn);
  // Escalating warn -> critical is another trip with its own streak.
  rig.tick(500);
  const auto escalated = rig.tick(500);
  ASSERT_EQ(escalated.size(), 1u);
  EXPECT_EQ(escalated[0].from, HealthState::kWarn);
  EXPECT_EQ(escalated[0].to, HealthState::kCritical);
}

// ---- Default rules over synthetic panels -----------------------------------

TEST(DefaultHealthRulesTest, ShedRateUsesPerTickDeltas) {
  MetricsRegistry reg;
  auto& in = reg.counter("dm.runtime.transactions_in");
  auto& shed = reg.counter("dm.runtime.transactions_shed");
  HealthThresholds thresholds;
  WatchdogOptions options;
  options.metrics = &reg;
  HealthWatchdog dog(default_health_rules(thresholds), options);

  in.add(1000);
  dog.tick(reg.snapshot(), 1);  // first tick: prev == cur, delta 0
  EXPECT_EQ(dog.rule_value("shed_rate"), 0.0);

  in.add(1000);
  shed.add(200);  // 20% of this tick's traffic shed -> critical level
  dog.tick(reg.snapshot(), 2);
  EXPECT_NEAR(dog.rule_value("shed_rate"), 0.2, 1e-9);
  dog.tick(reg.snapshot(), 3);  // no new traffic: rate back to 0
  EXPECT_EQ(dog.rule_value("shed_rate"), 0.0);
}

TEST(DefaultHealthRulesTest, QuarantineTripsOnTheFirstTick) {
  MetricsRegistry reg;
  HealthThresholds thresholds;
  WatchdogOptions options;
  options.metrics = &reg;
  HealthWatchdog dog(default_health_rules(thresholds), options);

  reg.counter("dm.store.artifacts_quarantined").add(1);
  const auto transitions = dog.tick(reg.snapshot(), 1);
  ASSERT_EQ(transitions.size(), 1u);  // trip_ticks = 1 for quarantine
  EXPECT_EQ(transitions[0].rule, "store_quarantine");
  EXPECT_EQ(transitions[0].to, HealthState::kWarn);

  reg.counter("dm.store.manifests_quarantined").add(4);
  dog.tick(reg.snapshot(), 2);
  EXPECT_EQ(dog.rule_state("store_quarantine"), HealthState::kCritical);
}

TEST(DefaultHealthRulesTest, ClueToVerdictSloReadsTheP99) {
  MetricsRegistry reg;
  auto& latency = reg.histogram("dm.detect.clue_to_verdict_ns");
  HealthThresholds thresholds;
  WatchdogOptions options;
  options.metrics = &reg;
  HealthWatchdog dog(default_health_rules(thresholds), options);

  for (int i = 0; i < 100; ++i) latency.record(1'000'000);  // 1 ms: fine
  dog.tick(reg.snapshot(), 1);
  dog.tick(reg.snapshot(), 2);
  EXPECT_EQ(dog.rule_state("clue_to_verdict_p99"), HealthState::kOk);

  for (int i = 0; i < 1000; ++i) latency.record(400'000'000);  // 400 ms
  dog.tick(reg.snapshot(), 3);
  dog.tick(reg.snapshot(), 4);
  EXPECT_EQ(dog.rule_state("clue_to_verdict_p99"), HealthState::kCritical);
}

TEST(DefaultHealthRulesTest, OracleOverturnRateAndQueueSaturation) {
  MetricsRegistry reg;
  HealthThresholds thresholds;
  WatchdogOptions options;
  options.metrics = &reg;
  HealthWatchdog dog(default_health_rules(thresholds), options);

  reg.counter("dm.runtime.queue_capacity").add(100);
  reg.counter("dm.runtime.queue_depth").add(95);  // 95% of capacity
  reg.counter("dm.oracle.audited").add(10);
  reg.counter("dm.oracle.overturned").add(0);
  dog.tick(reg.snapshot(), 1);
  dog.tick(reg.snapshot(), 2);
  EXPECT_EQ(dog.rule_state("queue_saturation"), HealthState::kCritical);
  EXPECT_EQ(dog.rule_state("oracle_overturn_rate"), HealthState::kOk);

  reg.counter("dm.oracle.audited").add(10);
  reg.counter("dm.oracle.overturned").add(5);  // 50% overturned this tick
  const auto transitions = dog.tick(reg.snapshot(), 3);
  ASSERT_EQ(transitions.size(), 1u);  // overturn trips in one tick
  EXPECT_EQ(transitions[0].rule, "oracle_overturn_rate");
  EXPECT_EQ(transitions[0].to, HealthState::kCritical);
}

TEST(DefaultHealthRulesTest, QueueSaturationReadsTheEnginesOwnDepth) {
  MetricsRegistry reg;
  WatchdogOptions options;
  options.metrics = &reg;
  HealthWatchdog dog(default_health_rules(), options);
  reg.counter("dm.runtime.queue_depth").add(120);
  dog.tick(reg.snapshot(), 1);
  EXPECT_EQ(dog.rule_value("queue_saturation"), 0.0);  // no engine, no depth

  // An engine at depth 128, not the default 4: a queue 120 batches deep is
  // 94% of what its queues hold.
  dm::runtime::ShardedOptions engine_options;
  engine_options.num_shards = 2;
  engine_options.queue_capacity = 128;
  engine_options.online.metrics = &reg;
  dm::runtime::ShardedOnlineEngine engine(
      std::make_shared<const dm::core::Detector>(dm::ml::RandomForest{}),
      engine_options);
  EXPECT_EQ(reg.snapshot().counter_value("dm.runtime.queue_capacity"), 128u);
  dog.tick(reg.snapshot(), 2);
  dog.tick(reg.snapshot(), 3);
  EXPECT_DOUBLE_EQ(dog.rule_value("queue_saturation"), 120.0 / 128.0);
  EXPECT_EQ(dog.rule_state("queue_saturation"), HealthState::kCritical);
}

TEST(DefaultHealthRulesTest, QueueSaturationRecoversWhenTheQueueDrains) {
  MetricsRegistry reg;
  WatchdogOptions options;
  options.metrics = &reg;
  HealthWatchdog dog(default_health_rules(), options);

  // One shard at depth 4 and one transaction per batch, its worker held in
  // the hook on the first: the next four observe() calls fill the queue.
  std::latch release(1);
  dm::runtime::ShardedOptions engine_options;
  engine_options.num_shards = 1;
  engine_options.queue_capacity = 4;
  engine_options.batch_size = 1;
  engine_options.online.metrics = &reg;
  engine_options.observe_fault_hook = [&release](const dm::http::HttpTransaction&) {
    release.wait();
  };
  dm::runtime::ShardedOnlineEngine engine(
      std::make_shared<const dm::core::Detector>(dm::ml::RandomForest{}),
      engine_options);
  for (std::uint64_t i = 0; i < 5; ++i) {
    dm::http::HttpTransaction txn;
    txn.client_host = "10.7.0.1";
    txn.server_host = "svc.example";
    txn.request.method = "GET";
    txn.request.uri = "/" + std::to_string(i);
    txn.request.ts_micros = 1'600'000'000'000'000 + i;
    engine.observe(std::move(txn));
  }
  std::uint64_t now = 0;
  while (dog.rule_state("queue_saturation") != HealthState::kCritical &&
         now < 10) {
    dog.tick(reg.snapshot(), ++now);
  }
  EXPECT_EQ(dog.rule_state("queue_saturation"), HealthState::kCritical);
  EXPECT_DOUBLE_EQ(dog.rule_value("queue_saturation"), 1.0);

  // Drained, the queue reads empty again, and the rule recovers.
  release.count_down();
  engine.finish();
  for (int i = 0; i < 3; ++i) dog.tick(reg.snapshot(), ++now);
  EXPECT_EQ(dog.rule_value("queue_saturation"), 0.0);
  EXPECT_EQ(dog.rule_state("queue_saturation"), HealthState::kOk);
}

}  // namespace
}  // namespace dm::obs
