#include "obs/health.h"

#include "util/hash.h"
#include "util/log.h"

namespace dm::obs {
namespace {

HealthState level_of(double value, const HealthRule& rule) noexcept {
  if (value >= rule.critical) return HealthState::kCritical;
  if (value >= rule.warn) return HealthState::kWarn;
  return HealthState::kOk;
}

}  // namespace

const char* health_state_name(HealthState state) noexcept {
  switch (state) {
    case HealthState::kOk: return "ok";
    case HealthState::kWarn: return "warn";
    case HealthState::kCritical: return "critical";
  }
  return "unknown";
}

HealthMetrics HealthMetrics::of(MetricsRegistry& reg) {
  return HealthMetrics{
      reg.gauge("dm.health.state"),
      reg.counter("dm.health.ticks"),
      reg.counter("dm.health.transitions"),
      reg.counter("dm.health.trips"),
      reg.counter("dm.health.recoveries"),
  };
}

HealthMetrics& health_metrics() {
  static HealthMetrics metrics = HealthMetrics::of(registry());
  return metrics;
}

HealthWatchdog::HealthWatchdog(std::vector<HealthRule> rules,
                               WatchdogOptions options)
    : options_(options),
      metrics_(options.metrics != nullptr ? HealthMetrics::of(*options.metrics)
                                          : health_metrics()),
      trace_(options.trace != nullptr ? options.trace : &trace_sink()),
      timer_(options.clock) {
  log_gate_.emplace(options_.log_rate_per_s, options_.log_burst);
  auto& reg =
      options_.metrics != nullptr ? *options_.metrics : registry();
  rules_.reserve(rules.size());
  for (auto& rule : rules) {
    RuleState state;
    state.gauge = &reg.gauge("dm.health.rule." + rule.name);
    state.rule = std::move(rule);
    rules_.push_back(std::move(state));
  }
}

std::vector<HealthTransition> HealthWatchdog::tick() {
  auto& reg = options_.metrics != nullptr ? *options_.metrics : registry();
  return tick(reg.snapshot(), timer_.now() / 1000);
}

std::vector<HealthTransition> HealthWatchdog::tick(
    const RegistrySnapshot& snapshot, std::uint64_t now_micros) {
  std::vector<HealthTransition> out;
  metrics_.ticks.add(1);
  const RegistrySnapshot& prev = have_prev_ ? prev_ : snapshot;
  for (RuleState& rs : rules_) {
    const double value =
        rs.rule.value ? rs.rule.value(snapshot, prev) : 0.0;
    rs.last_value = value;
    const HealthState target = level_of(value, rs.rule);
    if (target == rs.state) {
      rs.pending = rs.state;
      rs.streak = 0;
    } else {
      if (target == rs.pending) {
        ++rs.streak;
      } else {
        rs.pending = target;
        rs.streak = 1;
      }
      const bool worse = static_cast<int>(target) > static_cast<int>(rs.state);
      const int need = worse ? rs.rule.trip_ticks : rs.rule.clear_ticks;
      if (rs.streak >= need) {
        HealthTransition transition;
        transition.rule = rs.rule.name;
        transition.from = rs.state;
        transition.to = target;
        transition.value = value;
        transition.ts_ns = now_micros * 1000;
        rs.state = target;
        rs.pending = target;
        rs.streak = 0;
        metrics_.transitions.add(1);
        (worse ? metrics_.trips : metrics_.recoveries).add(1);
        // Structured transition into the trace stream: the rule name hashes
        // into the session tag, from/to pack into arg.
        if (trace_->enabled()) {
          TraceEvent e;
          e.ts_ns = transition.ts_ns;
          e.session = dm::util::fnv1a(rs.rule.name);
          e.id = trace_->next_id();
          e.arg = (static_cast<std::uint64_t>(transition.from) << 8) |
                  static_cast<std::uint64_t>(transition.to);
          e.kind = TraceKind::kInstant;
          e.op = TraceOp::kHealthTransition;
          e.tid = static_cast<std::uint16_t>(detail::thread_shard());
          trace_->emit(e);
        }
        // util/rate_limit.h gate: a flapping rule cannot flood the log.
        if (log_gate_->try_acquire(now_micros)) {
          if (transition.to == HealthState::kOk) {
            dm::util::log_info("health: ", rs.rule.name, " ",
                               health_state_name(transition.from), " -> ",
                               health_state_name(transition.to), " (value ",
                               value, ")");
          } else {
            dm::util::log_warn("health: ", rs.rule.name, " ",
                               health_state_name(transition.from), " -> ",
                               health_state_name(transition.to), " (value ",
                               value, ")");
          }
        }
        out.push_back(std::move(transition));
      }
    }
    rs.gauge->set(static_cast<std::int64_t>(rs.state));
  }
  metrics_.state.set(static_cast<std::int64_t>(state()));
  prev_ = snapshot;
  have_prev_ = true;
  return out;
}

HealthState HealthWatchdog::state() const noexcept {
  HealthState worst = HealthState::kOk;
  for (const RuleState& rs : rules_) {
    if (static_cast<int>(rs.state) > static_cast<int>(worst)) worst = rs.state;
  }
  return worst;
}

HealthState HealthWatchdog::rule_state(std::string_view name) const noexcept {
  for (const RuleState& rs : rules_) {
    if (rs.rule.name == name) return rs.state;
  }
  return HealthState::kOk;
}

double HealthWatchdog::rule_value(std::string_view name) const noexcept {
  for (const RuleState& rs : rules_) {
    if (rs.rule.name == name) return rs.last_value;
  }
  return 0.0;
}

std::vector<HealthRule> default_health_rules(
    const HealthThresholds& thresholds) {
  std::vector<HealthRule> rules;
  rules.push_back(HealthRule{
      "queue_saturation",
      [](const RegistrySnapshot& cur, const RegistrySnapshot&) {
        const auto capacity = cur.counter_value("dm.runtime.queue_capacity");
        if (capacity == 0) return 0.0;
        return static_cast<double>(
                   cur.counter_value("dm.runtime.queue_depth")) /
               static_cast<double>(capacity);
      },
      thresholds.queue_warn, thresholds.queue_critical, 2, 3});
  rules.push_back(HealthRule{
      "shed_rate",
      [](const RegistrySnapshot& cur, const RegistrySnapshot& prev) {
        const auto shed = cur.counter_value("dm.runtime.transactions_shed") -
                          prev.counter_value("dm.runtime.transactions_shed");
        const auto in = cur.counter_value("dm.runtime.transactions_in") -
                        prev.counter_value("dm.runtime.transactions_in");
        if (in == 0) return 0.0;
        return static_cast<double>(shed) / static_cast<double>(in);
      },
      thresholds.shed_warn, thresholds.shed_critical, 2, 3});
  rules.push_back(HealthRule{
      "clue_to_verdict_p99",
      [](const RegistrySnapshot& cur, const RegistrySnapshot&) {
        const HistogramSnapshot* h =
            cur.histogram("dm.detect.clue_to_verdict_ns");
        if (h == nullptr || h->count == 0) return 0.0;
        return static_cast<double>(h->p99());
      },
      thresholds.clue_to_verdict_p99_warn_ns,
      thresholds.clue_to_verdict_p99_critical_ns, 2, 3});
  rules.push_back(HealthRule{
      "oracle_overturn_rate",
      [](const RegistrySnapshot& cur, const RegistrySnapshot& prev) {
        const auto overturned = cur.counter_value("dm.oracle.overturned") -
                                prev.counter_value("dm.oracle.overturned");
        const auto audited = cur.counter_value("dm.oracle.audited") -
                             prev.counter_value("dm.oracle.audited");
        if (audited == 0) return 0.0;
        return static_cast<double>(overturned) / static_cast<double>(audited);
      },
      thresholds.overturn_warn, thresholds.overturn_critical, 1, 2});
  rules.push_back(HealthRule{
      "store_quarantine",
      [](const RegistrySnapshot& cur, const RegistrySnapshot&) {
        return static_cast<double>(
            cur.counter_value("dm.store.artifacts_quarantined") +
            cur.counter_value("dm.store.manifests_quarantined"));
      },
      thresholds.quarantine_warn, thresholds.quarantine_critical, 1, 2});
  return rules;
}

}  // namespace dm::obs
