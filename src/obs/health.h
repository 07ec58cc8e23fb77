// Health watchdog: a rule engine over metrics-registry snapshots, ticked on
// a cadence, with hysteresis — the pipeline watching itself (DESIGN.md §14).
//
// Each HealthRule maps a snapshot (plus the previous tick's, for rate
// rules) to a scalar and two thresholds.  A rule must hold a worse level
// for `trip_ticks` consecutive ticks before escalating, and a better one
// for `clear_ticks` before recovering, so a value oscillating around a
// threshold cannot flap the state.  Transitions are counted in the
// dm.health.* panel, emitted as kHealthTransition trace instants, and
// logged through a util::TokenBucket gate (a flapping rule cannot flood the
// log — the rate-limit audit invariant).
//
// default_health_rules() builds the five stock rules over existing panels:
// queue-depth saturation, shed rate, clue-to-verdict p99 SLO, oracle
// overturn rate, and store quarantine count.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "util/rate_limit.h"

namespace dm::obs {

enum class HealthState : std::uint8_t { kOk = 0, kWarn = 1, kCritical = 2 };
const char* health_state_name(HealthState state) noexcept;

struct HealthRule {
  std::string name;
  /// Scalar under test; `prev` is the previous tick's snapshot (empty on
  /// the first tick) so rate rules can take deltas.
  std::function<double(const RegistrySnapshot& cur,
                       const RegistrySnapshot& prev)>
      value;
  double warn = 0.0;      // value >= warn      -> at least kWarn
  double critical = 0.0;  // value >= critical  -> kCritical
  /// Consecutive ticks at a worse level before escalating.
  int trip_ticks = 2;
  /// Consecutive ticks at a better level before recovering (hysteresis).
  int clear_ticks = 3;
};

struct HealthTransition {
  std::string rule;
  HealthState from = HealthState::kOk;
  HealthState to = HealthState::kOk;
  double value = 0.0;
  std::uint64_t ts_ns = 0;
};

/// The dm.health.* panel.
struct HealthMetrics {
  Gauge& state;          // dm.health.state: worst rule (0 ok / 1 warn / 2 crit)
  Counter& ticks;        // dm.health.ticks
  Counter& transitions;  // dm.health.transitions
  Counter& trips;        // dm.health.trips (transitions to a worse state)
  Counter& recoveries;   // dm.health.recoveries (to a better state)

  static HealthMetrics of(MetricsRegistry& registry);
};
/// The panel bound to the process-wide registry.
HealthMetrics& health_metrics();

struct WatchdogOptions {
  /// Registry to snapshot and to host the dm.health.* panel
  /// (null -> process-wide).
  MetricsRegistry* metrics = nullptr;
  /// Sink for kHealthTransition instants (null -> trace_sink()).
  TraceSink* trace = nullptr;
  /// Clock for transition timestamps and tick() without arguments
  /// (null -> steady).
  ClockFn clock = nullptr;
  /// TokenBucket gate on transition log lines (trace-time seconds).
  double log_rate_per_s = 0.5;
  double log_burst = 5.0;
};

class HealthWatchdog {
 public:
  HealthWatchdog(std::vector<HealthRule> rules, WatchdogOptions options = {});

  /// Evaluates every rule against a fresh registry snapshot at the bound
  /// clock; returns the transitions this tick caused.  Call on a cadence
  /// (the reporter thread, a timer, the bench loop).  Not thread-safe —
  /// one watchdog, one ticker.
  std::vector<HealthTransition> tick();
  /// Deterministic form: explicit snapshot and trace-time stamp.
  std::vector<HealthTransition> tick(const RegistrySnapshot& snapshot,
                                     std::uint64_t now_micros);

  /// Worst rule state right now.
  HealthState state() const noexcept;
  HealthState rule_state(std::string_view name) const noexcept;
  double rule_value(std::string_view name) const noexcept;

 private:
  struct RuleState {
    HealthRule rule;
    Gauge* gauge = nullptr;  // dm.health.rule.<name>
    HealthState state = HealthState::kOk;
    HealthState pending = HealthState::kOk;
    int streak = 0;
    double last_value = 0.0;
  };

  WatchdogOptions options_;
  HealthMetrics metrics_;
  TraceSink* trace_;
  StageTimer timer_;
  std::vector<RuleState> rules_;
  std::optional<dm::util::TokenBucket> log_gate_;
  RegistrySnapshot prev_;
  bool have_prev_ = false;
};

/// Thresholds for the five stock rules (values are compared >=).
struct HealthThresholds {
  /// Queue saturation: dm.runtime.queue_depth (the deepest shard queue
  /// when sampled) over dm.runtime.queue_capacity, both read from the
  /// snapshot (0 when no engine registered a capacity).  It reads the
  /// current depth, so it recovers once the workers catch up.
  double queue_warn = 0.5;
  double queue_critical = 0.9;
  /// Shed rate per tick: Δshed / Δin.
  double shed_warn = 0.01;
  double shed_critical = 0.10;
  /// Clue-to-verdict p99 SLO (ns).
  double clue_to_verdict_p99_warn_ns = 50e6;
  double clue_to_verdict_p99_critical_ns = 250e6;
  /// Oracle overturn rate per tick: Δoverturned / Δaudited.
  double overturn_warn = 0.10;
  double overturn_critical = 0.25;
  /// Store quarantine count (artifacts + manifests, cumulative).
  double quarantine_warn = 1.0;
  double quarantine_critical = 4.0;
};

/// The stock rule set over the dm.runtime.*, dm.detect.*, dm.oracle.* and
/// dm.store.* panels.
std::vector<HealthRule> default_health_rules(
    const HealthThresholds& thresholds = {});

}  // namespace dm::obs
