// Service-level objectives evaluated as multi-window burn rates over the
// TimeSeriesStore.
//
// A single threshold rule (PR 4's AlertRule) fires on one bad tick; an
// objective asks the operator's real question — "are we spending error
// budget fast enough to miss the target?". Burn rate is the standard SRE
// formulation:
//
//   burn = observed error ratio / allowed error ratio (1 - target)
//
// evaluated over TWO windows: a short one for detection speed and a long
// one to reject blips. An objective fires only when BOTH windows burn
// above the threshold, and alerts are edge-triggered transitions (one on
// fire, one on clear), mirroring the monitor's latch discipline so a
// stuck-bad objective cannot flood subscribers.
//
//   * kAvailability: error ratio = bad / (good + bad), where good and bad
//     are counter-rate series (samples-weighted sums over the window) —
//     e.g. good = container.admitted, bad = container.shed_* + faults.
//   * kLatency: error ratio = fraction of the window's intervals whose
//     `latency_metric`.p99 point exceeded threshold_us (interval-level
//     SLIs; an empty-interval gap counts as good).
//
// The tracker only reads; firing side effects (EventLog entries, wsn/wse
// Alert publication) belong to the MonitorProducer driving evaluate().
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "telemetry/timeseries.hpp"

namespace gs::telemetry {

struct SloObjective {
  enum class Kind { kAvailability, kLatency };

  std::string name;  // stamped into alerts ("availability")
  Kind kind = Kind::kAvailability;

  /// kAvailability: counter series for successes / failures.
  std::string good_metric{};
  std::vector<std::string> bad_metrics{};

  /// kLatency: histogram base name (the `.p99` series is consulted) and
  /// the per-interval threshold.
  std::string latency_metric{};
  double threshold_us = 0.0;

  /// SLO target as a fraction of good outcomes (0.999 = "three nines");
  /// allowed error ratio is 1 - target.
  double target = 0.999;

  common::TimeMs short_window_ms = 5'000;
  common::TimeMs long_window_ms = 60'000;
  /// Fire when BOTH windows burn above this multiple of budget.
  double burn_threshold = 1.0;
};

/// Point-in-time evaluation of one objective (the telemetry document's
/// <t:Slo> rows).
struct SloStatus {
  std::string objective;
  bool firing = false;
  double burn_short = 0.0;
  double burn_long = 0.0;
  double error_ratio_short = 0.0;
  double error_ratio_long = 0.0;
};

/// One edge-triggered transition returned by evaluate().
struct SloAlert {
  std::string objective;
  bool firing = false;  // true = started breaching, false = recovered
  double burn_short = 0.0;
  double burn_long = 0.0;
  std::string detail;
};

class SloTracker {
 public:
  SloTracker(const TimeSeriesStore* series,
             const common::Clock* clock = &common::RealClock::instance());

  void add_objective(SloObjective objective);

  /// Evaluates every objective against the store's current windows and
  /// returns the TRANSITIONS since the previous call (edge-triggered).
  std::vector<SloAlert> evaluate();

  /// Current burn rates per objective, without touching the latches.
  std::vector<SloStatus> status() const;

 private:
  SloStatus evaluate_locked(const SloObjective& objective,
                            common::TimeMs now) const;
  double error_ratio(const SloObjective& objective, common::TimeMs window_ms,
                     common::TimeMs now) const;

  const TimeSeriesStore* series_;
  const common::Clock* clock_;
  mutable std::mutex mu_;
  std::vector<SloObjective> objectives_;
  std::vector<bool> firing_;  // latch, parallel to objectives_
};

}  // namespace gs::telemetry
