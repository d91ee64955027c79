// SLO accounting for the serving stack: each query kind can carry a latency
// objective ("99% of tip queries under 2ms"), and the tracker turns the
// stream of observed latencies into error-budget arithmetic:
//
//   burn rate = (fraction of recent requests over target) / (1 - objective)
//
// A burn rate of 1.0 means the service is spending its error budget exactly
// as fast as the objective allows; sustained > 1.0 means the SLO will be
// violated. The tracker only reports: the service feeds it every answer's
// latency, and nothing sheds or degrades on its verdict.
//
// Accounting is windowed: only the most recent `window` observations per
// kind count toward the burn rate, so the signal recovers once the storm
// passes. Published instruments (under
// BFC_METRICS=ON): svc.slo.violations.<kind> and svc.slo.good.<kind>
// counters plus a svc.slo.burn_rate.<kind> gauge per configured kind.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "svc/request.hpp"
#include "util/sync.hpp"

namespace bfc::obs {
class Counter;
class Gauge;
}  // namespace bfc::obs

namespace bfc::svc {

/// Per-kind objective. target_us == 0 disables tracking for that kind.
struct SloPolicy {
  double target_us = 0.0;   // latency target; 0 = no objective
  double objective = 0.99;  // fraction of requests that must meet it
};

class SloTracker {
 public:
  static constexpr std::size_t kDefaultWindow = 256;

  /// Binds the svc.slo.* instruments of every kind with a target.
  explicit SloTracker(std::array<SloPolicy, kQueryKinds> policies,
                      std::size_t window = kDefaultWindow);

  /// True when at least one kind carries a real objective.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records one completed request's latency against its kind's objective.
  /// No-op for kinds without a target.
  void observe(QueryKind kind, double us);

  /// Windowed burn rate for one kind (0 when untracked or no data yet).
  [[nodiscard]] double burn_rate(QueryKind kind) const;

  /// Total over-target observations for one kind since construction.
  [[nodiscard]] std::int64_t violations(QueryKind kind) const;

  [[nodiscard]] const SloPolicy& policy(QueryKind kind) const noexcept {
    return policies_[static_cast<std::size_t>(kind)];
  }

 private:
  // One mutex per kind: observe() is on the per-query hot path, and the
  // kinds never nest, so sharding the lock removes cross-kind contention.
  // The over-target tally is maintained incrementally (O(1) per observe;
  // the full ring is never rescanned).
  struct KindWindow {
    mutable Mutex mu{"svc.slo"};
    std::vector<bool> bad BFC_GUARDED_BY(mu);  // ring of over-target flags
    std::size_t next BFC_GUARDED_BY(mu) = 0;
    std::size_t count BFC_GUARDED_BY(mu) = 0;
    std::size_t bad_count BFC_GUARDED_BY(mu) = 0;
    std::int64_t violations_total BFC_GUARDED_BY(mu) = 0;
  };

  [[nodiscard]] double burn_rate_locked(std::size_t k) const
      BFC_REQUIRES(windows_[k].mu);

  std::array<SloPolicy, kQueryKinds> policies_;
  std::size_t window_;
  bool enabled_ = false;
  std::array<KindWindow, kQueryKinds> windows_;
  // Bound once at construction (names are per-kind, so the literal-only
  // BFC_* macros don't apply); null when metrics are compiled out or the
  // kind is untracked.
  std::array<obs::Counter*, kQueryKinds> violation_counters_{};
  std::array<obs::Counter*, kQueryKinds> good_counters_{};
  std::array<obs::Gauge*, kQueryKinds> burn_gauges_{};
};

}  // namespace bfc::svc
