// SLO accounting for the serving stack: each query kind can carry a latency
// objective ("99% of tip queries under 2ms"), and the tracker turns the
// stream of observed latencies into error-budget arithmetic:
//
//   burn rate = (fraction of recent requests over target) / (1 - objective)
//
// A burn rate of 1.0 means the service is spending its error budget exactly
// as fast as the objective allows; sustained > 1.0 means the SLO will be
// violated. ButterflyService::overloaded() consults budget_exhausted() in
// addition to its queue-depth threshold, so degradation engages when the
// *objective* is at risk, not only when the queue is deep.
//
// Accounting is windowed: only the most recent `window` observations per
// kind count toward the burn rate, so the signal recovers once the storm
// passes. Published instruments (under
// BFC_METRICS=ON): svc.slo.violations.<kind> and svc.slo.good.<kind>
// counters plus a svc.slo.burn_rate.<kind> gauge per configured kind.
#pragma once

#include <array>
#include <atomic>
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

  /// `bind_metrics` = false skips binding the svc.slo.* instruments — the
  /// sharded service runs one tracker per shard, and only the store-wide
  /// tracker may own the global gauges (per-shard trackers would fight
  /// over them, each publish overwriting the others' burn rates).
  explicit SloTracker(std::array<SloPolicy, kQueryKinds> policies,
                      std::size_t window = kDefaultWindow,
                      bool bind_metrics = true);

  /// True when at least one kind carries a real objective.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records one completed request's latency against its kind's objective.
  /// No-op for kinds without a target.
  void observe(QueryKind kind, double us);

  /// Windowed burn rate for one kind (0 when untracked or no data yet).
  [[nodiscard]] double burn_rate(QueryKind kind) const;

  /// True when any tracked kind's windowed burn rate exceeds 1.0 — the
  /// error budget is being spent faster than the objective permits.
  [[nodiscard]] bool budget_exhausted() const;

  /// Total over-target observations for one kind since construction.
  [[nodiscard]] std::int64_t violations(QueryKind kind) const;

  [[nodiscard]] const SloPolicy& policy(QueryKind kind) const noexcept {
    return policies_[static_cast<std::size_t>(kind)];
  }

 private:
  // One mutex per kind: observe() is on the per-query hot path, and the
  // kinds never nest, so sharding the lock removes cross-kind contention.
  // The over-target tally is maintained incrementally (O(1) per observe;
  // the full ring is never rescanned), and the exhaustion verdict is
  // mirrored into a lock-free bitmask so overloaded() — called at every
  // admission — never touches a mutex.
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
  // Bit k set while kind k's windowed burn rate exceeds 1.0.
  std::atomic<std::uint32_t> over_mask_{0};
  // Bound once at construction (names are per-kind, so the literal-only
  // BFC_* macros don't apply); null when metrics are compiled out or the
  // kind is untracked.
  std::array<obs::Counter*, kQueryKinds> violation_counters_{};
  std::array<obs::Counter*, kQueryKinds> good_counters_{};
  std::array<obs::Gauge*, kQueryKinds> burn_gauges_{};
};

}  // namespace bfc::svc
