#include "svc/slo.hpp"

#include <string>

#include "obs/metrics.hpp"

namespace bfc::svc {

SloTracker::SloTracker(std::array<SloPolicy, kQueryKinds> policies,
                       std::size_t window)
    : policies_(policies), window_(window == 0 ? 1 : window) {
  for (std::size_t k = 0; k < kQueryKinds; ++k) {
    if (policies_[k].target_us <= 0.0) continue;
    enabled_ = true;
    {
      const MutexLock lock(windows_[k].mu);
      windows_[k].bad.assign(window_, false);
    }
    if constexpr (obs::kMetricsEnabled) {
      const std::string suffix = kind_name(static_cast<QueryKind>(k));
      auto& reg = obs::Registry::instance();
      violation_counters_[k] = &reg.counter("svc.slo.violations." + suffix);
      good_counters_[k] = &reg.counter("svc.slo.good." + suffix);
      burn_gauges_[k] = &reg.gauge("svc.slo.burn_rate." + suffix);
    }
  }
}

void SloTracker::observe(QueryKind kind, double us) {
  const auto k = static_cast<std::size_t>(kind);
  const SloPolicy& policy = policies_[k];
  if (policy.target_us <= 0.0) return;
  const bool over = us > policy.target_us;
  double burn = 0.0;
  {
    const MutexLock lock(windows_[k].mu);
    KindWindow& w = windows_[k];
    if (w.count == window_ && w.bad[w.next]) --w.bad_count;
    w.bad[w.next] = over;
    if (over) ++w.bad_count;
    w.next = (w.next + 1) % window_;
    if (w.count < window_) ++w.count;
    if (over) ++w.violations_total;
    burn = burn_rate_locked(k);
  }
  if (over) {
    if (violation_counters_[k] != nullptr) violation_counters_[k]->increment();
  } else {
    if (good_counters_[k] != nullptr) good_counters_[k]->increment();
  }
  if (burn_gauges_[k] != nullptr) burn_gauges_[k]->set(burn);
}

double SloTracker::burn_rate_locked(std::size_t k) const {
  const KindWindow& w = windows_[k];
  if (w.count == 0) return 0.0;
  const double bad_fraction =
      static_cast<double>(w.bad_count) / static_cast<double>(w.count);
  const double allowed = 1.0 - policies_[k].objective;
  // A 100% objective leaves no budget: any violation is an infinite burn
  // rate; report a large finite sentinel instead.
  if (allowed <= 0.0) return w.bad_count == 0 ? 0.0 : 1e9;
  return bad_fraction / allowed;
}

double SloTracker::burn_rate(QueryKind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  if (policies_[k].target_us <= 0.0) return 0.0;
  const MutexLock lock(windows_[k].mu);
  return burn_rate_locked(k);
}

std::int64_t SloTracker::violations(QueryKind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  const MutexLock lock(windows_[k].mu);
  return windows_[k].violations_total;
}

}  // namespace bfc::svc
