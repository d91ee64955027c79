#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/parallel.hpp"

namespace bfc::obs {

std::size_t Counter::shard_index() noexcept {
  // OpenMP thread ids are dense starting at 0, so low ids map to distinct
  // cache lines; the mask only matters past kShards threads, where a rare
  // shared shard is still correct (relaxed atomic add).
  return static_cast<std::size_t>(thread_id()) & (kShards - 1);
}

void Histogram::observe(std::int64_t v) noexcept {
  if (v < 0) v = 0;
  const int bucket =
      v == 0 ? 0
             : std::min(static_cast<int>(
                            std::bit_width(static_cast<std::uint64_t>(v))),
                        kBuckets - 1);
  buckets_[static_cast<std::size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);

  // min_/max_ hold INT64_MAX/INT64_MIN sentinels while empty, so plain CAS
  // loops handle the first observation too. observe() is called at coarse
  // granularity (per thread / per phase), not on the per-wedge hot path.
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::int64_t Histogram::min() const noexcept {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

std::int64_t Histogram::max() const noexcept {
  return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
}

std::int64_t Histogram::bucket_upper(int i) noexcept {
  return i <= 0 ? 0 : (std::int64_t{1} << i) - 1;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<std::int64_t>::max(),
             std::memory_order_relaxed);
  max_.store(std::numeric_limits<std::int64_t>::min(),
             std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Counter& Registry::counter(const std::string& name) {
  const WriterLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const WriterLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  const WriterLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  // Reader side: only the maps need the lock; the instruments are atomic.
  const SharedLock lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::kCounter;
    s.value = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::kGauge;
    s.gauge = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::kHistogram;
    s.hist_sum = h->sum();
    s.hist_min = h->min();
    s.hist_max = h->max();
    // The count is the sum of the buckets as read, not count_, which
    // concurrent observers move independently: an exporter's +Inf bucket
    // and _count must never fall below its last cumulative bucket.
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::int64_t n = h->bucket_count(i);
      if (n == 0) continue;
      s.hist_buckets.emplace_back(Histogram::bucket_upper(i), n);
      s.hist_count += n;
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void Registry::reset() {
  // Reader side: map topology is untouched; each instrument zeroes itself
  // with its own atomics.
  const SharedLock lock(mu_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
}

}  // namespace bfc::obs
