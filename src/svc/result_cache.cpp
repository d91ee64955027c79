#include "svc/result_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace bfc::svc {

ResultCache::ResultCache(std::size_t capacity, int tiers)
    : capacity_(capacity) {
  require(capacity >= 1, "ResultCache: capacity must be >= 1");
  require(tiers >= 1, "ResultCache: tiers must be >= 1");
  hits_.assign(static_cast<std::size_t>(tiers), 0);
  misses_.assign(static_cast<std::size_t>(tiers), 0);
}

std::optional<CacheValue> ResultCache::get(const CacheKey& key) {
  const MutexLock lock(mu_);
  const std::size_t t = tier_index(key.tier);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_[t];
    BFC_COUNT_ADD("svc.cache_misses", 1);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++hits_[t];
  BFC_COUNT_ADD("svc.cache_hits", 1);
  return it->second->second;
}

void ResultCache::put(const CacheKey& key, CacheValue value) {
  const MutexLock lock(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    BFC_COUNT_ADD("svc.cache_evictions", 1);
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(key, std::move(value));
  map_.emplace(key, lru_.begin());
}

void ResultCache::invalidate_all() {
  const MutexLock lock(mu_);
  map_.clear();
  lru_.clear();
  std::fill(hits_.begin(), hits_.end(), 0);
  std::fill(misses_.begin(), misses_.end(), 0);
  BFC_COUNT_ADD("svc.cache_invalidations", 1);
}

void ResultCache::invalidate_tier_older_than(int tier,
                                             std::uint64_t min_epoch) {
  const MutexLock lock(mu_);
  const std::size_t t = tier_index(tier);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (tier_index(it->first.tier) == t && it->first.epoch < min_epoch) {
      map_.erase(it->first);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  // THE point of tiers: only the published shard's generation resets; the
  // other shards keep their entries AND their hit/miss streaks.
  hits_[t] = 0;
  misses_[t] = 0;
  BFC_COUNT_ADD("svc.cache_invalidations", 1);
}

void ResultCache::invalidate_tier_keep(
    int tier, std::span<const std::uint64_t> keep_epochs) {
  const MutexLock lock(mu_);
  const std::size_t t = tier_index(tier);
  const auto kept = [&](std::uint64_t epoch) {
    return std::find(keep_epochs.begin(), keep_epochs.end(), epoch) !=
           keep_epochs.end();
  };
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (tier_index(it->first.tier) == t && !kept(it->first.epoch)) {
      map_.erase(it->first);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  hits_[t] = 0;
  misses_[t] = 0;
  BFC_COUNT_ADD("svc.cache_invalidations", 1);
}

std::int64_t ResultCache::hits() const {
  const MutexLock lock(mu_);
  std::int64_t h = 0;
  for (const std::int64_t t : hits_) h += t;
  return h;
}

std::int64_t ResultCache::misses() const {
  const MutexLock lock(mu_);
  std::int64_t m = 0;
  for (const std::int64_t t : misses_) m += t;
  return m;
}

std::int64_t ResultCache::hits(int tier) const {
  const MutexLock lock(mu_);
  return hits_[tier_index(tier)];
}

std::int64_t ResultCache::misses(int tier) const {
  const MutexLock lock(mu_);
  return misses_[tier_index(tier)];
}

std::size_t ResultCache::size() const {
  const MutexLock lock(mu_);
  return map_.size();
}

}  // namespace bfc::svc
