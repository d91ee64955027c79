// Bounded LRU cache over query results, keyed by (epoch, kind, argument,
// tier, lineage). Because the key includes the epoch (or a view signature)
// and snapshots are immutable, a cached entry can never serve a *wrong* answer
// — entries for old epochs are merely old, and a publish drops the ones no
// new pin can reach.
//
// Tiers are independent invalidation domains sharing one LRU budget. The
// service gives each shard its own tier (keyed by that shard's epoch) plus
// a view-composite tier (keyed by view signature), so a publish on shard k
// invalidates ONLY shard k's entries and stats, leaving the other shards'
// hit streaks untouched.
//
// Counters: cumulative hits/misses go to the obs registry (svc.cache_hits /
// svc.cache_misses). The cache additionally keeps *generation-scoped*
// hit/miss counts PER TIER that reset on that tier's invalidation only, so
// a caller that folds them in before each publish (the serving bench's
// per-shard line) sees each shard's traffic undisturbed by publishes
// elsewhere.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "count/top_pairs.hpp"
#include "svc/request.hpp"
#include "util/common.hpp"
#include "util/sync.hpp"

namespace bfc::svc {

struct CacheKey {
  std::uint64_t epoch = 0;  // per-shard epoch, or view signature (tier S)
  QueryKind kind = QueryKind::kGlobalCount;
  std::int64_t a = 0;  // vertex / edge endpoint / k, kind-dependent
  std::int64_t b = 0;  // second edge endpoint; 0 otherwise
  // Last and defaulted so every pre-tier aggregate init stays valid.
  std::int32_t tier = 0;
  // The snapshot lineage of a per-shard epoch key (a view signature already
  // hashes it): after a restore the shard's epochs can repeat.
  std::uint64_t lineage = 0;
  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  [[nodiscard]] std::size_t operator()(const CacheKey& k) const noexcept {
    // splitmix64-style mixing of the six fields.
    auto mix = [](std::uint64_t x) noexcept {
      x += 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    };
    std::uint64_t h = mix(k.epoch);
    h = mix(h ^ static_cast<std::uint64_t>(k.kind));
    h = mix(h ^ static_cast<std::uint64_t>(k.a));
    h = mix(h ^ static_cast<std::uint64_t>(k.b));
    h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                    k.tier)));
    h = mix(h ^ k.lineage);
    return static_cast<std::size_t>(h);
  }
};

/// Scalar answers (count / tip / support) or a shared top-k pair list.
using CacheValue =
    std::variant<count_t,
                 std::shared_ptr<const std::vector<count::VertexPair>>>;

class ResultCache {
 public:
  /// `capacity` = maximum number of entries (>= 1), shared across all
  /// `tiers` (>= 1) invalidation domains.
  explicit ResultCache(std::size_t capacity, int tiers = 1);

  /// Returns the value and refreshes its recency, or nullopt on miss.
  [[nodiscard]] std::optional<CacheValue> get(const CacheKey& key);

  /// Inserts or refreshes; evicts the least-recently-used entry when full.
  void put(const CacheKey& key, CacheValue value);

  /// Drops every entry and resets every tier's generation-scoped stats.
  void invalidate_all();

  /// Shard-local publish: drops only `tier`'s entries older than min_epoch
  /// and resets only `tier`'s generation stats. Other tiers keep both
  /// their entries and their hit/miss streaks.
  void invalidate_tier_older_than(int tier, std::uint64_t min_epoch);

  /// View-composite tier maintenance: drops `tier`'s entries whose epoch
  /// field (a view signature — not ordered, so "older than" cannot apply)
  /// is NOT in `keep_epochs`, and resets only `tier`'s generation stats.
  void invalidate_tier_keep(int tier,
                            std::span<const std::uint64_t> keep_epochs);

  /// Hits / misses since the last invalidation that touched each tier,
  /// summed over tiers (the pre-tier aggregate surface, unchanged).
  [[nodiscard]] std::int64_t hits() const;
  [[nodiscard]] std::int64_t misses() const;

  /// Same, scoped to one tier's current generation.
  [[nodiscard]] std::int64_t hits(int tier) const;
  [[nodiscard]] std::int64_t misses(int tier) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] int tiers() const noexcept {
    return static_cast<int>(hits_.size());
  }

 private:
  using Entry = std::pair<CacheKey, CacheValue>;

  /// Clamps an out-of-range key tier into [0, tiers) — a defensive identity
  /// map in practice; the service constructs keys from its own tier count.
  [[nodiscard]] std::size_t tier_index(int tier) const noexcept {
    const auto t = static_cast<std::size_t>(tier < 0 ? 0 : tier);
    return t < hits_.size() ? t : hits_.size() - 1;
  }

  std::size_t capacity_;
  mutable Mutex mu_{"svc.result_cache"};
  // front = most recently used
  std::list<Entry> lru_ BFC_GUARDED_BY(mu_);
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> map_
      BFC_GUARDED_BY(mu_);
  // Generation-scoped per tier; a tier's stats reset only when THAT tier
  // is invalidated.
  std::vector<std::int64_t> hits_ BFC_GUARDED_BY(mu_);
  std::vector<std::int64_t> misses_ BFC_GUARDED_BY(mu_);
};

}  // namespace bfc::svc
