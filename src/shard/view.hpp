// A pinned cross-shard read view: one immutable snapshot per shard, taken
// with one atomic load each. Shards publish independently, so a view is NOT
// an atomic cut across shards — each per-shard snapshot is individually
// consistent, and the view as a whole is "some recent epoch of every
// shard". That is the same consistency a single-store reader gets across
// two successive pins; queries that need a frozen multi-shard state pin one
// view and answer everything against it.
//
// A view the service hands out also carries the cross aggregate at exactly
// its snapshots (shard/scatter_gather.hpp composes it at pin time), so every
// global, tip and certified top-pairs answer is a sum over the view. A
// one-shard view has no cross pairs and carries one shared empty aggregate.
//
// The signature is an order-sensitive hash of the per-shard epochs and
// lineages (a restore() starts a new lineage, whose epochs can re-reach old
// ones with different content): two views with equal signatures answer
// every query identically, which is what lets the service key its
// composed-answer cache tier by signature instead of by any single epoch.
// The version is the sum of the pinned epochs: every publish adds one, and
// a one-shard view's version is its shard's epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chk/checked_math.hpp"
#include "count/top_pairs.hpp"
#include "svc/snapshot.hpp"
#include "util/common.hpp"

namespace bfc::shard {

/// The crossing term of Eq. (12) at one combination of shard snapshots:
/// butterflies whose V1 pair straddles two shards, their per-vertex parts,
/// and the best K′ cross pairs under a floor that certifies them
/// (count::TopPairBuffer's members and certification rule).
struct CrossAggregate : count::TopPairBuffer {
  std::uint64_t signature = 0;
  count_t butterflies = 0;
  // Per-vertex cross contributions; empty vectors mean "all zero" (the
  // single-shard case computes nothing and allocates nothing).
  std::vector<count_t> tips_v1;
  std::vector<count_t> tips_v2;

  [[nodiscard]] count_t tip_v1(vidx_t u) const noexcept {
    const auto i = static_cast<std::size_t>(u);
    return i < tips_v1.size() ? tips_v1[i] : 0;
  }
  [[nodiscard]] count_t tip_v2(vidx_t v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    return i < tips_v2.size() ? tips_v2[i] : 0;
  }

  /// Whether this aggregate answers every query as `full`, a full pass over
  /// the same snapshots, does: the same count, tips and pairs, under a
  /// floor that ranks at or above the full pass's (a floor only rises, so a
  /// composed one may sit higher; below it, it would hide a pair).
  [[nodiscard]] bool answers_like(const CrossAggregate& full) const {
    return butterflies == full.butterflies && tips_v1 == full.tips_v1 &&
           tips_v2 == full.tips_v2 && pairs == full.pairs &&
           !count::pair_order(full.floor, floor);
  }
};

using CrossAggregatePtr = std::shared_ptr<const CrossAggregate>;

/// The aggregate of every one-shard view: no cross pairs, every k certified.
[[nodiscard]] inline const CrossAggregatePtr& no_cross_pairs() {
  static const CrossAggregatePtr empty = [] {
    auto agg = std::make_shared<CrossAggregate>();
    agg->floor = count::VertexPair{};
    return agg;
  }();
  return empty;
}

struct ShardView {
  std::vector<svc::SnapshotPtr> shards;  // index = shard id, never null
  std::uint64_t version = 0;    // Σ of the pinned shard epochs
  std::uint64_t signature = 0;  // hash of per-shard (epoch, lineage)
  // Bit k set: shard k was unhealthy at pin time (open circuit on a
  // RemoteShard), so shards[k] is its last *known* snapshot rather than a
  // fresh pin. Values composed from this view are still exact for the
  // pinned epoch combination — the mask is a freshness annotation the
  // service surfaces as QueryResult::stale_shards, never a validity bit.
  std::uint64_t stale_mask = 0;
  // The cross aggregate at exactly these snapshots; null on a view of more
  // than one shard that no service has pinned (ButterflyService composes one).
  CrossAggregatePtr cross;

  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards.size());
  }

  [[nodiscard]] bool shard_stale(int k) const noexcept {
    return k < 64 && ((stale_mask >> k) & 1u) != 0;
  }

  /// Σ over shards of the shard-local butterfly count: butterflies whose
  /// V1 pair lives inside one shard. The cross-shard correction term is
  /// `cross`.
  [[nodiscard]] count_t local_butterflies() const {
    count_t total = 0;
    for (const svc::SnapshotPtr& s : shards)
      total = chk::checked_add(total, s->butterflies);
    return total;
  }

  [[nodiscard]] offset_t edges() const {
    offset_t total = 0;
    for (const svc::SnapshotPtr& s : shards)
      total = chk::checked_add(total, s->edges);
    return total;
  }

  /// splitmix64 chain over the per-shard epochs and lineages
  /// (order-sensitive).
  [[nodiscard]] static std::uint64_t signature_of(
      const std::vector<svc::SnapshotPtr>& shards) noexcept {
    auto mix = [](std::uint64_t x) noexcept {
      x += 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    };
    std::uint64_t h = mix(shards.size());
    for (const svc::SnapshotPtr& s : shards)
      h = mix(mix(h ^ s->epoch) ^ s->lineage);
    return h;
  }
};

using ShardViewPtr = std::shared_ptr<const ShardView>;

/// The view over `shards` (index = shard id): version and signature follow
/// from their epochs, and one shard gets the shared empty aggregate.
[[nodiscard]] inline ShardViewPtr make_view(
    std::vector<svc::SnapshotPtr> shards, std::uint64_t stale_mask = 0) {
  auto v = std::make_shared<ShardView>();
  for (const svc::SnapshotPtr& s : shards) v->version += s->epoch;
  v->signature = ShardView::signature_of(shards);
  v->shards = std::move(shards);
  v->stale_mask = stale_mask;
  if (v->shards.size() == 1) v->cross = no_cross_pairs();
  return v;
}

}  // namespace bfc::shard
