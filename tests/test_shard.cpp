// Tests for the sharded serving subsystem (src/shard/ + the service's
// sharded paths): range-partition arithmetic, the scatter-gather cross
// correction on known graphs, and the load-bearing property — for EVERY
// query kind, a service running S shards answers byte-for-byte what the
// single-store service answers, for S in {1, 2, 3, 7}, including vertices
// on the partition boundaries. Plus per-shard cache-tier isolation and a
// TSan-friendly concurrent disjoint-writers stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chk/check.hpp"
#include "count/local_counts.hpp"
#include "count/top_pairs.hpp"
#include "obs/metrics.hpp"
#include "shard/partition.hpp"
#include "shard/router.hpp"
#include "shard/scatter_gather.hpp"
#include "shard/sharded_store.hpp"
#include "sparse/ops.hpp"
#include "svc/fault.hpp"
#include "svc/service.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace bfc::svc {
namespace {

using bfc::testing::random_graph;

std::vector<EdgeUpdate> inserts_of(const graph::BipartiteGraph& g) {
  std::vector<EdgeUpdate> batch;
  for (const auto& [u, v] : sparse::edges(g.csr()))
    batch.push_back(EdgeUpdate::add(u, v));
  return batch;
}

/// A mixed insert/delete update stream, reproducible per seed.
std::vector<EdgeUpdate> random_updates(vidx_t n1, vidx_t n2, int count,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeUpdate> batch;
  batch.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    batch.push_back({static_cast<vidx_t>(rng.bounded(
                         static_cast<std::uint64_t>(n1))),
                     static_cast<vidx_t>(rng.bounded(
                         static_cast<std::uint64_t>(n2))),
                     rng.bernoulli(0.8)});
  return batch;
}

TEST(RangePartition, CoversRangeWithoutOverlap) {
  for (const vidx_t n1 : {1, 2, 7, 16, 100}) {
    for (const int shards : {1, 2, 3, 7}) {
      if (shards > n1) continue;
      const shard::RangePartition part(n1, shards);
      EXPECT_EQ(part.begin(0), 0);
      EXPECT_EQ(part.end(shards - 1), n1);
      for (int k = 0; k + 1 < shards; ++k)
        EXPECT_EQ(part.end(k), part.begin(k + 1));
      for (vidx_t u = 0; u < n1; ++u) {
        const int k = part.owner(u);
        EXPECT_GE(u, part.begin(k));
        EXPECT_LT(u, part.end(k));
      }
    }
  }
}

TEST(ShardRouter, RoutesByKindAndBucketsByOwner) {
  const shard::RangePartition part(10, 3);
  const shard::ShardRouter router(part);
  EXPECT_FALSE(shard::ShardRouter::scatters(QueryKind::kVertexTipV1));
  EXPECT_FALSE(shard::ShardRouter::scatters(QueryKind::kEdgeSupport));
  EXPECT_TRUE(shard::ShardRouter::scatters(QueryKind::kGlobalCount));
  EXPECT_TRUE(shard::ShardRouter::scatters(QueryKind::kVertexTipV2));
  EXPECT_TRUE(shard::ShardRouter::scatters(QueryKind::kTopPairs));

  const std::vector<EdgeUpdate> batch = random_updates(10, 6, 50, 3);
  const auto buckets = router.bucket(batch);
  ASSERT_EQ(buckets.size(), 3u);
  std::size_t total = 0;
  for (int k = 0; k < 3; ++k) {
    for (const EdgeUpdate& up : buckets[static_cast<std::size_t>(k)])
      EXPECT_EQ(part.owner(up.u), k);
    total += buckets[static_cast<std::size_t>(k)].size();
  }
  EXPECT_EQ(total, batch.size());
}

TEST(ScatterGather, SingleButterflyAcrossShards) {
  // One butterfly with u=0 and u=1 in different shards: invisible to both
  // shard-local kernels, fully reconstructed by the cross pass.
  shard::ShardedSnapshotStore store(2, 2, 2);
  (void)store.apply_batch({EdgeUpdate::add(0, 0), EdgeUpdate::add(0, 1),
                           EdgeUpdate::add(1, 0), EdgeUpdate::add(1, 1)});
  const shard::ShardViewPtr view = store.view();
  EXPECT_EQ(view->local_butterflies(), 0);
  const shard::CrossAggregate agg = shard::ScatterGather::compute(*view);
  EXPECT_EQ(agg.butterflies, 1);
  EXPECT_EQ(shard::ScatterGather::global_count(*view, agg), 1);
  EXPECT_EQ(agg.tip_v1(0), 1);
  EXPECT_EQ(agg.tip_v1(1), 1);
  EXPECT_EQ(agg.tip_v2(0), 1);
  EXPECT_EQ(agg.tip_v2(1), 1);
  ASSERT_EQ(agg.pairs.size(), 1u);
  EXPECT_EQ(agg.pairs[0].a, 0);
  EXPECT_EQ(agg.pairs[0].b, 1);
  EXPECT_EQ(agg.pairs[0].wedges, 2);
  // Owner-local support is 0 (no same-shard mate); the cross term carries
  // the whole butterfly for each of the 4 edges.
  EXPECT_EQ(shard::ScatterGather::edge_support_cross(*view, 0, 0, 0), 1);
  EXPECT_EQ(shard::ScatterGather::edge_support_cross(*view, 1, 1, 1), 1);
}

/// The cross aggregate by definition, over the union edge set `rows` (one
/// sorted adjacency list per V1 vertex): every V1 pair whose two vertices
/// have different owners and share at least one neighbour.
shard::CrossAggregate brute_force_cross(
    const std::vector<std::vector<vidx_t>>& rows, vidx_t n2, int shards) {
  const auto n1 = static_cast<vidx_t>(rows.size());
  const shard::RangePartition part(n1, shards);
  shard::CrossAggregate want;
  want.tips_v1.assign(rows.size(), 0);
  want.tips_v2.assign(static_cast<std::size_t>(n2), 0);
  for (vidx_t a = 0; a < n1; ++a) {
    for (vidx_t b = a + 1; b < n1; ++b) {
      if (part.owner(a) == part.owner(b)) continue;
      std::vector<vidx_t> common;
      std::ranges::set_intersection(rows[static_cast<std::size_t>(a)],
                                    rows[static_cast<std::size_t>(b)],
                                    std::back_inserter(common));
      if (common.empty()) continue;
      const auto w = static_cast<count_t>(common.size());
      want.pairs.push_back(count::VertexPair{a, b, w});
      want.butterflies += choose2(w);
      want.tips_v1[static_cast<std::size_t>(a)] += choose2(w);
      want.tips_v1[static_cast<std::size_t>(b)] += choose2(w);
      for (const vidx_t v : common)
        want.tips_v2[static_cast<std::size_t>(v)] += w - 1;
    }
  }
  std::ranges::sort(want.pairs, count::pair_order);
  return want;
}

/// What a full pass keeps of `ranked`, every connected pair in rank order:
/// the best K′ and the next one as the floor (a 0-wedge floor when none is
/// left out).
count::TopPairBuffer buffer_of(const std::vector<count::VertexPair>& ranked) {
  constexpr std::size_t kCapacity = count::TopPairBuffer::kCapacity;
  count::TopPairBuffer top;
  top.pairs.assign(ranked.begin(),
                   ranked.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(kCapacity, ranked.size())));
  top.floor = ranked.size() > kCapacity ? ranked[kCapacity]
                                        : count::VertexPair{};
  return top;
}

// The cross pass against brute force over the union edge set, field by
// field, with the best K′ pairs in order and the floor after them: V1 sides
// smaller than the shard count (empty shards), isolated vertices on both
// sides, deletes published after inserts, and dense shapes where many cross
// pairs tie at one w ≥ 2.
TEST(ScatterGather, CrossPassMatchesBruteForce) {
  struct Shape {
    vidx_t n1, n2;
    double p;
  };
  const Shape shapes[] = {
      {1, 4, 0.9}, {3, 5, 0.7}, {20, 15, 0.2}, {30, 8, 0.7}, {41, 23, 0.35}};
  std::size_t tied = 0;  // adjacent oracle pairs sharing one w ≥ 2
  for (const Shape& s : shapes) {
    for (const int shards : {2, 3, 4, 7}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("n1=" + std::to_string(s.n1) + " shards=" +
                     std::to_string(shards) + " seed=" + std::to_string(seed));
        Rng rng(seed * 101 + static_cast<std::uint64_t>(shards));
        std::set<std::pair<vidx_t, vidx_t>> edges;
        std::vector<EdgeUpdate> inserts;
        for (vidx_t u = 0; u < s.n1; ++u) {
          for (vidx_t v = 0; v < s.n2; ++v) {
            // Every fifth V1 and every sixth V2 vertex stays isolated.
            if (u % 5 == 4 || v % 6 == 5 || !rng.bernoulli(s.p)) continue;
            inserts.push_back(EdgeUpdate::add(u, v));
            edges.emplace(u, v);
          }
        }
        std::vector<EdgeUpdate> deletes;
        for (const auto& [u, v] : edges)
          if (rng.bernoulli(0.1)) deletes.push_back(EdgeUpdate::del(u, v));
        for (const EdgeUpdate& d : deletes) edges.erase({d.u, d.v});
        shard::ShardedSnapshotStore store(s.n1, s.n2, shards);
        (void)store.apply_batch(inserts);
        (void)store.apply_batch(deletes);

        std::vector<std::vector<vidx_t>> rows(static_cast<std::size_t>(s.n1));
        for (const auto& [u, v] : edges)
          rows[static_cast<std::size_t>(u)].push_back(v);
        const shard::CrossAggregate want =
            brute_force_cross(rows, s.n2, shards);
        for (std::size_t i = 1; i < want.pairs.size(); ++i)
          if (want.pairs[i].wedges >= 2 &&
              want.pairs[i].wedges == want.pairs[i - 1].wedges)
            ++tied;

        const shard::ShardViewPtr view = store.view();
        obs::Counter& walked =
            obs::Registry::instance().counter("svc.cross_wedges");
        const std::int64_t walked0 = walked.value();
        const shard::CrossAggregate got = shard::ScatterGather::compute(*view);
        if (obs::kMetricsEnabled) {
          std::int64_t want_walked = 0;
          for (const count::VertexPair& p : want.pairs) want_walked += p.wedges;
          EXPECT_EQ(walked.value() - walked0, want_walked);
        }
        EXPECT_EQ(got.signature, view->signature);
        EXPECT_EQ(got.butterflies, want.butterflies);
        EXPECT_EQ(got.tips_v1, want.tips_v1);
        EXPECT_EQ(got.tips_v2, want.tips_v2);
        const count::TopPairBuffer top = buffer_of(want.pairs);
        EXPECT_EQ(got.pairs, top.pairs);
        EXPECT_EQ(got.floor, top.floor);
        EXPECT_TRUE(got.certified(count::TopPairBuffer::kCapacity));
      }
    }
  }
  EXPECT_GT(tied, 100u) << "the dense shapes must tie many pairs at w >= 2";
}

using Rows = std::vector<std::vector<vidx_t>>;  // one sorted row per V1 vertex

/// The cross wedges the delta from `was` to `now` walks, by definition:
/// shard by shard in ascending order, every owned row that differs, old and
/// new, against the other shards' rows as the earlier deltas left them.
std::int64_t delta_wedges(Rows at, const Rows& now,
                          const shard::RangePartition& part) {
  std::int64_t wedges = 0;
  for (int k = 0; k < part.shards(); ++k) {
    const auto walk = [&](const std::vector<vidx_t>& row) {
      for (const vidx_t v : row)
        for (vidx_t u2 = 0; u2 < part.n1(); ++u2)
          if (part.owner(u2) != k &&
              std::ranges::binary_search(at[static_cast<std::size_t>(u2)], v))
            ++wedges;
    };
    for (vidx_t u = part.begin(k); u < part.end(k); ++u) {
      const auto uu = static_cast<std::size_t>(u);
      if (at[uu] == now[uu]) continue;
      walk(at[uu]);
      walk(now[uu]);
    }
    for (vidx_t u = part.begin(k); u < part.end(k); ++u)
      at[static_cast<std::size_t>(u)] = now[static_cast<std::size_t>(u)];
  }
  return wedges;
}

// The delta against the full pass after every step, on the shapes of
// CrossPassMatchesBruteForce: random batches on one shard and on all of
// them, a batch that empties the busiest row and one that refills it, with
// many pairs tied at the floor. The composed aggregate becomes the next
// step's base, as in the service, and svc.cross_delta_wedges counts the
// changed rows' cross wedges.
TEST(ScatterGather, DeltaMatchesFullPass) {
  struct Shape {
    vidx_t n1, n2;
    double p;
  };
  const Shape shapes[] = {
      {1, 4, 0.9}, {3, 5, 0.7}, {20, 15, 0.2}, {30, 8, 0.7}, {41, 23, 0.35}};
  constexpr std::size_t kCapacity = count::TopPairBuffer::kCapacity;
  obs::Counter& walked =
      obs::Registry::instance().counter("svc.cross_delta_wedges");
  obs::Counter& composes =
      obs::Registry::instance().counter("svc.cross_composes");
  std::size_t tied_at_floor = 0;  // full passes whose floor ties the K′-th
  for (const Shape& s : shapes) {
    for (const int shards : {2, 3, 4, 7}) {
      SCOPED_TRACE("n1=" + std::to_string(s.n1) +
                   " shards=" + std::to_string(shards));
      Rng rng(static_cast<std::uint64_t>(s.n1) * 31 +
              static_cast<std::uint64_t>(shards));
      const shard::RangePartition part(s.n1, shards);
      shard::ShardedSnapshotStore store(s.n1, s.n2, shards);
      Rows rows(static_cast<std::size_t>(s.n1));
      // Publishes on shard k (every touched shard when k < 0) and mirrors
      // the batch into `rows`.
      const auto publish = [&](const std::vector<EdgeUpdate>& batch, int k) {
        for (const EdgeUpdate& up : batch) {
          std::vector<vidx_t>& row = rows[static_cast<std::size_t>(up.u)];
          const auto it = std::ranges::lower_bound(row, up.v);
          const bool present = it != row.end() && *it == up.v;
          if (up.insert && !present) row.insert(it, up.v);
          if (!up.insert && present) row.erase(it);
        }
        (void)(k < 0 ? store.apply_batch(batch) : store.apply_to_shard(k, batch));
      };
      const auto random_batch = [&](vidx_t lo, vidx_t hi) {
        std::vector<EdgeUpdate> batch;
        const int size = lo == hi ? 0 : 1 + static_cast<int>(rng.bounded(8));
        for (int i = 0; i < size; ++i)
          batch.push_back(
              {lo + static_cast<vidx_t>(
                        rng.bounded(static_cast<std::uint64_t>(hi - lo))),
               static_cast<vidx_t>(
                   rng.bounded(static_cast<std::uint64_t>(s.n2))),
               rng.bernoulli(0.6)});
        return batch;
      };
      std::vector<EdgeUpdate> initial;
      for (vidx_t u = 0; u < s.n1; ++u)
        for (vidx_t v = 0; v < s.n2; ++v)
          if (rng.bernoulli(s.p)) initial.push_back(EdgeUpdate::add(u, v));
      publish(initial, -1);

      auto base = std::make_shared<shard::ShardView>(*store.view());
      base->cross = std::make_shared<const shard::CrossAggregate>(
          shard::ScatterGather::compute(*base));
      Rows base_rows = rows;
      const auto step = [&](const std::string& what) {
        SCOPED_TRACE(what);
        const shard::ShardViewPtr view = store.view();
        const std::int64_t walked0 = walked.value();
        const std::int64_t composes0 = composes.value();
        const shard::CrossAggregate got =
            shard::ScatterGather::compose(*base, *view, part);
        const shard::CrossAggregate full = shard::ScatterGather::compute(*view);
        EXPECT_EQ(got.signature, view->signature);
        EXPECT_EQ(got.butterflies, full.butterflies);
        EXPECT_EQ(got.tips_v1, full.tips_v1);
        EXPECT_EQ(got.tips_v2, full.tips_v2);
        EXPECT_EQ(got.pairs, full.pairs);
        EXPECT_FALSE(count::pair_order(full.floor, got.floor))
            << "the composed floor ranks below a pair it left out";
        EXPECT_TRUE(got.answers_like(full));
        EXPECT_TRUE(got.certified(kCapacity));
        if (obs::kMetricsEnabled) {
          EXPECT_EQ(walked.value() - walked0,
                    delta_wedges(base_rows, rows, part));
          EXPECT_EQ(composes.value() - composes0, 1);
        }
        if (full.pairs.size() == kCapacity &&
            full.floor.wedges == full.pairs.back().wedges)
          ++tied_at_floor;
        auto next = std::make_shared<shard::ShardView>(*view);
        next->cross = std::make_shared<const shard::CrossAggregate>(got);
        base = std::move(next);
        base_rows = rows;
      };

      for (int round = 0; round < 6; ++round) {
        const int k = static_cast<int>(
            rng.bounded(static_cast<std::uint64_t>(shards)));
        publish(random_batch(part.begin(k), part.end(k)), k);
        step("a batch on shard " + std::to_string(k));
        publish(random_batch(0, s.n1), -1);
        step("a batch across the shards");
      }
      // Empty the busiest row, then refill it.
      const auto busiest = std::ranges::max_element(
          rows, {}, [](const std::vector<vidx_t>& r) { return r.size(); });
      const auto u = static_cast<vidx_t>(busiest - rows.begin());
      std::vector<EdgeUpdate> drop;
      std::vector<EdgeUpdate> refill;
      for (const vidx_t v : *busiest) {
        drop.push_back(EdgeUpdate::del(u, v));
        refill.push_back(EdgeUpdate::add(u, v));
      }
      publish(drop, part.owner(u));
      step("row " + std::to_string(u) + " emptied");
      publish(refill, part.owner(u));
      step("row " + std::to_string(u) + " refilled");
    }
  }
  EXPECT_GT(tied_at_floor, 20u) << "the dense shapes must tie at the floor";
}

/// Spans over each list, the form merge_top_pairs reads.
std::vector<std::span<const count::VertexPair>> spans_of(
    const std::vector<std::vector<count::VertexPair>>& lists) {
  return {lists.begin(), lists.end()};
}

// The merge against "sort everything, then truncate": per-shard and cross
// lists longer than k, ties at one wedge count straddling lists, k = 0 and
// k above the total.
TEST(ScatterGather, MergeTopPairsEqualsSortAllThenTruncate) {
  Rng rng(7);
  for (int trial = 0; trial < 24; ++trial) {
    const int shards = 1 + trial % 4;
    std::vector<std::vector<count::VertexPair>> per_shard(
        static_cast<std::size_t>(shards));
    std::vector<count::VertexPair> cross;
    for (vidx_t a = 0; a < 24; ++a) {
      for (vidx_t b = a + 1; b < 24; ++b) {
        if (!rng.bernoulli(0.3)) continue;
        const count::VertexPair p{a, b, rng.range(1, 4)};
        const auto list = static_cast<std::size_t>(
            rng.bounded(static_cast<std::uint64_t>(shards) + 1));
        (list == per_shard.size() ? cross : per_shard[list]).push_back(p);
      }
    }
    std::vector<count::VertexPair> all = cross;
    std::ranges::sort(cross, count::pair_order);
    for (auto& list : per_shard) {
      std::ranges::sort(list, count::pair_order);
      all.insert(all.end(), list.begin(), list.end());
    }
    std::ranges::sort(all, count::pair_order);
    for (const auto& list : per_shard) ASSERT_GT(list.size(), 8u);
    ASSERT_GT(cross.size(), 8u);
    for (const std::size_t k :
         {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{8},
          all.size(), all.size() + 3}) {
      SCOPED_TRACE("trial=" + std::to_string(trial) +
                   " k=" + std::to_string(k));
      const std::vector<count::VertexPair> want(
          all.begin(),
          all.begin() + static_cast<std::ptrdiff_t>(std::min(k, all.size())));
      EXPECT_EQ(shard::ScatterGather::merge_top_pairs(spans_of(per_shard),
                                                      cross, k),
                want);
    }
  }
}

// The merge reads at most k entries of each input: an entry planted after
// the k-th of every list, out of order so that it would rank first if read,
// never shows.
TEST(ScatterGather, MergeTopPairsReadsAtMostKOfEachList) {
  const count::VertexPair planted{0, 9, 99};
  const std::vector<std::vector<count::VertexPair>> per_shard = {
      {{1, 2, 5}, {1, 3, 4}, planted}, {{2, 3, 6}, {2, 4, 1}, planted}};
  const std::vector<count::VertexPair> cross = {{1, 5, 5}, {2, 5, 2}, planted};
  const auto lists = spans_of(per_shard);
  EXPECT_EQ(shard::ScatterGather::merge_top_pairs(lists, cross, 2),
            (std::vector<count::VertexPair>{{2, 3, 6}, {1, 2, 5}}));
  EXPECT_EQ(shard::ScatterGather::merge_top_pairs(lists, cross, 1),
            (std::vector<count::VertexPair>{{2, 3, 6}}));
}

// The merge reads the lists in place: ties at one count across shards rank
// by (a, b), a k above every list's size returns the whole union, an empty
// cross list and an empty shard list add nothing, and one list without
// cross pairs is its own first k.
TEST(ScatterGather, MergeTopPairsOverSpans) {
  using Pairs = std::vector<count::VertexPair>;
  const Pairs s0 = {{0, 4, 3}, {2, 3, 2}, {1, 5, 1}};
  const Pairs s1 = {{0, 2, 3}, {1, 2, 2}};
  const Pairs s2;
  const std::array<std::span<const count::VertexPair>, 3> lists = {s0, s1,
                                                                    s2};
  const std::span<const count::VertexPair> no_cross;
  const auto merge = [](std::span<const std::span<const count::VertexPair>> l,
                        std::span<const count::VertexPair> cross,
                        std::size_t k) {
    return shard::ScatterGather::merge_top_pairs(l, cross, k);
  };
  EXPECT_EQ(merge(lists, no_cross, 2), (Pairs{{0, 2, 3}, {0, 4, 3}}));
  EXPECT_EQ(merge(lists, no_cross, 4),
            (Pairs{{0, 2, 3}, {0, 4, 3}, {1, 2, 2}, {2, 3, 2}}));
  EXPECT_EQ(merge(lists, no_cross, 99),
            (Pairs{{0, 2, 3}, {0, 4, 3}, {1, 2, 2}, {2, 3, 2}, {1, 5, 1}}));
  const std::span<const std::span<const count::VertexPair>> one =
      std::span(lists).first(1);
  EXPECT_EQ(merge(one, no_cross, 2), (Pairs{{0, 4, 3}, {2, 3, 2}}));
  EXPECT_EQ(merge(one, no_cross, 99), s0);
  const Pairs cross = {{0, 1, 3}};
  EXPECT_EQ(merge(one, cross, 2), (Pairs{{0, 1, 3}, {0, 4, 3}}));
}

// The tentpole invariant: every query kind, every vertex (boundaries
// included), every shard count — identical answers to the single store.
TEST(ShardParity, AllQueryKindsMatchSingleStore) {
  constexpr vidx_t kN1 = 21;  // not divisible by 2, 3 or 7: real remainders
  constexpr vidx_t kN2 = 15;
  ButterflyService reference(kN1, kN2, {.threads = 2});
  // Reference state after 3 mixed batches.
  for (int b = 0; b < 3; ++b)
    reference.apply_updates(random_updates(kN1, kN2, 120, 100 + b));
  const SnapshotPtr ref_snap = reference.snapshot();
  const std::vector<count_t> ref_tips_v1 =
      count::butterflies_per_v1(ref_snap->graph);
  const std::vector<count_t> ref_tips_v2 =
      count::butterflies_per_v2(ref_snap->graph);
  const auto ref_edges = sparse::edges(ref_snap->graph.csr());
  const std::vector<count_t> ref_support =
      count::support_per_edge(ref_snap->graph);
  const std::vector<count::VertexPair> ref_top =
      count::top_wedge_pairs_v1(ref_snap->graph, 8);

  for (const int shards : {1, 2, 3, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ButterflyService service(kN1, kN2, {.threads = 2, .shards = shards});
    for (int b = 0; b < 3; ++b)
      service.apply_updates(random_updates(kN1, kN2, 120, 100 + b));

    // Global count: zero drift vs the single store.
    const QueryResult<count_t> global = service.global_count().get();
    EXPECT_EQ(global.value, ref_snap->butterflies);
    EXPECT_FALSE(global.degraded());
    // The materialised union snapshot agrees edge-for-edge.
    const SnapshotPtr snap = service.snapshot();
    EXPECT_EQ(snap->edges, ref_snap->edges);
    EXPECT_EQ(snap->butterflies, ref_snap->butterflies);

    // Every tip, both sides — vertex 0, the boundary vertices of every
    // shard, and everything between are all in range.
    for (vidx_t u = 0; u < kN1; ++u) {
      const QueryResult<count_t> r = service.vertex_tip_v1(u).get();
      EXPECT_EQ(r.value, ref_tips_v1[static_cast<std::size_t>(u)])
          << "tip_v1(" << u << ")";
      EXPECT_FALSE(r.degraded());
    }
    for (vidx_t v = 0; v < kN2; ++v) {
      const QueryResult<count_t> r = service.vertex_tip_v2(v).get();
      EXPECT_EQ(r.value, ref_tips_v2[static_cast<std::size_t>(v)])
          << "tip_v2(" << v << ")";
      EXPECT_FALSE(r.degraded());
    }

    // Support of every present edge, plus absent-edge zeros.
    for (std::size_t e = 0; e < ref_edges.size(); ++e) {
      const auto [u, v] = ref_edges[e];
      EXPECT_EQ(service.edge_support(u, v).get().value, ref_support[e])
          << "support(" << u << "," << v << ")";
    }
    for (vidx_t u = 0; u < kN1; u += 5)
      for (vidx_t v = 0; v < kN2; v += 4)
        if (!ref_snap->graph.has_edge(u, v))
          EXPECT_EQ(service.edge_support(u, v).get().value, 0);

    // Top pairs: identical ranked list.
    const QueryResult<TopPairsPtr> top = service.top_pairs(8).get();
    ASSERT_EQ(top.value->size(), ref_top.size());
    for (std::size_t i = 0; i < ref_top.size(); ++i) {
      EXPECT_EQ((*top.value)[i].a, ref_top[i].a);
      EXPECT_EQ((*top.value)[i].b, ref_top[i].b);
      EXPECT_EQ((*top.value)[i].wedges, ref_top[i].wedges);
    }
  }
}

TEST(ShardParity, PinnedViewIsolatesFromLaterPublishes) {
  ButterflyService service(12, 10, {.threads = 2, .shards = 3});
  service.apply_updates(inserts_of(random_graph(12, 10, 0.4, 21)));
  const shard::ShardViewPtr pinned = service.view();
  const count_t before = service.global_count(pinned).get().value;

  service.apply_updates_shard(
      0, {EdgeUpdate::add(0, 9), EdgeUpdate::add(1, 9),
          EdgeUpdate::add(2, 9)});
  // The pinned view still answers the old state; a fresh query sees the new.
  EXPECT_EQ(service.global_count(pinned).get().value, before);
  const SnapshotPtr now = service.snapshot();
  EXPECT_EQ(service.global_count().get().value, now->butterflies);
}

TEST(ShardParity, ShardScopedApplyEnforcesOwnership) {
  ButterflyService service(12, 10, {.threads = 1, .shards = 3});
  // Vertex 11 is owned by the last shard, not shard 0.
  EXPECT_THROW(service.apply_updates_shard(0, {EdgeUpdate::add(11, 0)}),
               std::invalid_argument);
  EXPECT_THROW(service.apply_updates_shard(3, {EdgeUpdate::add(0, 0)}),
               std::invalid_argument);
  EXPECT_THROW(service.apply_updates_shard(-1, {EdgeUpdate::add(0, 0)}),
               std::invalid_argument);
}

TEST(ShardParity, WrongShardErrorNamesVertexRangeAndShard) {
  shard::LocalShard s(1, 12, 10, 4, 8);
  const std::vector<EdgeUpdate> batch = {EdgeUpdate::add(5, 0),
                                         EdgeUpdate::add(9, 3)};
  try {
    s.apply(batch);
    ADD_FAILURE() << "misrouted update accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "LocalShard: update routed to the wrong shard (u=9 outside "
                 "[4, 8) of shard 1)");
  }
  EXPECT_EQ(s.epoch(), 0u);  // nothing of the batch was published
}

TEST(ShardParity, PersistRestoreRoundTripSharded) {
  const std::string path = testing::temp_path("bfc_shard_ckpt.bin");
  ButterflyService service(14, 9, {.threads = 1, .shards = 3});
  service.apply_updates(random_updates(14, 9, 80, 31));
  const count_t count = service.global_count().get().value;
  const offset_t edges = service.snapshot()->edges;
  service.persist(path);

  ButterflyService fresh(14, 9, {.threads = 1, .shards = 3});
  fresh.restore(path);
  EXPECT_EQ(fresh.global_count().get().value, count);
  EXPECT_EQ(fresh.snapshot()->edges, edges);
  // Post-restore queries answer exactly (no stale generation survives).
  const SnapshotPtr snap = fresh.snapshot();
  const std::vector<count_t> tips = count::butterflies_per_v1(snap->graph);
  for (vidx_t u = 0; u < 14; ++u)
    EXPECT_EQ(fresh.vertex_tip_v1(u).get().value,
              tips[static_cast<std::size_t>(u)]);
  std::remove(path.c_str());
}

// Review regression: after a restore rewinds the epoch sequences, a
// different post-restore update stream can re-reach a memoised epoch
// vector, and the retained aggregate must not be served as kExact for
// different graph content. restore() drops the cross-aggregate memo, and
// view signatures also hash each shard's lineage.
TEST(ShardParity, RestoreClearsCrossAggregateMemo) {
  const std::string path = testing::temp_path("bfc_shard_memo_ckpt.bin");
  ButterflyService service(8, 6, {.threads = 1, .shards = 2});
  // Base state touching both shards, no butterflies: epochs (1, 1).
  service.apply_updates({EdgeUpdate::add(2, 0), EdgeUpdate::add(6, 5)});
  service.persist(path);

  // One cross-shard butterfly (pair 0/4, wedge count 2): epochs (2, 2);
  // answering memoises the cross aggregate at this signature.
  service.apply_updates({EdgeUpdate::add(0, 0), EdgeUpdate::add(0, 1),
                         EdgeUpdate::add(4, 0), EdgeUpdate::add(4, 1)});
  EXPECT_EQ(service.global_count().get().value, 1);

  // Rewind to epochs (1, 1), then re-reach epochs (2, 2) with DIFFERENT
  // content: pair 1/5 with wedge count 3 → C(3, 2) = 3 cross butterflies.
  service.restore(path);
  service.apply_updates({EdgeUpdate::add(1, 2), EdgeUpdate::add(1, 3),
                         EdgeUpdate::add(1, 4), EdgeUpdate::add(5, 2),
                         EdgeUpdate::add(5, 3), EdgeUpdate::add(5, 4)});
  const QueryResult<count_t> after = service.global_count().get();
  EXPECT_EQ(after.value, 3);
  EXPECT_FALSE(after.degraded());
  for (const char* suffix : {"", ".shard0", ".shard1"})
    std::remove((path + suffix).c_str());
}

// Two fresh stores fed the same batches pin views with equal signatures, so
// an offline replay can look a live view's answers up by signature; a
// restore starts a new lineage, and the same epochs then sign differently.
TEST(ShardParity, FreshStoresFedTheSameBatchesSignAlike) {
  const std::string path = testing::temp_path("bfc_shard_sign_ckpt.bin");
  shard::ShardedSnapshotStore live(8, 6, 2);
  shard::ShardedSnapshotStore replay(8, 6, 2);
  for (shard::ShardedSnapshotStore* store : {&live, &replay}) {
    (void)store->apply_batch({EdgeUpdate::add(0, 0), EdgeUpdate::add(4, 0)});
    (void)store->apply_batch({EdgeUpdate::add(0, 1), EdgeUpdate::add(4, 1)});
  }
  EXPECT_EQ(live.view()->signature, replay.view()->signature);

  live.persist(path);
  live.restore(path);
  EXPECT_EQ(live.view()->version, replay.view()->version);
  EXPECT_NE(live.view()->signature, replay.view()->signature);
  for (const char* suffix : {"", ".shard0", ".shard1"})
    std::remove((path + suffix).c_str());
}

/// A ShardHandle that is NOT a LocalShard — the shape a future out-of-process
/// shard takes at the swap_shard() seam. Delegates to an inner LocalShard so
/// the data path still works; only the concrete type differs.
class OpaqueShard final : public shard::ShardHandle {
 public:
  OpaqueShard(int id, vidx_t n1, vidx_t n2, vidx_t lo, vidx_t hi)
      : inner_(id, n1, n2, lo, hi) {}
  PublishResult apply(std::span<const EdgeUpdate> batch) override {
    return inner_.apply(batch);
  }
  [[nodiscard]] SnapshotPtr pin() const override { return inner_.pin(); }
  [[nodiscard]] std::uint64_t epoch() const override { return inner_.epoch(); }
  void persist(const std::string& path) const override {
    inner_.persist(path);
  }
  void restore(const std::string& path) override { inner_.restore(path); }
  [[nodiscard]] int id() const noexcept override { return inner_.id(); }
  [[nodiscard]] vidx_t range_begin() const noexcept override {
    return inner_.range_begin();
  }
  [[nodiscard]] vidx_t range_end() const noexcept override {
    return inner_.range_end();
  }

 private:
  shard::LocalShard inner_;
};

// Review regression: local_store() must report a swapped-in non-local
// handle as null (a diagnosable state) rather than leaving callers to
// dereference it, and the handle seam must still carry the data path.
TEST(ShardedStore, LocalStoreIsNullForSwappedHandle) {
  shard::ShardedSnapshotStore store(8, 4, 2);
  ASSERT_NE(store.local_store(0), nullptr);
  store.swap_shard(0, std::make_shared<OpaqueShard>(0, 8, 4, 0, 4));
  EXPECT_EQ(store.local_store(0), nullptr);
  EXPECT_NE(store.local_store(1), nullptr);
  (void)store.apply_to_shard(0, {EdgeUpdate::add(0, 0)});
  EXPECT_EQ(store.shard_snapshot(0)->edges, 1);
}

// A publish on shard k must reset ONLY tier k's hit/miss generation; the
// other shards' streaks survive, and the composed tier keeps only the
// latest view's answers.
TEST(ResultCacheTiers, ShardPublishResetsOnlyItsTier) {
  ButterflyService service(12, 10, {.threads = 1, .shards = 2});
  service.apply_updates(inserts_of(random_graph(12, 10, 0.5, 41)));

  // Warm shard 1's tier: edge-support local components cache under the
  // owner tier; pick an edge owned by shard 1 (u in the upper range).
  const SnapshotPtr shard1 = service.shard_store().shard_snapshot(1);
  vidx_t u1 = -1, v1 = -1;
  for (const auto& [u, v] : sparse::edges(shard1->graph.csr())) {
    u1 = u;
    v1 = v;
    break;
  }
  ASSERT_GE(u1, 0) << "test premise: shard 1 owns at least one edge";
  (void)service.edge_support(u1, v1).get();  // miss + put (tier 1)
  (void)service.edge_support(u1, v1).get();  // view-tier hit
  const std::int64_t tier1_hits = service.cache().hits(1);
  const std::int64_t tier1_misses = service.cache().misses(1);
  EXPECT_GT(tier1_misses, 0);

  // Publish on shard 0 only.
  service.apply_updates_shard(0, {EdgeUpdate::add(0, 0), EdgeUpdate::add(1, 1)});

  // Tier 0's generation reset; tier 1's streak is untouched.
  EXPECT_EQ(service.cache().hits(0), 0);
  EXPECT_EQ(service.cache().misses(0), 0);
  EXPECT_EQ(service.cache().hits(1), tier1_hits);
  EXPECT_EQ(service.cache().misses(1), tier1_misses);

  // And the shard-1 local component is still served from cache: the next
  // support query at the NEW view signature misses the composed tier but
  // hits tier 1.
  const std::int64_t before = service.cache().hits(1);
  (void)service.edge_support(u1, v1).get();
  EXPECT_GT(service.cache().hits(1), before);
}

TEST(ResultCacheTiers, TierScopedInvalidationKeepsOtherTiers) {
  ResultCache cache(64, 3);
  cache.put(CacheKey{5, QueryKind::kVertexTipV1, 1, 0, 0}, count_t{10});
  cache.put(CacheKey{7, QueryKind::kVertexTipV1, 2, 0, 1}, count_t{20});
  cache.put(CacheKey{9, QueryKind::kVertexTipV1, 3, 0, 2}, count_t{30});
  (void)cache.get(CacheKey{7, QueryKind::kVertexTipV1, 2, 0, 1});  // tier-1 hit
  ASSERT_EQ(cache.hits(1), 1);

  cache.invalidate_tier_older_than(0, 6);
  EXPECT_FALSE(
      cache.get(CacheKey{5, QueryKind::kVertexTipV1, 1, 0, 0}).has_value());
  // Tier 1's entry AND its previous hit streak survive (the get above adds
  // one more hit on top of the pre-invalidation one).
  EXPECT_TRUE(
      cache.get(CacheKey{7, QueryKind::kVertexTipV1, 2, 0, 1}).has_value());
  EXPECT_EQ(cache.hits(1), 2);
  EXPECT_TRUE(
      cache.get(CacheKey{9, QueryKind::kVertexTipV1, 3, 0, 2}).has_value());

  // Keep-list pruning: retain only epoch 9 in tier 2.
  cache.put(CacheKey{8, QueryKind::kGlobalCount, 0, 0, 2}, count_t{1});
  const std::uint64_t keep[] = {9};
  cache.invalidate_tier_keep(2, keep);
  EXPECT_FALSE(
      cache.get(CacheKey{8, QueryKind::kGlobalCount, 0, 0, 2}).has_value());
  EXPECT_TRUE(
      cache.get(CacheKey{9, QueryKind::kVertexTipV1, 3, 0, 2}).has_value());
}

// Concurrent disjoint-range writers vs readers: one writer per shard
// publishing its own range in rounds, readers hammering every query kind
// mid-flight. Run under TSan this is the data-race certificate for the
// lock-free shard-map swap + per-shard publish locks; in any mode the final
// state must match a sequential per-shard replay into one store.
TEST(ShardStress, ConcurrentDisjointWritersMatchSequentialReplay) {
  constexpr vidx_t kN1 = 24;
  constexpr vidx_t kN2 = 12;
  constexpr int kShards = 3;
  constexpr int kRounds = 8;
  constexpr int kPerRound = 15;
  ButterflyService service(kN1, kN2, {.threads = 2, .shards = kShards});
  const shard::RangePartition& part = service.shard_store().partition();

  // Pre-generate each writer's per-round batches so the replay is exact.
  std::vector<std::vector<std::vector<EdgeUpdate>>> script(kShards);
  for (int k = 0; k < kShards; ++k) {
    Rng rng(900 + static_cast<std::uint64_t>(k));
    script[static_cast<std::size_t>(k)].resize(kRounds);
    for (int r = 0; r < kRounds; ++r) {
      auto& batch = script[static_cast<std::size_t>(k)][
          static_cast<std::size_t>(r)];
      for (int i = 0; i < kPerRound; ++i) {
        const auto lo = static_cast<std::uint64_t>(part.begin(k));
        const auto hi = static_cast<std::uint64_t>(part.end(k));
        batch.push_back({static_cast<vidx_t>(lo + rng.bounded(hi - lo)),
                         static_cast<vidx_t>(rng.bounded(kN2)),
                         rng.bernoulli(0.75)});
      }
    }
  }

  std::barrier sync(kShards);
  std::atomic<bool> readers_run{true};
  std::vector<std::thread> writers;
  writers.reserve(kShards);
  for (int k = 0; k < kShards; ++k)
    writers.emplace_back([&, k] {
      for (int r = 0; r < kRounds; ++r) {
        sync.arrive_and_wait();  // keep the publishes genuinely concurrent
        (void)service.apply_updates_shard(
            k, script[static_cast<std::size_t>(k)][
                   static_cast<std::size_t>(r)]);
      }
    });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t)
    readers.emplace_back([&, t] {
      Rng rng(77 + static_cast<std::uint64_t>(t));
      while (readers_run.load(std::memory_order_relaxed)) {
        const shard::ShardViewPtr view = service.view();
        const auto u = static_cast<vidx_t>(rng.bounded(kN1));
        const auto v = static_cast<vidx_t>(rng.bounded(kN2));
        ASSERT_GE(service.global_count(view).get().value, 0);
        ASSERT_GE(service.vertex_tip_v1(u, view).get().value, 0);
        ASSERT_GE(service.vertex_tip_v2(v, view).get().value, 0);
        ASSERT_GE(service.edge_support(u, v, view).get().value, 0);
      }
    });
  for (auto& w : writers) w.join();
  readers_run.store(false, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  // Sequential replay: per-shard order is the only order that matters for
  // the final counts (disjoint ranges commute).
  ButterflyService replay(kN1, kN2, {.threads = 1});
  for (int k = 0; k < kShards; ++k)
    for (int r = 0; r < kRounds; ++r)
      replay.apply_updates(script[static_cast<std::size_t>(k)][
          static_cast<std::size_t>(r)]);
  const SnapshotPtr expect = replay.snapshot();
  const SnapshotPtr got = service.snapshot();
  EXPECT_EQ(got->edges, expect->edges);
  EXPECT_EQ(got->butterflies, expect->butterflies) << "count drift";
  const std::vector<count_t> tips = count::butterflies_per_v1(expect->graph);
  for (vidx_t u = 0; u < kN1; ++u)
    EXPECT_EQ(service.vertex_tip_v1(u).get().value,
              tips[static_cast<std::size_t>(u)]);
}

// ---------------------------------------------------------------------------
// Persist/restore crash modes across the BFCSHD01 manifest (checked builds)
// ---------------------------------------------------------------------------
//
// The single-store crash modes (kPersistTruncate / kPersistCorrupt /
// kPersistNoRename) are covered in test_robustness.cpp; these runs cross
// them with shards > 1, where a checkpoint is N per-shard files bound by a
// manifest and the fault lands inside ONE shard's file write. The armed
// Scoped(point, 0, 1) fires on the first per-shard persist, i.e. shard 0.

class ShardPersistRestoreFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!chk::kCheckedEnabled)
      GTEST_SKIP() << "fault injection compiled out (BFC_CHECKED=OFF)";
  }
  void TearDown() override { svc::fault::reset(); }

  static void cleanup(const std::string& path) {
    for (const char* suffix :
         {"", ".tmp", ".shard0", ".shard0.tmp", ".shard1", ".shard1.tmp",
          ".shard2", ".shard2.tmp"})
      std::remove((path + suffix).c_str());
  }

  /// One edge per V1 vertex at column `v`: every shard's bucket is
  /// non-empty, so one apply_batch bumps every shard's epoch by one.
  static std::vector<EdgeUpdate> full_row(vidx_t n1, vidx_t v) {
    std::vector<EdgeUpdate> batch;
    for (vidx_t u = 0; u < n1; ++u) batch.push_back(EdgeUpdate::add(u, v));
    return batch;
  }
};

TEST_F(ShardPersistRestoreFaults, TruncatedShardFileRejectedAtRestore) {
  const std::string path = testing::temp_path("bfc_shardfault_torn.ckpt");
  shard::ShardedSnapshotStore writer(12, 8, 3);
  (void)writer.apply_batch(full_row(12, 0));
  {
    const svc::fault::Scoped torn(svc::fault::Point::kPersistTruncate, 0, 1);
    writer.persist(path);  // shard 0's file lands half-length
  }
  shard::ShardedSnapshotStore victim(12, 8, 3);
  (void)victim.apply_batch({EdgeUpdate::add(0, 0)});
  const std::uint64_t epoch_before = victim.epoch();
  EXPECT_THROW(victim.restore(path), std::runtime_error);
  // All-or-nothing: the torn shard file must leave the victim untouched.
  EXPECT_EQ(victim.epoch(), epoch_before);
  EXPECT_EQ(victim.view()->edges(), 1);
  cleanup(path);
}

TEST_F(ShardPersistRestoreFaults, BitRotInOneShardFileRejectedAtRestore) {
  const std::string path = testing::temp_path("bfc_shardfault_rot.ckpt");
  shard::ShardedSnapshotStore writer(12, 8, 3);
  (void)writer.apply_batch(full_row(12, 0));
  {
    const svc::fault::Scoped rot(svc::fault::Point::kPersistCorrupt, 0, 1,
                                 /*byte*/ 40);
    writer.persist(path);
  }
  shard::ShardedSnapshotStore victim(12, 8, 3);
  EXPECT_THROW(victim.restore(path), std::runtime_error);
  EXPECT_EQ(victim.epoch(), 0u);
  EXPECT_EQ(victim.view()->edges(), 0);
  cleanup(path);
}

TEST_F(ShardPersistRestoreFaults, NoRenameWithoutPriorCheckpointIsMissing) {
  const std::string path = testing::temp_path("bfc_shardfault_miss.ckpt");
  shard::ShardedSnapshotStore writer(12, 8, 3);
  (void)writer.apply_batch(full_row(12, 0));
  {
    const svc::fault::Scoped crash(svc::fault::Point::kPersistNoRename, 0, 1);
    writer.persist(path);  // shard 0's file is never published
    EXPECT_EQ(svc::fault::fired_count(svc::fault::Point::kPersistNoRename),
              1u);
  }
  shard::ShardedSnapshotStore victim(12, 8, 3);
  EXPECT_THROW(victim.restore(path), std::runtime_error);
  EXPECT_EQ(victim.epoch(), 0u);
  cleanup(path);
}

TEST_F(ShardPersistRestoreFaults, NoRenameOverPriorCheckpointIsAFuzzyCut) {
  // Crash-before-rename on shard 0's SECOND persist leaves its FIRST file
  // authoritative while shards 1-2 publish fresh files. The manifest binds
  // layout, not epochs — per-shard checkpoints are individually atomic and
  // the cut across shards is fuzzy BY DESIGN (exactly the consistency a
  // ShardView offers): restore must succeed with shard 0 at the old state.
  const std::string path = testing::temp_path("bfc_shardfault_fuzzy.ckpt");
  shard::ShardedSnapshotStore writer(12, 8, 3);
  (void)writer.apply_batch(full_row(12, 0));  // epochs (1, 1, 1)
  writer.persist(path);
  (void)writer.apply_batch(full_row(12, 1));  // epochs (2, 2, 2)
  {
    const svc::fault::Scoped crash(svc::fault::Point::kPersistNoRename, 0, 1);
    writer.persist(path);
  }
  shard::ShardedSnapshotStore victim(12, 8, 3);
  victim.restore(path);
  EXPECT_EQ(victim.shard_snapshot(0)->epoch, 1u);  // old state survives
  EXPECT_EQ(victim.shard_snapshot(1)->epoch, 2u);
  EXPECT_EQ(victim.shard_snapshot(2)->epoch, 2u);
  // Shard 0 owns V1 range [0, 4): 4 edges from the first row only; the
  // other shards carry both rows.
  EXPECT_EQ(victim.shard_snapshot(0)->edges, 4);
  EXPECT_EQ(victim.view()->edges(), 4 + 8 + 8);
  cleanup(path);
}

// ---------------------------------------------------------------------------
// A failed full cross pass under racing queries (checked builds)
// ---------------------------------------------------------------------------

class ShardFaultGated : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!chk::kCheckedEnabled)
      GTEST_SKIP() << "fault injection compiled out (BFC_CHECKED=OFF)";
  }
  void TearDown() override { svc::fault::reset(); }
};

// Top pairs above K′ still queue: a full cross pass that keeps the best k
// cross pairs, then each shard's pass. When the passes of two racing
// queries blow their deadlines, each query must shed on its own with the
// deadline as its reason (no crash, no wedged future, never a late exact
// answer), and the next query must answer exact.
TEST_F(ShardFaultGated, RacingQueriesSurviveAFaultedTipPass) {
  using namespace std::chrono_literals;
  ButterflyService service(8, 6, {.threads = 2, .shards = 2});
  std::vector<EdgeUpdate> batch;
  for (vidx_t u = 0; u < 3; ++u)
    for (vidx_t v = 0; v < 3; ++v) batch.push_back(EdgeUpdate::add(u, v));
  for (const vidx_t u : {4, 5})  // cross pairs with shard 0's K_{3,3}
    for (const vidx_t v : {0, 1, 4}) batch.push_back(EdgeUpdate::add(u, v));
  (void)service.apply_updates(batch);
  // Pinned, its aggregate composed, before the fault is armed.
  const shard::ShardViewPtr view = service.view();
  constexpr std::size_t kPass = count::TopPairBuffer::kCapacity + 1;
  {
    // Each query's cross pass sleeps 80 ms against a 10 ms deadline.
    const svc::fault::Scoped slow(svc::fault::Point::kSlowKernel, 0, 2, 80);
    std::future<QueryResult<TopPairsPtr>> a =
        service.top_pairs(kPass, Request(view, Deadline::after(10ms)));
    std::future<QueryResult<TopPairsPtr>> b =
        service.top_pairs(kPass, Request(view, Deadline::after(10ms)));
    for (auto* fut : {&a, &b}) {
      try {
        (void)fut->get();
        ADD_FAILURE() << "a pass past its deadline answered";
      } catch (const OverloadError& e) {
        EXPECT_EQ(e.reason(), OverloadError::Reason::kDeadline);
      }
    }
    EXPECT_GE(svc::fault::fired_count(svc::fault::Point::kSlowKernel), 1u);
  }

  // The cancelled passes cached nothing: the next query runs them and
  // answers exact.
  const QueryResult<TopPairsPtr> exact = service.top_pairs(kPass).get();
  EXPECT_FALSE(exact.degraded());
  EXPECT_EQ(*exact.value,
            count::top_wedge_pairs_v1(service.snapshot()->graph, kPass));
}

}  // namespace
}  // namespace bfc::svc
