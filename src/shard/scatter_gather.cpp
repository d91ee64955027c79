#include "shard/scatter_gather.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "chk/check.hpp"
#include "chk/checked_math.hpp"
#include "count/wedges.hpp"
#include "obs/metrics.hpp"
#include "sparse/ops.hpp"
#include "svc/fault.hpp"

namespace bfc::shard {
namespace {

using Peers = std::vector<const graph::BipartiteGraph*>;
constexpr std::size_t kCapacity = count::TopPairBuffer::kCapacity;

/// x + n, or x − n when `add` is false.
void credit(count_t& x, count_t n, bool add) {
  x = add ? chk::checked_add(x, n) : chk::checked_sub(x, n);
}

/// The row kernel (see the file comment): the cross wedges u – v – u2 of
/// `row`, the neighbours of u, whose far end u2 is a vertex of a `peers`
/// graph. Credits w − 1 per wedge to tips_v2[v] and C(w, 2) per pair to the
/// count and to both ends' tips — or takes them back when `add` is false —
/// where w = |row ∩ N(u2)|, then calls pair(u2, w).
template <class Pair>
void cross_row(CrossAggregate& agg, count::WedgeAccumulator& acc, vidx_t u,
               std::span<const vidx_t> row, const Peers& peers, bool add,
               Pair&& pair) {
  for (const graph::BipartiteGraph* g : peers) acc.expand(row, g->csc());
  // Each cross wedge (u, u2) at v closes into a butterfly with every OTHER
  // common neighbour of the pair: w − 1 of them. This sweep needs the full
  // multiplicities, so it cannot fuse into the expansion.
  for (const vidx_t v : row) {
    count_t closed = 0;
    for (const graph::BipartiteGraph* g : peers)
      for (const vidx_t u2 : g->neighbors_of_v2(v))
        closed = chk::checked_add(closed, acc[u2] - 1);
    credit(agg.tips_v2[static_cast<std::size_t>(v)], closed, add);
  }
  acc.drain([&](vidx_t u2, count_t w) {
    if (const count_t bf = chk::checked_choose2(w); bf != 0) {
      credit(agg.butterflies, bf, add);
      credit(agg.tips_v1[static_cast<std::size_t>(u)], bf, add);
      credit(agg.tips_v1[static_cast<std::size_t>(u2)], bf, add);
    }
    pair(u2, w);
  });
}

/// Bit i set when buffer slot i holds a pair of u.
std::uint64_t slots_of(const std::vector<count::VertexPair>& pairs, vidx_t u) {
  static_assert(kCapacity <= 64, "one bit per buffer slot");
  std::uint64_t slots = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i)
    if (pairs[i].a == u || pairs[i].b == u) slots |= std::uint64_t{1} << i;
  return slots;
}

/// Records that cross pair (u, u2) now has w > 0 wedges, `mine` being u's
/// slots: in place when the buffer holds the pair; else it enters when it
/// ranks above the floor, evicting the lowest pair beyond K′, whose key
/// becomes the floor when it ranks higher (count::DynamicButterflyCounter's
/// rule).
void offer(CrossAggregate& agg, vidx_t u, vidx_t u2, count_t w,
           std::uint64_t& mine) {
  std::vector<count::VertexPair>& pairs = agg.pairs;
  for (std::uint64_t bits = mine; bits != 0; bits &= bits - 1) {
    count::VertexPair& slot =
        pairs[static_cast<std::size_t>(std::countr_zero(bits))];
    if (slot.a == u2 || slot.b == u2) {
      slot.wedges = w;
      return;
    }
  }
  const count::VertexPair pair{std::min(u, u2), std::max(u, u2), w};
  if (!count::pair_order(pair, agg.floor)) return;
  pairs.push_back(pair);
  if (pairs.size() > kCapacity) {
    const auto lowest = std::ranges::max_element(pairs, count::pair_order);
    if (count::pair_order(*lowest, agg.floor)) agg.floor = *lowest;
    *lowest = pairs.back();
    pairs.pop_back();
  }
  mine = slots_of(pairs, u);
}

}  // namespace

CrossAggregate ScatterGather::compute(const ShardView& view,
                                      const CancelToken& cancel,
                                      const obs::TraceContext& trace,
                                      std::size_t depth) {
  CrossAggregate agg;
  agg.signature = view.signature;
  agg.floor = count::VertexPair{};  // certifies every pair it holds
  const int shards = view.shard_count();
  if (shards < 2) return agg;  // no cross pairs can exist
  // Checked builds can stall the pass to force a deadline to expire
  // mid-pass (fault::Point::kSlowKernel, param = milliseconds).
  if (svc::fault::fires(svc::fault::Point::kSlowKernel))
    std::this_thread::sleep_for(std::chrono::milliseconds(
        svc::fault::param(svc::fault::Point::kSlowKernel)));
  const vidx_t n1 = view.shards[0]->graph.n1();
  agg.tips_v1.assign(static_cast<std::size_t>(n1), 0);
  agg.tips_v2.assign(static_cast<std::size_t>(view.shards[0]->graph.n2()), 0);
  count::WedgeAccumulator acc(n1);
  // The best depth + 1 pairs so far: a heap whose front ranks lowest.
  std::vector<count::VertexPair> best;
  [[maybe_unused]] count_t connected = 0;

  {
    // Scatter: the rows of shard i against the later shards, so the peer
    // filter owner(u2) > owner(u) = i sees each cross pair once.
    // Contiguous ascending ranges make u < u2, a canonical pair.
    obs::Span span(trace, "svc.scatter");
    span.tag("shards", std::to_string(shards));
    for (int i = 0; i + 1 < shards; ++i) {
      Peers peers;
      for (int j = i + 1; j < shards; ++j)
        peers.push_back(&view.shards[static_cast<std::size_t>(j)]->graph);
      const graph::BipartiteGraph& g =
          view.shards[static_cast<std::size_t>(i)]->graph;
      for (vidx_t u = 0; u < n1; ++u) {
        cancel.checkpoint("shard::ScatterGather::compute");
        cross_row(agg, acc, u, g.neighbors_of_v1(u), peers, true,
                  [&](vidx_t u2, count_t w) {
                    if constexpr (obs::kMetricsEnabled) ++connected;
                    const count::VertexPair p{u, u2, w};
                    if (best.size() <= depth) {
                      best.push_back(p);
                      std::ranges::push_heap(best, count::pair_order);
                    } else if (count::pair_order(p, best.front())) {
                      std::ranges::pop_heap(best, count::pair_order);
                      best.back() = p;
                      std::ranges::push_heap(best, count::pair_order);
                    }
                  });
      }
    }
  }

  {
    // Gather: rank the kept pairs; the one past `depth` is the floor.
    obs::Span span(trace, "svc.gather");
    std::ranges::sort_heap(best, count::pair_order);
    if (best.size() > depth) {
      agg.floor = best.back();
      best.pop_back();
    }
    agg.pairs = std::move(best);
    span.tag("pairs", std::to_string(connected));
  }

  BFC_COUNT_ADD("svc.cross_passes", 1);
  BFC_COUNT_ADD("svc.cross_wedges", acc.work().wedges);
  BFC_GAUGE_SET("svc.cross_pairs", static_cast<double>(connected));
  return agg;
}

CrossAggregate ScatterGather::compose(const ShardView& base,
                                      const ShardView& view,
                                      const RangePartition& part) {
  require(base.cross != nullptr && base.shard_count() == view.shard_count() &&
              part.shards() == view.shard_count(),
          "ScatterGather::compose: base of another layout, or no aggregate");
  CrossAggregate agg = *base.cross;
  agg.signature = view.signature;
  count::WedgeAccumulator acc(view.shards[0]->graph.n1());
  // The graph of each shard the deltas have reached: shard k's moves from
  // base to view once its delta ends, so a pair with one end in each of two
  // changed shards changes in exactly one delta, against the other's state.
  Peers at;
  for (const svc::SnapshotPtr& s : base.shards) at.push_back(&s->graph);
  for (int k = 0; k < view.shard_count(); ++k) {
    const auto kk = static_cast<std::size_t>(k);
    if (base.shards[kk] == view.shards[kk]) continue;
    const graph::BipartiteGraph& now = view.shards[kk]->graph;
    Peers peers = at;
    peers.erase(peers.begin() + k);
    for (vidx_t u = part.begin(k); u < part.end(k); ++u) {
      const std::span<const vidx_t> was = at[kk]->neighbors_of_v1(u);
      const std::span<const vidx_t> row = now.neighbors_of_v1(u);
      if (std::ranges::equal(was, row)) continue;
      cross_row(agg, acc, u, was, peers, false, [](vidx_t, count_t) {});
      // u's buffered pairs drop to 0 until the new row's walk recounts
      // them; those it does not reach leave the buffer.
      std::uint64_t mine = slots_of(agg.pairs, u);
      for (std::uint64_t bits = mine; bits != 0; bits &= bits - 1)
        agg.pairs[static_cast<std::size_t>(std::countr_zero(bits))].wedges = 0;
      cross_row(agg, acc, u, row, peers, true, [&](vidx_t u2, count_t w) {
        offer(agg, u, u2, w, mine);
      });
      std::erase_if(agg.pairs,
                    [](const count::VertexPair& p) { return p.wedges == 0; });
    }
    at[kk] = &now;
  }
  std::ranges::sort(agg.pairs, count::pair_order);
  BFC_COUNT_ADD("svc.cross_composes", 1);
  BFC_COUNT_ADD("svc.cross_delta_wedges", acc.work().wedges);
  if (!agg.certified(kCapacity)) return compute(view);
  BFC_CHECK_MSG(agg.answers_like(compute(view)),
                "composed cross aggregate differs from a full pass");
  return agg;
}

count_t ScatterGather::global_count(const ShardView& view,
                                    const CrossAggregate& cross) {
  BFC_COUNT_ADD("svc.gather_merges", 1);
  return chk::checked_add(view.local_butterflies(), cross.butterflies);
}

count_t ScatterGather::edge_support_cross(const ShardView& view, int owner,
                                          vidx_t u, vidx_t v) {
  const std::span<const vidx_t> nu =
      view.shards[static_cast<std::size_t>(owner)]->graph.neighbors_of_v1(u);
  count_t support = 0;
  for (int j = 0; j < view.shard_count(); ++j) {
    if (j == owner) continue;
    const graph::BipartiteGraph& gj =
        view.shards[static_cast<std::size_t>(j)]->graph;
    for (const vidx_t mate : gj.neighbors_of_v2(v)) {
      // v is a common neighbor of u and every mate, so the intersection is
      // ≥ 1 and the −1 (excluding v itself) never goes negative.
      support = chk::checked_add(
          support,
          static_cast<count_t>(
              sparse::intersection_size(nu, gj.neighbors_of_v1(mate))) -
              1);
    }
  }
  return support;
}

std::vector<count::VertexPair> ScatterGather::merge_top_pairs(
    std::span<const std::span<const count::VertexPair>> per_shard,
    std::span<const count::VertexPair> cross_pairs, std::size_t k) {
  BFC_COUNT_ADD("svc.gather_merges", 1);
  // Every input is ranked by count::pair_order, so the global top k lies
  // within the first k entries of each.
  const auto head = [k](std::span<const count::VertexPair> list) {
    return list.first(std::min(k, list.size()));
  };
  if (per_shard.size() == 1 && cross_pairs.empty()) {
    const std::span<const count::VertexPair> only = head(per_shard[0]);
    return {only.begin(), only.end()};
  }
  std::vector<count::VertexPair> top;
  for (const std::span<const count::VertexPair> list : per_shard)
    top.insert(top.end(), head(list).begin(), head(list).end());
  top.insert(top.end(), head(cross_pairs).begin(), head(cross_pairs).end());
  std::ranges::sort(top, count::pair_order);
  if (top.size() > k) top.resize(k);
  return top;
}

}  // namespace bfc::shard
