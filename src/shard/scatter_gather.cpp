#include "shard/scatter_gather.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <unordered_map>
#include <utility>

#include "chk/checked_math.hpp"
#include "obs/metrics.hpp"
#include "sparse/ops.hpp"

namespace bfc::shard {
namespace {

/// Canonical cross-pair key: contiguous ascending ranges guarantee u1 < u2
/// whenever owner(u1) < owner(u2), so no min/max is needed.
constexpr std::uint64_t pair_key(vidx_t u1, vidx_t u2) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u1)) << 32) |
         static_cast<std::uint32_t>(u2);
}

/// The aggregate of every one-shard view: no cross pairs.
const CrossAggregatePtr& no_cross_pairs() {
  static const CrossAggregatePtr empty =
      std::make_shared<const CrossAggregate>();
  return empty;
}

}  // namespace

CrossAggregate ScatterGather::compute(const ShardView& view,
                                      const CancelToken& cancel,
                                      const obs::TraceContext& trace) {
  CrossAggregate agg;
  agg.signature = view.signature;
  const int shards = view.shard_count();
  if (shards < 2) return agg;  // no cross pairs can exist
  const vidx_t n1 = view.shards[0]->graph.n1();
  const vidx_t n2 = view.shards[0]->graph.n2();

  // w(u1, u2) for every cross-shard pair with at least one common neighbor.
  std::unordered_map<std::uint64_t, count_t> wedges;
  std::vector<std::span<const vidx_t>> lists(
      static_cast<std::size_t>(shards));

  {
    // Scatter: fan over every shard's column space, one V2 vertex at a
    // time. Two passes share the per-v gather; the second needs the full
    // multiplicities, so it cannot fuse into the first.
    obs::Span span(trace, "svc.scatter");
    span.tag("shards", std::to_string(shards));
    for (vidx_t v = 0; v < n2; ++v) {
      cancel.checkpoint("shard::ScatterGather::compute");
      int populated = 0;
      for (int k = 0; k < shards; ++k) {
        lists[static_cast<std::size_t>(k)] =
            view.shards[static_cast<std::size_t>(k)]->graph.neighbors_of_v2(
                v);
        if (!lists[static_cast<std::size_t>(k)].empty()) ++populated;
      }
      if (populated < 2) continue;
      for (int i = 0; i < shards; ++i)
        for (int j = i + 1; j < shards; ++j)
          for (const vidx_t u1 : lists[static_cast<std::size_t>(i)])
            for (const vidx_t u2 : lists[static_cast<std::size_t>(j)])
              ++wedges[pair_key(u1, u2)];
    }
    agg.tips_v2.assign(static_cast<std::size_t>(n2), 0);
    for (vidx_t v = 0; v < n2; ++v) {
      cancel.checkpoint("shard::ScatterGather::compute");
      int populated = 0;
      for (int k = 0; k < shards; ++k) {
        lists[static_cast<std::size_t>(k)] =
            view.shards[static_cast<std::size_t>(k)]->graph.neighbors_of_v2(
                v);
        if (!lists[static_cast<std::size_t>(k)].empty()) ++populated;
      }
      if (populated < 2) continue;
      // Each cross wedge (u1, u2) at v closes into a butterfly with every
      // OTHER common neighbor of the pair: w − 1 of them.
      count_t& tv = agg.tips_v2[static_cast<std::size_t>(v)];
      for (int i = 0; i < shards; ++i)
        for (int j = i + 1; j < shards; ++j)
          for (const vidx_t u1 : lists[static_cast<std::size_t>(i)])
            for (const vidx_t u2 : lists[static_cast<std::size_t>(j)])
              tv = chk::checked_add(tv,
                                    wedges.find(pair_key(u1, u2))->second - 1);
    }
  }

  {
    // Gather: reduce the multiplicities into the correction terms.
    obs::Span span(trace, "svc.gather");
    agg.tips_v1.assign(static_cast<std::size_t>(n1), 0);
    agg.pairs.reserve(wedges.size());
    for (const auto& [key, w] : wedges) {
      const auto u1 = static_cast<vidx_t>(key >> 32);
      const auto u2 = static_cast<vidx_t>(key & 0xffffffffULL);
      const count_t bf = chk::checked_choose2(w);
      if (bf != 0) {
        agg.butterflies = chk::checked_add(agg.butterflies, bf);
        agg.tips_v1[static_cast<std::size_t>(u1)] = chk::checked_add(
            agg.tips_v1[static_cast<std::size_t>(u1)], bf);
        agg.tips_v1[static_cast<std::size_t>(u2)] = chk::checked_add(
            agg.tips_v1[static_cast<std::size_t>(u2)], bf);
      }
      agg.pairs.push_back(count::VertexPair{u1, u2, w});
    }
    std::sort(agg.pairs.begin(), agg.pairs.end(),
              [](const count::VertexPair& x, const count::VertexPair& y) {
                return count::pair_order(x, y);
              });
    span.tag("pairs", std::to_string(agg.pairs.size()));
  }

  BFC_COUNT_ADD("svc.cross_passes", 1);
  BFC_GAUGE_SET("svc.cross_pairs", static_cast<double>(agg.pairs.size()));
  return agg;
}

CrossAggregatePtr ScatterGather::cross(const ShardViewPtr& view,
                                       const CancelToken& cancel,
                                       const obs::TraceContext& trace) {
  if (view->shard_count() < 2) return no_cross_pairs();
  const std::uint64_t sig = view->signature;
  std::shared_future<CrossAggregatePtr> fut;
  std::promise<CrossAggregatePtr> mine;
  bool computer = false;
  std::uint64_t my_pass = 0;
  {
    const MutexLock lock(mu_);
    for (const MemoEntry& e : memo_)
      if (e.signature == sig) fut = e.result;
    if (!fut.valid()) {
      fut = mine.get_future().share();
      my_pass = ++next_pass_id_;
      memo_.push_back(MemoEntry{sig, my_pass, fut});
      if (memo_.size() > 2) {
        // Evict the oldest COMPLETED entry only. An in-flight compute keeps
        // its slot so late callers for its signature still coalesce instead
        // of launching a duplicate pass; the memo may transiently exceed
        // two entries while several signatures are in flight at once.
        for (auto it = memo_.begin(); it != memo_.end(); ++it) {
          if (it->result.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            memo_.erase(it);
            break;
          }
        }
      }
      computer = true;
    }
  }
  if (computer) {
    try {
      mine.set_value(
          std::make_shared<const CrossAggregate>(compute(*view, cancel,
                                                         trace)));
    } catch (...) {
      // Drop the failed entry so the next caller retries, then let every
      // coalesced waiter see the same exception (CancelledError included —
      // each degrades independently, like the tip-pass memo). Erase ONLY
      // our own entry (pass_id match): a clear() racing this failure may
      // already have installed a fresh in-flight pass under this signature,
      // and that pass — and the waiters coalesced onto it — must survive.
      {
        const MutexLock lock(mu_);
        std::erase_if(memo_, [&](const MemoEntry& e) {
          return e.signature == sig && e.pass_id == my_pass;
        });
      }
      mine.set_exception(std::current_exception());
    }
  }
  return fut.get();
}

void ScatterGather::clear() {
  // Dropping an in-flight entry is safe: the computing thread holds its own
  // promise/future and its failure-path erase-by-signature simply finds
  // nothing; already-coalesced waiters still get that compute's outcome.
  const MutexLock lock(mu_);
  memo_.clear();
}

std::optional<CrossAggregatePtr> ScatterGather::cached(
    std::uint64_t signature) const {
  const MutexLock lock(mu_);
  for (const MemoEntry& e : memo_) {
    if (e.signature != signature) continue;
    if (e.result.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      continue;
    // A ready future may still hold an exception (cancelled compute whose
    // erase raced with this probe); a stale rung must never throw.
    try {
      return e.result.get();
    } catch (...) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<CrossAggregatePtr> ScatterGather::ready(
    const ShardView& view) const {
  if (view.shard_count() < 2) return no_cross_pairs();
  return cached(view.signature);
}

std::optional<CrossAggregatePtr> ScatterGather::latest_ready() const {
  const MutexLock lock(mu_);
  for (auto it = memo_.rbegin(); it != memo_.rend(); ++it) {
    if (it->result.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      continue;
    try {
      return it->result.get();
    } catch (...) {
      continue;
    }
  }
  return std::nullopt;
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
    const std::vector<std::vector<count::VertexPair>>& per_shard,
    std::span<const count::VertexPair> cross_pairs, std::size_t k) {
  BFC_COUNT_ADD("svc.gather_merges", 1);
  if (k == 0) return {};
  std::vector<count::VertexPair> all;
  std::size_t total = cross_pairs.size();
  for (const auto& list : per_shard) total += list.size();
  all.reserve(total);
  for (const auto& list : per_shard)
    all.insert(all.end(), list.begin(), list.end());
  all.insert(all.end(), cross_pairs.begin(), cross_pairs.end());
  std::sort(all.begin(), all.end(),
            [](const count::VertexPair& x, const count::VertexPair& y) {
              return count::pair_order(x, y);
            });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace bfc::shard
