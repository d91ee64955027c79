#include "shard/scatter_gather.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "chk/checked_math.hpp"
#include "obs/metrics.hpp"
#include "sparse/ops.hpp"
#include "svc/fault.hpp"

namespace bfc::shard {
namespace {

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
  // Checked builds can stall the pass to force a deadline to expire
  // mid-pass (fault::Point::kSlowKernel, param = milliseconds).
  if (svc::fault::fires(svc::fault::Point::kSlowKernel))
    std::this_thread::sleep_for(std::chrono::milliseconds(
        svc::fault::param(svc::fault::Point::kSlowKernel)));
  const vidx_t n1 = view.shards[0]->graph.n1();
  const vidx_t n2 = view.shards[0]->graph.n2();
  agg.tips_v1.assign(static_cast<std::size_t>(n1), 0);
  agg.tips_v2.assign(static_cast<std::size_t>(n2), 0);

  std::vector<count_t> acc(static_cast<std::size_t>(n1), 0);  // w(u1, ·)
  std::vector<vidx_t> touched;          // u2 with acc[u2] != 0
  std::vector<count::VertexPair> ties;  // pairs with w ≥ 2
  count_t wedges = 0;

  {
    // Scatter: every cross wedge u1 – v – u2 with owner(u2) > owner(u1) = i,
    // one V1 row at a time; the peer filter sees each cross pair once.
    obs::Span span(trace, "svc.scatter");
    span.tag("shards", std::to_string(shards));
    for (int i = 0; i + 1 < shards; ++i) {
      const auto peers = std::span(view.shards).subspan(
          static_cast<std::size_t>(i) + 1);
      for (vidx_t u1 = 0; u1 < n1; ++u1) {
        cancel.checkpoint("shard::ScatterGather::compute");
        const std::span<const vidx_t> row =
            view.shards[static_cast<std::size_t>(i)]->graph.neighbors_of_v1(
                u1);
        touched.clear();
        for (const vidx_t v : row) {
          for (const svc::SnapshotPtr& peer : peers) {
            for (const vidx_t u2 : peer->graph.neighbors_of_v2(v)) {
              // bfc-analyze: wedge-loop-ok peers span several shard graphs
              if (acc[static_cast<std::size_t>(u2)] == 0) touched.push_back(u2);
              ++acc[static_cast<std::size_t>(u2)];
            }
          }
        }
        // Each cross wedge (u1, u2) at v closes into a butterfly with every
        // OTHER common neighbor of the pair: w − 1 of them. This sweep needs
        // the full multiplicities, so it cannot fuse into the first.
        for (const vidx_t v : row) {
          count_t& tv = agg.tips_v2[static_cast<std::size_t>(v)];
          for (const svc::SnapshotPtr& peer : peers)
            for (const vidx_t u2 : peer->graph.neighbors_of_v2(v))
              tv = chk::checked_add(tv, acc[static_cast<std::size_t>(u2)] - 1);
        }
        // Contiguous ascending ranges make u1 < u2, so the sorted touched
        // list emits this row's pairs in ascending (u1, u2) order.
        std::sort(touched.begin(), touched.end());
        for (const vidx_t u2 : touched) {
          count_t& w = acc[static_cast<std::size_t>(u2)];
          const count_t bf = chk::checked_choose2(w);
          if (bf != 0) {
            agg.butterflies = chk::checked_add(agg.butterflies, bf);
            agg.tips_v1[static_cast<std::size_t>(u1)] = chk::checked_add(
                agg.tips_v1[static_cast<std::size_t>(u1)], bf);
            agg.tips_v1[static_cast<std::size_t>(u2)] = chk::checked_add(
                agg.tips_v1[static_cast<std::size_t>(u2)], bf);
          }
          (w >= 2 ? ties : agg.pairs).push_back(count::VertexPair{u1, u2, w});
          if constexpr (obs::kMetricsEnabled)
            wedges = chk::checked_add(wedges, w);
          w = 0;
        }
      }
    }
  }

  {
    // Gather: rank the pairs by count::pair_order. The w = 1 pairs came out
    // in ascending (a, b) order, already their rank among themselves, so
    // only the pairs with w ≥ 2 are sorted, and they go first.
    obs::Span span(trace, "svc.gather");
    std::ranges::sort(ties, count::pair_order);
    agg.pairs.insert(agg.pairs.begin(), ties.begin(), ties.end());
    span.tag("pairs", std::to_string(agg.pairs.size()));
  }

  BFC_COUNT_ADD("svc.cross_passes", 1);
  BFC_COUNT_ADD("svc.cross_wedges", wedges);
  BFC_GAUGE_SET("svc.cross_pairs", static_cast<double>(agg.pairs.size()));
  return agg;
}

CrossAggregatePtr ScatterGather::cross(const ShardViewPtr& view,
                                       const CancelToken& cancel,
                                       const obs::TraceContext& trace) {
  if (view->shard_count() < 2) return no_cross_pairs();
  const std::uint64_t sig = view->signature;
  // The entry this call evicts. It is released when the call returns, after
  // this pass has published its aggregate and outside mu_ (which every
  // inline tip and count query takes): dropping the last reference frees a
  // pair list of megabytes, which took 0.4–1.8 ms in about half the passes
  // of a 4-shard service on a 4-vCPU VM — in front of the pass and its
  // waiters.
  std::optional<MemoEntry> evicted;
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
            evicted = std::move(*it);
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
      // each degrades independently). Erase ONLY our own entry (pass_id
      // match): a clear() racing this failure may already have installed a
      // fresh in-flight pass under this signature, and that pass — and the
      // waiters coalesced onto it — must survive.
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
