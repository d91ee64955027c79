// The scatter-gather planner: what makes per-shard answers sum EXACTLY to
// the single-store answer. Range-partitioning the V1 side puts every edge
// of a V1 vertex in one shard, so a butterfly (u1, u2, v1, v2) lands in
// exactly one of two buckets:
//
//   local  — u1 and u2 owned by the same shard k: counted by shard k's own
//            kernels (its snapshot is an ordinary BipartiteGraph whose
//            non-owned rows are empty);
//   cross  — u1 and u2 owned by different shards: invisible to every
//            per-shard kernel, reconstructed here as the correction term.
//
// The cross pass is driven from the V1 side, one row of A at a time, with a
// dense accumulator: for each u1 owned by shard i, it walks every wedge
// u1 – v – u2 with u2 ∈ N_j(v) for a later shard j > i (the peer filter
// owner(u2) > owner(u1) sees each cross pair once) and counts the wedge
// multiplicities w(u1, u2), the entries of A_i A_jᵀ. A second sweep over
// the same wedges credits w − 1 to each v; then the touched u2s, sorted,
// emit their pairs. Contiguous ascending ranges mean i < j implies
// u1 < u2, so every pair is already canonical (count::VertexPair order)
// and the pairs come out in ascending (u1, u2) order: already ranked among
// the w = 1 pairs (nearly all), so only those with w ≥ 2 need sorting. The
// multiplicities give every correction at once:
//
//   total butterflies   Σ_k local_k + Σ_{cross pairs} C(w, 2)
//   tip_v1(u)           owner-shard tip(u) + Σ_{pairs with u} C(w, 2)
//   tip_v2(v)           Σ_k shard-k tip_v2(v) + Σ_{cross wedges at v} (w−1)
//   edge support        owner-shard support (exact on the shard graph: all
//                       of u's and u''s edges are local for same-shard u')
//                       + Σ_{j≠k} Σ_{u'∈N_j(v)} (|N(u) ∩ N(u')| − 1)
//   top pairs           merge of per-shard top-k lists (any same-shard pair
//                       in the global top k must be in its shard's top k)
//                       and the cross pairs, ranked by count::pair_order.
//
// One cross pass serves every scatter query at a given view signature: the
// planner memoises the aggregate per signature (keeping the latest two, so
// the degrade ladder has a stale rung) and coalesces concurrent computes
// onto one shared future. A
// one-shard view has no cross pairs: it gets one shared empty aggregate
// that never enters the memo, so the one-shard service pays nothing. The
// pass itself is sequential and cancellable (a checkpoint per scanned V1
// row) — serving-path kernels stay free of OpenMP regions by design (see
// tests/test_svc.cpp's stress note); the ParButterfly-style parallel
// aggregation stays on the batch side.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "count/top_pairs.hpp"
#include "obs/spans.hpp"
#include "shard/view.hpp"
#include "util/cancel.hpp"
#include "util/common.hpp"
#include "util/sync.hpp"

namespace bfc::shard {

/// Everything the cross-shard correction knows at one view signature.
struct CrossAggregate {
  std::uint64_t signature = 0;
  count_t butterflies = 0;  // butterflies whose V1 pair straddles shards
  // Per-vertex cross contributions; empty vectors mean "all zero" (the
  // single-shard case computes nothing and allocates nothing).
  std::vector<count_t> tips_v1;
  std::vector<count_t> tips_v2;
  /// Every cross-shard connected V1 pair with its full wedge count, sorted
  /// by count::pair_order (best first).
  std::vector<count::VertexPair> pairs;

  [[nodiscard]] count_t tip_v1(vidx_t u) const noexcept {
    const auto i = static_cast<std::size_t>(u);
    return i < tips_v1.size() ? tips_v1[i] : 0;
  }
  [[nodiscard]] count_t tip_v2(vidx_t v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    return i < tips_v2.size() ? tips_v2[i] : 0;
  }
};

using CrossAggregatePtr = std::shared_ptr<const CrossAggregate>;

class ScatterGather {
 public:
  ScatterGather() = default;

  /// The cross aggregate for `view`, computed at most once per signature
  /// (concurrent callers coalesce onto one shared future; the computing
  /// caller's token cancels for everyone, and CancelledError propagates to
  /// every waiter). Keeps the latest two completed signatures; older
  /// completed aggregates are dropped (in-flight ones are never evicted).
  /// A one-shard view gets the shared empty aggregate, memo untouched.
  CrossAggregatePtr cross(const ShardViewPtr& view,
                          const CancelToken& cancel = {},
                          const obs::TraceContext& trace = {});

  /// Drops every memo entry. Required after a store restore: signatures
  /// hash per-shard epochs only, and restore rewinds the epoch sequences,
  /// so a retained aggregate could collide with a future view of different
  /// content.
  void clear();

  /// Memo probe without computing — the stale rung of the degrade ladder.
  [[nodiscard]] std::optional<CrossAggregatePtr> cached(
      std::uint64_t signature) const;

  /// The aggregate for `view` if it needs no pass: the shared empty one
  /// for a one-shard view, else the completed memo entry, if any.
  [[nodiscard]] std::optional<CrossAggregatePtr> ready(
      const ShardView& view) const;

  /// Most recently completed aggregate of ANY signature, if one survives.
  [[nodiscard]] std::optional<CrossAggregatePtr> latest_ready() const;

  // ---- pure kernels (no memo, no locks) ----------------------------------

  /// One sequential cancellable pass over the view (see file comment).
  [[nodiscard]] static CrossAggregate compute(
      const ShardView& view, const CancelToken& cancel = {},
      const obs::TraceContext& trace = {});

  /// Exact global count: Σ shard-local + cross.
  [[nodiscard]] static count_t global_count(const ShardView& view,
                                            const CrossAggregate& cross);

  /// Cross-shard part of support(u, v) for u owned by shard `owner`:
  /// Σ over other-shard wedge mates u' of (|N(u) ∩ N(u')| − 1).
  [[nodiscard]] static count_t edge_support_cross(const ShardView& view,
                                                  int owner, vidx_t u,
                                                  vidx_t v);

  /// Exact top-k merge of per-shard top-k lists and the cross pairs. Each
  /// input must be sorted by count::pair_order; the global top k then lies
  /// within the first k entries of each, and the merge reads at most k
  /// entries of each input. One list and no cross pairs (one shard) is a
  /// copy of its first k.
  [[nodiscard]] static std::vector<count::VertexPair> merge_top_pairs(
      std::span<const std::span<const count::VertexPair>> per_shard,
      std::span<const count::VertexPair> cross_pairs, std::size_t k);

 private:
  struct MemoEntry {
    std::uint64_t signature = 0;
    // Identity of the compute that inserted this entry. The failure-path
    // erase matches on (signature, pass_id), not signature alone: between a
    // compute failing and it reacquiring mu_, a clear() + fresh query can
    // install a NEW in-flight entry under the same signature, and erasing
    // by signature would evict that healthy pass (a later caller would then
    // launch a duplicate compute instead of coalescing).
    std::uint64_t pass_id = 0;
    std::shared_future<CrossAggregatePtr> result;
  };

  mutable Mutex mu_{"shard.scatter.memo"};
  // Newest last; ≤ 2 completed entries (in-flight computes are never
  // evicted, so the vector may transiently run longer under churn).
  std::vector<MemoEntry> memo_ BFC_GUARDED_BY(mu_);
  std::uint64_t next_pass_id_ BFC_GUARDED_BY(mu_) = 0;
};

}  // namespace bfc::shard
