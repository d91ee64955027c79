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
// One row kernel does all the cross work. It expands a V1 row u through
// the transposes of a set of peer shards (count::WedgeAccumulator): every
// wedge u – v – u2 with u2 owned by a peer, counted into the pair
// multiplicities w(u, u2), the entries of A_i A_jᵀ. A second sweep over
// the same wedges credits w − 1 to each v. The multiplicities give every
// correction at once:
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
// The kernel runs two ways. The full pass (compute) runs it over every
// row of shard i against the later shards, so it sees each cross pair once,
// and keeps the best cross pairs by bounded selection. The delta (compose)
// moves an aggregate from one combination of shard snapshots to another:
// for each shard whose snapshot changed, it runs the kernel over the owned
// rows that differ, against every other shard, with sign −1 on the old row
// and +1 on the new. Only pairs with an endpoint in a changed row change,
// and the new row's walk yields each one's exact new count, so the delta
// keeps the best K′ cross pairs under a certifying floor the way
// count::DynamicButterflyCounter keeps a shard's (the per-update
// maintenance of Sanei-Mehri et al., with ParButterfly's per-pair wedge
// aggregation). Both are sequential and the full pass is cancellable (a
// checkpoint per scanned V1 row): serving-path kernels stay free of OpenMP
// regions by design (see tests/test_svc.cpp's stress note).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "count/top_pairs.hpp"
#include "obs/spans.hpp"
#include "shard/partition.hpp"
#include "shard/view.hpp"
#include "util/cancel.hpp"
#include "util/common.hpp"

namespace bfc::shard {

class ScatterGather {
 public:
  ScatterGather() = delete;

  /// One sequential cancellable pass over the view: the count and both tip
  /// vectors, and the best `depth` cross pairs with the next one as the
  /// floor (a 0-wedge floor when no more exist), so every k ≤ depth
  /// certifies. A top-pairs query for k > K′ asks for depth k. A one-shard
  /// view has no cross pairs: the pass returns at once.
  [[nodiscard]] static CrossAggregate compute(
      const ShardView& view, const CancelToken& cancel = {},
      const obs::TraceContext& trace = {},
      std::size_t depth = count::TopPairBuffer::kCapacity);

  /// The aggregate of `view`, composed from `base`, a view of the same
  /// layout that carries its own: one delta per shard whose pinned snapshot
  /// is another object, over the rows of its range in `part` that differ.
  /// Exact for any two snapshots of a shard. When the composed buffer no
  /// longer certifies K′ pairs, a full pass replaces it.
  [[nodiscard]] static CrossAggregate compose(const ShardView& base,
                                              const ShardView& view,
                                              const RangePartition& part);

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
};

}  // namespace bfc::shard
