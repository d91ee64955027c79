// Baseline butterfly counters from the literature the paper builds on:
//  - exhaustive wedge aggregation per vertex pair (Wang et al. 2014 [14]),
//  - BFC-VP vertex-priority counting (Wang et al. VLDB'19 [15]),
//  - batched wedge enumeration with sort/hash semisort aggregation
//    (ParButterfly, Shi & Shun [12]).
// They cross-validate the linear-algebra family and serve as comparison
// points in bench/baselines_compare.
#pragma once

#include "graph/bipartite_graph.hpp"
#include "util/common.hpp"

namespace bfc::count {

/// Σ_{i<j∈V1} C(|N(i)∩N(j)|, 2) via per-row wedge accumulation. Cost
/// O(Σ_{v∈V2} deg(v)²).
[[nodiscard]] count_t wedge_reference_v1(const graph::BipartiteGraph& g);

/// Same from the V2 side. Cost O(Σ_{u∈V1} deg(u)²).
[[nodiscard]] count_t wedge_reference_v2(const graph::BipartiteGraph& g);

/// Picks whichever side has the cheaper wedge sum — the library's default
/// exact reference counter.
[[nodiscard]] count_t wedge_reference(const graph::BipartiteGraph& g);

/// BFC-VP, vertex-priority counting (Wang et al. VLDB'19): rank V1 ∪ V2 by
/// degree descending, then id ascending (a counting sort), relabel the graph
/// into a rank-ordered adjacency in O(E), and for every u expand the wedges
/// u – v – w with v and w ranked after u through count::WedgeAccumulator.
/// Every butterfly is counted once, at its highest-priority vertex, so hubs
/// never fan out: O(Σ_{(u,v)∈E} min(deg u, deg v)) wedges, added to the
/// `count.vertex_priority.wedges` counter. The strongest sequential
/// baseline.
[[nodiscard]] count_t vertex_priority(const graph::BipartiteGraph& g);

/// ParButterfly-style batch counting: materialise every wedge keyed by its
/// endpoint pair, aggregate, then Σ C(group, 2). `sort` variant uses a
/// global sort, `hash` a hash-map semisort. Throws std::length_error if the
/// wedge list would exceed `max_wedges`.
[[nodiscard]] count_t batch_sort(const graph::BipartiteGraph& g,
                                 count_t max_wedges = count_t{1} << 31);
[[nodiscard]] count_t batch_hash(const graph::BipartiteGraph& g,
                                 count_t max_wedges = count_t{1} << 31);

}  // namespace bfc::count
