// Local butterfly statistics: butterflies per vertex (the tip vector of
// Eq. 19) and butterflies per edge (the wing support matrix of Eq. 25),
// computed sparsely in O(Σ wedges) / O(Σ_{(u,v)} deg v) — the inputs to the
// peeling algorithms of §IV.
//
// Each kernel has an overload taking a CancelToken: the serving layer runs
// these passes on behalf of deadline-bearing queries, and a checkpoint per
// outer-loop row lets an expired request abandon the scan (CancelledError)
// instead of finishing work nobody is waiting for. The token-free overloads
// pass an unarmed token and behave exactly as before.
#pragma once

#include "graph/bipartite_graph.hpp"
#include "sparse/csr.hpp"
#include "util/cancel.hpp"
#include "util/common.hpp"

namespace bfc::count {

/// Butterflies containing each V1 vertex: b_i = Σ_{j≠i} C(|N(i)∩N(j)|, 2).
[[nodiscard]] std::vector<count_t> butterflies_per_v1(
    const graph::BipartiteGraph& g);
[[nodiscard]] std::vector<count_t> butterflies_per_v1(
    const graph::BipartiteGraph& g, const CancelToken& cancel);

/// Butterflies containing each V2 vertex.
[[nodiscard]] std::vector<count_t> butterflies_per_v2(
    const graph::BipartiteGraph& g);
[[nodiscard]] std::vector<count_t> butterflies_per_v2(
    const graph::BipartiteGraph& g, const CancelToken& cancel);

/// Per-edge support in CSR order of g.csr(): entry k is the number of
/// butterflies containing the k-th edge — the sparse evaluation of Eq. (25):
/// support(u,v) = Σ_{w∈N(v)} |N(u)∩N(w)| − deg(u) − deg(v) + 1.
[[nodiscard]] std::vector<count_t> support_per_edge(
    const graph::BipartiteGraph& g);
[[nodiscard]] std::vector<count_t> support_per_edge(
    const graph::BipartiteGraph& g, const CancelToken& cancel);

/// Support of the single edge (u, v): Eq. (25) for one edge, 0 when the
/// edge is absent. O(Σ_{w∈N(v)} min(deg u, deg w)), no global pass. On a
/// shard graph (non-owned V1 rows empty) this is exactly the same-shard part
/// of the support: every edge of u and of its same-shard wedge mates lives
/// on the shard.
[[nodiscard]] count_t support_of_edge(const graph::BipartiteGraph& g,
                                      vidx_t u, vidx_t v);

}  // namespace bfc::count
