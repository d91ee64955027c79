// Pairwise hot-spot queries: the vertex pairs connected by the most wedges
// (largest B_ij entries) and the pairs spanning the most butterflies
// (largest C(B_ij, 2)). These are the "dense region" primitives the paper's
// introduction motivates butterflies with — a 2×k biclique is exactly a
// pair with k common neighbours.
#pragma once

#include <vector>

#include "graph/bipartite_graph.hpp"
#include "util/cancel.hpp"
#include "util/common.hpp"

namespace bfc::count {

struct VertexPair {
  vidx_t a = 0;        // first vertex (a < b), in the chosen vertex set
  vidx_t b = 0;
  count_t wedges = 0;  // |N(a) ∩ N(b)|
  bool operator==(const VertexPair& other) const = default;
  [[nodiscard]] count_t butterflies() const noexcept {
    return choose2(wedges);
  }
};

/// The strict order every top-pair query ranks by: wedges descending, ties
/// by lexicographic (a, b). Exposed (rather than private to the kernel) so
/// the sharded scatter-gather merge sorts its candidate union in exactly
/// the order the single-store kernel would have produced.
[[nodiscard]] constexpr bool pair_order(const VertexPair& x,
                                        const VertexPair& y) noexcept {
  if (x.wedges != y.wedges) return x.wedges > y.wedges;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

/// The k V1-pairs with the largest common-neighbourhood size, descending
/// (ties by lexicographic pair). Cost O(Σ wedges + P log k) where P is the
/// number of connected pairs. The CancelToken overload checks the token once
/// per V1 row, like count/local_counts, so a serving query whose deadline
/// passes mid-pass abandons it (CancelledError).
[[nodiscard]] std::vector<VertexPair> top_wedge_pairs_v1(
    const graph::BipartiteGraph& g, std::size_t k);
[[nodiscard]] std::vector<VertexPair> top_wedge_pairs_v1(
    const graph::BipartiteGraph& g, std::size_t k, const CancelToken& cancel);

/// Same over V2 pairs.
[[nodiscard]] std::vector<VertexPair> top_wedge_pairs_v2(
    const graph::BipartiteGraph& g, std::size_t k);

/// The maximum 2×c biclique: the best pair and its full common
/// neighbourhood (empty when no pair shares ≥ 2 neighbours).
struct Biclique2 {
  vidx_t a = 0, b = 0;          // the V1 pair
  std::vector<vidx_t> columns;  // common neighbourhood in V2
};
[[nodiscard]] Biclique2 max_biclique_2xk(const graph::BipartiteGraph& g);

}  // namespace bfc::count
