// Pairwise hot-spot queries: the vertex pairs connected by the most wedges
// (largest B_ij entries) and the pairs spanning the most butterflies
// (largest C(B_ij, 2)). These are the "dense region" primitives the paper's
// introduction motivates butterflies with — a 2×k biclique is exactly a
// pair with k common neighbours.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
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

/// The best V1 pairs of a changing graph with their exact wedge counts, plus
/// a floor key that certifies the rest: no connected pair outside `pairs`
/// ranks above `floor` under pair_order. count::DynamicButterflyCounter
/// keeps one per update and a serving snapshot carries a sorted copy, so a
/// top-pairs query is a lookup whenever certified(k) holds. The floor is a
/// key, not a bare count: among tied counts it still separates the pairs
/// the buffer holds from those it left out.
struct TopPairBuffer {
  /// K′, the number of pairs kept. A constant, not an option.
  static constexpr std::size_t kCapacity = 64;

  std::vector<VertexPair> pairs;  // at most kCapacity, every count > 0
  // The default ranks above every pair, so it certifies nothing. A 0-wedge
  // floor certifies that every connected pair is in `pairs`.
  VertexPair floor{0, 0, std::numeric_limits<count_t>::max()};

  /// The buffer one top_wedge_pairs_v1(g, kCapacity + 1) pass gives: the
  /// best kCapacity pairs, with the next one as the floor (or a 0-wedge
  /// floor when g has no more), so every k ≤ kCapacity certifies.
  [[nodiscard]] static TopPairBuffer of(const graph::BipartiteGraph& g);

  /// top_wedge_pairs_v1(g, k) when the buffer proves it, with `pairs`
  /// sorted by pair_order: k ≤ kCapacity, and the k-th pair ranks above the
  /// floor or the floor has 0 wedges. Otherwise nullopt.
  [[nodiscard]] std::optional<std::span<const VertexPair>> certified(
      std::size_t k) const;

  bool operator==(const TopPairBuffer& other) const = default;
};

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
