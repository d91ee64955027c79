// Incremental butterfly counting under edge insertions and deletions. The
// works the paper builds on study counting under situational constraints
// (§I); the streaming/dynamic setting is the natural companion: after
// inserting edge (u, v), the count grows by exactly the number of
// butterflies the new edge completes — its support in the post-insertion
// graph — and symmetrically for deletions. Each update costs
// O(Σ_{w ∈ N(v)} min(deg u, deg w)) adjacency intersections, no recount.
//
// The same walk lists every butterfly (u, w, v, x) the update creates or
// destroys, so the counter also keeps the per-vertex counts (the tip
// vectors of Eq. 19, which seed the k-tip peeling of §IV) current: each
// butterfly is credited to its four vertices, as in ParButterfly's
// per-vertex attribution, at no extra asymptotic cost.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "util/common.hpp"

namespace bfc::count {

class DynamicButterflyCounter {
 public:
  /// Empty graph over fixed vertex sets.
  DynamicButterflyCounter(vidx_t n1, vidx_t n2);

  [[nodiscard]] vidx_t n1() const noexcept { return n1_; }
  [[nodiscard]] vidx_t n2() const noexcept { return n2_; }
  [[nodiscard]] offset_t edge_count() const noexcept { return edges_; }

  /// Current exact butterfly count.
  [[nodiscard]] count_t butterflies() const noexcept { return butterflies_; }

  /// Butterflies containing each V1 / V2 vertex: at every point equal to
  /// count::butterflies_per_v1/v2(to_graph()), and each sums to
  /// 2·butterflies().
  [[nodiscard]] const std::vector<count_t>& tips_v1() const noexcept {
    return tips_v1_;
  }
  [[nodiscard]] const std::vector<count_t>& tips_v2() const noexcept {
    return tips_v2_;
  }

  [[nodiscard]] bool has_edge(vidx_t u, vidx_t v) const;

  /// Inserts (u, v); returns the number of butterflies created (0 if the
  /// edge already exists).
  count_t insert(vidx_t u, vidx_t v);

  /// Removes (u, v); returns the number of butterflies destroyed (0 if the
  /// edge does not exist).
  count_t remove(vidx_t u, vidx_t v);

  /// Neighbours of a V1 / V2 vertex, sorted ascending. The span is
  /// invalidated by the next insert/remove touching that vertex.
  [[nodiscard]] std::span<const vidx_t> neighbors_v1(vidx_t u) const;
  [[nodiscard]] std::span<const vidx_t> neighbors_v2(vidx_t v) const;

  /// Materialises the current graph as an immutable BipartiteGraph (CSR +
  /// CSC). O(|V| + |E|): the sorted V1 and V2 adjacency vectors are the rows
  /// of A and Aᵀ already, so each orientation is one concatenation — the
  /// snapshot-publish path of the serving layer (src/svc/).
  [[nodiscard]] graph::BipartiteGraph to_graph() const;

 private:
  /// Walks every butterfly through the present edge (u, v), given both
  /// adjacency lists current: for each w ∈ N(v)\{u}, every x ∈ N(u)∩N(w)
  /// other than v closes (u, w, v, x). Credits each one to the tips of its
  /// four vertices (+1 on insert, −1 on remove) and returns how many it
  /// walked — the edge's support, Σ_{w∈N(v)\{u}} (|N(u)∩N(w)| − 1).
  count_t support_of(vidx_t u, vidx_t v, bool insert);

  vidx_t n1_;
  vidx_t n2_;
  offset_t edges_ = 0;
  count_t butterflies_ = 0;
  std::vector<count_t> tips_v1_;  // u -> butterflies containing u
  std::vector<count_t> tips_v2_;  // v -> butterflies containing v
  // Sorted adjacency vectors: O(deg) insert/erase by shifting, but contiguous
  // memory makes the intersection walks (the dominant cost) cache-friendly,
  // and a galloping probe handles the skewed |N(u)| ≪ |N(w)| case in
  // O(min · log(max/min)) instead of the std::set version's pointer chasing.
  std::vector<std::vector<vidx_t>> adj_v1_;  // u -> { v }, ascending
  std::vector<std::vector<vidx_t>> adj_v2_;  // v -> { u }, ascending
};

}  // namespace bfc::count
