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
//
// The walk's intersection N(u) ∩ N(w) is also the new wedge count of every
// V1 pair (u, w) the update changes, and no other pair changes. So the
// counter keeps the best K′ pairs of the wedge matrix B = AAᵀ exact, with a
// floor key that certifies the rest (count::TopPairBuffer), the way
// ParButterfly aggregates wedges per endpoint pair.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "count/top_pairs.hpp"
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

  /// The top-pair buffer, sorted by pair_order. Every buffered count equals
  /// |N(a) ∩ N(b)|, and no unbuffered connected pair ranks above the floor:
  /// a pair whose new count ranks above it enters, evicting the lowest
  /// buffered pair, whose key becomes the floor when it ranks higher; a
  /// pair drained to 0 wedges leaves. Updates only raise the floor and can
  /// let buffered counts fall below it, so certified(k) may stop holding;
  /// rebuild_top_pairs() restores it for every k ≤ K′.
  [[nodiscard]] TopPairBuffer top_pairs() const;

  /// Replaces the buffer with TopPairBuffer::of(g) — one pass; `g` must be
  /// this counter's current graph (to_graph()).
  void rebuild_top_pairs(const graph::BipartiteGraph& g);

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
  /// of A and Aᵀ already, so each orientation is a copy of rows rather than
  /// a transpose, and each row is checked (in range, strictly ascending) as
  /// it is copied.
  [[nodiscard]] graph::BipartiteGraph to_graph() const;

  /// The same graph patched from `last`, which must be this counter's graph
  /// as of the last clear_dirty(): only the rows insert()/remove() changed
  /// since then are copied from the adjacency vectors and checked, and each
  /// run of unchanged rows is one copy of `last`'s arrays — the
  /// snapshot-publish path of the serving layer (src/svc/), a copy of the
  /// unchanged arrays plus O(changed rows). Throws std::invalid_argument
  /// when `last` has another shape or its rows do not add up to
  /// edge_count().
  [[nodiscard]] graph::BipartiteGraph to_graph(
      const graph::BipartiteGraph& last) const;

  /// Rows insert()/remove() changed since the last clear_dirty(), both
  /// sides: the rows to_graph(last) copies from the adjacency vectors.
  [[nodiscard]] offset_t dirty_rows() const noexcept { return dirty_rows_; }

  /// Marks every row unchanged, once the caller holds the graph as of now:
  /// it is the next to_graph(last)'s `last`.
  void clear_dirty() noexcept;

 private:
  /// Both orientations, every row from the adjacency vectors when `last` is
  /// null and only the dirty ones otherwise.
  [[nodiscard]] graph::BipartiteGraph materialise(
      const graph::BipartiteGraph* last) const;

  /// One orientation: row r is rows[r], checked, when `last` is null or
  /// dirty[r] is set, and row r of *last otherwise. The total must equal
  /// nnz.
  static sparse::CsrPattern materialise_rows(
      const std::vector<std::vector<vidx_t>>& rows,
      const std::vector<std::uint8_t>& dirty, const sparse::CsrPattern* last,
      vidx_t cols, offset_t nnz);

  /// Flags V1 row u and V2 row v as changed.
  void mark_dirty(vidx_t u, vidx_t v) noexcept;

  /// Walks every butterfly through the present edge (u, v), given both
  /// adjacency lists current: for each w ∈ N(v)\{u}, every x ∈ N(u)∩N(w)
  /// other than v closes (u, w, v, x). Credits each one to the tips of its
  /// four vertices (+1 on insert, −1 on remove), offers each pair (u, w)'s
  /// count after the update to the top-pair buffer, and returns how many it
  /// walked — the edge's support, Σ_{w∈N(v)\{u}} (|N(u)∩N(w)| − 1).
  count_t support_of(vidx_t u, vidx_t v, bool insert);

  /// Bit i set when buffer slot i holds a pair of V1 vertex u.
  [[nodiscard]] std::uint64_t top_slots_of(vidx_t u) const;

  /// Adds `delta` to top_degree_ at both ends of p.
  void note_top_pair(const VertexPair& p, int delta);

  /// Records that pair (u, w) now has c wedges (see top_pairs()); `mine` is
  /// top_slots_of(u). Returns whether any slot of u moved, so that `mine`
  /// must be recomputed.
  bool offer_top_pair(vidx_t u, vidx_t w, count_t c, std::uint64_t mine);

  vidx_t n1_;
  vidx_t n2_;
  offset_t edges_ = 0;
  count_t butterflies_ = 0;
  std::vector<count_t> tips_v1_;  // u -> butterflies containing u
  std::vector<count_t> tips_v2_;  // v -> butterflies containing v
  TopPairBuffer top_;             // pairs unsorted, one per slot
  // u -> buffered pairs of u, so an update at a vertex the buffer does not
  // hold skips the scan for its slots.
  std::vector<std::uint8_t> top_degree_;
  // Sorted adjacency vectors: O(deg) insert/erase by shifting, but contiguous
  // memory makes the intersection walks (the dominant cost) cache-friendly,
  // and a galloping probe handles the skewed |N(u)| ≪ |N(w)| case in
  // O(min · log(max/min)) instead of the std::set version's pointer chasing.
  std::vector<std::vector<vidx_t>> adj_v1_;  // u -> { v }, ascending
  std::vector<std::vector<vidx_t>> adj_v2_;  // v -> { u }, ascending
  // Row x changed since the last clear_dirty() when flag x is 1;
  // dirty_rows_ counts the set flags of both sides.
  std::vector<std::uint8_t> dirty_v1_;
  std::vector<std::uint8_t> dirty_v2_;
  offset_t dirty_rows_ = 0;
};

}  // namespace bfc::count
