// Bipartite graph G = (V1, V2, E) held as the biadjacency matrix A in both
// orientations: CSR of A (rows = V1, the paper's invariants 5-8) and CSR of
// Aᵀ, i.e. the CSC view of A (columns = V2, invariants 1-4).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"
#include "util/common.hpp"

namespace bfc::count {
class DynamicButterflyCounter;
}

namespace bfc::graph {

class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  /// From the biadjacency pattern; builds the transpose eagerly.
  explicit BipartiteGraph(sparse::CsrPattern biadjacency);

  /// From an edge list over [0, n1) x [0, n2); duplicate edges are merged.
  static BipartiteGraph from_edges(
      vidx_t n1, vidx_t n2,
      const std::vector<std::pair<vidx_t, vidx_t>>& edge_list);

  /// |V1| (rows of A).
  [[nodiscard]] vidx_t n1() const noexcept { return a_.rows(); }
  /// |V2| (columns of A).
  [[nodiscard]] vidx_t n2() const noexcept { return a_.cols(); }
  [[nodiscard]] offset_t edge_count() const noexcept { return a_.nnz(); }

  /// A in CSR: neighbours of a V1 vertex.
  [[nodiscard]] const sparse::CsrPattern& csr() const noexcept { return a_; }
  /// Aᵀ in CSR (= CSC view of A): neighbours of a V2 vertex.
  [[nodiscard]] const sparse::CsrPattern& csc() const noexcept { return at_; }

  [[nodiscard]] std::span<const vidx_t> neighbors_of_v1(vidx_t u) const {
    return a_.row(u);
  }
  [[nodiscard]] std::span<const vidx_t> neighbors_of_v2(vidx_t v) const {
    return at_.row(v);
  }

  [[nodiscard]] bool has_edge(vidx_t u, vidx_t v) const { return a_.has(u, v); }

  /// The same graph with the roles of V1 and V2 exchanged (A -> Aᵀ); reuses
  /// both orientations instead of transposing again.
  [[nodiscard]] BipartiteGraph swapped_sides() const;

  bool operator==(const BipartiteGraph& other) const {
    return a_ == other.a_;
  }

 private:
  // The counter keeps both orientations sorted already, so its snapshots
  // skip the transpose.
  friend class count::DynamicButterflyCounter;

  /// From both orientations, each already a validated pattern. Shapes and
  /// nnz are always checked; the full mirror check runs in checked builds,
  /// as for the public constructor.
  BipartiteGraph(sparse::CsrPattern biadjacency, sparse::CsrPattern transpose);

  sparse::CsrPattern a_;
  sparse::CsrPattern at_;
};

}  // namespace bfc::graph
