#include "graph/bipartite_graph.hpp"

#include "chk/validate.hpp"
#include "sparse/coo.hpp"

namespace bfc::graph {

BipartiteGraph::BipartiteGraph(sparse::CsrPattern biadjacency)
    : a_(std::move(biadjacency)), at_(a_.transpose()) {
  // Every graph built from A alone funnels through this constructor, so in a
  // checked build verify the freshly built CSR/CSC pair actually mirror
  // each other (each pattern was already shape-checked on construction).
  if constexpr (chk::kCheckedEnabled) chk::validate_mirror(a_, at_);
}

BipartiteGraph::BipartiteGraph(sparse::CsrPattern biadjacency,
                               sparse::CsrPattern transpose)
    : a_(std::move(biadjacency)), at_(std::move(transpose)) {
  chk::enforce(at_.rows() == a_.cols() && at_.cols() == a_.rows(),
               "mirror: transpose shape mismatch");
  chk::enforce(at_.nnz() == a_.nnz(), "mirror: transpose nnz mismatch");
  if constexpr (chk::kCheckedEnabled) chk::validate_mirror(a_, at_);
}

BipartiteGraph BipartiteGraph::from_edges(
    vidx_t n1, vidx_t n2,
    const std::vector<std::pair<vidx_t, vidx_t>>& edge_list) {
  sparse::CooBuilder builder(n1, n2);
  builder.reserve(edge_list.size());
  for (const auto& [u, v] : edge_list) builder.add(u, v);
  return BipartiteGraph(builder.build());
}

BipartiteGraph BipartiteGraph::swapped_sides() const {
  return BipartiteGraph(at_, a_);
}

}  // namespace bfc::graph
