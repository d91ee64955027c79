#include "chk/checked_math.hpp"
#include "count/local_counts.hpp"
#include "sparse/ops.hpp"

namespace bfc::count {

std::vector<count_t> support_per_edge(const graph::BipartiteGraph& g) {
  return support_per_edge(g, CancelToken{});
}

std::vector<count_t> support_per_edge(const graph::BipartiteGraph& g,
                                      const CancelToken& cancel) {
  const auto& a = g.csr();
  const auto& at = g.csc();
  std::vector<count_t> support(static_cast<std::size_t>(a.nnz()), 0);

  // For each u: acc[w] = |N(u) ∩ N(w)| for every V1 vertex w sharing a
  // neighbour with u; then each edge (u, v) reads Σ_{w∈N(v)} acc[w].
  std::vector<count_t> acc(static_cast<std::size_t>(a.rows()), 0);
  std::vector<vidx_t> touched;

  offset_t edge_id = 0;
  for (vidx_t u = 0; u < a.rows(); ++u) {
    // Per-row cancellation point (the wing pass of deadline-bearing
    // queries); acc is cleared below before the next row, so abandoning
    // here leaks no partial state.
    cancel.checkpoint("support_per_edge");
    touched.clear();
    for (const vidx_t k : a.row(u)) {
      for (const vidx_t w : at.row(k)) {
        if (acc[static_cast<std::size_t>(w)] == 0) touched.push_back(w);
        ++acc[static_cast<std::size_t>(w)];
      }
    }
    // acc[u] = deg(u) is included; Eq. (23) removes it via the −deg(u) term.
    const count_t deg_u = a.row_degree(u);
    for (const vidx_t v : a.row(u)) {
      count_t wedge_sum = 0;
      for (const vidx_t w : at.row(v))
        wedge_sum =
            chk::checked_add(wedge_sum, acc[static_cast<std::size_t>(w)]);
      const count_t deg_v = at.row_degree(v);
      support[static_cast<std::size_t>(edge_id)] =
          wedge_sum - deg_u - deg_v + 1;
      ++edge_id;
    }
    for (const vidx_t w : touched) acc[static_cast<std::size_t>(w)] = 0;
  }
  return support;
}

count_t support_of_edge(const graph::BipartiteGraph& g, vidx_t u, vidx_t v) {
  if (!g.has_edge(u, v)) return 0;
  const std::span<const vidx_t> nu = g.neighbors_of_v1(u);
  const std::span<const vidx_t> nv = g.neighbors_of_v2(v);
  count_t sum = 0;
  for (const vidx_t w : nv)
    sum = chk::checked_add(
        sum, sparse::intersection_size(nu, g.neighbors_of_v1(w)));
  return sum - static_cast<count_t>(nu.size()) -
         static_cast<count_t>(nv.size()) + 1;
}

}  // namespace bfc::count
