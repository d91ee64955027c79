#include "chk/checked_math.hpp"
#include "count/local_counts.hpp"
#include "count/parallel_counts.hpp"
#include "count/wedges.hpp"
#include "sparse/ops.hpp"

namespace bfc::count {

namespace {

/// Eq. (23) for every edge of row u: acc[w] = |N(u) ∩ N(w)| for every V1
/// vertex w sharing a neighbour with u, then each edge (u, v) reads
/// Σ_{w∈N(v)} acc[w]. Both drivers run this body.
auto row_support(const sparse::CsrPattern& a, const sparse::CsrPattern& at,
                 std::vector<count_t>& support) {
  return [&a, &at, &support](std::int64_t row, WedgeAccumulator& acc) {
    const auto u = static_cast<vidx_t>(row);
    acc.expand(a.row(u), at);
    // acc[u] = deg(u) is included; Eq. (23) removes it via the −deg(u) term.
    const count_t deg_u = a.row_degree(u);
    offset_t edge_id = a.row_ptr()[static_cast<std::size_t>(u)];
    for (const vidx_t v : a.row(u)) {
      count_t wedge_sum = 0;
      for (const vidx_t w : at.row(v))
        wedge_sum = chk::checked_add(wedge_sum, acc[w]);
      support[static_cast<std::size_t>(edge_id)] =
          wedge_sum - deg_u - at.row_degree(v) + 1;
      ++edge_id;
    }
    acc.clear();
    return count_t{0};
  };
}

}  // namespace

std::vector<count_t> support_per_edge(const graph::BipartiteGraph& g) {
  return support_per_edge(g, CancelToken{});
}

std::vector<count_t> support_per_edge(const graph::BipartiteGraph& g,
                                      const CancelToken& cancel) {
  std::vector<count_t> support(static_cast<std::size_t>(g.edge_count()), 0);
  // One cancellation checkpoint per row: the wing pass of deadline-bearing
  // queries.
  expand_wedges(g.n1(), g.n1(), row_support(g.csr(), g.csc(), support),
                cancel, "support_per_edge");
  return support;
}

std::vector<count_t> support_per_edge_parallel(const graph::BipartiteGraph& g,
                                               int threads) {
  require(threads >= 1, "support_per_edge_parallel: threads must be >= 1");
  std::vector<count_t> support(static_cast<std::size_t>(g.edge_count()), 0);
  expand_wedges_parallel(g.n1(), g.n1(), threads, 32,
                         row_support(g.csr(), g.csc(), support));
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
