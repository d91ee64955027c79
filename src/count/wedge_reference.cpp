#include "count/baselines.hpp"
#include "chk/checked_math.hpp"
#include "count/parallel_counts.hpp"
#include "count/wedges.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"

namespace bfc::count {
namespace {

count_t wedge_work(const sparse::CsrPattern& wedge_point_side) {
  count_t work = 0;
  for (vidx_t v = 0; v < wedge_point_side.rows(); ++v) {
    const count_t d = wedge_point_side.row_degree(v);
    work = chk::checked_add(work, chk::checked_mul(d, d));
  }
  return work;
}

/// Wedge expansion from the V1 side walks every wedge whose point is in V2
/// (cost Σ_{v∈V2} deg²) and vice versa; true when the V1 side is no dearer.
bool v1_side_cheaper(const graph::BipartiteGraph& g) {
  return wedge_work(g.csc()) <= wedge_work(g.csr());
}

}  // namespace

count_t wedge_reference_v1(const graph::BipartiteGraph& g) {
  // Endpoint pairs in V1, wedge points in V2: expand rows of A through Aᵀ.
  return sparse::gram_pairwise_butterflies(g.csr(), g.csc());
}

count_t wedge_reference_v2(const graph::BipartiteGraph& g) {
  return sparse::gram_pairwise_butterflies(g.csc(), g.csr());
}

count_t wedge_reference(const graph::BipartiteGraph& g) {
  return v1_side_cheaper(g) ? wedge_reference_v1(g) : wedge_reference_v2(g);
}

count_t wedge_reference_parallel(const graph::BipartiteGraph& g,
                                 int threads) {
  require(threads >= 1, "wedge_reference_parallel: threads must be >= 1");
  // The sequential reference's side and pairs: rows of the cheaper side,
  // each unordered pair charged once at its smaller id.
  const bool v1 = v1_side_cheaper(g);
  const sparse::CsrPattern& lines = v1 ? g.csr() : g.csc();
  const sparse::CsrPattern& lines_t = v1 ? g.csc() : g.csr();
  return expand_wedges_parallel(
      lines.rows(), lines.rows(), threads, 64,
      [&lines, &lines_t](std::int64_t line, WedgeAccumulator& acc) {
        const auto i = static_cast<vidx_t>(line);
        acc.expand(lines.row(i), lines_t, PeerRange::after(i));
        return acc.drain_butterflies();
      });
}

}  // namespace bfc::count
