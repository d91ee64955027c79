#include "peel/wing_family.hpp"

#include "count/wedges.hpp"
#include "la/partition.hpp"
#include "sparse/ops.hpp"

namespace bfc::peel {
namespace {

/// Row-family support kernel: traverses rows of g.csr() as pivots. For a
/// pivot row p and peer row c sharing t ≥ 2 columns, every shared column v
/// identifies edges (p, v) and (c, v) that lie on (t − 1) butterflies of
/// this pair. Two passes per pivot: accumulate t_c, then re-expand charging
/// edges. Over the whole traversal each unordered row pair is visited once,
/// so the accumulated values equal Eq. (25).
std::vector<count_t> support_rows(const graph::BipartiteGraph& g,
                                  la::Direction direction,
                                  la::PeerSide peer) {
  const sparse::CsrPattern& a = g.csr();
  const sparse::CsrPattern& at = g.csc();
  const std::vector<offset_t> csc_eid = sparse::transpose_entry_ids(a, at);

  std::vector<count_t> support(static_cast<std::size_t>(a.nnz()), 0);
  count::WedgeAccumulator acc(a.rows());

  for (const la::Step& step :
       la::traversal_steps(a.rows(), direction, peer)) {
    const vidx_t p = step.pivot;
    const auto pivot_cols = a.row(p);
    if (pivot_cols.size() < 2) continue;

    // Pass 1: t_c for every peer row c sharing a column with p.
    acc.expand(pivot_cols, at, {step.peer_lo, step.peer_hi});

    // Pass 2: charge the (t − 1) butterflies of each (pivot, peer, shared
    // column) triple onto both incident edges.
    const offset_t p_base = a.row_ptr()[static_cast<std::size_t>(p)];
    for (std::size_t pos = 0; pos < pivot_cols.size(); ++pos) {
      const vidx_t v = pivot_cols[pos];
      const offset_t eid_pv = p_base + static_cast<offset_t>(pos);
      const offset_t v_base = at.row_ptr()[static_cast<std::size_t>(v)];
      const auto v_rows = at.row(v);
      for (std::size_t k = 0; k < v_rows.size(); ++k) {
        const vidx_t c = v_rows[k];
        if (c < step.peer_lo || c >= step.peer_hi) continue;
        const count_t t = acc[c];
        if (t < 2) continue;
        support[static_cast<std::size_t>(eid_pv)] += t - 1;
        support[static_cast<std::size_t>(
            csc_eid[static_cast<std::size_t>(v_base) + k])] += t - 1;
      }
    }

    acc.clear();
  }
  return support;
}

}  // namespace

std::vector<count_t> support_family(const graph::BipartiteGraph& g,
                                    la::Invariant inv) {
  const la::InvariantTraits t = la::traits(inv);
  if (t.family == la::Family::kRows)
    return support_rows(g, t.direction, t.peer);

  // Column family == row family on the swapped graph; the swapped CSR edge
  // order is this graph's CSC order, so map the results back through the
  // transpose-entry ids.
  const graph::BipartiteGraph swapped = g.swapped_sides();
  const std::vector<count_t> by_csc =
      support_rows(swapped, t.direction, t.peer);
  const std::vector<offset_t> csc_eid =
      sparse::transpose_entry_ids(g.csr(), g.csc());
  std::vector<count_t> support(by_csc.size(), 0);
  for (std::size_t k = 0; k < by_csc.size(); ++k)
    support[static_cast<std::size_t>(csc_eid[k])] = by_csc[k];
  return support;
}

}  // namespace bfc::peel
