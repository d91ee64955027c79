#include "chk/validate.hpp"

#include <algorithm>
#include <string>

#include "count/baselines.hpp"
#include "count/dynamic.hpp"
#include "count/local_counts.hpp"
#include "count/top_pairs.hpp"
#include "graph/bipartite_graph.hpp"
#include "obs/metrics.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/ops.hpp"
#include "svc/snapshot.hpp"

namespace bfc::chk {
namespace {

/// One side's adjacency vectors: sorted, unique, in [0, limit); returns the
/// total degree.
offset_t validate_adjacency_side(const count::DynamicButterflyCounter& c,
                                 bool v1_side, vidx_t n, vidx_t limit) {
  offset_t degree_sum = 0;
  for (vidx_t x = 0; x < n; ++x) {
    const std::span<const vidx_t> nbrs =
        v1_side ? c.neighbors_v1(x) : c.neighbors_v2(x);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      enforce_row(nbrs[k] >= 0 && nbrs[k] < limit,
                  "dynamic counter: neighbour out of range", x);
      if (k > 0)
        enforce_row(nbrs[k - 1] < nbrs[k],
                    "dynamic counter: adjacency not sorted/unique", x);
    }
    degree_sum += static_cast<offset_t>(nbrs.size());
  }
  return degree_sum;
}

/// A top-pair buffer's contract on g: at most K′ pairs, strictly sorted by
/// pair_order, each a V1 pair with its exact |N(a) ∩ N(b)| > 0, and no
/// connected pair outside the buffer ranking above the floor. The pairs
/// above the floor are a prefix of the full ranking and the buffer holds at
/// most K′ of them, so the ranking's first K′ + 1 pairs either hold them all
/// or show one missing: one top_wedge_pairs_v1(g, K′ + 1) pass decides.
void validate_top_pairs(const count::TopPairBuffer& top,
                        const graph::BipartiteGraph& g) {
  constexpr std::size_t kCapacity = count::TopPairBuffer::kCapacity;
  enforce(top.pairs.size() <= kCapacity,
          "top-pair buffer: more than K' pairs");
  for (std::size_t i = 0; i < top.pairs.size(); ++i) {
    const count::VertexPair& p = top.pairs[i];
    enforce(i == 0 || count::pair_order(top.pairs[i - 1], p),
            "top-pair buffer: pairs not strictly in pair_order");
    enforce(0 <= p.a && p.a < p.b && p.b < g.n1(),
            "top-pair buffer: pair out of range");
    enforce(p.wedges > 0 &&
                p.wedges == static_cast<count_t>(sparse::intersection_size(
                                g.neighbors_of_v1(p.a),
                                g.neighbors_of_v1(p.b))),
            "top-pair buffer: wedge count != common neighbours");
  }
  for (const count::VertexPair& p :
       count::top_wedge_pairs_v1(g, kCapacity + 1)) {
    if (!count::pair_order(p, top.floor)) break;
    enforce(std::ranges::binary_search(top.pairs, p, count::pair_order),
            "top-pair buffer: an unbuffered pair ranks above the floor");
  }
}

}  // namespace

void validate_csr_arrays(vidx_t rows, vidx_t cols,
                         std::span<const offset_t> row_ptr,
                         std::span<const vidx_t> col_idx) {
  BFC_COUNT_ADD("chk.validations", 1);
  enforce(rows >= 0 && cols >= 0, "csr: negative dimension");
  enforce(row_ptr.size() == static_cast<std::size_t>(rows) + 1,
          "csr: row_ptr size != rows + 1");
  enforce(row_ptr.front() == 0, "csr: row_ptr[0] != 0");
  enforce(row_ptr.back() == static_cast<offset_t>(col_idx.size()),
          "csr: row_ptr back != nnz");
  for (vidx_t r = 0; r < rows; ++r) {
    const offset_t lo = row_ptr[static_cast<std::size_t>(r)];
    const offset_t hi = row_ptr[static_cast<std::size_t>(r) + 1];
    enforce_row(lo <= hi, "csr: row_ptr not monotone", r);
    for (offset_t k = lo; k < hi; ++k) {
      const vidx_t c = col_idx[static_cast<std::size_t>(k)];
      enforce_row(c >= 0 && c < cols, "csr: column index out of range", r);
      if (k > lo)
        enforce_row(col_idx[static_cast<std::size_t>(k) - 1] < c,
                    "csr: row not sorted/unique", r);
    }
  }
}

void validate(const sparse::CsrPattern& p) {
  validate_csr_arrays(p.rows(), p.cols(), p.row_ptr(), p.col_idx());
}

void validate(const sparse::CsrCounts& c) {
  validate_csr_arrays(c.rows, c.cols, c.row_ptr, c.col_idx);
  enforce(c.values.size() == c.col_idx.size(),
          "csr counts: values size != nnz");
}

void validate(const sparse::CooBuilder& b) {
  BFC_COUNT_ADD("chk.validations", 1);
  enforce(b.rows() >= 0 && b.cols() >= 0, "coo: negative dimension");
  for (const auto& [r, c] : b.entries()) {
    enforce(r >= 0 && r < b.rows(), "coo: row index out of range");
    enforce(c >= 0 && c < b.cols(), "coo: column index out of range");
  }
}

void validate_mirror(const sparse::CsrPattern& a,
                     const sparse::CsrPattern& at) {
  BFC_COUNT_ADD("chk.validations", 1);
  enforce(at.rows() == a.cols() && at.cols() == a.rows(),
          "mirror: transpose shape mismatch");
  enforce(at.nnz() == a.nnz(), "mirror: transpose nnz mismatch");
  // Same nnz on both sides, so one direction of edge containment implies
  // the mirrors are identical as edge sets.
  for (vidx_t r = 0; r < a.rows(); ++r)
    for (const vidx_t c : a.row(r))
      enforce_row(at.has(c, r), "mirror: edge missing from transpose", r);
}

void validate(const graph::BipartiteGraph& g) {
  validate(g.csr());
  validate(g.csc());
  validate_mirror(g.csr(), g.csc());
  // row_ptr.back() == nnz is already enforced per orientation; the mirror
  // check above pins the two orientations to the same edge set, so the
  // degree sums of both sides necessarily equal edge_count() here.
  enforce(g.csr().nnz() == g.edge_count() && g.csc().nnz() == g.edge_count(),
          "graph: degree sums disagree with edge count");
}

void validate_structure(const count::DynamicButterflyCounter& c) {
  BFC_COUNT_ADD("chk.validations", 1);
  const offset_t deg_v1 = validate_adjacency_side(c, true, c.n1(), c.n2());
  const offset_t deg_v2 = validate_adjacency_side(c, false, c.n2(), c.n1());
  enforce(deg_v1 == c.edge_count(),
          "dynamic counter: V1 degree sum != edge count");
  enforce(deg_v2 == c.edge_count(),
          "dynamic counter: V2 degree sum != edge count");
  // Mirror agreement: every (u, v) in adj_v1 appears as (v, u) in adj_v2.
  // Equal degree sums make one direction sufficient.
  for (vidx_t u = 0; u < c.n1(); ++u) {
    for (const vidx_t v : c.neighbors_v1(u)) {
      const std::span<const vidx_t> nv = c.neighbors_v2(v);
      enforce_row(std::binary_search(nv.begin(), nv.end(), u),
                  "dynamic counter: V1/V2 mirror disagreement", u);
    }
  }
}

void validate(const count::DynamicButterflyCounter& c) {
  validate_structure(c);
  const graph::BipartiteGraph g = c.to_graph();
  validate(g);
  enforce(count::wedge_reference(g) == c.butterflies(),
          "dynamic counter: incremental count drifted from recount");
  enforce(c.tips_v1() == count::butterflies_per_v1(g),
          "dynamic counter: maintained V1 tips drifted from recount");
  enforce(c.tips_v2() == count::butterflies_per_v2(g),
          "dynamic counter: maintained V2 tips drifted from recount");
  validate_top_pairs(c.top_pairs(), g);
}

void validate(const svc::GraphSnapshot& s) {
  BFC_COUNT_ADD("chk.validations", 1);
  validate(s.graph);
  enforce(s.edges == s.graph.edge_count(),
          "snapshot: edges field != materialised edge count");
  enforce(count::wedge_reference(s.graph) == s.butterflies,
          "snapshot: butterfly count != recount of materialised graph");
  enforce(s.tips_v1.size() == static_cast<std::size_t>(s.graph.n1()) &&
              s.tips_v2.size() == static_cast<std::size_t>(s.graph.n2()),
          "snapshot: tip vector length != vertex count");
  enforce(s.tips_v1 == count::butterflies_per_v1(s.graph),
          "snapshot: V1 tips != recount of materialised graph");
  enforce(s.tips_v2 == count::butterflies_per_v2(s.graph),
          "snapshot: V2 tips != recount of materialised graph");
  validate_top_pairs(s.top_pairs, s.graph);
  enforce(s.top_pairs.certified(count::TopPairBuffer::kCapacity).has_value(),
          "snapshot: top-pair buffer does not certify every k <= K'");
}

void validate_epoch_transition(const svc::GraphSnapshot& prev,
                               const svc::GraphSnapshot& next) {
  BFC_COUNT_ADD("chk.validations", 1);
  enforce(next.epoch == prev.epoch + 1,
          "snapshot: epoch did not advance by exactly one (got " +
              std::to_string(next.epoch) + " after " +
              std::to_string(prev.epoch) + ")");
}

void validate_shard_range(const graph::BipartiteGraph& g, vidx_t lo,
                          vidx_t hi) {
  BFC_COUNT_ADD("chk.validations", 1);
  enforce(0 <= lo && lo <= hi && hi <= g.n1(),
          "shard graph: owned range [" + std::to_string(lo) + ", " +
              std::to_string(hi) + ") not inside [0, " +
              std::to_string(g.n1()) + ")");
  for (vidx_t u = 0; u < g.n1(); ++u) {
    if (lo <= u && u < hi) continue;
    enforce_row(g.csr().row_degree(u) == 0,
                "shard graph: edge on a V1 vertex outside the owned range", u);
  }
}

}  // namespace bfc::chk
