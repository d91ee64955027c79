#include "count/local_counts.hpp"
#include "count/wedges.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "peel/peeling.hpp"
#include "sparse/ops.hpp"

namespace bfc::peel {
namespace {

/// Fig. 8 look-ahead evaluation of the tip vector s: traverse the rows of
/// `lines` top to bottom; at pivot row u, expand wedges only against rows
/// j > u (the A2 partition) and add C(t_j, 2) to BOTH s_u and s_j. When row
/// u is exposed its count is already complete — the "s_T fully computed,
/// s_B partially updated" state of the paper's KTIP_UNB_VAR1 — and each
/// unordered pair is expanded exactly once.
std::vector<count_t> tip_vector_lookahead(const sparse::CsrPattern& lines,
                                          const sparse::CsrPattern& lines_t) {
  const vidx_t n = lines.rows();
  std::vector<count_t> s(static_cast<std::size_t>(n), 0);
  count::expand_wedges(
      n, n, [&](std::int64_t line, count::WedgeAccumulator& acc) {
        const auto u = static_cast<vidx_t>(line);
        acc.expand(lines.row(u), lines_t, count::PeerRange::after(u));
        acc.drain([&](vidx_t j, count_t t) {
          const count_t pair_butterflies = choose2(t);
          s[static_cast<std::size_t>(u)] += pair_butterflies;
          s[static_cast<std::size_t>(j)] += pair_butterflies;
        });
      });
  return s;
}

std::vector<count_t> tip_vector(const graph::BipartiteGraph& g, Side side,
                                TipAlgorithm algorithm) {
  if (algorithm == TipAlgorithm::kRecompute) {
    return side == Side::kV1 ? count::butterflies_per_v1(g)
                             : count::butterflies_per_v2(g);
  }
  return side == Side::kV1 ? tip_vector_lookahead(g.csr(), g.csc())
                           : tip_vector_lookahead(g.csc(), g.csr());
}

}  // namespace

TipPeelResult k_tip(const graph::BipartiteGraph& g, count_t k, Side side,
                    TipAlgorithm algorithm) {
  obs::Span phase("peel.k_tip");
  require(k >= 0, "k_tip: negative k");
  const vidx_t peel_dim = side == Side::kV1 ? g.n1() : g.n2();

  TipPeelResult result;
  result.subgraph = g;
  result.kept.assign(static_cast<std::size_t>(peel_dim), 1);

  while (true) {
    ++result.rounds;
    // s = per-vertex butterfly vector of the current subgraph (Eq. 19).
    const std::vector<count_t> s = tip_vector(result.subgraph, side, algorithm);

    // m = (s >= k) over still-kept vertices (Eq. 20). A vertex with no
    // edges sits in 0 butterflies and is peeled in round one for any k > 0.
    bool changed = false;
    for (std::size_t i = 0; i < result.kept.size(); ++i) {
      if (result.kept[i] && s[i] < k) {
        result.kept[i] = 0;
        ++result.removed_vertices;
        changed = true;
      }
    }
    if (!changed) break;

    // A ← A ∘ M (Eqs. 21-22): drop the peeled vertices' edges. V2 vertices
    // left neighbourless become isolated implicitly, exactly what the
    // mᵀA mask accomplishes in the paper's formulation.
    const sparse::CsrPattern masked =
        side == Side::kV1 ? sparse::mask_rows(result.subgraph.csr(), result.kept)
                          : sparse::mask_cols(result.subgraph.csr(), result.kept);
    result.subgraph = graph::BipartiteGraph(masked);
  }
  BFC_COUNT_ADD("peel.rounds", result.rounds);
  BFC_COUNT_ADD("peel.vertices_removed", result.removed_vertices);
  return result;
}

}  // namespace bfc::peel
