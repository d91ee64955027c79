#include "count/local_counts.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "peel/peeling.hpp"
#include "sparse/ops.hpp"

namespace bfc::peel {

WingPeelResult k_wing(const graph::BipartiteGraph& g, count_t k) {
  obs::Span phase("peel.k_wing");
  require(k >= 0, "k_wing: negative k");

  WingPeelResult result;
  result.subgraph = g;
  result.kept_edges.assign(static_cast<std::size_t>(g.edge_count()), 1);

  // Edge ids refer to the ORIGINAL CSR order; each round maps the current
  // (compacted) pattern's entries back through the surviving-id list.
  std::vector<offset_t> current_to_original(
      static_cast<std::size_t>(g.edge_count()));
  for (std::size_t e = 0; e < current_to_original.size(); ++e)
    current_to_original[e] = static_cast<offset_t>(e);

  while (result.subgraph.edge_count() > 0) {
    ++result.rounds;
    // S_w = per-edge support of the current subgraph (Eq. 25).
    const std::vector<count_t> support =
        count::support_per_edge(result.subgraph);

    // M = (S_w >= k) (Eq. 26).
    std::vector<std::uint8_t> keep(support.size());
    bool changed = false;
    for (std::size_t e = 0; e < support.size(); ++e) {
      keep[e] = support[e] >= k ? 1 : 0;
      if (!keep[e]) {
        result.kept_edges[static_cast<std::size_t>(current_to_original[e])] = 0;
        ++result.removed_edges;
        changed = true;
      }
    }
    if (!changed) break;

    // A ← A ∘ M (Eq. 27) and shrink the id map alongside.
    std::vector<offset_t> next_map;
    next_map.reserve(support.size());
    for (std::size_t e = 0; e < support.size(); ++e)
      if (keep[e]) next_map.push_back(current_to_original[e]);
    current_to_original = std::move(next_map);
    result.subgraph = graph::BipartiteGraph(
        sparse::mask_entries(result.subgraph.csr(), keep));
  }
  BFC_COUNT_ADD("peel.rounds", result.rounds);
  BFC_COUNT_ADD("peel.edges_removed", result.removed_edges);
  return result;
}

}  // namespace bfc::peel
