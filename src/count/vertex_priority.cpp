#include <algorithm>

#include "chk/checked_math.hpp"
#include "count/baselines.hpp"
#include "count/wedges.hpp"
#include "obs/metrics.hpp"

namespace bfc::count {
namespace {

/// The graph on the unified vertex set, relabelled by rank: row r lists the
/// ranks of rank r's neighbours, ascending.
struct RankAdjacency {
  std::vector<offset_t> ptr;
  std::vector<vidx_t> ids;

  [[nodiscard]] std::span<const vidx_t> row(vidx_t r) const {
    const auto at = static_cast<std::size_t>(r);
    return {ids.data() + ptr[at], ids.data() + ptr[at + 1]};
  }
};

/// V1 vertex u is unified id u and V2 vertex v is n1 + v. Ranks order the
/// unified ids by degree descending, then id ascending; rank 0 has the
/// highest priority. One counting sort and one O(E) relabel.
RankAdjacency rank_adjacency(const graph::BipartiteGraph& g) {
  const vidx_t n1 = g.n1();
  const vidx_t n = n1 + g.n2();
  const auto row = [&g, n1](vidx_t x) {
    return x < n1 ? g.csr().row(x) : g.csc().row(x - n1);
  };
  // The result first, so the scratch below is freed in reverse order.
  RankAdjacency adj;
  adj.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  adj.ids.resize(2 * static_cast<std::size_t>(g.edge_count()));

  // Counting sort on max_deg − deg, so higher degrees come first; ids enter
  // their bucket in ascending order.
  std::size_t max_deg = 0;
  for (vidx_t x = 0; x < n; ++x) max_deg = std::max(max_deg, row(x).size());
  std::vector<vidx_t> first(max_deg + 2, 0);
  for (vidx_t x = 0; x < n; ++x) ++first[max_deg - row(x).size() + 1];
  for (std::size_t b = 1; b < first.size(); ++b) first[b] += first[b - 1];
  std::vector<vidx_t> rank(static_cast<std::size_t>(n));
  std::vector<vidx_t> order(static_cast<std::size_t>(n));
  for (vidx_t x = 0; x < n; ++x) {
    const vidx_t r = first[max_deg - row(x).size()]++;
    rank[static_cast<std::size_t>(x)] = r;
    order[static_cast<std::size_t>(r)] = x;
  }

  // ptr[r + 1] starts at row r's first slot and is its fill cursor, so it
  // ends at row r's end. Filling in ascending rank order sorts every row.
  for (std::size_t r = 0; r + 1 < order.size(); ++r)
    adj.ptr[r + 2] =
        adj.ptr[r + 1] + static_cast<offset_t>(row(order[r]).size());
  for (vidx_t r = 0; r < n; ++r) {
    const vidx_t x = order[static_cast<std::size_t>(r)];
    const vidx_t shift = x < n1 ? n1 : 0;  // a V1 row lists V2 ids
    for (const vidx_t y : row(x)) {
      const auto ry =
          static_cast<std::size_t>(rank[static_cast<std::size_t>(y + shift)]);
      adj.ids[static_cast<std::size_t>(adj.ptr[ry + 1]++)] = r;
    }
  }
  return adj;
}

}  // namespace

count_t vertex_priority(const graph::BipartiteGraph& g) {
  const RankAdjacency adj = rank_adjacency(g);
  const vidx_t n = g.n1() + g.n2();
  count_t total = 0;
  [[maybe_unused]] const WedgeWork work = expand_wedges(
      n, n, [&](std::int64_t s, WedgeAccumulator& acc) {
        // Wedges u – v – w with v and w ranked after u: each butterfly is
        // counted once, at its highest-priority vertex.
        const auto u = static_cast<vidx_t>(s);
        const std::span<const vidx_t> nu = adj.row(u);
        const auto after = std::upper_bound(nu.begin(), nu.end(), u);
        acc.expand(std::span<const vidx_t>(after, nu.end()), adj,
                   PeerRange::after(u));
        total = chk::checked_add(total, acc.drain_butterflies());
      });
  BFC_COUNT_ADD("count.vertex_priority.wedges", work.wedges);
  return total;
}

}  // namespace bfc::count
