#include "count/top_pairs.hpp"

#include <algorithm>
#include <iterator>
#include <queue>

#include "count/wedges.hpp"
#include "sparse/ops.hpp"

namespace bfc::count {
namespace {

/// Keeps the k best pairs while streaming all connected pairs of the rows
/// of `lines` (transpose in `lines_t`), one cancellation checkpoint per line.
std::vector<VertexPair> top_pairs(const sparse::CsrPattern& lines,
                                  const sparse::CsrPattern& lines_t,
                                  std::size_t k, const CancelToken& cancel,
                                  const char* where) {
  if (k == 0) return {};
  auto better = [](const VertexPair& x, const VertexPair& y) {
    return pair_order(x, y);
  };
  // Min-heap of the current best k under `better`.
  std::priority_queue<VertexPair, std::vector<VertexPair>, decltype(better)>
      heap(better);

  expand_wedges(
      lines.rows(), lines.rows(),
      [&](std::int64_t line, WedgeAccumulator& acc) {
        const auto i = static_cast<vidx_t>(line);
        acc.expand(lines.row(i), lines_t, PeerRange::after(i));
        acc.drain([&](vidx_t j, count_t t) {
          const VertexPair candidate{i, j, t};
          if (heap.size() < k) {
            heap.push(candidate);
          } else if (better(candidate, heap.top())) {
            heap.pop();
            heap.push(candidate);
          }
        });
      },
      cancel, where);

  std::vector<VertexPair> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  std::sort(out.begin(), out.end(), better);
  return out;
}

}  // namespace

std::vector<VertexPair> top_wedge_pairs_v1(const graph::BipartiteGraph& g,
                                           std::size_t k) {
  return top_wedge_pairs_v1(g, k, CancelToken{});
}

std::vector<VertexPair> top_wedge_pairs_v1(const graph::BipartiteGraph& g,
                                           std::size_t k,
                                           const CancelToken& cancel) {
  return top_pairs(g.csr(), g.csc(), k, cancel, "top_wedge_pairs_v1");
}

std::vector<VertexPair> top_wedge_pairs_v2(const graph::BipartiteGraph& g,
                                           std::size_t k) {
  return top_pairs(g.csc(), g.csr(), k, CancelToken{}, "top_wedge_pairs_v2");
}

TopPairBuffer TopPairBuffer::of(const graph::BipartiteGraph& g) {
  TopPairBuffer top;
  top.pairs = top_wedge_pairs_v1(g, kCapacity + 1);
  top.floor = VertexPair{};
  if (top.pairs.size() > kCapacity) {
    top.floor = top.pairs.back();
    top.pairs.pop_back();
  }
  return top;
}

std::optional<std::span<const VertexPair>> TopPairBuffer::certified(
    std::size_t k) const {
  if (k > kCapacity) return std::nullopt;
  if (k > pairs.size()) {
    // Fewer pairs than asked for: exact only if none was left out.
    if (floor.wedges != 0) return std::nullopt;
    return std::span(pairs);
  }
  if (k != 0 && !pair_order(pairs[k - 1], floor)) return std::nullopt;
  return std::span(pairs).first(k);
}

Biclique2 max_biclique_2xk(const graph::BipartiteGraph& g) {
  const auto best = top_wedge_pairs_v1(g, 1);
  Biclique2 result;
  if (best.empty() || best[0].wedges < 2) return result;
  result.a = best[0].a;
  result.b = best[0].b;
  const auto ra = g.csr().row(result.a);
  const auto rb = g.csr().row(result.b);
  std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                        std::back_inserter(result.columns));
  return result;
}

}  // namespace bfc::count
