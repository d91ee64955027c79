#include "count/top_pairs.hpp"

#include <algorithm>
#include <iterator>
#include <queue>

#include "sparse/ops.hpp"

namespace bfc::count {
namespace {

/// Keeps the k best pairs while streaming all connected pairs of the rows
/// of `lines` (transpose in `lines_t`). One cancellation checkpoint per line:
/// the accumulator is cleared between lines, so abandoning there leaks no
/// partial state.
std::vector<VertexPair> top_pairs(const sparse::CsrPattern& lines,
                                  const sparse::CsrPattern& lines_t,
                                  std::size_t k, const CancelToken& cancel,
                                  const char* where) {
  if (k == 0) return {};
  auto better = [](const VertexPair& x, const VertexPair& y) {
    return pair_order(x, y);
  };
  // Min-heap of the current best k under `better`.
  auto heap_cmp = [&](const VertexPair& x, const VertexPair& y) {
    return better(x, y);
  };
  std::priority_queue<VertexPair, std::vector<VertexPair>,
                      decltype(heap_cmp)>
      heap(heap_cmp);

  const vidx_t n = lines.rows();
  std::vector<count_t> acc(static_cast<std::size_t>(n), 0);
  std::vector<vidx_t> touched;
  for (vidx_t i = 0; i < n; ++i) {
    cancel.checkpoint(where);
    touched.clear();
    for (const vidx_t x : lines.row(i)) {
      for (const vidx_t j : lines_t.row(x)) {
        if (j <= i) continue;
        if (acc[static_cast<std::size_t>(j)] == 0) touched.push_back(j);
        ++acc[static_cast<std::size_t>(j)];
      }
    }
    for (const vidx_t j : touched) {
      const VertexPair candidate{i, j, acc[static_cast<std::size_t>(j)]};
      acc[static_cast<std::size_t>(j)] = 0;
      if (heap.size() < k) {
        heap.push(candidate);
      } else if (better(candidate, heap.top())) {
        heap.pop();
        heap.push(candidate);
      }
    }
  }

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
