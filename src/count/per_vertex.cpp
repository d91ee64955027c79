#include "count/local_counts.hpp"
#include "count/parallel_counts.hpp"
#include "count/wedges.hpp"

namespace bfc::count {
namespace {

/// b_i for every "line" i of `lines` (rows of the given pattern), where
/// `lines_t` is its transpose: expand wedges i -> k -> j (j ≠ i) and sum
/// C(w_ij, 2) per i into out[i]. O(Σ wedges) over all lines; both drivers
/// run this body.
auto line_tips(const sparse::CsrPattern& lines,
               const sparse::CsrPattern& lines_t, std::vector<count_t>& out) {
  return [&lines, &lines_t, &out](std::int64_t line, WedgeAccumulator& acc) {
    const auto i = static_cast<vidx_t>(line);
    acc.expand(lines.row(i), lines_t, {}, [i](vidx_t j) { return j != i; });
    out[static_cast<std::size_t>(i)] = acc.drain_butterflies();
    return count_t{0};
  };
}

/// One cancellation checkpoint per line.
std::vector<count_t> per_line(const sparse::CsrPattern& lines,
                              const sparse::CsrPattern& lines_t,
                              const CancelToken& cancel, const char* where) {
  std::vector<count_t> out(static_cast<std::size_t>(lines.rows()), 0);
  expand_wedges(lines.rows(), lines.rows(), line_tips(lines, lines_t, out),
                cancel, where);
  return out;
}

std::vector<count_t> per_line_parallel(const sparse::CsrPattern& lines,
                                       const sparse::CsrPattern& lines_t,
                                       int threads) {
  std::vector<count_t> out(static_cast<std::size_t>(lines.rows()), 0);
  expand_wedges_parallel(lines.rows(), lines.rows(), threads, 64,
                         line_tips(lines, lines_t, out));
  return out;
}

}  // namespace

std::vector<count_t> butterflies_per_v1(const graph::BipartiteGraph& g) {
  return butterflies_per_v1(g, CancelToken{});
}

std::vector<count_t> butterflies_per_v1(const graph::BipartiteGraph& g,
                                        const CancelToken& cancel) {
  return per_line(g.csr(), g.csc(), cancel, "butterflies_per_v1");
}

std::vector<count_t> butterflies_per_v2(const graph::BipartiteGraph& g) {
  return butterflies_per_v2(g, CancelToken{});
}

std::vector<count_t> butterflies_per_v2(const graph::BipartiteGraph& g,
                                        const CancelToken& cancel) {
  return per_line(g.csc(), g.csr(), cancel, "butterflies_per_v2");
}

std::vector<count_t> butterflies_per_v1_parallel(
    const graph::BipartiteGraph& g, int threads) {
  require(threads >= 1, "butterflies_per_v1_parallel: threads must be >= 1");
  return per_line_parallel(g.csr(), g.csc(), threads);
}

std::vector<count_t> butterflies_per_v2_parallel(
    const graph::BipartiteGraph& g, int threads) {
  require(threads >= 1, "butterflies_per_v2_parallel: threads must be >= 1");
  return per_line_parallel(g.csc(), g.csr(), threads);
}

}  // namespace bfc::count
