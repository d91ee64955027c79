#include "sparse/spgemm.hpp"

#include <algorithm>

#include "chk/checked_math.hpp"
#include "obs/metrics.hpp"

namespace bfc::sparse {

CsrCounts spgemm(const CsrPattern& a, const CsrPattern& b) {
  require(a.cols() == b.rows(), "spgemm: inner dimension mismatch");
  CsrCounts c;
  c.rows = a.rows();
  c.cols = b.cols();
  c.row_ptr.assign(static_cast<std::size_t>(a.rows()) + 1, 0);

  std::vector<count_t> acc(static_cast<std::size_t>(b.cols()), 0);
  std::vector<vidx_t> touched;
  touched.reserve(static_cast<std::size_t>(b.cols()));

  for (vidx_t i = 0; i < a.rows(); ++i) {
    touched.clear();
    for (const vidx_t k : a.row(i)) {
      for (const vidx_t j : b.row(k)) {
        // bfc-analyze: wedge-loop-ok general SpGEMM, emits sorted rows of C
        if (acc[static_cast<std::size_t>(j)] == 0) touched.push_back(j);
        ++acc[static_cast<std::size_t>(j)];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const vidx_t j : touched) {
      c.col_idx.push_back(j);
      c.values.push_back(acc[static_cast<std::size_t>(j)]);
      acc[static_cast<std::size_t>(j)] = 0;
    }
    c.row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<offset_t>(c.col_idx.size());
  }
  return c;
}

CsrCounts gram(const CsrPattern& a, const CsrPattern& at) {
  require(at.rows() == a.cols() && at.cols() == a.rows(),
          "gram: at is not transpose-shaped");
  return spgemm(a, at);
}

count_t gram_pairwise_butterflies(const CsrPattern& a, const CsrPattern& at) {
  require(at.rows() == a.cols() && at.cols() == a.rows(),
          "gram_pairwise_butterflies: at is not transpose-shaped");
  std::vector<count_t> acc(static_cast<std::size_t>(a.rows()), 0);
  std::vector<vidx_t> touched;
  count_t total = 0;
  count_t obs_wedges = 0;
  for (vidx_t i = 0; i < a.rows(); ++i) {
    touched.clear();
    for (const vidx_t k : a.row(i)) {
      for (const vidx_t j : at.row(k)) {
        // Only pairs (i, j) with j > i contribute; each unordered pair is
        // visited exactly once this way.
        if (j <= i) continue;
        // bfc-analyze: wedge-loop-ok wedge_reference, the perfbench oracle
        if (acc[static_cast<std::size_t>(j)] == 0) touched.push_back(j);
        ++acc[static_cast<std::size_t>(j)];
      }
    }
    for (const vidx_t j : touched) {
      if constexpr (obs::kMetricsEnabled)
        obs_wedges = chk::checked_add(obs_wedges, acc[static_cast<std::size_t>(j)]);
      total = chk::checked_add(
          total, chk::checked_choose2(acc[static_cast<std::size_t>(j)]));
      acc[static_cast<std::size_t>(j)] = 0;
    }
  }
  if constexpr (obs::kMetricsEnabled)
    BFC_COUNT_ADD("count.baseline.wedges", obs_wedges);
  return total;
}

}  // namespace bfc::sparse
