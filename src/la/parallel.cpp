#include <omp.h>

#include "chk/validate.hpp"
#include "chk/tsan_fence.hpp"
#include "count/wedges.hpp"
#include "la/kernels.hpp"
#include "la/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace bfc::la {
namespace {

inline count_t line_overlap(const sparse::CsrPattern& lines, vidx_t c,
                            const std::vector<std::uint8_t>& marked) {
  count_t t = 0;
  for (const vidx_t i : lines.row(c)) t += marked[static_cast<std::size_t>(i)];
  return t;
}

}  // namespace

count_t count_unblocked_parallel(const sparse::CsrPattern& lines,
                                 Direction direction, PeerSide peer,
                                 UpdateForm form) {
  BFC_VALIDATE(lines);
  const auto steps = traversal_steps(lines.rows(), direction, peer);
  const auto n_steps = static_cast<std::int64_t>(steps.size());
  count_t total = 0;
  chk::TsanOmpFence fence;

#pragma omp parallel
  {
    // Private mark scratch per thread; butterfly contributions of distinct
    // pivots are independent, so the steps parallelise trivially and the
    // integer reduction is deterministic.
    std::vector<std::uint8_t> marked(static_cast<std::size_t>(lines.cols()),
                                     0);
    // One trace span and one work-histogram sample per thread per region,
    // so imbalance across the dynamic schedule is visible per track.
    obs::Span thread_span("kernel.unblocked_parallel");
    count_t my_lines = 0, my_wedges = 0, my_nnz = 0;
#pragma omp for schedule(dynamic, 16) reduction(+ : total)
    for (std::int64_t s = 0; s < n_steps; ++s) {
      const Step& step = steps[static_cast<std::size_t>(s)];
      const auto pivot_line = lines.row(step.pivot);
      // Zero-contribution pivots are skipped under both forms (see the
      // sequential kernel).
      if (pivot_line.size() < 2) continue;
      for (const vidx_t i : pivot_line)
        marked[static_cast<std::size_t>(i)] = 1;

      // The contiguous peer range's entry count is one row_ptr difference;
      // keep the degree lookup out of the O(p·nnz) loops (see unblocked.cpp).
      if constexpr (obs::kMetricsEnabled) {
        const auto& ptr = lines.row_ptr();
        const offset_t range_nnz =
            ptr[static_cast<std::size_t>(step.peer_hi)] -
            ptr[static_cast<std::size_t>(step.peer_lo)];
        my_nnz += (form == UpdateForm::kFused ? 1 : 2) * range_nnz;
      }
      if (form == UpdateForm::kFused) {
        count_t step_sum = 0;
        count_t step_wedges = 0;
        for (vidx_t c = step.peer_lo; c < step.peer_hi; ++c) {
          const count_t t = line_overlap(lines, c, marked);
          step_sum += choose2(t);
          if constexpr (obs::kMetricsEnabled) step_wedges += t;
        }
        total += step_sum;
        if constexpr (obs::kMetricsEnabled) my_wedges += step_wedges;
      } else {
        count_t quad = 0;
        for (vidx_t c = step.peer_lo; c < step.peer_hi; ++c) {
          const count_t t = line_overlap(lines, c, marked);
          quad += t * t;
        }
        count_t lin = 0;
        for (vidx_t c = step.peer_lo; c < step.peer_hi; ++c)
          lin += line_overlap(lines, c, marked);
        total += (quad - lin) / 2;
        if constexpr (obs::kMetricsEnabled) my_wedges += lin;
      }

      if constexpr (obs::kMetricsEnabled) ++my_lines;
      for (const vidx_t i : pivot_line)
        marked[static_cast<std::size_t>(i)] = 0;
    }
    if constexpr (obs::kMetricsEnabled) {
      BFC_COUNT_ADD("la.lines_processed", my_lines);
      BFC_COUNT_ADD("la.wedges", my_wedges);
      BFC_COUNT_ADD("la.nnz_scanned", my_nnz);
      BFC_HIST_OBSERVE("la.thread_lines", my_lines);
    }
    fence.thread_done();
  }
  fence.join();
  return total;
}

count_t count_wedge_parallel(const sparse::CsrPattern& lines,
                             const sparse::CsrPattern& lines_t,
                             Direction direction, PeerSide peer) {
  require(lines_t.rows() == lines.cols() && lines_t.cols() == lines.rows(),
          "count_wedge_parallel: lines_t is not the transpose of lines");
  if constexpr (chk::kCheckedEnabled) chk::validate_mirror(lines, lines_t);
  const std::vector<Step> steps =
      traversal_steps(lines.rows(), direction, peer);
  return count::expand_wedges_parallel(
      static_cast<std::int64_t>(steps.size()), lines.rows(), num_threads(),
      64,
      [&](std::int64_t s, count::WedgeAccumulator& acc) {
        const Step& step = steps[static_cast<std::size_t>(s)];
        const auto pivot_line = lines.row(step.pivot);
        if (pivot_line.size() < 2) return count_t{0};
        acc.expand(pivot_line, lines_t, {step.peer_lo, step.peer_hi});
        return acc.drain_butterflies();
      },
      // One work-histogram sample per thread, so imbalance across the
      // dynamic schedule stays visible.
      []([[maybe_unused]] const count::WedgeWork& work) {
        BFC_COUNT_ADD("la.lines_processed", work.lines);
        BFC_COUNT_ADD("la.wedges", work.wedges);
        BFC_HIST_OBSERVE("la.thread_lines", work.lines);
      });
}

}  // namespace bfc::la
