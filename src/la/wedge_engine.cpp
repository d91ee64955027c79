#include "chk/validate.hpp"
#include "count/wedges.hpp"
#include "la/kernels.hpp"
#include "la/partition.hpp"
#include "obs/metrics.hpp"

namespace bfc::la {

count_t count_wedge(const sparse::CsrPattern& lines,
                    const sparse::CsrPattern& lines_t, Direction direction,
                    PeerSide peer) {
  require(lines_t.rows() == lines.cols() && lines_t.cols() == lines.rows(),
          "count_wedge: lines_t is not the transpose of lines");
  if constexpr (chk::kCheckedEnabled) chk::validate_mirror(lines, lines_t);
  const std::vector<Step> steps =
      traversal_steps(lines.rows(), direction, peer);
  count_t total = 0;
  // Expand only the pivot's wedges: i is a shared endpoint, c a peer line
  // containing it, so the drain sees t_c and adds C(t_c, 2).
  [[maybe_unused]] const count::WedgeWork work = count::expand_wedges(
      static_cast<std::int64_t>(steps.size()), lines.rows(),
      [&](std::int64_t s, count::WedgeAccumulator& acc) {
        const Step& step = steps[static_cast<std::size_t>(s)];
        const auto pivot_line = lines.row(step.pivot);
        if (pivot_line.size() < 2) return;
        acc.expand(pivot_line, lines_t, {step.peer_lo, step.peer_hi});
        total = chk::checked_add(total, acc.drain_butterflies());
      });
  BFC_COUNT_ADD("la.lines_processed", work.lines);
  BFC_COUNT_ADD("la.wedges", work.wedges);
  return total;
}

}  // namespace bfc::la
