#include "chk/validate.hpp"
#include "la/kernels.hpp"
#include "la/partition.hpp"
#include "obs/metrics.hpp"

namespace bfc::la {
namespace {

/// t_c = |a₁ ∩ line c| by scanning line c against the pivot's mark array.
inline count_t line_overlap(const sparse::CsrPattern& lines, vidx_t c,
                            const std::vector<std::uint8_t>& marked) {
  count_t t = 0;
  for (const vidx_t i : lines.row(c)) t += marked[static_cast<std::size_t>(i)];
  return t;
}

}  // namespace

count_t count_unblocked(const sparse::CsrPattern& lines, Direction direction,
                        PeerSide peer, UpdateForm form) {
  BFC_VALIDATE(lines);
  const vidx_t n = lines.rows();
  std::vector<std::uint8_t> marked(static_cast<std::size_t>(lines.cols()), 0);
  count_t total = 0;
  // Kernel work counters, accumulated locally and published once at the end
  // so the hot loops never touch a shared shard. `wedges` is Σ t_c over all
  // processed (pivot, peer) pairs; `nnz_scanned` the peer entries read.
  count_t obs_lines = 0, obs_wedges = 0, obs_nnz = 0;

  for (const Step& step : traversal_steps(n, direction, peer)) {
    const auto pivot_line = lines.row(step.pivot);
    // A pivot with fewer than 2 entries contributes zero under either form
    // (t_c ≤ 1 everywhere, so Σ C(t_c,2) = 0 and Σ t_c² = Σ t_c); skipping
    // it in both keeps the two-term/fused ablation a pure one-pass vs
    // two-pass comparison.
    if (pivot_line.size() < 2) continue;
    for (const vidx_t i : pivot_line) marked[static_cast<std::size_t>(i)] = 1;

    // The peer range is contiguous, so the entries it scans are one O(1)
    // row_ptr difference — never a per-line degree lookup inside the hot
    // loop (measurably expensive at O(p·nnz) trip counts).
    if constexpr (obs::kMetricsEnabled) {
      const auto& ptr = lines.row_ptr();
      const offset_t range_nnz = ptr[static_cast<std::size_t>(step.peer_hi)] -
                                 ptr[static_cast<std::size_t>(step.peer_lo)];
      obs_nnz += (form == UpdateForm::kFused ? 1 : 2) * range_nnz;
    }
    if (form == UpdateForm::kFused) {
      // Σ_c C(t_c, 2): single pass, no subtraction term.
      count_t step_sum = 0;
      count_t step_wedges = 0;
      for (vidx_t c = step.peer_lo; c < step.peer_hi; ++c) {
        const count_t t = line_overlap(lines, c, marked);
        step_sum += choose2(t);
        if constexpr (obs::kMetricsEnabled) step_wedges += t;
      }
      total += step_sum;
      if constexpr (obs::kMetricsEnabled) obs_wedges += step_wedges;
    } else {
      // Literal Eq. (17)/(18): ½·a₁ᵀPPᵀa₁ as Σ t_c² in one pass over the
      // peer partition, then ½·Γ(a₁a₁ᵀ∘PPᵀ) as Σ t_c in a second pass.
      count_t quad = 0;
      for (vidx_t c = step.peer_lo; c < step.peer_hi; ++c) {
        const count_t t = line_overlap(lines, c, marked);
        quad += t * t;
      }
      count_t lin = 0;
      for (vidx_t c = step.peer_lo; c < step.peer_hi; ++c)
        lin += line_overlap(lines, c, marked);
      total += (quad - lin) / 2;
      if constexpr (obs::kMetricsEnabled) obs_wedges += lin;
    }

    if constexpr (obs::kMetricsEnabled) ++obs_lines;
    for (const vidx_t i : pivot_line) marked[static_cast<std::size_t>(i)] = 0;
  }
  if constexpr (obs::kMetricsEnabled) {
    BFC_COUNT_ADD("la.lines_processed", obs_lines);
    BFC_COUNT_ADD("la.wedges", obs_wedges);
    BFC_COUNT_ADD("la.nnz_scanned", obs_nnz);
  }
  return total;
}

count_t count_mismatched(const sparse::CsrPattern& other, Direction direction,
                         PeerSide peer) {
  BFC_VALIDATE(other);
  // `other` stores the non-partitioned dimension as rows (e.g. the CSR of A
  // while running a column-family traversal). The pivot line a₁ is not
  // directly addressable, so each step rebuilds it by binary-searching the
  // pivot id in every stored row — the access-pattern penalty of storing
  // the matrix in the wrong format for the chosen invariant family.
  const vidx_t n = other.cols();  // partitioned dimension size
  std::vector<vidx_t> pivot_line;
  std::vector<count_t> acc(static_cast<std::size_t>(n), 0);
  std::vector<vidx_t> touched;
  count_t total = 0;
  count_t obs_lines = 0, obs_wedges = 0;

  for (const Step& step : traversal_steps(n, direction, peer)) {
    pivot_line.clear();
    for (vidx_t r = 0; r < other.rows(); ++r)
      if (other.has(r, step.pivot)) pivot_line.push_back(r);
    if (pivot_line.size() < 2) continue;

    // With row-major storage the peer columns cannot be scanned directly;
    // expand the pivot's wedges row by row instead.
    touched.clear();
    for (const vidx_t i : pivot_line) {
      for (const vidx_t c : other.row(i)) {
        if (c < step.peer_lo || c >= step.peer_hi) continue;
        // bfc-analyze: wedge-loop-ok A4 ablation, wrong-orientation scan
        if (acc[static_cast<std::size_t>(c)] == 0) touched.push_back(c);
        ++acc[static_cast<std::size_t>(c)];
      }
    }
    for (const vidx_t c : touched) {
      if constexpr (obs::kMetricsEnabled)
        obs_wedges += acc[static_cast<std::size_t>(c)];
      total += choose2(acc[static_cast<std::size_t>(c)]);
      acc[static_cast<std::size_t>(c)] = 0;
    }
    if constexpr (obs::kMetricsEnabled) ++obs_lines;
  }
  if constexpr (obs::kMetricsEnabled) {
    BFC_COUNT_ADD("la.lines_processed", obs_lines);
    BFC_COUNT_ADD("la.wedges", obs_wedges);
  }
  return total;
}

}  // namespace bfc::la
