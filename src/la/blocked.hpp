// Blocked variants of the family. FLAME derivations name the Fig. 6/7
// algorithms "unblocked" because they expose one line a₁ per iteration; the
// corresponding blocked algorithms expose a panel A₁ of `block_size` lines,
// maintain the same loop invariants with the panel treated as one unit, and
// split each update into
//   (a) butterflies entirely inside the panel (pairwise within A₁), and
//   (b) butterflies between the panel and the peer partition P — computed
//       with ONE scan of P per panel instead of one per line, amortising
//       the peer traversal block_size-fold.
// This is the classic blocking payoff the FLAME worksheet predicts; the
// ablation bench sweeps block_size. A panel is a bitmask over its lines,
// ⌈block_size/64⌉ words, kept only for the vertices the panel touches, so
// any width works; the masks take min(cols, panel nnz) · ⌈block_size/64⌉
// words per thread, which a width near the line count makes a dense bitmap.
#pragma once

#include "la/invariants.hpp"
#include "la/kernels.hpp"
#include "sparse/csr.hpp"
#include "util/common.hpp"

namespace bfc::la {

/// Blocked counterpart of count_unblocked. `lines` as in the unblocked
/// kernels (rows enumerate the partitioned dimension). block_size >= 1;
/// block_size == 1 degenerates to the unblocked traversal.
[[nodiscard]] count_t count_blocked(const sparse::CsrPattern& lines,
                                    Direction direction, PeerSide peer,
                                    vidx_t block_size);

/// OpenMP version: panels are independent work units (each covers its own
/// pivot-pair set exactly once), so they distribute over threads with
/// per-thread scratch and an integer reduction.
[[nodiscard]] count_t count_blocked_parallel(const sparse::CsrPattern& lines,
                                             Direction direction,
                                             PeerSide peer, vidx_t block_size);

}  // namespace bfc::la
