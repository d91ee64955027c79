// Public entry point of the core library: count the butterflies of a
// bipartite graph with any of the paper's eight invariant-derived
// algorithms, in any engine/update/threading configuration.
//
//   graph::BipartiteGraph g = ...;
//   count_t x = la::count_butterflies(g, la::Invariant::kInv2);
//
// All configurations return the exact butterfly count Ξ_G; they differ only
// in traversal order, access pattern and cost (see DESIGN.md §2-3).
#pragma once

#include "graph/bipartite_graph.hpp"
#include "la/invariants.hpp"
#include "la/kernels.hpp"
#include "util/common.hpp"

namespace bfc::la {

enum class Engine {
  /// Paper-faithful unblocked kernel: rescans the peer partition from the
  /// invariant's preferred storage each step, O(p·nnz) total.
  kUnblocked,
  /// Optimised wedge-expansion kernel, O(Σ wedges) total; uses both
  /// storage orientations (listed under the paper's future-work
  /// optimisations).
  kWedge,
  /// FLAME blocked variant: exposes a panel of CountOptions::block_size
  /// lines per iteration and scans the peer partition once per PANEL,
  /// amortising the O(p·nnz) cost block_size-fold (see la/blocked.hpp).
  kBlocked,
};

enum class Storage {
  /// CSC for the column family (invariants 1-4), CSR for the row family
  /// (5-8) — the pairing §V describes.
  kMatched,
  /// Deliberately wrong orientation; only meaningful with Engine::kUnblocked
  /// and exercised by the storage-format ablation bench.
  kMismatched,
};

struct CountOptions {
  Engine engine = Engine::kUnblocked;
  /// kAuto follows the paper's implementation note: the literal two-term
  /// update for A0-peer invariants (1, 3, 5, 7) and the fused single-pass
  /// form for A2-peer invariants (2, 4, 6, 8), whose Eq. (18) discussion
  /// points out the subtraction term can be avoided.
  enum class Update { kAuto, kFused, kTwoTerm } update = Update::kAuto;
  Storage storage = Storage::kMatched;
  /// 1 = sequential; > 1 = OpenMP with that many threads.
  int threads = 1;
  /// Panel width for Engine::kBlocked: any width >= 1, one 64-bit mask word
  /// per 64 lines for each distinct neighbour of a panel, so the engine's
  /// scratch per thread grows up to min(cols, nnz of a panel) · ⌈b/64⌉
  /// words (a dense bitmap at a width of the line count). The default is
  /// the widest width at which no Inv2/Inv6 cell of ablation A5 ran slower
  /// than at the next narrower one.
  vidx_t block_size = 256;
};

/// Exact butterfly count Ξ_G of g using the given invariant's algorithm.
[[nodiscard]] count_t count_butterflies(const graph::BipartiteGraph& g,
                                        Invariant inv,
                                        const CountOptions& options = {});

/// Convenience: Inv. 2 (the paper's strongest column algorithm) with the
/// optimised wedge engine on the smaller vertex set — what a downstream
/// user should call when they just want the count.
[[nodiscard]] count_t count_butterflies(const graph::BipartiteGraph& g);

}  // namespace bfc::la
