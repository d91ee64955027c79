// Approximate butterfly counting by sampling, after Sanei-Mehri, Sariyüce &
// Tirthapura (KDD'18) — the approximate-counting line of work the paper's
// introduction cites [10]. Three unbiased estimators:
//
//  - vertex sampling: E[butterflies at a uniform V1 vertex] = 2Ξ/|V1|;
//  - edge sampling:   E[support of a uniform edge]          = 4Ξ/|E|;
//  - wedge sampling:  E[B_uw − 1 over a uniform wedge]      = 2Ξ/W.
//
// Each estimator returns the point estimate plus the sample standard error
// so callers can reason about confidence.
#pragma once

#include "graph/bipartite_graph.hpp"
#include "util/common.hpp"

namespace bfc::count {

struct ApproxResult {
  double estimate = 0.0;        // estimated Ξ_G
  double standard_error = 0.0;  // of the estimate
  std::int64_t samples = 0;     // samples actually drawn
};

struct ApproxOptions {
  std::int64_t samples = 1000;
  std::uint64_t seed = 0x5eed;
};

/// Samples uniform V1 vertices and counts the butterflies each sits in.
[[nodiscard]] ApproxResult approx_vertex_sampling(
    const graph::BipartiteGraph& g, const ApproxOptions& options = {});

/// Samples uniform edges and computes each edge's butterfly support.
[[nodiscard]] ApproxResult approx_edge_sampling(
    const graph::BipartiteGraph& g, const ApproxOptions& options = {});

/// Samples uniform wedges with endpoints in V1 (wedge point drawn
/// proportionally to C(deg, 2)) and counts the closing wedges.
[[nodiscard]] ApproxResult approx_wedge_sampling(
    const graph::BipartiteGraph& g, const ApproxOptions& options = {});

}  // namespace bfc::count
