// Shared fixtures and random-instance builders for the bfc test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "dense/dense_matrix.hpp"
#include "graph/bipartite_graph.hpp"
#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace bfc::testing {

/// `name` in the test temp directory with this process's id before its
/// extension, so test processes running side by side never share a file.
inline std::string temp_path(const std::string& name) {
  const std::size_t dot = name.find('.');
  const std::string stem = name.substr(0, dot);
  const std::string ext = dot == std::string::npos ? "" : name.substr(dot);
  return ::testing::TempDir() + stem + "_" + std::to_string(::getpid()) + ext;
}

/// Random dense 0/1 matrix with independent Bernoulli(p) entries.
inline dense::DenseMatrix random_dense01(vidx_t rows, vidx_t cols, double p,
                                         std::uint64_t seed) {
  Rng rng(seed);
  dense::DenseMatrix m(rows, cols);
  for (vidx_t r = 0; r < rows; ++r)
    for (vidx_t c = 0; c < cols; ++c) m(r, c) = rng.bernoulli(p) ? 1 : 0;
  return m;
}

/// Random dense integer matrix with entries in [lo, hi].
inline dense::DenseMatrix random_dense_int(vidx_t rows, vidx_t cols,
                                           count_t lo, count_t hi,
                                           std::uint64_t seed) {
  Rng rng(seed);
  dense::DenseMatrix m(rows, cols);
  for (vidx_t r = 0; r < rows; ++r)
    for (vidx_t c = 0; c < cols; ++c) m(r, c) = rng.range(lo, hi);
  return m;
}

/// Random bipartite graph (dense-backed, so the same instance can feed both
/// the sparse algorithms and the dense oracles).
inline graph::BipartiteGraph random_graph(vidx_t n1, vidx_t n2, double p,
                                          std::uint64_t seed) {
  return graph::BipartiteGraph(
      sparse::CsrPattern::from_dense(random_dense01(n1, n2, p, seed)));
}

/// Complete bipartite graph K_{m,n}; has C(m,2)·C(n,2) butterflies.
inline graph::BipartiteGraph complete_bipartite(vidx_t m, vidx_t n) {
  dense::DenseMatrix d = dense::DenseMatrix::ones(m, n);
  return graph::BipartiteGraph(sparse::CsrPattern::from_dense(d));
}

/// The paper's Fig. 1 butterfly: a single 4-cycle (2x2 biclique).
inline graph::BipartiteGraph single_butterfly() {
  return complete_bipartite(2, 2);
}

/// 6-cycle as a bipartite graph (3 + 3 vertices): no butterflies, 6 wedges.
inline graph::BipartiteGraph hexagon() {
  dense::DenseMatrix d = {{1, 1, 0}, {0, 1, 1}, {1, 0, 1}};
  return graph::BipartiteGraph(sparse::CsrPattern::from_dense(d));
}

/// Star K_{1,n}: no butterflies, C(n,2) wedges with endpoints in V2.
inline graph::BipartiteGraph star(vidx_t n) { return complete_bipartite(1, n); }

}  // namespace bfc::testing
