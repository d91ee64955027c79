#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "count/baselines.hpp"
#include "count/local_counts.hpp"
#include "dense/spec.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace bfc::count {
namespace {

using bfc::testing::complete_bipartite;
using bfc::testing::hexagon;
using bfc::testing::random_graph;
using bfc::testing::single_butterfly;
using bfc::testing::star;

TEST(Baselines, HandGraphs) {
  const auto bf = single_butterfly();
  EXPECT_EQ(wedge_reference(bf), 1);
  EXPECT_EQ(vertex_priority(bf), 1);
  EXPECT_EQ(batch_sort(bf), 1);
  EXPECT_EQ(batch_hash(bf), 1);

  const auto hex = hexagon();
  EXPECT_EQ(wedge_reference(hex), 0);
  EXPECT_EQ(vertex_priority(hex), 0);

  const auto st = star(6);
  EXPECT_EQ(wedge_reference(st), 0);
  EXPECT_EQ(vertex_priority(st), 0);
  EXPECT_EQ(batch_sort(st), 0);
}

TEST(Baselines, CompleteBipartiteClosedForm) {
  for (const auto& [m, n] : {std::pair{3, 3}, {4, 6}, {7, 2}, {5, 5}}) {
    const auto g = complete_bipartite(m, n);
    const count_t expected = choose2(m) * choose2(n);
    EXPECT_EQ(wedge_reference(g), expected);
    EXPECT_EQ(wedge_reference_v1(g), expected);
    EXPECT_EQ(wedge_reference_v2(g), expected);
    EXPECT_EQ(vertex_priority(g), expected);
    EXPECT_EQ(batch_sort(g), expected);
    EXPECT_EQ(batch_hash(g), expected);
  }
}

TEST(Baselines, EmptyAndEdgelessGraphs) {
  const graph::BipartiteGraph empty;
  EXPECT_EQ(wedge_reference(empty), 0);
  EXPECT_EQ(vertex_priority(empty), 0);
  const auto edgeless = graph::BipartiteGraph::from_edges(5, 5, {});
  EXPECT_EQ(wedge_reference(edgeless), 0);
  EXPECT_EQ(vertex_priority(edgeless), 0);
  EXPECT_EQ(batch_hash(edgeless), 0);
}

struct GraphCase {
  vidx_t m, n;
  double p;
  std::uint64_t seed;
};

class BaselineAgreement : public ::testing::TestWithParam<GraphCase> {};

TEST_P(BaselineAgreement, AllCountersMatchDenseOracle) {
  const auto& c = GetParam();
  const auto g = random_graph(c.m, c.n, c.p, c.seed);
  const count_t oracle = dense::butterflies_spec(g.csr().to_dense());
  EXPECT_EQ(wedge_reference_v1(g), oracle);
  EXPECT_EQ(wedge_reference_v2(g), oracle);
  EXPECT_EQ(wedge_reference(g), oracle);
  EXPECT_EQ(vertex_priority(g), oracle);
  EXPECT_EQ(batch_sort(g), oracle);
  EXPECT_EQ(batch_hash(g), oracle);
}

TEST_P(BaselineAgreement, PerVertexMatchesTipSpec) {
  const auto& c = GetParam();
  const auto g = random_graph(c.m, c.n, c.p, c.seed);
  const auto d = g.csr().to_dense();
  EXPECT_EQ(butterflies_per_v1(g), dense::tip_vector_spec(d));
  EXPECT_EQ(butterflies_per_v2(g), dense::tip_vector_spec_v2(d));
}

TEST_P(BaselineAgreement, PerEdgeMatchesWingSpec) {
  const auto& c = GetParam();
  const auto g = random_graph(c.m, c.n, c.p, c.seed);
  const dense::DenseMatrix sw = dense::wing_support_spec(g.csr().to_dense());
  const std::vector<count_t> support = support_per_edge(g);
  std::size_t e = 0;
  for (vidx_t u = 0; u < g.n1(); ++u)
    for (const vidx_t v : g.neighbors_of_v1(u))
      EXPECT_EQ(support[e++], sw(u, v)) << "edge (" << u << "," << v << ")";
  EXPECT_EQ(e, support.size());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BaselineAgreement,
    ::testing::Values(GraphCase{5, 5, 0.5, 1}, GraphCase{8, 4, 0.6, 2},
                      GraphCase{4, 9, 0.4, 3}, GraphCase{12, 12, 0.3, 4},
                      GraphCase{15, 6, 0.2, 5}, GraphCase{6, 15, 0.7, 6},
                      GraphCase{10, 10, 0.9, 7}, GraphCase{20, 20, 0.15, 8},
                      GraphCase{1, 12, 0.9, 9}, GraphCase{12, 1, 0.9, 10},
                      GraphCase{13, 13, 1.0, 11}));

TEST(Baselines, AgreeOnLargerSparseGraph) {
  // A bigger instance where the dense oracle would be slow: the baselines
  // must still agree with each other.
  const auto g = random_graph(120, 150, 0.05, 77);
  const count_t ref = wedge_reference(g);
  EXPECT_EQ(vertex_priority(g), ref);
  EXPECT_EQ(batch_sort(g), ref);
  EXPECT_EQ(batch_hash(g), ref);
}

// ---- BFC-VP: the rank (degree descending, id ascending) and its work

using Edges = std::vector<std::pair<vidx_t, vidx_t>>;

/// The edges of random_graph(n1, n2, p, seed) plus `extra`.
graph::BipartiteGraph random_plus(vidx_t n1, vidx_t n2, double p,
                                  std::uint64_t seed, const Edges& extra) {
  const auto base = random_graph(n1, n2, p, seed);
  Edges edges = extra;
  for (vidx_t u = 0; u < n1; ++u)
    for (const vidx_t v : base.neighbors_of_v1(u)) edges.emplace_back(u, v);
  return graph::BipartiteGraph::from_edges(n1, n2, edges);
}

void expect_vertex_priority_exact(const graph::BipartiteGraph& g) {
  EXPECT_EQ(vertex_priority(g), dense::butterflies_spec(g.csr().to_dense()));
}

TEST(VertexPriority, EqualDegreesLeaveEveryRankToTheIds) {
  // k-regular circulants: V1 i ~ V2 (i + j) mod n for j < k.
  for (const auto& [n, k] : {std::pair{6, 2}, {8, 3}, {9, 4}, {7, 7}}) {
    Edges edges;
    for (vidx_t i = 0; i < n; ++i)
      for (vidx_t j = 0; j < k; ++j) edges.emplace_back(i, (i + j) % n);
    const auto g = graph::BipartiteGraph::from_edges(n, n, edges);
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
    expect_vertex_priority_exact(g);
  }
}

TEST(VertexPriority, HubOnOneSideOnly) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Edges v1_hub, v2_hub;
    for (vidx_t v = 0; v < 11; ++v) v1_hub.emplace_back(3, v);
    for (vidx_t u = 0; u < 13; ++u) v2_hub.emplace_back(u, 7);
    expect_vertex_priority_exact(random_plus(13, 11, 0.25, seed, v1_hub));
    expect_vertex_priority_exact(random_plus(13, 11, 0.25, seed, v2_hub));
  }
}

TEST(VertexPriority, IsolatedVerticesBetweenHubs) {
  // V1 hubs 0 and 6 and V2 hubs 1 and 8; V1 2..4 and V2 3..5 are isolated.
  Edges edges;
  for (const vidx_t u : {0, 6})
    for (const vidx_t v : {0, 1, 2, 6, 7, 8, 9}) edges.emplace_back(u, v);
  for (const vidx_t v : {1, 8})
    for (const vidx_t u : {0, 1, 5, 6, 7}) edges.emplace_back(u, v);
  const auto g = graph::BipartiteGraph::from_edges(8, 10, edges);
  ASSERT_TRUE(g.neighbors_of_v1(3).empty());
  ASSERT_TRUE(g.neighbors_of_v2(4).empty());
  expect_vertex_priority_exact(g);
}

TEST(VertexPriority, SeveralVerticesTiedAtTheMaximumDegree) {
  // K_{4,4} on V1 0..3 x V2 0..3 gives eight vertices of degree 4; the
  // sparse rest stays below it.
  for (std::uint64_t seed = 5; seed <= 8; ++seed) {
    Edges block;
    for (vidx_t u = 0; u < 4; ++u)
      for (vidx_t v = 0; v < 4; ++v) block.emplace_back(u, v);
    expect_vertex_priority_exact(random_plus(14, 12, 0.08, seed, block));
  }
}

TEST(VertexPriority, SideSwapDoesNotChangeTheCount) {
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    const auto g = random_graph(25, 18, 0.2, seed);
    EXPECT_EQ(vertex_priority(g), vertex_priority(g.swapped_sides()));
  }
}

/// Wedges x – y – z (x ≠ z) whose centre y and far end z both rank after x,
/// over the unified vertex set ranked by degree descending, id ascending.
count_t rank_ordered_wedges(const graph::BipartiteGraph& g) {
  const vidx_t n1 = g.n1();
  const vidx_t n = n1 + g.n2();
  const auto nbrs = [&](vidx_t x) {
    std::vector<vidx_t> out;
    if (x < n1) {
      for (const vidx_t v : g.neighbors_of_v1(x)) out.push_back(n1 + v);
    } else {
      for (const vidx_t u : g.neighbors_of_v2(x - n1)) out.push_back(u);
    }
    return out;
  };
  std::vector<vidx_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](vidx_t a, vidx_t b) {
    return nbrs(a).size() > nbrs(b).size();
  });
  std::vector<vidx_t> rank(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < n; ++r) rank[static_cast<std::size_t>(order[r])] = r;
  const auto after = [&](vidx_t a, vidx_t x) {
    return rank[static_cast<std::size_t>(a)] > rank[static_cast<std::size_t>(x)];
  };
  count_t wedges = 0;
  for (vidx_t x = 0; x < n; ++x)
    for (const vidx_t y : nbrs(x))
      for (const vidx_t z : nbrs(y))
        if (z != x && after(y, x) && after(z, x)) ++wedges;
  return wedges;
}

TEST(VertexPriority, WedgeCounterMatchesRankOrderedWedges) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::Counter& counter =
      obs::Registry::instance().counter("count.vertex_priority.wedges");
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    const auto g = random_graph(9 + static_cast<vidx_t>(seed % 3), 11, 0.35,
                                seed);
    const std::int64_t before = counter.value();
    (void)vertex_priority(g);
    EXPECT_EQ(counter.value() - before, rank_ordered_wedges(g))
        << "seed " << seed;
  }
}

TEST(Baselines, BatchBudgetEnforced) {
  const auto g = complete_bipartite(30, 30);  // 30·C(30,2) = 13,050 wedges
  EXPECT_THROW(batch_sort(g, 100), std::length_error);
  EXPECT_THROW(batch_hash(g, 100), std::length_error);
  EXPECT_EQ(batch_sort(g, 1 << 20), choose2(30) * choose2(30));
}

TEST(LocalCounts, PerVertexSumsToTwiceTotal) {
  const auto g = random_graph(18, 14, 0.35, 12);
  const count_t total = wedge_reference(g);
  count_t sum1 = 0;
  for (const count_t b : butterflies_per_v1(g)) sum1 += b;
  EXPECT_EQ(sum1, 2 * total);
  count_t sum2 = 0;
  for (const count_t b : butterflies_per_v2(g)) sum2 += b;
  EXPECT_EQ(sum2, 2 * total);
}

TEST(LocalCounts, PerEdgeSumsToFourTimesTotal) {
  // Each butterfly contains 4 edges.
  const auto g = random_graph(16, 16, 0.4, 13);
  const count_t total = wedge_reference(g);
  count_t sum = 0;
  for (const count_t s : support_per_edge(g)) sum += s;
  EXPECT_EQ(sum, 4 * total);
}

}  // namespace
}  // namespace bfc::count
