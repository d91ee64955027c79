// Tests for the dynamic (incremental) counter and the bounded-memory
// external-style counter — both must track the exact batch counters under
// arbitrary update sequences / workspace budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "count/baselines.hpp"
#include "count/bounded_memory.hpp"
#include "count/dynamic.hpp"
#include "count/local_counts.hpp"
#include "count/top_pairs.hpp"
#include "sparse/ops.hpp"
#include "test_helpers.hpp"

namespace bfc::count {
namespace {

using bfc::testing::complete_bipartite;
using bfc::testing::random_graph;

TEST(DynamicCounter, SingleButterflyLifecycle) {
  DynamicButterflyCounter c(2, 2);
  EXPECT_EQ(c.butterflies(), 0);
  EXPECT_EQ(c.insert(0, 0), 0);
  EXPECT_EQ(c.insert(0, 1), 0);
  EXPECT_EQ(c.insert(1, 0), 0);
  EXPECT_EQ(c.insert(1, 1), 1);  // the closing edge creates the butterfly
  EXPECT_EQ(c.butterflies(), 1);
  EXPECT_EQ(c.edge_count(), 4);
  EXPECT_EQ(c.remove(0, 0), 1);
  EXPECT_EQ(c.butterflies(), 0);
  EXPECT_EQ(c.edge_count(), 3);
}

TEST(DynamicCounter, DuplicateAndMissingEdgesAreNoops) {
  DynamicButterflyCounter c(3, 3);
  EXPECT_EQ(c.insert(0, 0), 0);
  EXPECT_EQ(c.insert(0, 0), 0);  // duplicate
  EXPECT_EQ(c.edge_count(), 1);
  EXPECT_EQ(c.remove(1, 1), 0);  // absent
  EXPECT_EQ(c.edge_count(), 1);
  EXPECT_THROW(c.insert(3, 0), std::invalid_argument);
  EXPECT_THROW(c.remove(0, 3), std::invalid_argument);
}

TEST(DynamicCounter, InsertionOrderIrrelevant) {
  // Build K_{3,3} in two different orders; counts must agree at the end.
  const std::vector<std::pair<vidx_t, vidx_t>> edges = {
      {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1},
      {1, 2}, {2, 0}, {2, 1}, {2, 2}};
  DynamicButterflyCounter forward(3, 3);
  for (const auto& [u, v] : edges) forward.insert(u, v);
  DynamicButterflyCounter backward(3, 3);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it)
    backward.insert(it->first, it->second);
  EXPECT_EQ(forward.butterflies(), choose2(3) * choose2(3));
  EXPECT_EQ(backward.butterflies(), forward.butterflies());
}

class DynamicRandomized : public ::testing::TestWithParam<std::uint64_t> {};

/// The maintained tip vectors equal a recount of the materialised graph,
/// and each sums to 2·butterflies() (a butterfly has two vertices per side).
void expect_tips_match_recount(const DynamicButterflyCounter& c, int step) {
  const graph::BipartiteGraph g = c.to_graph();
  ASSERT_EQ(c.tips_v1(), butterflies_per_v1(g)) << "step " << step;
  ASSERT_EQ(c.tips_v2(), butterflies_per_v2(g)) << "step " << step;
  const auto sum = [](const std::vector<count_t>& tips) {
    return std::accumulate(tips.begin(), tips.end(), count_t{0});
  };
  ASSERT_EQ(sum(c.tips_v1()), 2 * c.butterflies()) << "step " << step;
  ASSERT_EQ(sum(c.tips_v2()), 2 * c.butterflies()) << "step " << step;
}

TEST_P(DynamicRandomized, TracksExactCounterThroughMixedUpdates) {
  const auto seed = GetParam();
  Rng rng(seed);
  const vidx_t n1 = 10, n2 = 9;
  DynamicButterflyCounter c(n1, n2);
  std::vector<std::pair<vidx_t, vidx_t>> present;

  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = present.empty() ? 0 : rng.bounded(10);
    if (op < 6) {
      const auto u = static_cast<vidx_t>(rng.bounded(n1));
      const auto v = static_cast<vidx_t>(rng.bounded(n2));
      if (!c.has_edge(u, v)) present.emplace_back(u, v);
      c.insert(u, v);
    } else if (op < 8) {
      const auto k = static_cast<std::size_t>(rng.bounded(present.size()));
      c.remove(present[k].first, present[k].second);
      present.erase(present.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op == 8) {
      // Re-inserting a present edge changes nothing.
      const auto& [u, v] = present[rng.bounded(present.size())];
      ASSERT_EQ(c.insert(u, v), 0);
    } else {
      // Removing an absent edge changes nothing.
      const auto u = static_cast<vidx_t>(rng.bounded(n1));
      const auto v = static_cast<vidx_t>(rng.bounded(n2));
      if (!c.has_edge(u, v)) ASSERT_EQ(c.remove(u, v), 0);
    }
    ASSERT_NO_FATAL_FAILURE(expect_tips_match_recount(c, step));
    // Every 25 steps, verify the count against a from-scratch recount.
    if (step % 25 == 24) {
      const auto g = graph::BipartiteGraph::from_edges(n1, n2, present);
      ASSERT_EQ(c.butterflies(), wedge_reference(g)) << "step " << step;
      ASSERT_EQ(c.edge_count(), g.edge_count());
    }
  }

  // Drain V1 vertex 0 and V2 vertex 0 down to degree 0: their tips read 0
  // and every other tip follows.
  int step = 300;
  const std::vector<vidx_t> n_u(c.neighbors_v1(0).begin(),
                                c.neighbors_v1(0).end());
  for (const vidx_t v : n_u) {
    c.remove(0, v);
    ASSERT_NO_FATAL_FAILURE(expect_tips_match_recount(c, step++));
  }
  const std::vector<vidx_t> n_v(c.neighbors_v2(0).begin(),
                                c.neighbors_v2(0).end());
  for (const vidx_t u : n_v) {
    c.remove(u, 0);
    ASSERT_NO_FATAL_FAILURE(expect_tips_match_recount(c, step++));
  }
  EXPECT_EQ(c.tips_v1()[0], 0);
  EXPECT_EQ(c.tips_v2()[0], 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicRandomized,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ---- the top-pair buffer ---------------------------------------------------

constexpr std::size_t kCapacity = TopPairBuffer::kCapacity;

/// The buffer's contract on the counter's graph: every buffered count
/// equals |N(a) ∩ N(b)|, no unbuffered connected pair ranks above the floor
/// key (checked over every pair), and every certified list equals
/// top_wedge_pairs_v1 for its k ≤ K′. Returns how many k certify.
std::size_t expect_top_pairs_hold(const DynamicButterflyCounter& c,
                                  int step) {
  const graph::BipartiteGraph g = c.to_graph();
  const TopPairBuffer top = c.top_pairs();
  EXPECT_LE(top.pairs.size(), kCapacity) << "step " << step;
  const auto wedges = [&](vidx_t a, vidx_t b) {
    return static_cast<count_t>(
        sparse::intersection_size(g.neighbors_of_v1(a), g.neighbors_of_v1(b)));
  };
  for (const VertexPair& p : top.pairs)
    EXPECT_EQ(p.wedges, wedges(p.a, p.b))
        << "step " << step << ": buffered (" << p.a << ", " << p.b << ")";
  for (vidx_t a = 0; a < g.n1(); ++a) {
    for (vidx_t b = a + 1; b < g.n1(); ++b) {
      const VertexPair p{a, b, wedges(a, b)};
      if (p.wedges == 0 || std::ranges::binary_search(top.pairs, p, pair_order))
        continue;
      EXPECT_FALSE(pair_order(p, top.floor))
          << "step " << step << ": unbuffered (" << a << ", " << b
          << ") with " << p.wedges << " wedges ranks above the floor ("
          << top.floor.a << ", " << top.floor.b << ": " << top.floor.wedges
          << ")";
    }
  }
  const std::vector<VertexPair> best = top_wedge_pairs_v1(g, kCapacity);
  std::size_t certified = 0;
  for (std::size_t k = 0; k <= kCapacity; ++k) {
    const auto list = top.certified(k);
    if (!list) continue;
    ++certified;
    EXPECT_TRUE(std::ranges::equal(
        *list, std::span(best).first(std::min(k, best.size()))))
        << "step " << step << ": certified top " << k;
  }
  return certified;
}

class DynamicTopPairs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicTopPairs, BufferHoldsThroughMixedUpdates) {
  Rng rng(GetParam());
  // 276 V1 pairs, most of them connected: far more than K′.
  const vidx_t n1 = 24, n2 = 10;
  DynamicButterflyCounter c(n1, n2);
  std::size_t uncertified = 0;
  for (int step = 0; step < 400; ++step) {
    const auto u = static_cast<vidx_t>(rng.bounded(n1));
    const auto v = static_cast<vidx_t>(rng.bounded(n2));
    // Grow to about half density, then churn around it.
    if (rng.bernoulli(step < 120 ? 0.9 : 0.5))
      c.insert(u, v);
    else
      c.remove(u, v);
    const std::size_t certified = expect_top_pairs_hold(c, step);
    if (certified <= kCapacity) ++uncertified;
    if (step % 50 == 49) {
      // A rebuild certifies every k ≤ K′, ties at the floor included.
      c.rebuild_top_pairs(c.to_graph());
      ASSERT_EQ(expect_top_pairs_hold(c, step), kCapacity + 1)
          << "step " << step;
    }
  }
  // The walk took the buffer through states that certify only some k.
  EXPECT_GT(uncertified, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicTopPairs,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(DynamicTopPairs, KeyFloorCertifiesTiedPairs) {
  // Every V1 vertex on the one V2 vertex: each of the 190 pairs has exactly
  // one wedge, the shape a bare count floor of 1 can never certify.
  const vidx_t n1 = 20;
  DynamicButterflyCounter c(n1, 1);
  for (vidx_t u = 0; u < n1; ++u) {
    c.insert(u, 0);
    ASSERT_NO_FATAL_FAILURE(expect_top_pairs_hold(c, u));
  }
  const TopPairBuffer top = c.top_pairs();
  ASSERT_EQ(top.pairs.size(), kCapacity);
  EXPECT_EQ(top.pairs.back().wedges, 1);
  EXPECT_EQ(top.floor.wedges, 1);  // tied with the last buffered pair
  ASSERT_TRUE(top.certified(kCapacity));
  EXPECT_EQ(c.top_pairs(), top);
  c.rebuild_top_pairs(c.to_graph());
  EXPECT_TRUE(c.top_pairs().certified(kCapacity));

  // Draining vertex 0 takes its 19 buffered pairs to 0 wedges: they leave,
  // and the buffer certifies only as deep as it still reaches.
  c.remove(0, 0);
  EXPECT_EQ(expect_top_pairs_hold(c, n1), kCapacity - (n1 - 1) + 1);
  EXPECT_FALSE(c.top_pairs().certified(kCapacity));
  c.rebuild_top_pairs(c.to_graph());
  EXPECT_EQ(expect_top_pairs_hold(c, n1), kCapacity + 1);

  // Down to the empty graph, then a rebuild certifies the empty list.
  for (vidx_t u = 1; u < n1; ++u) {
    c.remove(u, 0);
    ASSERT_NO_FATAL_FAILURE(expect_top_pairs_hold(c, n1 + u));
  }
  EXPECT_TRUE(c.top_pairs().pairs.empty());
  c.rebuild_top_pairs(c.to_graph());
  EXPECT_EQ(expect_top_pairs_hold(c, 2 * n1), kCapacity + 1);
}

TEST(DynamicTopPairs, EmptyGraphCertifiesTheEmptyList) {
  for (const vidx_t n : {0, 1, 5}) {
    const DynamicButterflyCounter c(n, n);
    const TopPairBuffer top = c.top_pairs();
    EXPECT_EQ(top, TopPairBuffer::of(c.to_graph()));
    for (std::size_t k = 0; k <= kCapacity; ++k) {
      ASSERT_TRUE(top.certified(k)) << "k " << k;
      EXPECT_TRUE(top.certified(k)->empty());
    }
    EXPECT_FALSE(top.certified(kCapacity + 1));  // above K′: a pass
  }
  // A default buffer knows nothing about any graph: it certifies no k > 0.
  EXPECT_FALSE(TopPairBuffer{}.certified(1));
}

/// to_graph() concatenates the V2 adjacency into the CSC instead of
/// transposing the CSR; both orientations must equal the transpose-built
/// graph's, and so must swapped_sides(). operator== compares only the CSR,
/// so csc() is compared explicitly.
void expect_matches_transpose_built(const DynamicButterflyCounter& c) {
  const graph::BipartiteGraph g = c.to_graph();
  const graph::BipartiteGraph ref(g.csr());
  EXPECT_EQ(g.csr(), ref.csr());
  EXPECT_EQ(g.csc(), ref.csc());
  const graph::BipartiteGraph swapped = g.swapped_sides();
  const graph::BipartiteGraph swapped_ref(g.csr().transpose());
  EXPECT_EQ(swapped.csr(), swapped_ref.csr());
  EXPECT_EQ(swapped.csc(), swapped_ref.csc());
}

TEST(DynamicToGraph, EmptyAndIsolatedVerticesMatchTransposeBuilt) {
  expect_matches_transpose_built(DynamicButterflyCounter(0, 0));
  expect_matches_transpose_built(DynamicButterflyCounter(4, 7));
  DynamicButterflyCounter c(6, 5);
  c.insert(2, 4);
  c.insert(5, 4);  // every other vertex of both sides stays isolated
  expect_matches_transpose_built(c);
  c.remove(2, 4);
  c.remove(5, 4);
  expect_matches_transpose_built(c);
  EXPECT_EQ(c.to_graph().edge_count(), 0);
}

class DynamicToGraphRandomized
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicToGraphRandomized, BothOrientationsMatchTransposeBuilt) {
  Rng rng(GetParam());
  // More vertices than updates reach, so isolated vertices stay on both
  // sides; inserts and removes both land on present and absent edges.
  const vidx_t n1 = 23, n2 = 17;
  DynamicButterflyCounter c(n1, n2);
  std::vector<std::pair<vidx_t, vidx_t>> present;
  for (int step = 0; step < 240; ++step) {
    const auto u = static_cast<vidx_t>(rng.bounded(n1 - 3));
    const auto v = static_cast<vidx_t>(rng.bounded(n2 - 2));
    if (rng.bernoulli(0.65)) {
      c.insert(u, v);
    } else {
      c.remove(u, v);
    }
    if (step % 30 == 29) {
      present.clear();
      for (vidx_t x = 0; x < n1; ++x)
        for (const vidx_t y : c.neighbors_v1(x)) present.emplace_back(x, y);
      ASSERT_EQ(c.to_graph().csc(),
                graph::BipartiteGraph::from_edges(n1, n2, present).csc())
          << "step " << step;
      expect_matches_transpose_built(c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicToGraphRandomized,
                         ::testing::Values(11u, 12u, 13u, 14u));

/// One publish as SnapshotStore does it: the graph patched from `last` (the
/// graph of the last clear_dirty()) must equal the full to_graph() and the
/// transpose-built graph in both orientations. Returns the patched graph,
/// the next publish's `last`.
graph::BipartiteGraph publish(DynamicButterflyCounter& c,
                              const graph::BipartiteGraph& last) {
  graph::BipartiteGraph patched = c.to_graph(last);
  const graph::BipartiteGraph full = c.to_graph();
  EXPECT_EQ(patched.csr(), full.csr());
  EXPECT_EQ(patched.csc(), full.csc());
  const graph::BipartiteGraph ref(patched.csr());
  EXPECT_EQ(patched.csc(), ref.csc());
  expect_matches_transpose_built(c);
  c.clear_dirty();
  EXPECT_EQ(c.dirty_rows(), 0);
  return patched;
}

TEST(DynamicToGraphPatched, EmptyBatchAndIgnoredUpdatesChangeNoRow) {
  DynamicButterflyCounter c(5, 6);
  graph::BipartiteGraph last = c.to_graph();
  for (const auto& [u, v] : {std::pair{0, 1}, {1, 1}, {1, 2}, {4, 5}})
    c.insert(u, v);
  last = publish(c, last);

  // An empty batch: nothing is dirty and the patch is a copy of `last`.
  EXPECT_EQ(c.dirty_rows(), 0);
  graph::BipartiteGraph next = publish(c, last);
  EXPECT_EQ(next.csr(), last.csr());
  EXPECT_EQ(next.csc(), last.csc());

  // Ignored updates: an insert of a present edge and a remove of an absent
  // one change no row, so none is flagged.
  EXPECT_EQ(c.insert(1, 2), 0);
  EXPECT_EQ(c.remove(3, 3), 0);
  EXPECT_EQ(c.dirty_rows(), 0);
  next = publish(c, last);
  EXPECT_EQ(next.csr(), last.csr());
  EXPECT_EQ(next.csc(), last.csc());
}

TEST(DynamicToGraphPatched, BulkLoadDirtiesEveryRow) {
  const graph::BipartiteGraph g = complete_bipartite(6, 4);
  DynamicButterflyCounter c(6, 4);
  const graph::BipartiteGraph last = c.to_graph();
  for (const auto& [u, v] : sparse::edges(g.csr())) c.insert(u, v);
  EXPECT_EQ(c.dirty_rows(), 6 + 4);
  const graph::BipartiteGraph loaded = publish(c, last);
  EXPECT_EQ(loaded.csr(), g.csr());
  EXPECT_EQ(loaded.csc(), g.csc());
}

TEST(DynamicToGraphPatched, FirstAndLastRowsAndIsolatedVertices) {
  // Rows 1..n-2 of both sides stay isolated except for V1 row 3 and V2 row
  // 2, so clean runs of empty rows sit between the dirty ones.
  const vidx_t n1 = 9, n2 = 7;
  DynamicButterflyCounter c(n1, n2);
  graph::BipartiteGraph last = c.to_graph();
  c.insert(0, 0);
  c.insert(n1 - 1, n2 - 1);
  c.insert(0, n2 - 1);
  c.insert(n1 - 1, 0);
  c.insert(3, 2);
  EXPECT_EQ(c.dirty_rows(), 3 + 3);
  last = publish(c, last);
  c.insert(0, 2);  // the first V1 row again; V1 row n1 - 1 stays clean
  EXPECT_EQ(c.dirty_rows(), 2);
  last = publish(c, last);
  c.remove(n1 - 1, n2 - 1);  // the last row of each side
  last = publish(c, last);
  c.remove(0, 0);  // the first row of each side
  c.insert(n1 - 1, n2 - 1);
  last = publish(c, last);
  EXPECT_EQ(last.edge_count(), 5);
}

TEST(DynamicToGraphPatched, RowEmptiedAndRefilled) {
  DynamicButterflyCounter c(4, 5);
  graph::BipartiteGraph last = c.to_graph();
  for (vidx_t u = 0; u < 4; ++u)
    for (vidx_t v = 0; v < 5; ++v)
      if ((u + v) % 3 != 0) c.insert(u, v);
  last = publish(c, last);

  // V1 row 2 emptied in one batch and refilled in the next.
  const std::vector<vidx_t> row(c.neighbors_v1(2).begin(),
                                c.neighbors_v1(2).end());
  for (const vidx_t v : row) c.remove(2, v);
  EXPECT_TRUE(c.neighbors_v1(2).empty());
  last = publish(c, last);
  for (const vidx_t v : row) c.insert(2, v);
  last = publish(c, last);

  // Emptied and refilled within one batch, with one more edge: the row is
  // dirty, and its new content must land.
  for (const vidx_t v : row) c.remove(2, v);
  for (const vidx_t v : row) c.insert(2, v);
  c.insert(2, 0);
  last = publish(c, last);
  EXPECT_TRUE(last.has_edge(2, 0));
}

TEST(DynamicToGraphPatched, EdgeInsertedAndRemovedInOneBatch) {
  DynamicButterflyCounter c(3, 3);
  graph::BipartiteGraph last = c.to_graph();
  c.insert(0, 0);
  c.insert(1, 1);
  last = publish(c, last);
  c.insert(2, 0);
  c.remove(2, 0);  // rows 2 and 0 are dirty, yet hold what `last` holds
  EXPECT_EQ(c.dirty_rows(), 2);
  const graph::BipartiteGraph next = publish(c, last);
  EXPECT_EQ(next.csr(), last.csr());
  EXPECT_EQ(next.csc(), last.csc());
}

TEST(DynamicToGraphPatched, StaleLastThrowsInEveryBuild) {
  DynamicButterflyCounter c(4, 4);
  c.insert(0, 0);
  c.insert(1, 1);
  const graph::BipartiteGraph last = c.to_graph();
  c.clear_dirty();
  c.insert(0, 1);  // dirties V1 row 0 and V2 row 1

  // Another shape.
  EXPECT_THROW((void)c.to_graph(DynamicButterflyCounter(5, 4).to_graph()),
               std::invalid_argument);
  EXPECT_THROW((void)c.to_graph(DynamicButterflyCounter(4, 3).to_graph()),
               std::invalid_argument);
  // An extra edge (3, 3) in rows the batch left clean.
  const graph::BipartiteGraph extra =
      graph::BipartiteGraph::from_edges(4, 4, {{0, 0}, {1, 1}, {3, 3}});
  EXPECT_THROW((void)c.to_graph(extra), std::invalid_argument);
  // The right `last` still patches.
  EXPECT_EQ(c.to_graph(last).csr(), c.to_graph().csr());
}

class DynamicToGraphPatchedRandomized
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicToGraphPatchedRandomized, EveryPublishEqualsFullAndTranspose) {
  Rng rng(GetParam());
  // Batches of 0–12 updates on a graph whose last rows of both sides stay
  // isolated; some updates repeat an edge of the same batch, so ignored
  // updates and insert-then-remove pairs both occur.
  const vidx_t n1 = 19, n2 = 14;
  DynamicButterflyCounter c(n1, n2);
  graph::BipartiteGraph last = c.to_graph();
  for (int batch = 0; batch < 60; ++batch) {
    const auto size = static_cast<int>(rng.bounded(13));
    std::vector<std::pair<vidx_t, vidx_t>> touched;
    std::set<vidx_t> v1, v2;
    for (int i = 0; i < size; ++i) {
      std::pair<vidx_t, vidx_t> e{static_cast<vidx_t>(rng.bounded(n1 - 2)),
                                  static_cast<vidx_t>(rng.bounded(n2 - 1))};
      if (!touched.empty() && rng.bernoulli(0.2))
        e = touched[rng.bounded(touched.size())];
      touched.push_back(e);
      v1.insert(e.first);
      v2.insert(e.second);
      if (rng.bernoulli(0.6)) {
        c.insert(e.first, e.second);
      } else {
        c.remove(e.first, e.second);
      }
    }
    ASSERT_LE(c.dirty_rows(), static_cast<offset_t>(v1.size() + v2.size()))
        << "batch " << batch;
    last = publish(c, last);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "batch " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicToGraphPatchedRandomized,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));

TEST(BoundedMemory, MatchesExactAcrossBudgets) {
  const auto g = random_graph(25, 20, 0.3, 7);
  const count_t exact = wedge_reference(g);
  // From barely-2-wedges up to everything-in-one-batch.
  for (const std::int64_t budget : {2, 3, 7, 64, 1 << 20}) {
    const BoundedMemoryStats s = count_bounded_memory(g, budget);
    EXPECT_EQ(s.butterflies, exact) << "budget " << budget;
    EXPECT_LE(s.peak_batch_entries, budget);
  }
  EXPECT_THROW(count_bounded_memory(g, 1), std::invalid_argument);
}

TEST(BoundedMemory, StatsAreConsistent) {
  const auto g = complete_bipartite(8, 8);  // 8·C(8,2) = 224 wedges per side
  const BoundedMemoryStats s = count_bounded_memory(g, 50);
  EXPECT_EQ(s.butterflies, choose2(8) * choose2(8));
  EXPECT_EQ(s.total_wedges, 224);
  EXPECT_EQ(s.batches, (224 + 49) / 50);
  EXPECT_LE(s.peak_batch_entries, 50);
}

TEST(BoundedMemory, TinyBudgetOnLargerGraph) {
  const auto g = random_graph(40, 40, 0.2, 12);
  EXPECT_EQ(count_bounded_memory(g, 16).butterflies, wedge_reference(g));
}

TEST(BoundedMemory, EmptyGraph) {
  const BoundedMemoryStats s =
      count_bounded_memory(graph::BipartiteGraph::from_edges(4, 4, {}), 8);
  EXPECT_EQ(s.butterflies, 0);
  EXPECT_EQ(s.batches, 0);
  EXPECT_EQ(s.total_wedges, 0);
}

}  // namespace
}  // namespace bfc::count
