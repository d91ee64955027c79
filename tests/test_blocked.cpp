// Tests for the FLAME blocked engine (la/blocked.hpp): the panel algorithms
// must agree with the dense oracle for every invariant, every panel width
// (including degenerate widths, widths on both sides of the 64-bit mask
// word boundaries, and widths above the line count), and every graph shape.
#include <gtest/gtest.h>

#include "dense/spec.hpp"
#include "la/blocked.hpp"
#include "la/count.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace bfc::la {
namespace {

using bfc::testing::complete_bipartite;
using bfc::testing::random_graph;

TEST(Blocked, RejectsBadBlockSize) {
  const auto g = complete_bipartite(3, 3);
  CountOptions o;
  o.engine = Engine::kBlocked;
  o.block_size = 0;
  EXPECT_THROW(count_butterflies(g, Invariant::kInv1, o),
               std::invalid_argument);
}

TEST(Blocked, ParallelMatchesSequential) {
  const auto g = random_graph(40, 35, 0.2, 21);
  for (const Invariant inv : all_invariants()) {
    CountOptions seq;
    seq.engine = Engine::kBlocked;
    seq.block_size = 8;
    CountOptions par = seq;
    par.threads = 4;
    EXPECT_EQ(count_butterflies(g, inv, par), count_butterflies(g, inv, seq))
        << name(inv);
  }
}

TEST(Blocked, BlockSizeOneMatchesUnblocked) {
  const auto g = random_graph(20, 15, 0.3, 5);
  for (const Invariant inv : all_invariants()) {
    CountOptions blocked;
    blocked.engine = Engine::kBlocked;
    blocked.block_size = 1;
    CountOptions unblocked;
    EXPECT_EQ(count_butterflies(g, inv, blocked),
              count_butterflies(g, inv, unblocked))
        << name(inv);
  }
}

TEST(Blocked, WidthAboveLineCountRunsOnePanel) {
  const auto g = random_graph(30, 30, 0.25, 6);
  CountOptions huge;
  huge.engine = Engine::kBlocked;
  huge.block_size = 1000;  // wider than the 30 lines: one panel holds all
  EXPECT_EQ(count_butterflies(g, Invariant::kInv2, huge),
            count_butterflies(g, Invariant::kInv2));
}

TEST(Blocked, SinglePanelCoversWholeMatrix) {
  // n smaller than the panel: only within-panel pairs contribute.
  const auto g = random_graph(10, 8, 0.5, 7);
  CountOptions o;
  o.engine = Engine::kBlocked;
  o.block_size = 64;
  const count_t oracle = dense::butterflies_spec(g.csr().to_dense());
  for (const Invariant inv : all_invariants())
    EXPECT_EQ(count_butterflies(g, inv, o), oracle) << name(inv);
}

struct BlockedCase {
  vidx_t m, n;
  double p;
  vidx_t block;
  std::uint64_t seed;
};

class BlockedAgreement : public ::testing::TestWithParam<BlockedCase> {};

TEST_P(BlockedAgreement, MatchesDenseOracleAllInvariants) {
  const auto& c = GetParam();
  const auto g = random_graph(c.m, c.n, c.p, c.seed);
  const count_t oracle = dense::butterflies_spec(g.csr().to_dense());
  CountOptions o;
  o.engine = Engine::kBlocked;
  o.block_size = c.block;
  for (const Invariant inv : all_invariants())
    EXPECT_EQ(count_butterflies(g, inv, o), oracle)
        << name(inv) << " block=" << c.block;
}

INSTANTIATE_TEST_SUITE_P(
    PanelWidths, BlockedAgreement,
    ::testing::Values(BlockedCase{17, 23, 0.4, 2, 1},
                      BlockedCase{17, 23, 0.4, 3, 1},
                      BlockedCase{17, 23, 0.4, 7, 1},
                      BlockedCase{17, 23, 0.4, 16, 1},
                      BlockedCase{17, 23, 0.4, 64, 1},
                      BlockedCase{23, 17, 0.4, 5, 2},
                      BlockedCase{12, 12, 0.9, 5, 3},
                      BlockedCase{33, 9, 0.2, 8, 4},
                      BlockedCase{9, 33, 0.2, 8, 5},
                      BlockedCase{1, 20, 0.8, 4, 6},
                      BlockedCase{64, 64, 0.1, 64, 7},
                      // panel boundary exactly dividing n and not
                      BlockedCase{24, 24, 0.3, 6, 8},
                      BlockedCase{25, 25, 0.3, 6, 9}));

// A tall and a wide graph: whichever side an invariant partitions, one of
// the two holds several panels plus a partial last one at every width here.
// The oracle takes the Gram matrix over the short side, which keeps the dense
// spec cheap.
struct WidePanelGraph {
  graph::BipartiteGraph g;
  count_t oracle;
};

std::vector<WidePanelGraph> wide_panel_graphs() {
  std::vector<WidePanelGraph> out;
  for (const bool tall : {true, false}) {
    auto g = tall ? random_graph(2600, 60, 0.05, 31)
                  : random_graph(60, 2600, 0.05, 32);
    const count_t oracle = dense::butterflies_spec(
        (tall ? g.csc() : g.csr()).to_dense());
    out.push_back({std::move(g), oracle});
  }
  return out;
}

TEST(Blocked, WidePanelsMatchDenseOracle) {
  const std::vector<WidePanelGraph> graphs = wide_panel_graphs();
  for (const vidx_t b : {63, 64, 65, 127, 128, 129, 256, 1000}) {
    for (const int threads : {1, 3}) {
      CountOptions o;
      o.engine = Engine::kBlocked;
      o.block_size = b;
      o.threads = threads;
      for (const WidePanelGraph& w : graphs)
        for (const Invariant inv : all_invariants())
          EXPECT_EQ(count_butterflies(w.g, inv, o), w.oracle)
              << name(inv) << " block=" << b << " threads=" << threads
              << " n1=" << w.g.n1() << " n2=" << w.g.n2();
    }
  }
}

TEST(Blocked, WedgesDoNotDependOnWidthAndPanelsTileTheLines) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::Registry& reg = obs::Registry::instance();
  const auto g = random_graph(2600, 60, 0.05, 31);
  for (const Invariant inv : {Invariant::kInv2, Invariant::kInv6}) {
    const vidx_t n = traits(inv).family == Family::kColumns ? g.n2() : g.n1();
    std::int64_t wedges_at_one = -1;
    for (const vidx_t b : {vidx_t{1}, vidx_t{32}, CountOptions{}.block_size}) {
      for (const int threads : {1, 3}) {
        reg.reset();
        CountOptions o;
        o.engine = Engine::kBlocked;
        o.block_size = b;
        o.threads = threads;
        (void)count_butterflies(g, inv, o);
        const std::int64_t wedges = reg.counter("la.wedges").value();
        if (wedges_at_one < 0) wedges_at_one = wedges;
        EXPECT_EQ(wedges, wedges_at_one)
            << name(inv) << " block=" << b << " threads=" << threads;
        EXPECT_EQ(reg.counter("la.panels").value(), (n + b - 1) / b)
            << name(inv) << " block=" << b << " threads=" << threads;
      }
    }
    EXPECT_GT(wedges_at_one, 0) << name(inv);
  }
  reg.reset();
}

TEST(Blocked, LargerGraphAgreesWithWedgeEngine) {
  const auto g = random_graph(200, 160, 0.03, 11);
  CountOptions blocked;
  blocked.engine = Engine::kBlocked;
  blocked.block_size = 32;
  CountOptions wedge;
  wedge.engine = Engine::kWedge;
  for (const Invariant inv :
       {Invariant::kInv1, Invariant::kInv4, Invariant::kInv6}) {
    EXPECT_EQ(count_butterflies(g, inv, blocked),
              count_butterflies(g, inv, wedge))
        << name(inv);
  }
}

TEST(Blocked, DirectCallEmptyAndTrivial) {
  EXPECT_EQ(count_blocked(sparse::CsrPattern::empty(0, 0),
                          Direction::kForward, PeerSide::kBefore, 8),
            0);
  EXPECT_EQ(count_blocked(sparse::CsrPattern::empty(5, 9),
                          Direction::kBackward, PeerSide::kAfter, 8),
            0);
}

}  // namespace
}  // namespace bfc::la
