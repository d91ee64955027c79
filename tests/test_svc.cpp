// Tests for the serving subsystem (src/svc/): snapshot store epoch
// semantics, LRU result cache, executor, one-shard tip and top-pairs
// queries answered as snapshot lookups, edge support answered on the
// caller's thread at every shard count, the top-pair buffer's rebuild at
// publish, range checks against the pinned view, dynamic-counter
// parity with from-scratch recounts, and a TSan-friendly readers-vs-writer
// stress test.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chk/check.hpp"
#include "count/baselines.hpp"
#include "count/local_counts.hpp"
#include "count/top_pairs.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "sparse/ops.hpp"
#include "svc/fault.hpp"
#include "svc/service.hpp"
#include "svc/slo.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace bfc::svc {
namespace {

using bfc::testing::random_graph;

std::vector<EdgeUpdate> inserts_of(const graph::BipartiteGraph& g) {
  std::vector<EdgeUpdate> batch;
  for (const auto& [u, v] : sparse::edges(g.csr()))
    batch.push_back(EdgeUpdate::add(u, v));
  return batch;
}

std::int64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

TEST(SnapshotStore, GenesisAndPublish) {
  SnapshotStore store(4, 4);
  const SnapshotPtr genesis = store.current();
  EXPECT_EQ(genesis->epoch, 0u);
  EXPECT_EQ(genesis->edges, 0);
  EXPECT_EQ(genesis->butterflies, 0);

  const std::vector<EdgeUpdate> batch = {
      EdgeUpdate::add(0, 0), EdgeUpdate::add(0, 1), EdgeUpdate::add(1, 0),
      EdgeUpdate::add(1, 1), EdgeUpdate::add(1, 1),  // duplicate
      EdgeUpdate::del(3, 3),                         // absent
  };
  const PublishResult r = store.apply_batch(batch);
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(r.applied, 4);
  EXPECT_EQ(r.ignored, 2);
  EXPECT_EQ(r.created, 1);  // (1,1) closes the single butterfly
  EXPECT_EQ(r.destroyed, 0);

  const SnapshotPtr s1 = store.current();
  EXPECT_EQ(s1->epoch, 1u);
  EXPECT_EQ(s1->edges, 4);
  EXPECT_EQ(s1->butterflies, 1);
  EXPECT_TRUE(s1->graph.has_edge(1, 1));
  // Genesis is untouched.
  EXPECT_EQ(genesis->edges, 0);
}

TEST(SnapshotStore, PublishRebuildsAnUncertifiedTopPairBufferOnce) {
  constexpr std::size_t kCapacity = count::TopPairBuffer::kCapacity;
  const auto rebuilds = [] { return counter_value("svc.top_pair_rebuilds"); };
  const std::int64_t rebuilds0 = rebuilds();
  // Twenty V1 vertices on V2 vertex 0: 190 pairs, each with one wedge.
  SnapshotStore store(20, 2);
  std::vector<EdgeUpdate> star;
  for (vidx_t u = 0; u < 20; ++u) star.push_back(EdgeUpdate::add(u, 0));
  (void)store.apply_batch(star);
  EXPECT_TRUE(store.current()->top_pairs.certified(kCapacity));
  EXPECT_EQ(rebuilds(), rebuilds0);  // inserts alone keep it certified

  // Draining vertex 0 takes its 19 pairs out of the buffer, which then
  // certifies only k ≤ 45: the publish rebuilds it.
  (void)store.apply_batch({EdgeUpdate::del(0, 0)});
  const SnapshotPtr snap = store.current();
  const auto top = snap->top_pairs.certified(kCapacity);
  ASSERT_TRUE(top);
  EXPECT_TRUE(std::ranges::equal(
      *top, count::top_wedge_pairs_v1(snap->graph, kCapacity)));
  if (obs::kMetricsEnabled) EXPECT_EQ(rebuilds(), rebuilds0 + 1);

  // A key floor certifies every buffered pair right after the rebuild, the
  // tied ones included, so the next publishes do not rebuild again.
  (void)store.apply_batch({EdgeUpdate::add(0, 1)});
  (void)store.apply_batch(std::span<const EdgeUpdate>{});
  EXPECT_TRUE(store.current()->top_pairs.certified(kCapacity));
  if (obs::kMetricsEnabled) EXPECT_EQ(rebuilds(), rebuilds0 + 1);
}

TEST(SnapshotStore, PublishTakesOnlyTheChangedRowsFromTheCounter) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const auto rows = [] { return counter_value("svc.publish_rows"); };
  // 200 + 150 rows; the batches below change at most 9 of them, so a
  // publish that rebuilt every row would add 350.
  SnapshotStore store(200, 150);
  (void)store.apply_batch(inserts_of(random_graph(200, 150, 0.05, 3)));

  std::int64_t before = rows();
  (void)store.apply_batch(std::span<const EdgeUpdate>{});
  EXPECT_EQ(rows() - before, 0);

  // r = 4 distinct V1 endpoints {0, 7, 8, 199}, s = 5 distinct V2
  // endpoints {0, 3, 4, 9, 149}; the first two updates share u = 7.
  const SnapshotPtr head = store.current();
  const std::vector<EdgeUpdate> batch = {
      {7, 3, !head->graph.has_edge(7, 3)},
      {7, 4, !head->graph.has_edge(7, 4)},
      {0, 0, !head->graph.has_edge(0, 0)},
      {199, 149, !head->graph.has_edge(199, 149)},
      {8, 9, head->graph.has_edge(8, 9)},  // ignored: changes no row
  };
  before = rows();
  (void)store.apply_batch(batch);
  const std::int64_t added = rows() - before;
  EXPECT_LE(added, 4 + 5);
  EXPECT_EQ(added, 3 + 4);  // the ignored update's rows stay clean
}

TEST(SnapshotStore, PublishesAfterRestoreEqualAFreshStore) {
  const std::string file = testing::temp_path("bfc_store_patch.snap");
  SnapshotStore writer(30, 20);
  (void)writer.apply_batch(inserts_of(random_graph(30, 20, 0.2, 5)));
  writer.persist(file);
  const SnapshotPtr persisted = writer.current();

  Rng rng(9);
  std::vector<std::vector<EdgeUpdate>> batches(4);
  for (auto& batch : batches)
    for (int i = 0; i < 25; ++i)
      batch.push_back({static_cast<vidx_t>(rng.bounded(30)),
                       static_cast<vidx_t>(rng.bounded(20)),
                       rng.bernoulli(0.6)});

  // The same dimensions as the file, and two others; each store has a
  // history of its own before the restore replaces it.
  for (const auto& [n1, n2] : {std::pair{30, 20}, {50, 40}, {3, 2}}) {
    SnapshotStore restored(n1, n2);
    (void)restored.apply_batch(
        inserts_of(random_graph(n1, n2, 0.3, 11)));
    restored.restore(file);

    SnapshotStore fresh(30, 20);
    (void)fresh.apply_batch(inserts_of(persisted->graph));
    for (std::size_t b = 0; b < batches.size(); ++b) {
      (void)restored.apply_batch(batches[b]);
      (void)fresh.apply_batch(batches[b]);
      const SnapshotPtr got = restored.current();
      const SnapshotPtr want = fresh.current();
      ASSERT_EQ(got->graph.csr(), want->graph.csr())
          << n1 << "x" << n2 << " batch " << b;
      ASSERT_EQ(got->graph.csc(), want->graph.csc())
          << n1 << "x" << n2 << " batch " << b;
      EXPECT_EQ(got->butterflies, want->butterflies);
      EXPECT_EQ(got->tips_v1, want->tips_v1);
      EXPECT_EQ(got->tips_v2, want->tips_v2);
    }
  }
  std::remove(file.c_str());
}

TEST(SnapshotStore, EpochIsolation) {
  // A reader pinned to epoch k must see no edges from epoch k+1.
  ButterflyService service(6, 6, {.threads = 2});
  service.apply_updates(inserts_of(random_graph(6, 6, 0.4, 1)));
  const SnapshotPtr pinned = service.snapshot();
  const count_t pinned_count = pinned->butterflies;
  const offset_t pinned_edges = pinned->edges;
  ASSERT_FALSE(pinned->graph.has_edge(5, 5) && pinned->graph.has_edge(5, 4))
      << "test premise: (5,5)/(5,4) not both present at epoch 1";

  const std::vector<EdgeUpdate> next = {EdgeUpdate::add(5, 5),
                                        EdgeUpdate::add(5, 4)};
  service.apply_updates(next);
  ASSERT_EQ(service.snapshot()->epoch, 2u);

  // The pinned snapshot is bit-identical to its publish-time state.
  EXPECT_EQ(pinned->epoch, 1u);
  EXPECT_EQ(pinned->edges, pinned_edges);
  EXPECT_FALSE(pinned->graph.has_edge(5, 5) && pinned->graph.has_edge(5, 4));
  const QueryResult<count_t> answer = service.global_count(pinned).get();
  EXPECT_EQ(answer.value, pinned_count);
  EXPECT_EQ(answer.epoch, 1u);
  EXPECT_FALSE(answer.degraded());
  EXPECT_EQ(pinned->butterflies, count::wedge_reference(pinned->graph));
}

TEST(Service, QueriesMatchBatchCountersAtEveryEpoch) {
  // Dynamic-counter parity: after each published batch, the snapshot count
  // and the per-vertex / per-edge answers must equal a from-scratch
  // computation on the materialised graph.
  ButterflyService service(12, 10, {.threads = 3});
  Rng rng(7);
  std::vector<EdgeUpdate> batch;
  for (int epoch = 1; epoch <= 4; ++epoch) {
    batch.clear();
    for (int i = 0; i < 40; ++i)
      batch.push_back({static_cast<vidx_t>(rng.bounded(12)),
                       static_cast<vidx_t>(rng.bounded(10)),
                       rng.bernoulli(0.8)});
    service.apply_updates(batch);
    const SnapshotPtr snap = service.snapshot();
    ASSERT_EQ(snap->epoch, static_cast<std::uint64_t>(epoch));
    EXPECT_EQ(snap->butterflies, count::wedge_reference(snap->graph));
    EXPECT_EQ(service.global_count(snap).get().value, snap->butterflies);

    const std::vector<count_t> tips_v1 = count::butterflies_per_v1(snap->graph);
    const std::vector<count_t> tips_v2 = count::butterflies_per_v2(snap->graph);
    for (vidx_t u = 0; u < 12; ++u) {
      const QueryResult<count_t> r = service.vertex_tip_v1(u, snap).get();
      EXPECT_EQ(r.value, tips_v1[static_cast<std::size_t>(u)]);
      EXPECT_FALSE(r.degraded());  // no overload: every answer is exact
    }
    for (vidx_t v = 0; v < 10; ++v)
      EXPECT_EQ(service.vertex_tip_v2(v, snap).get().value,
                tips_v2[static_cast<std::size_t>(v)]);

    const std::vector<count_t> support = count::support_per_edge(snap->graph);
    const auto edge_list = sparse::edges(snap->graph.csr());
    for (std::size_t k = 0; k < edge_list.size(); ++k)
      EXPECT_EQ(
          service.edge_support(edge_list[k].first, edge_list[k].second, snap)
              .get()
              .value,
          support[k]);
  }
}

TEST(Service, AbsentEdgeHasZeroSupport) {
  ButterflyService service(3, 3, {.threads = 1});
  service.apply_updates({EdgeUpdate::add(0, 0), EdgeUpdate::add(0, 1),
                         EdgeUpdate::add(1, 0), EdgeUpdate::add(1, 1)});
  EXPECT_EQ(service.edge_support(2, 2).get().value, 0);
  EXPECT_EQ(service.edge_support(0, 0).get().value, 1);
}

TEST(Service, TopPairsMatchesDirectComputation) {
  ButterflyService service(10, 8, {.threads = 2});
  service.apply_updates(inserts_of(random_graph(10, 8, 0.4, 3)));
  const SnapshotPtr snap = service.snapshot();
  const TopPairsPtr got = service.top_pairs(4, snap).get().value;
  EXPECT_EQ(*got, count::top_wedge_pairs_v1(snap->graph, 4));
  // Above K′ the pass answers, and the repeat comes out of the LRU cache:
  // same shared vector.
  constexpr std::size_t kPass = count::TopPairBuffer::kCapacity + 1;
  const TopPairsPtr passed = service.top_pairs(kPass, snap).get().value;
  EXPECT_EQ(*passed, count::top_wedge_pairs_v1(snap->graph, kPass));
  EXPECT_EQ(service.top_pairs(kPass, snap).get().value.get(), passed.get());
}

TEST(Service, OutOfRangeQueriesThrow) {
  ButterflyService service(4, 5, {.threads = 1});
  EXPECT_THROW(service.vertex_tip_v1(4), std::invalid_argument);
  EXPECT_THROW(service.vertex_tip_v2(5), std::invalid_argument);
  EXPECT_THROW(service.edge_support(-1, 0), std::invalid_argument);
}

/// K_{3,3} on vertices {lo, lo+1, lo+2} of both sides.
std::vector<EdgeUpdate> k33_at(vidx_t lo) {
  std::vector<EdgeUpdate> batch;
  for (vidx_t u = lo; u < lo + 3; ++u)
    for (vidx_t v = lo; v < lo + 3; ++v) batch.push_back(EdgeUpdate::add(u, v));
  return batch;
}

// A one-shard restore may change the dimensions, so queries range-check
// against the view they answer from, never the latest store: a vertex
// outside the pinned graph throws, and one inside it answers even when the
// latest graph is smaller.
TEST(Service, PinnedQueriesRangeCheckAgainstThePinnedView) {
  const std::string big = testing::temp_path("bfc_pinned_range_16.snap");
  const std::string small = testing::temp_path("bfc_pinned_range_8.snap");
  {
    ButterflyService s16(16, 16, {.threads = 1});
    s16.apply_updates(k33_at(10));  // vertex 12 sits in six butterflies
    s16.persist(big);
    ButterflyService s8(8, 8, {.threads = 1});
    s8.apply_updates(k33_at(0));
    s8.persist(small);
  }

  ButterflyService service(8, 8, {.threads = 1});
  service.apply_updates(k33_at(0));
  const shard::ShardViewPtr pinned8 = service.view();
  service.restore(big);  // the latest graph is 16 x 16 now
  EXPECT_THROW(service.vertex_tip_v1(12, pinned8), std::invalid_argument);
  EXPECT_THROW(service.vertex_tip_v2(12, pinned8), std::invalid_argument);
  EXPECT_THROW(service.edge_support(12, 12, pinned8), std::invalid_argument);
  EXPECT_THROW(service.edge_support(0, 12, pinned8), std::invalid_argument);
  EXPECT_EQ(service.vertex_tip_v1(0, pinned8).get().value, 6);
  EXPECT_EQ(service.vertex_tip_v1(12).get().value, 6);
  EXPECT_EQ(service.edge_support(12, 12).get().value, 4);

  const shard::ShardViewPtr pinned16 = service.view();
  service.restore(small);  // and 8 x 8 again
  EXPECT_THROW(service.vertex_tip_v1(12), std::invalid_argument);
  EXPECT_EQ(service.vertex_tip_v1(12, pinned16).get().value, 6);
  EXPECT_EQ(service.vertex_tip_v2(12, pinned16).get().value, 6);
  EXPECT_EQ(service.edge_support(12, 12, pinned16).get().value, 4);
  std::remove(big.c_str());
  std::remove(small.c_str());
}

TEST(Service, CachePrunedToTheLatestViewOnPublish) {
  ButterflyService service(8, 8, {.threads = 2});
  service.apply_updates(inserts_of(random_graph(8, 8, 0.5, 5)));
  (void)service.edge_support(0, 0).get();
  (void)service.vertex_tip_v1(1).get();  // a lookup: caches nothing
  EXPECT_EQ(service.cache().size(), 1u);

  if (obs::kMetricsEnabled) {
    const std::int64_t hits0 = counter_value("svc.cache_hits");
    (void)service.edge_support(0, 0).get();  // repeat, same view
    EXPECT_EQ(counter_value("svc.cache_hits"), hits0 + 1);
  }

  // Publishing epoch 2 prunes the composed tier to the latest view, which
  // holds nothing yet, and resets the generation-scoped hit/miss stats.
  service.apply_updates({EdgeUpdate::add(7, 7)});
  EXPECT_EQ(service.cache().size(), 0u);
  EXPECT_EQ(service.cache().hits(), 0);
  EXPECT_EQ(service.cache().misses(), 0);

  if (obs::kMetricsEnabled) {
    const std::int64_t misses0 = counter_value("svc.cache_misses");
    (void)service.edge_support(0, 0).get();  // new view: must recompute
    EXPECT_EQ(counter_value("svc.cache_misses"), misses0 + 1);
  } else {
    (void)service.edge_support(0, 0).get();
  }

  // A read pinned at an earlier view caches under that view's signature
  // until the next publish, which keeps only the latest view's answers.
  const SnapshotPtr at2 = service.snapshot();
  service.apply_updates({EdgeUpdate::del(7, 7)});  // epoch 3
  (void)service.edge_support(0, 0, at2).get();
  (void)service.edge_support(0, 0).get();
  EXPECT_EQ(service.cache().size(), 2u);
  service.apply_updates({EdgeUpdate::add(7, 7)});  // epoch 4
  EXPECT_EQ(service.cache().size(), 0u);
}

// Edge support never reaches the pool: at one shard and at three, every
// read is answered before the call returns and records no queue wait, its
// answer equals support_per_edge at each epoch, and a repeat at the same
// view is a cache hit.
TEST(Service, EdgeSupportAnswersInlineAtEveryShardCount) {
  constexpr vidx_t kN1 = 12, kN2 = 10;
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ButterflyService service(kN1, kN2, {.threads = 2, .shards = shards});
    std::vector<EdgeUpdate> batch =
        inserts_of(random_graph(kN1, kN2, 0.4, 37));
    Rng rng(41);
    for (int round = 0; round < 4; ++round) {
      service.apply_updates(batch);
      const shard::ShardViewPtr view = service.view();
      const graph::BipartiteGraph g = service.snapshot()->graph;
      const std::vector<count_t> support = count::support_per_edge(g);
      const std::vector<std::pair<vidx_t, vidx_t>> edges =
          sparse::edges(g.csr());
      ASSERT_FALSE(edges.empty());
      obs::SpanLog::clear();
      obs::SpanLog::set_enabled(true);
      for (std::size_t e = 0; e < edges.size(); ++e) {
        std::future<QueryResult<count_t>> f =
            service.edge_support(edges[e].first, edges[e].second, view);
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        const QueryResult<count_t> r = f.get();
        EXPECT_EQ(r.value, support[e])
            << "(" << edges[e].first << ", " << edges[e].second << ")";
        EXPECT_EQ(r.fidelity, Fidelity::kExact);
        EXPECT_EQ(r.epoch, view->version);
      }
      obs::SpanLog::set_enabled(false);
      if constexpr (obs::kMetricsEnabled) {
        std::size_t reads = 0;
        for (const obs::SpanRecord& span : obs::SpanLog::snapshot()) {
          EXPECT_NE(span.name, "svc.queue");
          if (span.name == "svc.query.edge") {
            ++reads;
            EXPECT_EQ(span.tag("cache"), "miss");
          }
        }
        EXPECT_EQ(reads, edges.size());
        const std::int64_t hits0 = counter_value("svc.cache_hits");
        EXPECT_EQ(
            service.edge_support(edges[0].first, edges[0].second, view)
                .get()
                .value,
            support[0]);
        EXPECT_EQ(counter_value("svc.cache_hits"), hits0 + 1);
      }
      obs::SpanLog::clear();
      batch.clear();
      for (int i = 0; i < 8; ++i)
        batch.push_back({static_cast<vidx_t>(rng.bounded(kN1)),
                         static_cast<vidx_t>(rng.bounded(kN2)),
                         rng.bernoulli(0.6)});
    }
    EXPECT_EQ(service.queue_depth(), 0u);
  }
}

TEST(Service, ConcurrentOneShardTipQueriesAnswerWithoutQueueing) {
  ButterflyService service(32, 24, {.threads = 4});
  service.apply_updates(inserts_of(random_graph(32, 24, 0.3, 9)));
  const SnapshotPtr snap = service.snapshot();
  const std::vector<count_t> tips_v1 = count::butterflies_per_v1(snap->graph);
  const std::vector<count_t> tips_v2 = count::butterflies_per_v2(snap->graph);
  const std::int64_t lookups0 =
      counter_value("svc.cache_hits") + counter_value("svc.cache_misses");

  // Four readers ask for every vertex of both sides at once. Each answer is
  // a lookup in the pinned snapshot's maintained tips: its future is ready
  // when the call returns, and it never probes the cache on its way to a
  // queued pass.
  std::atomic<int> queued{0};
  std::atomic<int> wrong{0};
  const auto check = [&](std::future<QueryResult<count_t>> f, count_t want) {
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
      queued.fetch_add(1, std::memory_order_relaxed);
    const QueryResult<count_t> r = f.get();
    if (r.value != want || r.degraded() || r.epoch != snap->epoch)
      wrong.fetch_add(1, std::memory_order_relaxed);
  };
  {
    std::vector<std::jthread> readers;
    for (int r = 0; r < 4; ++r)
      readers.emplace_back([&] {
        for (vidx_t u = 0; u < 32; ++u)
          check(service.vertex_tip_v1(u, snap),
                tips_v1[static_cast<std::size_t>(u)]);
        for (vidx_t v = 0; v < 24; ++v)
          check(service.vertex_tip_v2(v, snap),
                tips_v2[static_cast<std::size_t>(v)]);
      });
  }
  EXPECT_EQ(queued.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(
      counter_value("svc.cache_hits") + counter_value("svc.cache_misses"),
      lookups0);
}

TEST(Service, OneShardTopPairsAnswerFromTheBufferWithoutAPass) {
  constexpr std::size_t kCapacity = count::TopPairBuffer::kCapacity;
  ButterflyService service(40, 30, {.threads = 2});
  service.apply_updates(inserts_of(random_graph(40, 30, 0.3, 13)));
  const SnapshotPtr snap = service.snapshot();
  const std::int64_t passes0 = counter_value("svc.top_pair_passes");
  const std::int64_t lookups0 =
      counter_value("svc.cache_hits") + counter_value("svc.cache_misses");
  // Every k ≤ K′ is a lookup in the pinned snapshot's buffer: ready when the
  // call returns, exact, and neither cached nor computed.
  for (std::size_t k = 0; k <= kCapacity; ++k) {
    std::future<QueryResult<TopPairsPtr>> f = service.top_pairs(k, snap);
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "k " << k;
    const QueryResult<TopPairsPtr> r = f.get();
    EXPECT_EQ(*r.value, count::top_wedge_pairs_v1(snap->graph, k)) << "k " << k;
    EXPECT_FALSE(r.degraded());
    EXPECT_EQ(r.epoch, snap->epoch);
  }
  EXPECT_EQ(counter_value("svc.top_pair_passes"), passes0);
  EXPECT_EQ(
      counter_value("svc.cache_hits") + counter_value("svc.cache_misses"),
      lookups0);
  EXPECT_EQ(service.cache().size(), 0u);
  // Above K′ the query takes one pass.
  EXPECT_EQ(*service.top_pairs(kCapacity + 1, snap).get().value,
            count::top_wedge_pairs_v1(snap->graph, kCapacity + 1));
  if (obs::kMetricsEnabled)
    EXPECT_EQ(counter_value("svc.top_pair_passes"), passes0 + 1);
}

TEST(Service, InlineAnswersObserveTheirLatency) {
  ServiceOptions opt{.threads = 1};
  // An objective no answer can meet: the SLO tracker counts every answer
  // it is fed as a violation.
  opt.slo_target_us.fill(1e-6);
  ButterflyService service(16, 12, opt);
  service.apply_updates(inserts_of(random_graph(16, 12, 0.4, 17)));
  // (observations, of them 0 ns, ns summed) over the five inline kinds.
  const auto observed = [] {
    std::array<std::int64_t, 3> totals{};
    for (const char* kind :
         {"global", "tip_v1", "tip_v2", "edge", "top_pairs"}) {
      const obs::Histogram& h = obs::Registry::instance().histogram(
          std::string("svc.latency_ns.") + kind);
      totals[0] += h.count();
      totals[1] += h.bucket_count(0);
      totals[2] += h.sum();
    }
    return totals;
  };
  const std::array<std::int64_t, 3> before = observed();
  const auto ready = [](const auto& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  for (vidx_t x = 0; x < 12; ++x) {
    EXPECT_TRUE(ready(service.global_count()));
    EXPECT_TRUE(ready(service.vertex_tip_v1(x)));
    EXPECT_TRUE(ready(service.vertex_tip_v2(x)));
    EXPECT_TRUE(ready(service.edge_support(x, x)));
    EXPECT_TRUE(ready(service.top_pairs(static_cast<std::size_t>(x))));
  }
  // The store-wide SLO tracker saw every answer.
  for (std::size_t k = 0; k < kQueryKinds; ++k) {
    const auto kind = static_cast<QueryKind>(k);
    EXPECT_EQ(service.slo().violations(kind), 12) << kind_name(kind);
  }
  if constexpr (obs::kMetricsEnabled) {
    // Every answer was computed on the caller's thread, timed in ns from
    // the query's entry rather than recorded as 0.
    const std::array<std::int64_t, 3> after = observed();
    EXPECT_EQ(after[0] - before[0], 5 * 12);
    EXPECT_EQ(after[1] - before[1], 0);
    EXPECT_GT(after[2] - before[2], 0);
  }
}

TEST(ResultCache, LruEvictionAndRecency) {
  ResultCache cache(3);
  const auto key = [](std::int64_t a) {
    return CacheKey{1, QueryKind::kEdgeSupport, a, 0};
  };
  cache.put(key(1), count_t{10});
  cache.put(key(2), count_t{20});
  cache.put(key(3), count_t{30});
  // Touch 1 so 2 becomes least-recently-used.
  EXPECT_EQ(std::get<count_t>(*cache.get(key(1))), 10);
  cache.put(key(4), count_t{40});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.get(key(2)).has_value());
  EXPECT_TRUE(cache.get(key(1)).has_value());
  EXPECT_TRUE(cache.get(key(3)).has_value());
  EXPECT_TRUE(cache.get(key(4)).has_value());

  cache.invalidate_all();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(key(1)).has_value());
}

TEST(Executor, RunsTasksAndPropagatesExceptions) {
  Executor pool(3);
  EXPECT_EQ(pool.thread_count(), 3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);

  auto boom = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(boom.get(), std::runtime_error);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(Service, StressReadersVsWriterPublishing) {
  // N reader threads issue mixed queries while the writer publishes epochs;
  // every answer must be internally consistent with the reader's pinned
  // snapshot. Runs clean under -DBFC_SANITIZE=thread (all query kernels on
  // this path are sequential — no OpenMP regions for TSan to misread).
  constexpr vidx_t kN1 = 20, kN2 = 16;
  ButterflyService service(kN1, kN2, {.threads = 4});
  service.apply_updates(inserts_of(random_graph(kN1, kN2, 0.3, 11)));

  std::atomic<bool> done{false};
  std::atomic<std::int64_t> queries{0};

  std::vector<std::jthread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&service, &done, &queries, r] {
      Rng rng(100 + static_cast<std::uint64_t>(r));
      while (!done.load(std::memory_order_relaxed)) {
        const SnapshotPtr snap = service.snapshot();
        const auto pick = rng.bounded(4);
        if (pick == 0) {
          ASSERT_EQ(service.global_count(snap).get().value, snap->butterflies);
        } else if (pick == 1) {
          const auto u = static_cast<vidx_t>(rng.bounded(kN1));
          ASSERT_GE(service.vertex_tip_v1(u, snap).get().value, 0);
        } else if (pick == 2) {
          const auto v = static_cast<vidx_t>(rng.bounded(kN2));
          ASSERT_GE(service.vertex_tip_v2(v, snap).get().value, 0);
        } else {
          const auto u = static_cast<vidx_t>(rng.bounded(kN1));
          const auto v = static_cast<vidx_t>(rng.bounded(kN2));
          ASSERT_GE(service.edge_support(u, v, snap).get().value, 0);
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(55);
  for (int epoch = 0; epoch < 12; ++epoch) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 30; ++i)
      batch.push_back({static_cast<vidx_t>(rng.bounded(kN1)),
                       static_cast<vidx_t>(rng.bounded(kN2)),
                       rng.bernoulli(0.7)});
    service.apply_updates(batch);
    // Pace the writer against reader progress so epochs genuinely overlap
    // with in-flight queries instead of all publishing before the readers
    // get scheduled.
    const std::int64_t target = queries.load(std::memory_order_relaxed) + 20;
    while (queries.load(std::memory_order_relaxed) < target)
      std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  readers.clear();  // join

  EXPECT_GT(queries.load(), 0);
  // Zero drift: the incrementally maintained count equals a from-scratch
  // recount of the final materialised snapshot.
  const SnapshotPtr fin = service.snapshot();
  EXPECT_EQ(fin->epoch, 13u);
  EXPECT_EQ(fin->butterflies, count::wedge_reference(fin->graph));
}

// -------------------------------------------------------------------- SLO

TEST(Slo, BurnRateIsWindowedErrorBudgetArithmetic) {
  std::array<SloPolicy, kQueryKinds> policies{};
  policies[static_cast<std::size_t>(QueryKind::kGlobalCount)] = {
      /*target_us=*/1000.0, /*objective=*/0.9};
  SloTracker tracker(policies, /*window=*/10);
  EXPECT_TRUE(tracker.enabled());
  EXPECT_DOUBLE_EQ(tracker.burn_rate(QueryKind::kGlobalCount), 0.0);

  for (int i = 0; i < 10; ++i)
    tracker.observe(QueryKind::kGlobalCount, 10.0);  // all within target
  EXPECT_DOUBLE_EQ(tracker.burn_rate(QueryKind::kGlobalCount), 0.0);

  // Two violations in a 10-wide window at a 90% objective: bad fraction
  // 0.2 against an allowance of 0.1 — burn rate exactly 2, spending the
  // budget faster than the objective allows.
  tracker.observe(QueryKind::kGlobalCount, 5000.0);
  tracker.observe(QueryKind::kGlobalCount, 5000.0);
  EXPECT_NEAR(tracker.burn_rate(QueryKind::kGlobalCount), 2.0, 1e-12);
  EXPECT_GT(tracker.burn_rate(QueryKind::kGlobalCount), 1.0);
  EXPECT_EQ(tracker.violations(QueryKind::kGlobalCount), 2);

  // Untracked kinds ignore observations entirely.
  tracker.observe(QueryKind::kEdgeSupport, 1e9);
  EXPECT_DOUBLE_EQ(tracker.burn_rate(QueryKind::kEdgeSupport), 0.0);
  EXPECT_EQ(tracker.violations(QueryKind::kEdgeSupport), 0);

  // The window forgets: a full window of good observations drains the burn.
  for (int i = 0; i < 10; ++i)
    tracker.observe(QueryKind::kGlobalCount, 1.0);
  EXPECT_DOUBLE_EQ(tracker.burn_rate(QueryKind::kGlobalCount), 0.0);
  EXPECT_EQ(tracker.violations(QueryKind::kGlobalCount), 2);  // cumulative
}

TEST(Slo, UntrackedPoliciesDisableTheTracker) {
  SloTracker tracker({}, /*window=*/8);
  EXPECT_FALSE(tracker.enabled());
  tracker.observe(QueryKind::kGlobalCount, 1e9);
  EXPECT_DOUBLE_EQ(tracker.burn_rate(QueryKind::kGlobalCount), 0.0);
  EXPECT_EQ(tracker.violations(QueryKind::kGlobalCount), 0);
}

// ------------------------------------------------------------- Span trees

TEST(Service, QuerySpanTreeLinksQueueAndKernel) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  const graph::BipartiteGraph g = random_graph(30, 30, 0.2, 23);
  ButterflyService service(30, 30, {.threads = 1});
  service.apply_updates(inserts_of(g));

  obs::SpanLog::clear();
  obs::SpanLog::set_enabled(true);
  // Above K′: the one top-pairs request that queues for a pass.
  (void)service.top_pairs(count::TopPairBuffer::kCapacity + 5, {}).get();
  obs::SpanLog::set_enabled(false);

  const std::vector<obs::SpanRecord> spans = obs::SpanLog::snapshot();
  const obs::SpanRecord* query = nullptr;
  const obs::SpanRecord* queue = nullptr;
  const obs::SpanRecord* kernel = nullptr;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "svc.query.top_pairs") query = &s;
    if (s.name == "svc.queue") queue = &s;
    if (s.name == "svc.kernel.top_pairs") kernel = &s;
  }
  ASSERT_NE(query, nullptr);
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(kernel, nullptr);
  // The query span and its queue wait sit on the reader's track, though a
  // pool worker closed both: the trace nests them there.
  EXPECT_EQ(query->tid, obs::thread_track());
  EXPECT_EQ(queue->tid, query->tid);
  EXPECT_NE(kernel->tid, query->tid);
  // One causal tree: both children parent to the query span, same trace.
  EXPECT_EQ(query->parent_id, 0u);
  EXPECT_EQ(queue->trace_id, query->trace_id);
  EXPECT_EQ(queue->parent_id, query->span_id);
  EXPECT_EQ(queue->tag("outcome"), "run");
  EXPECT_EQ(kernel->trace_id, query->trace_id);
  EXPECT_EQ(kernel->parent_id, query->span_id);
  EXPECT_EQ(kernel->tag("outcome"), "ok");
  EXPECT_EQ(kernel->tag("shard"), "0");
  EXPECT_EQ(query->tag("cache"), "miss");
  EXPECT_EQ(query->tag("outcome"), "exact");
  obs::SpanLog::clear();
}

TEST(Service, CancelledKernelStillClosesItsSpanTagged) {
  if constexpr (!obs::kMetricsEnabled || !chk::kCheckedEnabled) {
    GTEST_SKIP() << "needs BFC_METRICS=ON and BFC_CHECKED=ON (fault "
                    "injection drives the cancellation)";
  }
  const graph::BipartiteGraph g = random_graph(40, 40, 0.25, 29);
  ButterflyService service(40, 40, {.threads = 1});
  service.apply_updates(inserts_of(g));
  const std::int64_t cancelled_before = counter_value("svc.kernels_cancelled");
  constexpr std::size_t kPass = count::TopPairBuffer::kCapacity + 3;

  obs::SpanLog::clear();
  obs::SpanLog::set_enabled(true);
  {
    // The top-pairs pass sleeps 250 ms while the request's deadline expires
    // after 50 ms, so the kernel observes its cancel token mid-pass and
    // gives up.
    const fault::Scoped slow(fault::Point::kSlowKernel, 0, 1, /*ms=*/250);
    const Request req(service.snapshot(),
                      Deadline::after(std::chrono::milliseconds(50)));
    try {
      (void)service.top_pairs(kPass, req).get();
      ADD_FAILURE() << "a cancelled pass answered";
    } catch (const OverloadError& e) {
      EXPECT_EQ(e.reason(), OverloadError::Reason::kDeadline);
    }
    EXPECT_EQ(fault::fired_count(fault::Point::kSlowKernel), 1u);
  }
  obs::SpanLog::set_enabled(false);

  EXPECT_EQ(counter_value("svc.kernels_cancelled"), cancelled_before + 1);
  const std::vector<obs::SpanRecord> spans = obs::SpanLog::snapshot();
  const obs::SpanRecord* kernel = nullptr;
  const obs::SpanRecord* query = nullptr;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "svc.kernel.top_pairs") kernel = &s;
    if (s.name == "svc.query.top_pairs") query = &s;
  }
  // The cancelled kernel's span is closed and tagged, not dropped.
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->tag("cancelled"), "true");
  EXPECT_EQ(kernel->tag("outcome"), "cancelled");
  EXPECT_GT(kernel->dur_us, 0);
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(query->tag("cancelled"), "true");
  EXPECT_EQ(query->tag("outcome"), "shed");
  EXPECT_EQ(kernel->parent_id, query->span_id);
  obs::SpanLog::clear();

  // The fault is spent and the cancelled pass cached nothing: the next
  // query runs the pass and answers exact.
  const QueryResult<TopPairsPtr> next = service.top_pairs(kPass).get();
  EXPECT_FALSE(next.degraded());
  EXPECT_EQ(*next.value, count::top_wedge_pairs_v1(g, kPass));
}

}  // namespace
}  // namespace bfc::svc
