// Immutable epoch-versioned graph snapshots — the unit of isolation in the
// serving layer. A single writer applies edge-update batches through the
// incremental counter and publishes one GraphSnapshot per batch; readers
// pin a snapshot with one shared_ptr copy and every query they issue is
// answered against exactly that epoch, no matter how many epochs the
// writer publishes meanwhile.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "count/top_pairs.hpp"
#include "graph/bipartite_graph.hpp"
#include "util/common.hpp"

namespace bfc::svc {

/// One edge mutation in a writer batch.
struct EdgeUpdate {
  vidx_t u = 0;
  vidx_t v = 0;
  bool insert = true;  // false = remove

  [[nodiscard]] static EdgeUpdate add(vidx_t u, vidx_t v) {
    return {u, v, true};
  }
  [[nodiscard]] static EdgeUpdate del(vidx_t u, vidx_t v) {
    return {u, v, false};
  }
};

/// Epoch 0 is the empty graph; epoch k is the state after the k-th batch.
/// A restore() starts a new epoch sequence that can re-reach an earlier
/// epoch with different content, so anything keyed by epochs also keys by
/// the lineage: the sequence the snapshot belongs to.
struct GraphSnapshot {
  std::uint64_t epoch = 0;
  std::uint64_t lineage = 0;    // 0 = a store's first sequence
  graph::BipartiteGraph graph;  // materialised CSR + CSC, immutable
  count_t butterflies = 0;      // exact count at this epoch (incremental)
  offset_t edges = 0;
  // Butterflies containing each V1 / V2 vertex (sized n1 / n2): the
  // writer's counter maintains them per update, and a snapshot decoded from
  // a shard host recounts them, so a tip query is a lookup.
  std::vector<count_t> tips_v1;
  std::vector<count_t> tips_v2;
  // The best K′ V1 pairs, sorted, and their floor: the writer's counter
  // maintains them and rebuilds them when they stop certifying every
  // k ≤ K′, and a decoded snapshot takes one pass, so a top-pairs query for
  // k ≤ K′ is a lookup.
  count::TopPairBuffer top_pairs;
};

/// A lineage number no other epoch sequence of this process has. A store
/// starts at lineage 0, so two fresh stores fed the same batches publish
/// snapshots with equal (epoch, lineage); restore() takes a new number.
[[nodiscard]] inline std::uint64_t next_lineage() noexcept {
  static std::atomic<std::uint64_t> next{1};
  // relaxed: only uniqueness matters, and fetch_add gives it in any order.
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Readers hold snapshots by shared_ptr; the graph memory lives until the
/// last pinning reader releases it.
using SnapshotPtr = std::shared_ptr<const GraphSnapshot>;

}  // namespace bfc::svc
