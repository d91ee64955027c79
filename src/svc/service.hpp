// ButterflyService — the serving facade. One writer thread (or one per
// shard) feeds edge batches in; any number of reader threads submit queries
// and get futures back.
//
// The store is a shard::ShardedSnapshotStore: the V1 side range-partitioned
// across ServiceOptions::shards independently-published shards. One shard
// is the degenerate partition, not a separate code path — every query kind
// has one implementation, and four layers cooperate per query:
//
//   - pinning       every query answers from one pinned ShardView (one
//                   snapshot per shard; a Request may carry its own, and a
//                   snapshot is the one-shard view over it). The answer's
//                   epoch is the view's version, Σ of its shard epochs —
//                   with one shard, that shard's epoch. A view the service
//                   pins carries its cross aggregate: the first pin of a
//                   new combination of shard snapshots composes it from the
//                   last composed one, by one delta per changed shard
//                   (shard/scatter_gather). A full pass runs only with no
//                   last aggregate (construction, restore(), swap_shard())
//                   or when a delta leaves fewer than K′ cross pairs
//                   certified; a publish does no cross work;
//   - routing       tip_v1 and edge_support route to the owning shard,
//                   global_count, tip_v2 and top_pairs scatter across all
//                   shards, and each adds the cross-shard correction from
//                   the view's aggregate (empty, and free, with one shard);
//   - caching       edge support and the top-pairs pass cache their answer
//                   by view signature in the last ResultCache tier; a
//                   publish prunes that tier to the latest view. With more
//                   than one shard, owner-shard support also caches in tier
//                   k under shard k's epoch, so a publish on shard j leaves
//                   it warm; with one shard the component is the answer and
//                   caches only as such. Lookups do not cache.
//
// Every query but top_pairs(k > K′) answers on the caller's thread. The
// writers maintain every shard's count and tip vectors
// (count::DynamicButterflyCounter), so global_count and the tips are Σ of
// the pinned shards' numbers plus the aggregate's term. The writers also
// keep each shard's best K′ = 64 pairs with a floor key that certifies them
// (count::TopPairBuffer), and the aggregate keeps the best K′ cross pairs
// the same way, so top_pairs(k) is a merge of lookups when every buffer
// certifies k: every snapshot and aggregate certifies each k ≤ K′. Edge
// support is one row intersection per shard (count::support_of_edge plus
// the cross term) behind the cache. Inline answers are timed from the
// query's entry like every other answer.
//
// Fault tolerance (the robustness layer on top) guards the one query that
// queues, a top-pairs pass above K′ (per shard, plus a full cross pass):
//
//   - admission control   the query pool's queue is bounded
//                         (ServiceOptions::max_queue) with a pluggable shed
//                         policy;
//   - deadlines           Request carries an optional Deadline; expired
//                         tasks are abandoned at dequeue, and an in-flight
//                         top-pairs or cross pass checks a CancelToken per
//                         row so it can give up mid-scan;
//   - explicit outcomes   a queued read that is refused, shed, expired or
//                         cancelled fails with OverloadError and its reason.
//                         Every answer resolves to QueryResult{value, epoch,
//                         fidelity}: kStale only when a shard the answer
//                         reads is dark (its RemoteShard's circuit is open)
//                         and it was served from the last pinned snapshot.
//
// Everything is wired into the obs registry: svc.queries, svc.cache_hits /
// svc.cache_misses, svc.queue_depth,
// svc.epochs_published, svc.shed / svc.rejected / svc.deadline_expired,
// svc.degraded / svc.stale_answers (answers with dark shards),
// svc.scatter_queries, svc.top_pair_rebuilds (writer-side buffer rebuilds)
// and svc.top_pair_passes (query-side passes), svc.cross_passes (full
// cross passes) and svc.cross_composes (pin-time compositions), one
// cumulative latency histogram per query kind in ns (svc.latency_ns.<kind>:
// every answer), and — with more than one shard — the per-shard family
// svc.shard.<k>.publishes / .degraded.
//
// Telemetry (obs/spans.hpp): when span collection is enabled, every query
// runs under one "svc.query.<kind>" span — rooted fresh, or parented into
// the Request's TraceContext — with child spans for the queue wait
// (svc.queue, recorded by the Executor), the top-pairs pass
// (svc.kernel.top_pairs), the cross pass (svc.scatter / svc.gather; with
// more than one shard); each shard publish is a root svc.publish span. Tags
// record the decisions: cache=hit|miss, outcome=exact|stale|shed, and the
// rejected/cancelled flags. SLO accounting (svc/slo.hpp) rides the same
// latency stream: ServiceOptions::slo_target_us arms per-kind objectives
// whose windowed error-budget burn the svc.slo.* instruments export.
#pragma once

#include <array>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"

#include "count/top_pairs.hpp"
#include "shard/scatter_gather.hpp"
#include "shard/sharded_store.hpp"
#include "svc/executor.hpp"
#include "svc/request.hpp"
#include "svc/result_cache.hpp"
#include "svc/slo.hpp"
#include "svc/snapshot_store.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace bfc::obs {
class Counter;
}  // namespace bfc::obs

namespace bfc::svc {

struct ServiceOptions {
  int threads = 4;                     // query-pool workers
  std::size_t cache_capacity = 1 << 16;
  // ---- sharding ----------------------------------------------------------
  // Number of range-partitioned V1 shards. 1 (the default) is one store;
  // N > 1 lets writers on disjoint ranges publish concurrently
  // (apply_updates_shard).
  int shards = 1;
  // ---- robustness knobs --------------------------------------------------
  std::size_t max_queue = 0;  // bound on the admission queue; 0 = unbounded
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
  // ---- SLO knobs ---------------------------------------------------------
  // Per-kind latency targets (µs), indexed by QueryKind; 0 = no objective
  // for that kind. An armed kind exports its windowed error-budget burn
  // (svc.slo.*).
  std::array<double, kQueryKinds> slo_target_us{};
  double slo_objective = 0.99;  // fraction of requests that must hit target
};

using TopPairsPtr = std::shared_ptr<const std::vector<count::VertexPair>>;

class ButterflyService {
 public:
  ButterflyService(vidx_t n1, vidx_t n2, ServiceOptions options = {});

  // ---- writer side -------------------------------------------------------

  /// Routes the batch by V1 owner and publishes each touched shard (every
  /// shard, for an empty batch) through apply_updates_shard. The returned
  /// epoch is the store's version after the batch: with one shard, the
  /// shard's new epoch.
  PublishResult apply_updates(std::span<const EdgeUpdate> batch);
  PublishResult apply_updates(std::initializer_list<EdgeUpdate> batch) {
    return apply_updates(
        std::span<const EdgeUpdate>(batch.begin(), batch.end()));
  }

  /// Applies a batch wholly owned by shard k (every update's V1 endpoint in
  /// that shard's range — the shard enforces it). THE concurrent-writer
  /// entry point: writers on disjoint shards call this in parallel and
  /// their publishes overlap in time; each invalidates only its own cache
  /// tier and prunes the composed tier to the latest view's answers. The
  /// returned epoch is shard k's new epoch.
  PublishResult apply_updates_shard(int k, std::span<const EdgeUpdate> batch);
  PublishResult apply_updates_shard(int k,
                                    std::initializer_list<EdgeUpdate> batch) {
    return apply_updates_shard(
        k, std::span<const EdgeUpdate>(batch.begin(), batch.end()));
  }

  /// Crash-safe checkpoint of the latest published epoch(s)
  /// (write-then-rename via SnapshotStore::persist; one file with a single
  /// shard — the exact legacy format — or per-shard files plus a manifest).
  /// Never blocks readers or writers. A persist failure triggers a
  /// flight-recorder dump before rethrowing.
  void persist(const std::string& path) const;

  /// Warm restart from a persisted checkpoint: replaces the store's state,
  /// flushes the result cache (keyed by the old epoch sequence) and drops
  /// the last composed cross aggregate, so the next pin takes a full pass.
  /// Throws std::runtime_error on a corrupted file, leaving the service
  /// unchanged.
  void restore(const std::string& path);

  /// Replaces shard k's handle (same id and owned range — the store
  /// enforces it); THE entry point for moving a range out of process: swap
  /// in a shard::RemoteShard and every query path serves across the socket
  /// unchanged. Flushes the cache and drops the last composed aggregate,
  /// exactly like restore(): the new handle's epoch sequence need not
  /// extend the old one. Not safe concurrently with writers on shard k.
  void swap_shard(int k, shard::ShardHandlePtr handle);

  // ---- reader side -------------------------------------------------------

  /// The latest state as one graph: with one shard, that shard's snapshot;
  /// with more, the union of the per-shard graphs at one pinned view,
  /// MATERIALISED — an O(edges) rebuild plus one top-pairs pass, for drift
  /// checks and offline use, not a per-query pin (pin views for that; a
  /// snapshot handed back to a sharded service's queries is ignored).
  [[nodiscard]] SnapshotPtr snapshot() const;

  /// Pins the latest per-shard snapshots into one ShardView with its cross
  /// aggregate: N atomic loads, plus with more than one shard a composition
  /// when the snapshots changed since the last one (see the file comment).
  /// Pass it via Request to answer several queries against one frozen view.
  [[nodiscard]] shard::ShardViewPtr view() const {
    return with_cross(store_.view());
  }

  /// Ξ_G of the pinned view: Σ shard-local counts, maintained by the
  /// writers, plus the view's cross aggregate. Always inline: never queued.
  [[nodiscard]] std::future<QueryResult<count_t>> global_count(
      Request req = {});

  /// Butterflies containing V1 vertex u (tip number): the owner shard's
  /// maintained tip plus the cross aggregate's term. Always inline, like
  /// global_count. Throws std::invalid_argument for a vertex outside the
  /// pinned view.
  [[nodiscard]] std::future<QueryResult<count_t>> vertex_tip_v1(
      vidx_t u, Request req = {});
  [[nodiscard]] std::future<QueryResult<count_t>> vertex_tip_v2(
      vidx_t v, Request req = {});

  /// Butterflies containing edge (u, v), Eq. (25); 0 when the edge is
  /// absent at the pinned view: owner-shard support
  /// (count::support_of_edge) plus the cross-shard term.
  /// O(Σ_{w∈N(v)} min(deg u, deg w)), no global pass — always inline, like
  /// global_count, through the composed-answer cache.
  [[nodiscard]] std::future<QueryResult<count_t>> edge_support(
      vidx_t u, vidx_t v, Request req = {});

  /// The k V1-pairs with the most wedges at the pinned view: the exact
  /// merge of per-shard top-k lists and the cross-shard pairs. Inline
  /// (never queued) when every pinned shard's buffer and the view's cross
  /// buffer certify k: whenever k ≤ K′. Otherwise the answer cached under
  /// the view signature, or a queued query: a full cross pass that keeps
  /// the best k cross pairs, and a top-pairs pass on each shard whose
  /// buffer does not certify k. It honours the request's deadline; refused
  /// at admission, shed, expired in the queue or cancelled mid-pass, the
  /// future carries OverloadError with its reason.
  [[nodiscard]] std::future<QueryResult<TopPairsPtr>> top_pairs(
      std::size_t k, Request req = {});

  // ---- introspection -----------------------------------------------------

  /// Shard 0's backing store — with one shard, the whole graph's. Throws
  /// std::invalid_argument if slot 0 was swapped to a non-local handle
  /// (swap_shard); use shard_store() for those layouts.
  [[nodiscard]] const SnapshotStore& store() const {
    const SnapshotStore* local = store_.local_store(0);
    require(local != nullptr,
            "ButterflyService::store: shard 0 is not a LocalShard (swapped "
            "handle) — use shard_store()");
    return *local;
  }
  /// The sharded store facade (layout, per-shard handles, version).
  [[nodiscard]] const shard::ShardedSnapshotStore& shard_store()
      const noexcept {
    return store_;
  }
  [[nodiscard]] int shard_count() const noexcept { return shards_; }
  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] const Executor& pool() const noexcept { return pool_; }
  [[nodiscard]] std::size_t queue_depth() const { return pool_.queue_depth(); }
  [[nodiscard]] int thread_count() const noexcept {
    return pool_.thread_count();
  }
  /// SLO accounting over the observed latency stream (store-wide).
  [[nodiscard]] const SloTracker& slo() const noexcept { return slo_; }

 private:
  /// The request's pinned view when it has this service's shard count,
  /// else the latest, with its cross aggregate.
  [[nodiscard]] shard::ShardViewPtr resolve_view(Request& req) const {
    if (req.view && req.view->shard_count() == shards_)
      return with_cross(std::move(req.view));
    return view();
  }

  /// `view` itself when it carries a cross aggregate (every one-shard view
  /// does), else a copy with one: the last composed aggregate when every
  /// pinned snapshot is the same object as its, else one composed from it
  /// (a full pass when there is none). The result becomes the last.
  [[nodiscard]] shard::ShardViewPtr with_cross(shard::ShardViewPtr view) const;
  /// Forgets the last composed aggregate: restore() and swap_shard().
  void forget_composed();
  /// The shard owning V1 vertex u in `view`. A one-shard view's owner is 0
  /// whatever the partition says: a one-shard restore may resize the
  /// partition under a view pinned before it.
  [[nodiscard]] int owner_of(const shard::ShardView& view, vidx_t u) const {
    return view.shard_count() == 1 ? 0 : store_.partition().owner(u);
  }
  /// Index of the composed-answer cache tier (per-shard tiers are 0..S-1).
  [[nodiscard]] std::int32_t view_tier() const noexcept { return shards_; }

  /// Observes the answer's latency since `since`, the query's entry, and
  /// tags its fidelity: stale only when the owner range, or any range for
  /// owner -1, is dark.
  template <typename T>
  QueryResult<T> answer(QueryKind kind, int owner, const shard::ShardView& view,
                        const Timer& since,
                        const std::shared_ptr<obs::Span>& span, T value);
  /// answer() as a ready future: an answer computed on the caller's thread.
  template <typename T>
  std::future<QueryResult<T>> answer_inline(
      QueryKind kind, int owner, const shard::ShardView& view,
      const Timer& since, const std::shared_ptr<obs::Span>& span, T value);

  /// vertex_tip_v1/v2.
  std::future<QueryResult<count_t>> tip(vidx_t vertex, bool v1_side,
                                        Request req);

  /// Exact support of edge (u, v): owner-shard formula plus the
  /// cross-shard term; 0 when the edge is absent.
  count_t support(const shard::ShardView& view, int owner, vidx_t u,
                  vidx_t v);

  /// The exact top-k list of `view`: every shard's list merged with
  /// `cross`, its best cross pairs (at least k of them, or all).
  TopPairsPtr top_list(const shard::ShardView& view, std::size_t k,
                       std::span<const count::VertexPair> cross,
                       const CancelToken& cancel,
                       const obs::TraceContext& trace);

  /// Shard s's top-k list at the view's pinned epoch: its buffer's
  /// certified span when it certifies k, else a pass (k > K′, rare enough
  /// to go uncached) whose list `passes` keeps. The pass runs under a
  /// svc.kernel.top_pairs span parented to `trace`, checks `cancel` per
  /// row, and closes its span tagged cancelled=true when the token fires.
  std::span<const count::VertexPair> shard_top_list(
      const shard::ShardView& view, int s, std::size_t k,
      const CancelToken& cancel, const obs::TraceContext& trace,
      std::vector<std::vector<count::VertexPair>>& passes);

  /// Feeds the latency histogram and the SLO tracker with one answer.
  void observe_latency(QueryKind kind, double us);

  /// Accounts one answer served with unreachable shards (stale_shards
  /// mask): svc.degraded and svc.stale_answers, plus svc.shard.<k>.degraded
  /// per set bit.
  void note_stale_mask(std::uint64_t mask);

  /// The request's own context when it carries one, else a fresh root when
  /// span collection is on and the head-based sampler picks this request,
  /// else an inactive context (all spans inert).
  [[nodiscard]] static obs::TraceContext root_context(const Request& req) {
    if (req.trace.active()) return req.trace;
    if (obs::SpanLog::enabled() && obs::SpanLog::sample())
      return obs::TraceContext::root();
    return {};
  }

  int shards_;
  shard::ShardedSnapshotStore store_;
  ResultCache cache_;
  // The last view with a composed cross aggregate: the base of the next
  // composition. Held across a composition, so concurrent pins of one new
  // combination compose it once.
  mutable Mutex cross_mu_{"svc.service.cross"};
  mutable shard::ShardViewPtr composed_ BFC_GUARDED_BY(cross_mu_);
  // Bound at construction when metrics are on and shards > 1 (names are
  // per-shard, so the literal-only BFC_* macros don't apply).
  std::vector<obs::Counter*> shard_degraded_;    // svc.shard.<k>.degraded
  SloTracker slo_;
  Executor pool_;  // last: workers stop before the layers they use die
};

}  // namespace bfc::svc
