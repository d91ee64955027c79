#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <thread>

#include "chk/checked_math.hpp"
#include "count/local_counts.hpp"
#include "graph/bipartite_graph.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "shard/router.hpp"
#include "svc/fault.hpp"
#include "util/timer.hpp"

namespace bfc::svc {
namespace {

template <typename T>
std::future<T> ready_future(T value) {
  std::promise<T> p;
  p.set_value(std::move(value));
  return p.get_future();
}

template <typename T>
std::future<T> overload_future(OverloadError::Reason reason) {
  std::promise<T> p;
  p.set_exception(std::make_exception_ptr(OverloadError(reason)));
  return p.get_future();
}

// Request spans outlive the submitting frame (a queued pass runs on a pool
// worker, its fallback possibly on a third thread), so they live behind a
// shared_ptr — allocated only when collection is actually on, so the
// disabled path stays allocation-free. Exactly one of the capturing
// closures runs; Span::close() is idempotent and tags on a closed span are
// dropped, so the helpers need no coordination.
using SpanPtr = std::shared_ptr<obs::Span>;

SpanPtr open_span(const obs::TraceContext& ctx, const char* name) {
  if (!obs::SpanLog::enabled() || !ctx.active()) return nullptr;
  return std::make_shared<obs::Span>(ctx, name);
}

void span_tag(const SpanPtr& span, const char* key, std::string_view value) {
  if (span) span->tag(key, value);
}

obs::TraceContext span_ctx(const SpanPtr& span) {
  return span ? span->context() : obs::TraceContext{};
}

void span_close(const SpanPtr& span) {
  if (span) span->close();
}

/// The answer cached under `key`, tagging the span cache=hit|miss.
std::optional<CacheValue> probe(ResultCache& cache, const CacheKey& key,
                                const SpanPtr& span) {
  std::optional<CacheValue> hit = cache.get(key);
  span_tag(span, "cache", hit ? "hit" : "miss");
  return hit;
}

/// Counts one query and tags its span with the pinned view's version. (A
/// span keeps obs::SpanRecord::kMaxTags tags; the decisions need the rest.)
void count_query(const SpanPtr& span, const shard::ShardView& view,
                 QueryKind kind) {
  BFC_COUNT_ADD("svc.queries", 1);
  if (shard::ShardRouter::scatters(kind))
    BFC_COUNT_ADD("svc.scatter_queries", 1);
  span_tag(span, "epoch", std::to_string(view.version));
}

/// The stale_shards bits of an answer. A routed query is stale only when
/// its OWNER range is dark — a dead shard takes no publishes, so every
/// other range's answer is exact for the pinned view — while any dark
/// shard taints a scattered one (owner -1).
std::uint64_t answer_mask(const shard::ShardView& view, int owner) {
  if (owner < 0) return view.stale_mask;
  return view.shard_stale(owner) ? std::uint64_t{1} << owner : 0;
}

/// The shards [lo, hi) holding a vertex's local butterflies: its owner, or
/// every shard for a scattered V2 vertex (owner -1).
std::pair<int, int> shards_holding(const shard::ShardView& view, int owner) {
  if (owner < 0) return {0, view.shard_count()};
  return {owner, owner + 1};
}

/// Throws std::invalid_argument (`what`) unless x is a vertex of the pinned
/// view's V1 side (v1_side) or V2 side. Every shard spans the full vertex
/// sets, so shard 0's graph has the view's dimensions.
void require_vertex(const shard::ShardView& view, vidx_t x, bool v1_side,
                    const char* what) {
  const graph::BipartiteGraph& g = view.shards[0]->graph;
  require(x >= 0 && x < (v1_side ? g.n1() : g.n2()), what);
}

/// Microseconds since `since`, the query's entry.
double elapsed_us(const Timer& since) { return since.seconds() * 1e6; }

std::array<SloPolicy, kQueryKinds> slo_policies(const ServiceOptions& o) {
  std::array<SloPolicy, kQueryKinds> policies;
  for (std::size_t k = 0; k < kQueryKinds; ++k)
    policies[k] = SloPolicy{o.slo_target_us[k], o.slo_objective};
  return policies;
}

}  // namespace

ButterflyService::ButterflyService(vidx_t n1, vidx_t n2,
                                   ServiceOptions options)
    : shards_(options.shards),
      store_(n1, n2, options.shards),
      // One tier per shard plus the composed-answer tier (view_tier()).
      cache_(options.cache_capacity, options.shards + 1),
      slo_(slo_policies(options)),
      pool_(ExecutorOptions{options.threads, options.max_queue,
                            options.shed_policy}) {
  if constexpr (obs::kMetricsEnabled) {
    if (shards_ > 1) {
      auto& reg = obs::Registry::instance();
      for (int k = 0; k < shards_; ++k)
        shard_degraded_.push_back(
            &reg.counter("svc.shard." + std::to_string(k) + ".degraded"));
    }
  }
}

PublishResult ButterflyService::apply_updates(
    std::span<const EdgeUpdate> batch) {
  // Route by V1 owner and publish shard by shard — the single-writer
  // convenience path over the same machinery concurrent writers use. A
  // batch already grouped by owner (every batch, with one shard) publishes
  // its runs in place; any other is first copied into per-shard buckets.
  const shard::RangePartition& part = store_.partition();
  std::vector<std::span<const EdgeUpdate>> runs(
      static_cast<std::size_t>(shards_));
  std::size_t at = 0;
  for (int k = 0; k < shards_; ++k) {
    const std::size_t from = at;
    while (at < batch.size() && part.owner(batch[at].u) == k) ++at;
    runs[static_cast<std::size_t>(k)] = batch.subspan(from, at - from);
  }
  std::vector<std::vector<EdgeUpdate>> buckets;
  if (at < batch.size()) {
    buckets = shard::ShardRouter(part).bucket(batch);
    for (int k = 0; k < shards_; ++k)
      runs[static_cast<std::size_t>(k)] = buckets[static_cast<std::size_t>(k)];
  }
  // Untouched shards do not publish, but an empty batch publishes every
  // shard, as one store publishes an epoch for every batch.
  PublishResult total{};
  for (int k = 0; k < shards_; ++k) {
    const std::span<const EdgeUpdate> sub = runs[static_cast<std::size_t>(k)];
    if (sub.empty() && !batch.empty()) continue;
    const PublishResult r = apply_updates_shard(k, sub);
    total.applied += r.applied;
    total.ignored += r.ignored;
    total.created = chk::checked_add(total.created, r.created);
    total.destroyed = chk::checked_add(total.destroyed, r.destroyed);
  }
  total.epoch = store_.version();
  return total;
}

PublishResult ButterflyService::apply_updates_shard(
    int k, std::span<const EdgeUpdate> batch) {
  require(k >= 0 && k < shards_, "apply_updates_shard: shard out of range");
  const PublishResult result = store_.apply_to_shard(k, batch);
  obs::FlightRecorder::record("publish", "",
                              static_cast<std::int64_t>(result.epoch),
                              static_cast<std::int64_t>(result.applied));
  // Only shard k's tier retires; the other shards' entries stay keyed by
  // their own (unchanged) epochs with their hit streaks intact — the point
  // of running one cache tier per shard.
  cache_.invalidate_tier_older_than(k,
                                    result.epoch == 0 ? 0 : result.epoch - 1);
  // Composed answers are keyed by view signature: only the latest view's
  // stay reachable for new pins. Under concurrent writers this may drop a
  // newer view's entries too; a signature-keyed entry is never wrong, only
  // unreachable or missing.
  const std::uint64_t latest = store_.view()->signature;
  cache_.invalidate_tier_keep(view_tier(), {&latest, 1});
  return result;
}

void ButterflyService::forget_composed() {
  const MutexLock lock(cross_mu_);
  composed_.reset();
}

void ButterflyService::persist(const std::string& path) const {
  try {
    store_.persist(path);
  } catch (...) {
    obs::FlightRecorder::dump_on_fault("persist failed");
    throw;
  }
  obs::FlightRecorder::record("persist", path.c_str(),
                              static_cast<std::int64_t>(store_.epoch()));
}

void ButterflyService::restore(const std::string& path) {
  try {
    store_.restore(path);  // throws on corruption, store unchanged
  } catch (...) {
    obs::FlightRecorder::dump_on_fault("restore failed");
    throw;
  }
  obs::FlightRecorder::record("restore", path.c_str(),
                              static_cast<std::int64_t>(store_.epoch()));
  // The epoch sequence restarted under a new lineage. Every cache keys by
  // lineage as well as epoch, so no entry can answer for the new state (a
  // view pinned before the restore keeps its own answers); the flush only
  // drops entries the latest view can no longer reach. The next pin takes
  // a full cross pass.
  cache_.invalidate_all();
  forget_composed();
}

void ButterflyService::swap_shard(int k, shard::ShardHandlePtr handle) {
  store_.swap_shard(k, std::move(handle));
  // The new handle's epoch sequence need not extend the old one (a remote
  // host starts at its own epoch), so every epoch/signature-keyed tier is
  // meaningless — same flush discipline as restore().
  cache_.invalidate_all();
  forget_composed();
}

SnapshotPtr ButterflyService::snapshot() const {
  const shard::ShardViewPtr view = this->view();
  if (view->shard_count() == 1) return view->shards[0];
  // Materialise the union graph of one pinned view. Owned ranges are
  // disjoint, so concatenating each shard's owned rows rebuilds the exact
  // single-store edge set; the count and tips are Σ locals + cross — the
  // identities the drift checks verify.
  const shard::RangePartition& part = store_.partition();
  std::vector<std::pair<vidx_t, vidx_t>> edges;
  edges.reserve(static_cast<std::size_t>(view->edges()));
  for (int k = 0; k < view->shard_count(); ++k) {
    const graph::BipartiteGraph& g =
        view->shards[static_cast<std::size_t>(k)]->graph;
    for (vidx_t u = part.begin(k); u < part.end(k); ++u)
      for (const vidx_t v : g.neighbors_of_v1(u)) edges.emplace_back(u, v);
  }
  const shard::CrossAggregate& agg = *view->cross;
  GraphSnapshot snap;
  snap.epoch = view->version;
  snap.graph =
      graph::BipartiteGraph::from_edges(store_.n1(), store_.n2(), edges);
  snap.butterflies = shard::ScatterGather::global_count(*view, agg);
  snap.edges = view->edges();
  snap.tips_v1 = agg.tips_v1;
  snap.tips_v2 = agg.tips_v2;
  snap.top_pairs = count::TopPairBuffer::of(snap.graph);
  for (const SnapshotPtr& s : view->shards) {
    for (std::size_t u = 0; u < snap.tips_v1.size(); ++u)
      snap.tips_v1[u] = chk::checked_add(snap.tips_v1[u], s->tips_v1[u]);
    for (std::size_t v = 0; v < snap.tips_v2.size(); ++v)
      snap.tips_v2[v] = chk::checked_add(snap.tips_v2[v], s->tips_v2[v]);
  }
  return std::make_shared<const GraphSnapshot>(std::move(snap));
}

// ---- the serving path -------------------------------------------------------

template <typename T>
QueryResult<T> ButterflyService::answer(QueryKind kind, int owner,
                                        const shard::ShardView& view,
                                        const Timer& since,
                                        const SpanPtr& span, T value) {
  const std::uint64_t mask = answer_mask(view, owner);
  observe_latency(kind, elapsed_us(since));
  if (mask) note_stale_mask(mask);
  const Fidelity fidelity = mask ? Fidelity::kStale : Fidelity::kExact;
  span_tag(span, "outcome", fidelity_name(fidelity));
  return QueryResult<T>{std::move(value), view.version, fidelity, mask};
}

template <typename T>
std::future<QueryResult<T>> ButterflyService::answer_inline(
    QueryKind kind, int owner, const shard::ShardView& view,
    const Timer& since, const SpanPtr& span, T value) {
  return ready_future(answer(kind, owner, view, since, span, std::move(value)));
}

shard::ShardViewPtr ButterflyService::with_cross(
    shard::ShardViewPtr view) const {
  if (view->cross) return view;  // one shard: the shared empty aggregate
  const MutexLock lock(cross_mu_);
  shard::CrossAggregatePtr agg;
  if (composed_ && std::ranges::equal(composed_->shards, view->shards))
    agg = composed_->cross;  // the same snapshot objects, not just epochs
  else if (composed_)
    agg = std::make_shared<const shard::CrossAggregate>(
        shard::ScatterGather::compose(*composed_, *view, store_.partition()));
  else
    agg = std::make_shared<const shard::CrossAggregate>(
        shard::ScatterGather::compute(*view));
  auto pinned = std::make_shared<shard::ShardView>(*view);
  pinned->cross = std::move(agg);
  composed_ = pinned;
  return pinned;
}

std::future<QueryResult<count_t>> ButterflyService::global_count(Request req) {
  const Timer since;
  shard::ShardViewPtr view = resolve_view(req);
  const SpanPtr span = open_span(root_context(req), "svc.query.global");
  count_query(span, *view, QueryKind::kGlobalCount);
  return answer_inline(
      QueryKind::kGlobalCount, -1, *view, since, span,
      shard::ScatterGather::global_count(*view, *view->cross));
}

std::future<QueryResult<count_t>> ButterflyService::vertex_tip_v1(
    vidx_t u, Request req) {
  return tip(u, /*v1_side=*/true, std::move(req));
}

std::future<QueryResult<count_t>> ButterflyService::vertex_tip_v2(
    vidx_t v, Request req) {
  return tip(v, /*v1_side=*/false, std::move(req));
}

std::future<QueryResult<count_t>> ButterflyService::tip(vidx_t vertex,
                                                        bool v1_side,
                                                        Request req) {
  const Timer since;
  shard::ShardViewPtr view = resolve_view(req);
  require_vertex(*view, vertex, v1_side,
                 v1_side ? "vertex_tip_v1: vertex out of range"
                         : "vertex_tip_v2: vertex out of range");
  // tip_v1 routes to the owner shard; tip_v2 scatters over all of them.
  const int owner = v1_side ? owner_of(*view, vertex) : -1;
  const QueryKind kind =
      v1_side ? QueryKind::kVertexTipV1 : QueryKind::kVertexTipV2;
  const SpanPtr span = open_span(
      root_context(req), v1_side ? "svc.query.tip_v1" : "svc.query.tip_v2");
  count_query(span, *view, kind);
  const shard::CrossAggregate& cross = *view->cross;
  count_t value = v1_side ? cross.tip_v1(vertex) : cross.tip_v2(vertex);
  // The local part: the owner shard's tip, or the sum over every shard,
  // each of which sees some of a V2 vertex's butterflies.
  const auto [lo, hi] = shards_holding(*view, owner);
  const auto at = static_cast<std::size_t>(vertex);
  for (int s = lo; s < hi; ++s) {
    const GraphSnapshot& snap = *view->shards[static_cast<std::size_t>(s)];
    value = chk::checked_add(value,
                             v1_side ? snap.tips_v1[at] : snap.tips_v2[at]);
  }
  return answer_inline(kind, owner, *view, since, span, value);
}

std::future<QueryResult<count_t>> ButterflyService::edge_support(vidx_t u,
                                                                 vidx_t v,
                                                                 Request req) {
  const Timer since;
  shard::ShardViewPtr view = resolve_view(req);
  require_vertex(*view, u, true, "edge_support: vertex out of range");
  require_vertex(*view, v, false, "edge_support: vertex out of range");
  const int owner = owner_of(*view, u);
  const SpanPtr span = open_span(root_context(req), "svc.query.edge");
  count_query(span, *view, QueryKind::kEdgeSupport);
  // One row intersection per shard: cheap enough to answer on the caller's
  // thread, and the cache still saves the hot edges' repeats.
  const CacheKey key{view->signature, QueryKind::kEdgeSupport, u, v,
                     view_tier()};
  count_t value = 0;
  if (const auto hit = probe(cache_, key, span)) {
    value = std::get<count_t>(*hit);
  } else {
    value = support(*view, owner, u, v);
    cache_.put(key, value);
  }
  return answer_inline(QueryKind::kEdgeSupport, owner, *view, since, span,
                       value);
}

std::future<QueryResult<TopPairsPtr>> ButterflyService::top_pairs(
    std::size_t k, Request req) {
  const Timer since;
  shard::ShardViewPtr view = resolve_view(req);
  const SpanPtr span = open_span(root_context(req), "svc.query.top_pairs");
  count_query(span, *view, QueryKind::kTopPairs);
  // When the view's cross buffer and every pinned shard's buffer certify k,
  // the lists are lookups and the merge answers inline.
  const auto cross = view->cross->certified(k);
  const bool buffered =
      cross && std::ranges::all_of(view->shards, [k](const SnapshotPtr& s) {
        return s->top_pairs.certified(k).has_value();
      });
  if (buffered)
    return answer_inline(QueryKind::kTopPairs, -1, *view, since, span,
                         top_list(*view, k, *cross, {}, {}));
  const CacheKey key{view->signature, QueryKind::kTopPairs,
                     static_cast<std::int64_t>(k), 0, view_tier()};
  if (const auto hit = probe(cache_, key, span))
    return answer_inline(QueryKind::kTopPairs, -1, *view, since, span,
                         std::get<TopPairsPtr>(*hit));
  // Above K′: a full pass that keeps the best k cross pairs, on the pool.
  auto run = [this, key, view, k, deadline = req.deadline, since, span,
              trace = span_ctx(span)] {
    try {
      const shard::CrossAggregate full = shard::ScatterGather::compute(
          *view, deadline.token(), trace, k);
      TopPairsPtr list =
          top_list(*view, k, full.pairs, deadline.token(), trace);
      cache_.put(key, CacheValue{list});
      QueryResult<TopPairsPtr> r = answer(QueryKind::kTopPairs, -1, *view,
                                          since, span, std::move(list));
      span_close(span);
      return r;
    } catch (const CancelledError&) {
      // The deadline fired mid-pass; the kernel gave up cooperatively.
      BFC_COUNT_ADD("svc.kernels_cancelled", 1);
      span_tag(span, "cancelled", "true");
      span_tag(span, "outcome", "shed");
      span_close(span);
      throw OverloadError(OverloadError::Reason::kDeadline);
    }
  };
  // Shed, or expired in the queue: the Executor fails the future with its
  // reason once this has closed the span.
  auto fallback = [span]() -> std::optional<QueryResult<TopPairsPtr>> {
    span_tag(span, "outcome", "shed");
    span_close(span);
    return std::nullopt;
  };
  if (auto fut = pool_.try_submit(std::move(run), req.deadline,
                                  std::move(fallback), span_ctx(span)))
    return std::move(*fut);
  span_tag(span, "rejected", "true");
  span_tag(span, "outcome", "shed");
  return overload_future<QueryResult<TopPairsPtr>>(
      OverloadError::Reason::kRejected);
}

count_t ButterflyService::support(const shard::ShardView& view, int owner,
                                  vidx_t u, vidx_t v) {
  const SnapshotPtr& snap = view.shards[static_cast<std::size_t>(owner)];
  // All of u's edges live on its owner shard: absent there means absent.
  if (!snap->graph.has_edge(u, v)) return 0;
  // The same-shard component depends only on shard `owner`'s state. With
  // more than one shard it caches in that shard's tier under the SHARD
  // epoch, surviving publishes on every other shard; with one shard it is
  // the answer, which the composed tier caches.
  const bool component = view.shard_count() > 1;
  const CacheKey local_key{snap->epoch, QueryKind::kEdgeSupport, u, v, owner,
                           snap->lineage};
  std::optional<CacheValue> hit;
  if (component) hit = cache_.get(local_key);
  count_t local = 0;
  if (hit) {
    local = std::get<count_t>(*hit);
  } else {
    local = count::support_of_edge(snap->graph, u, v);
    if (component) cache_.put(local_key, local);
  }
  return chk::checked_add(
      local, shard::ScatterGather::edge_support_cross(view, owner, u, v));
}

TopPairsPtr ButterflyService::top_list(
    const shard::ShardView& view, std::size_t k,
    std::span<const count::VertexPair> cross, const CancelToken& cancel,
    const obs::TraceContext& trace) {
  // The lists are read in place; only a pass fallback owns one. With one
  // shard no list of lists is built: the merge copies k pairs.
  std::vector<std::vector<count::VertexPair>> passes;
  const auto merge = [&](std::span<const std::span<const count::VertexPair>>
                             lists) {
    return std::make_shared<const std::vector<count::VertexPair>>(
        shard::ScatterGather::merge_top_pairs(lists, cross, k));
  };
  if (view.shard_count() == 1) {
    const std::span<const count::VertexPair> list =
        shard_top_list(view, 0, k, cancel, trace, passes);
    return merge({&list, 1});
  }
  std::vector<std::span<const count::VertexPair>> lists;
  lists.reserve(view.shards.size());
  for (int s = 0; s < view.shard_count(); ++s)
    lists.push_back(shard_top_list(view, s, k, cancel, trace, passes));
  return merge(lists);
}

std::span<const count::VertexPair> ButterflyService::shard_top_list(
    const shard::ShardView& view, int s, std::size_t k,
    const CancelToken& cancel, const obs::TraceContext& trace,
    std::vector<std::vector<count::VertexPair>>& passes) {
  const SnapshotPtr& snap = view.shards[static_cast<std::size_t>(s)];
  if (const auto top = snap->top_pairs.certified(k)) return *top;
  obs::Span kernel_span(trace, "svc.kernel.top_pairs");
  if (kernel_span.armed()) {
    kernel_span.tag("epoch", std::to_string(snap->epoch));
    kernel_span.tag("shard", std::to_string(s));
  }
  try {
    // Checked builds can inject latency here to force deadline expiry
    // mid-pass (fault::Point::kSlowKernel, param = milliseconds).
    if (fault::fires(fault::Point::kSlowKernel))
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fault::param(fault::Point::kSlowKernel)));
    // A moved inner vector keeps its buffer, so spans into earlier passes
    // stay valid as `passes` grows.
    passes.push_back(count::top_wedge_pairs_v1(snap->graph, k, cancel));
    BFC_COUNT_ADD("svc.top_pair_passes", 1);
    kernel_span.tag("outcome", "ok");
  } catch (const CancelledError&) {
    // A cancelled kernel still closes its span — tagged, not dropped — so
    // the trace tree shows where the deadline landed.
    kernel_span.tag("cancelled", "true");
    kernel_span.tag("outcome", "cancelled");
    throw;
  } catch (...) {
    kernel_span.tag("outcome", "error");
    throw;
  }
  return passes.back();
}

// ---- shared plumbing -------------------------------------------------------

void ButterflyService::observe_latency(QueryKind kind, double us) {
  switch (kind) {
    case QueryKind::kGlobalCount:
      BFC_HIST_OBSERVE("svc.latency_ns.global", us * 1e3);
      break;
    case QueryKind::kVertexTipV1:
      BFC_HIST_OBSERVE("svc.latency_ns.tip_v1", us * 1e3);
      break;
    case QueryKind::kVertexTipV2:
      BFC_HIST_OBSERVE("svc.latency_ns.tip_v2", us * 1e3);
      break;
    case QueryKind::kEdgeSupport:
      BFC_HIST_OBSERVE("svc.latency_ns.edge", us * 1e3);
      break;
    case QueryKind::kTopPairs:
      BFC_HIST_OBSERVE("svc.latency_ns.top_pairs", us * 1e3);
      break;
  }
  slo_.observe(kind, us);
}

void ButterflyService::note_stale_mask(std::uint64_t mask) {
  BFC_COUNT_ADD("svc.degraded", 1);
  BFC_COUNT_ADD("svc.stale_answers", 1);
  for (std::size_t k = 0; k < shard_degraded_.size() && k < 64; ++k)
    if (((mask >> k) & 1u) != 0) shard_degraded_[k]->increment();
}

}  // namespace bfc::svc
