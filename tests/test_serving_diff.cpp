// Differential serving gate. Seeded random programs drive a one-shard and a
// three-shard ButterflyService in lockstep through publishes (mixed and
// shard-scoped), every query kind, persist/restore, and swap_shard of a
// LocalShard restored from the program's own checkpoint (after which the
// three-shard service's next pin takes a full cross pass), with queries
// pinned to the latest state or to an older pin. Every answer is checked against
// count:: oracles built from an edge set this test keeps itself — never from
// a snapshot the service hands out — and the two services are checked
// against each other. A one-shard pin is handed in as a snapshot or as a
// view. Top-pairs queries ask for k ≤ K′, which the shards' top-pair
// buffers answer, and for k > K′, which takes a pass. After each publish
// every shard snapshot's maintained tips and certified top-pair lists are
// checked against oracles on that shard's edges, and every pinned view's
// cross aggregate against a full pass over its snapshots. Checked builds also
// saturate the query queue at random steps: only a top-pairs read above K′,
// the one read that queues, may then shed, and no answer ever degrades (no
// shard here is ever dark).
//
// A failing program names its seed; BFC_SERVING_DIFF_SEED=<seed> replays
// just that program:
//   BFC_SERVING_DIFF_SEED=123 bfc_tests --gtest_filter='*ServingDiff*'
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "chk/check.hpp"
#include "count/baselines.hpp"
#include "count/local_counts.hpp"
#include "count/top_pairs.hpp"
#include "shard/partition.hpp"
#include "shard/scatter_gather.hpp"
#include "sparse/ops.hpp"
#include "svc/fault.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace bfc::svc {
namespace {

constexpr int kChunks = 4;
constexpr int kProgramsPerChunk = 2500;  // 10^4 programs per run
constexpr std::uint64_t kFirstSeed = 1;
constexpr int kShards = 3;

using Edges = std::set<std::pair<vidx_t, vidx_t>>;

/// One edge set and, built on first use, every answer the oracles give.
struct State {
  Edges edges;

  struct Answers {
    count_t global = 0;
    std::vector<count_t> tips_v1;
    std::vector<count_t> tips_v2;
    std::map<std::pair<vidx_t, vidx_t>, count_t> support;
    graph::BipartiteGraph g;
  };

  const Answers& answers(vidx_t n1, vidx_t n2) const {
    if (!cache) {
      auto a = std::make_unique<Answers>();
      a->g = graph::BipartiteGraph::from_edges(
          n1, n2, std::vector<std::pair<vidx_t, vidx_t>>(edges.begin(),
                                                          edges.end()));
      a->global = count::wedge_reference(a->g);
      a->tips_v1 = count::butterflies_per_v1(a->g);
      a->tips_v2 = count::butterflies_per_v2(a->g);
      const std::vector<count_t> support = count::support_per_edge(a->g);
      const auto list = sparse::edges(a->g.csr());
      for (std::size_t e = 0; e < list.size(); ++e)
        a->support[list[e]] = support[e];
      cache = std::move(a);
    }
    return *cache;
  }

  mutable std::unique_ptr<Answers> cache;
};

using StatePtr = std::shared_ptr<const State>;

struct Query {
  QueryKind kind = QueryKind::kGlobalCount;
  vidx_t a = 0;
  vidx_t b = 0;
};

/// How many answers of each outcome a run checked, so a log shows whether
/// the programs reached the shedding path.
struct Tally {
  std::int64_t exact = 0;
  std::int64_t shed = 0;
};

/// A service answer, unwrapped: a value (or pair list), or shed.
struct Answer {
  bool shed = false;
  count_t value = 0;
  std::vector<count::VertexPair> pairs;
  std::uint64_t epoch = 0;
  Fidelity fidelity = Fidelity::kExact;
};

template <typename T>
Answer take(std::future<QueryResult<T>> fut) {
  Answer out;
  try {
    QueryResult<T> r = fut.get();
    if constexpr (std::is_same_v<T, TopPairsPtr>)
      out.pairs = *r.value;
    else
      out.value = r.value;
    out.epoch = r.epoch;
    out.fidelity = r.fidelity;
  } catch (const OverloadError&) {
    out.shed = true;
  }
  return out;
}

Answer ask(ButterflyService& s, const Query& q, const Request& req) {
  switch (q.kind) {
    case QueryKind::kGlobalCount: return take(s.global_count(req));
    case QueryKind::kVertexTipV1: return take(s.vertex_tip_v1(q.a, req));
    case QueryKind::kVertexTipV2: return take(s.vertex_tip_v2(q.a, req));
    case QueryKind::kEdgeSupport: return take(s.edge_support(q.a, q.b, req));
    case QueryKind::kTopPairs:
      return take(s.top_pairs(static_cast<std::size_t>(q.a), req));
  }
  return {};
}

/// Whether q queues at any shard count: only top pairs above K′ do, since
/// every pinned snapshot and cross aggregate certifies each k ≤ K′. Every
/// other read answers on the caller's thread and never sheds.
bool queues(const Query& q) {
  return q.kind == QueryKind::kTopPairs &&
         static_cast<std::size_t>(q.a) > count::TopPairBuffer::kCapacity;
}

std::string describe(const Query& q) {
  return std::string(kind_name(q.kind)) + "(" + std::to_string(q.a) + ", " +
         std::to_string(q.b) + ")";
}

/// One program: its own services, edge-set model, pins and checks.
class Program {
 public:
  Program(std::uint64_t seed, const std::string& path, Tally& tally)
      : tally_(tally),
        rng_(seed),
        n1_(static_cast<vidx_t>(2 + rng_.bounded(8))),
        n2_(static_cast<vidx_t>(2 + rng_.bounded(6))),
        part_(n1_, kShards),
        path1_(path + ".one"),
        path3_(path + ".three") {
    ServiceOptions opt;
    opt.threads = 1 + static_cast<int>(rng_.bounded(2));
    opt.cache_capacity = rng_.bernoulli(0.3) ? 8 : 1 << 12;
    one_ = std::make_unique<ButterflyService>(n1_, n2_, opt);
    opt.shards = kShards;
    three_ = std::make_unique<ButterflyService>(n1_, n2_, opt);
    cur_ = std::make_shared<const State>();
  }

  /// Runs the program; returns the first mismatch, empty when every answer
  /// held.
  std::string run() {
    const int steps = 6 + static_cast<int>(rng_.bounded(10));
    for (int step = 0; step < steps && error_.empty(); ++step) {
      const std::uint64_t op = rng_.bounded(100);
      if (op < 30) {
        publish(random_batch(0, n1_), -1);
      } else if (op < 40) {
        const int k = static_cast<int>(rng_.bounded(kShards));
        publish(random_batch(part_.begin(k), part_.end(k)), k);
      } else if (op < 45) {
        persist();
      } else if (op < 50) {
        restore();
      } else if (op < 55) {
        swap();
      } else {
        queries();
      }
    }
    return error_;
  }

 private:
  struct Pin {
    SnapshotPtr one;
    shard::ShardViewPtr one_view;  // the same state, pinned as a view
    shard::ShardViewPtr three;
    StatePtr state;
    std::uint64_t epoch = 0;  // the one-shard service's epoch
  };

  void fail(const std::string& what) {
    if (error_.empty()) error_ = what;
  }

  /// 1-8 random updates with u in [lo, hi), mostly inserts.
  std::vector<EdgeUpdate> random_batch(vidx_t lo, vidx_t hi) {
    std::vector<EdgeUpdate> batch;
    if (lo == hi) return batch;  // an empty shard range publishes empty
    const int size = 1 + static_cast<int>(rng_.bounded(8));
    for (int i = 0; i < size; ++i) {
      const auto u = static_cast<vidx_t>(
          lo + static_cast<vidx_t>(rng_.bounded(
                   static_cast<std::uint64_t>(hi - lo))));
      const auto v = static_cast<vidx_t>(
          rng_.bounded(static_cast<std::uint64_t>(n2_)));
      batch.push_back({u, v, rng_.bernoulli(0.7)});
    }
    return batch;
  }

  /// Publishes on both services (shard `k` of the three-shard one, or a
  /// routed batch when k < 0) and checks the write-side counts. With
  /// `swap_in`, the three-shard service swaps it into shard k instead: a
  /// handle whose edges are those the batch leaves.
  void publish(const std::vector<EdgeUpdate>& batch, int k,
               shard::ShardHandlePtr swap_in = nullptr) {
    auto next = std::make_shared<State>();
    next->edges = cur_->edges;
    std::int64_t applied = 0;
    for (const EdgeUpdate& up : batch) {
      const std::pair<vidx_t, vidx_t> e{up.u, up.v};
      if (up.insert == (next->edges.count(e) != 0)) continue;  // a no-op
      if (up.insert)
        next->edges.insert(e);
      else
        next->edges.erase(e);
      ++applied;
    }
    const std::int64_t ignored =
        static_cast<std::int64_t>(batch.size()) - applied;
    const PublishResult r1 = k < 0 ? one_->apply_updates(batch)
                                   : one_->apply_updates_shard(0, batch);
    const bool swapped = swap_in != nullptr;
    PublishResult r3{};
    if (swapped) {
      three_->swap_shard(k, std::move(swap_in));
      r3.applied = applied;
      r3.ignored = ignored;
    } else {
      r3 = k < 0 ? three_->apply_updates(batch)
                 : three_->apply_updates_shard(k, batch);
    }
    const count_t before = cur_->answers(n1_, n2_).global;
    cur_ = next;
    ++epoch_;
    const count_t after = cur_->answers(n1_, n2_).global;
    std::ostringstream at;
    at << (k < 0 ? "apply_updates"
                 : std::string(swapped ? "swap_shard(" : "apply_updates_shard(") +
                       std::to_string(k) + ")")
       << " of " << batch.size() << " updates: ";
    if (r1.epoch != epoch_)
      fail(at.str() + "one-shard epoch " + std::to_string(r1.epoch) +
           ", expected " + std::to_string(epoch_));
    if (r1.applied != applied || r1.ignored != ignored ||
        r3.applied != applied || r3.ignored != ignored)
      fail(at.str() + "applied/ignored " + std::to_string(r1.applied) + "/" +
           std::to_string(r1.ignored) + " (one) " + std::to_string(r3.applied) +
           "/" + std::to_string(r3.ignored) + " (three), expected " +
           std::to_string(applied) + "/" + std::to_string(ignored));
    if (r1.created - r1.destroyed != after - before)
      fail(at.str() + "one-shard created-destroyed " +
           std::to_string(r1.created - r1.destroyed) + ", oracle delta " +
           std::to_string(after - before));
    check_shards(*one_, at.str());
    check_shards(*three_, at.str());
  }

  /// Every published shard snapshot's maintained tips and certified
  /// top-pair lists against oracles on the edges that shard owns (with one
  /// shard, all of them). A published snapshot certifies every k ≤ K′.
  void check_shards(const ButterflyService& s, const std::string& at) {
    constexpr std::size_t kCapacity = count::TopPairBuffer::kCapacity;
    const shard::RangePartition& part = s.shard_store().partition();
    for (int k = 0; k < s.shard_count(); ++k) {
      std::vector<std::pair<vidx_t, vidx_t>> owned;
      for (const std::pair<vidx_t, vidx_t>& e : cur_->edges)
        if (part.owner(e.first) == k) owned.push_back(e);
      const auto g = graph::BipartiteGraph::from_edges(n1_, n2_, owned);
      const SnapshotPtr snap = s.shard_store().shard_snapshot(k);
      const std::string shard = "shard " + std::to_string(k) + " of " +
                                std::to_string(s.shard_count());
      if (snap->tips_v1 != count::butterflies_per_v1(g) ||
          snap->tips_v2 != count::butterflies_per_v2(g))
        return fail(at + shard + ": maintained tips differ from the oracle");
      const std::vector<count::VertexPair> top =
          count::top_wedge_pairs_v1(g, kCapacity);
      for (std::size_t want = 0; want <= kCapacity; ++want) {
        const auto got = snap->top_pairs.certified(want);
        if (!got || !std::ranges::equal(
                        *got, std::span(top).first(std::min(want, top.size()))))
          return fail(at + shard + ": certified top " + std::to_string(want) +
                      " pairs differ from the oracle");
      }
    }
  }

  void persist() {
    one_->persist(path1_);
    three_->persist(path3_);
    persisted_ = Pin{nullptr, nullptr, nullptr, cur_, epoch_};
  }

  /// Swaps a LocalShard restored from the last checkpoint into a random
  /// shard of the three-shard service; the one-shard service reaches the
  /// same edges with one batch.
  void swap() {
    if (!persisted_) return;
    const int k = static_cast<int>(rng_.bounded(kShards));
    auto local = std::make_shared<shard::LocalShard>(k, n1_, n2_,
                                                     part_.begin(k),
                                                     part_.end(k));
    local->restore(path3_ + ".shard" + std::to_string(k));
    std::vector<EdgeUpdate> batch;
    const Edges& was = persisted_->state->edges;
    for (const std::pair<vidx_t, vidx_t>& e : cur_->edges)
      if (part_.owner(e.first) == k && was.count(e) == 0)
        batch.push_back(EdgeUpdate::del(e.first, e.second));
    for (const std::pair<vidx_t, vidx_t>& e : was)
      if (part_.owner(e.first) == k && cur_->edges.count(e) == 0)
        batch.push_back(EdgeUpdate::add(e.first, e.second));
    publish(batch, k, std::move(local));
  }

  /// A pinned view's cross aggregate against a full pass over its
  /// snapshots (with one shard, the shared empty aggregate).
  void check_cross(const shard::ShardView& view, const char* which) {
    if (!view.cross ||
        !view.cross->answers_like(shard::ScatterGather::compute(view)))
      fail(std::string(which) +
           " pin: the view's cross aggregate differs from a full pass");
  }

  void restore() {
    if (!persisted_) return;
    one_->restore(path1_);
    three_->restore(path3_);
    cur_ = persisted_->state;
    epoch_ = persisted_->epoch;
    // Epochs restart from the checkpoint, so the pins taken before the
    // restore name states that no longer exist.
    pins_.clear();
  }

  void queries() {
    if (rng_.bernoulli(0.2)) {
      pins_.push_back(
          Pin{one_->snapshot(), one_->view(), three_->view(), cur_, epoch_});
      check_cross(*pins_.back().one_view, "one-shard");
      check_cross(*pins_.back().three, "three-shard");
      if (pins_.size() > 3) pins_.erase(pins_.begin());
    }
    // Drawn in every build so a seed replays the same program everywhere.
    const bool saturate = rng_.bernoulli(0.3) && chk::kCheckedEnabled;
    std::optional<fault::Scoped> saturated;
    if (saturate)
      saturated.emplace(fault::Point::kQueueSaturation, 0, 1u << 30);
    const int count = 1 + static_cast<int>(rng_.bounded(3));
    for (int i = 0; i < count && error_.empty(); ++i) {
      const Pin* pin = nullptr;
      if (!pins_.empty() && rng_.bernoulli(0.4))
        pin = &pins_[rng_.bounded(pins_.size())];
      check(random_query(), pin, saturate);
    }
  }

  Query random_query() {
    Query q;
    q.kind = static_cast<QueryKind>(rng_.bounded(kQueryKinds));
    switch (q.kind) {
      case QueryKind::kGlobalCount: break;
      case QueryKind::kVertexTipV1:
        q.a = static_cast<vidx_t>(
            rng_.bounded(static_cast<std::uint64_t>(n1_)));
        break;
      case QueryKind::kVertexTipV2:
        q.a = static_cast<vidx_t>(
            rng_.bounded(static_cast<std::uint64_t>(n2_)));
        break;
      case QueryKind::kEdgeSupport:
        // Mostly present edges (support is 0 for absent ones).
        if (!cur_->edges.empty() && rng_.bernoulli(0.7)) {
          auto it = cur_->edges.begin();
          std::advance(it, static_cast<long>(rng_.bounded(cur_->edges.size())));
          q.a = it->first;
          q.b = it->second;
        } else {
          q.a = static_cast<vidx_t>(
              rng_.bounded(static_cast<std::uint64_t>(n1_)));
          q.b = static_cast<vidx_t>(
              rng_.bounded(static_cast<std::uint64_t>(n2_)));
        }
        break;
      case QueryKind::kTopPairs:
        // k ≤ K′ reads the shards' buffers; k > K′ takes the pass.
        q.a = static_cast<vidx_t>(
            1 + rng_.bounded(4) +
            (rng_.bernoulli(0.5) ? count::TopPairBuffer::kCapacity : 0));
        break;
    }
    return q;
  }

  /// The oracle's answer to q on `state`.
  Answer oracle(const Query& q, const State& state) const {
    const State::Answers& o = state.answers(n1_, n2_);
    Answer a;
    switch (q.kind) {
      case QueryKind::kGlobalCount: a.value = o.global; break;
      case QueryKind::kVertexTipV1:
        a.value = o.tips_v1[static_cast<std::size_t>(q.a)];
        break;
      case QueryKind::kVertexTipV2:
        a.value = o.tips_v2[static_cast<std::size_t>(q.a)];
        break;
      case QueryKind::kEdgeSupport: {
        const auto it = o.support.find({q.a, q.b});
        a.value = it == o.support.end() ? 0 : it->second;
        break;
      }
      case QueryKind::kTopPairs:
        a.pairs = count::top_wedge_pairs_v1(o.g, static_cast<std::size_t>(q.a));
        break;
    }
    return a;
  }

  static bool same(const Answer& x, const Answer& y) {
    return x.value == y.value && x.pairs == y.pairs;
  }

  /// The value or pair list alone (how the oracle answers).
  static std::string show_value(const Answer& a) {
    if (a.pairs.empty()) return std::to_string(a.value);
    std::ostringstream s;
    for (const count::VertexPair& p : a.pairs)
      s << "(" << p.a << "," << p.b << ":" << p.wedges << ")";
    return s.str();
  }

  static std::string show(const Answer& a) {
    if (a.shed) return "shed";
    return std::string(fidelity_name(a.fidelity)) + "@" +
           std::to_string(a.epoch) + " " + show_value(a);
  }

  void check(const Query& q, const Pin* pin, bool saturated) {
    const StatePtr state = pin ? pin->state : cur_;
    const std::uint64_t epoch = pin ? pin->epoch : epoch_;
    // A one-shard pin goes in as the snapshot or as the view over it.
    const Request req1 = !pin                  ? Request()
                         : rng_.bernoulli(0.5) ? Request(pin->one)
                                               : Request(pin->one_view);
    const Answer one = ask(*one_, q, req1);
    const Answer three = ask(*three_, q, pin ? Request(pin->three) : Request());
    const Answer want = oracle(q, *state);
    for (const Answer* a : {&one, &three})
      ++(a->shed ? tally_.shed : tally_.exact);
    const std::string at = describe(q) +
                           (pin ? " pinned at epoch " : " at epoch ") +
                           std::to_string(epoch) +
                           (saturated ? " (saturated)" : "") + ": one " +
                           show(one) + ", three " + show(three) + ", oracle " +
                           show_value(want);

    // A read sheds only when it queues into a saturated queue; every
    // answer is exact at the pinned epoch, and the two services agree.
    const bool may_shed = saturated && queues(q);
    if (one.shed) {
      if (!may_shed) return fail(at + ": one-shard query shed");
    } else if (one.fidelity != Fidelity::kExact) {
      return fail(at + ": one-shard answer degraded");
    } else if (!same(one, want) || one.epoch != epoch) {
      return fail(at + ": one-shard exact answer wrong");
    }
    if (three.shed) {
      if (!may_shed) return fail(at + ": three-shard query shed");
    } else if (three.fidelity != Fidelity::kExact) {
      return fail(at + ": three-shard answer degraded");
    } else if (!same(three, want)) {
      return fail(at + ": three-shard exact answer wrong");
    } else if (!one.shed && !same(one, three)) {
      return fail(at + ": shards=3 disagrees with shards=1");
    }
  }

  Tally& tally_;
  Rng rng_;
  vidx_t n1_;
  vidx_t n2_;
  shard::RangePartition part_;
  std::string path1_;
  std::string path3_;
  std::unique_ptr<ButterflyService> one_;
  std::unique_ptr<ButterflyService> three_;
  StatePtr cur_;
  std::uint64_t epoch_ = 0;
  std::vector<Pin> pins_;
  std::optional<Pin> persisted_;
  std::string error_;
};

void remove_checkpoints(const std::string& path) {
  for (const char* suffix :
       {".one", ".one.tmp", ".three", ".three.tmp", ".three.shard0",
        ".three.shard1", ".three.shard2", ".three.shard0.tmp",
        ".three.shard1.tmp", ".three.shard2.tmp"})
    std::remove((path + suffix).c_str());
}

class ServingDiff : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { fault::reset(); }
};

TEST_P(ServingDiff, RandomProgramsMatchOracles) {
  const std::string path = ::testing::TempDir() + "bfc_serving_diff_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(GetParam());
  std::uint64_t first =
      kFirstSeed + static_cast<std::uint64_t>(GetParam()) * kProgramsPerChunk;
  std::uint64_t programs = kProgramsPerChunk;
  if (const char* one = std::getenv("BFC_SERVING_DIFF_SEED")) {
    if (GetParam() != 0) GTEST_SKIP() << "replaying one seed in chunk 0";
    first = std::strtoull(one, nullptr, 10);
    programs = 1;
  }
  int failures = 0;
  Tally tally;
  for (std::uint64_t seed = first; seed < first + programs && failures < 3;
       ++seed) {
    remove_checkpoints(path);
    const std::string error = Program(seed, path, tally).run();
    if (!error.empty()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << ": " << error;
    }
  }
  remove_checkpoints(path);
  std::printf("seeds %llu..%llu: %lld exact, %lld shed\n",
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(first + programs - 1),
              static_cast<long long>(tally.exact),
              static_cast<long long>(tally.shed));
}

INSTANTIATE_TEST_SUITE_P(Chunks, ServingDiff, ::testing::Range(0, kChunks));

// ---------------------------------------------------------------------------
// The version contract: a view's version is the sum of its pinned shard
// epochs, so with one shard it is that shard's epoch — also across restore().
// ---------------------------------------------------------------------------

std::uint64_t epoch_sum(const shard::ShardView& view) {
  std::uint64_t sum = 0;
  for (const SnapshotPtr& s : view.shards) sum += s->epoch;
  return sum;
}

std::vector<EdgeUpdate> updates(vidx_t n1, vidx_t n2, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeUpdate> batch;
  for (int i = 0; i < 12; ++i)
    batch.push_back({static_cast<vidx_t>(rng.bounded(
                         static_cast<std::uint64_t>(n1))),
                     static_cast<vidx_t>(rng.bounded(
                         static_cast<std::uint64_t>(n2))),
                     rng.bernoulli(0.8)});
  return batch;
}

TEST(ServingVersion, ViewVersionIsTheSumOfPinnedShardEpochs) {
  const std::string path = ::testing::TempDir() + "bfc_serving_version_" +
                           std::to_string(::getpid());
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ButterflyService service(9, 6, {.threads = 1, .shards = shards});
    EXPECT_EQ(service.view()->version, 0u);
    for (std::uint64_t b = 0; b < 3; ++b) {
      const PublishResult r = service.apply_updates(updates(9, 6, 40 + b));
      const shard::ShardViewPtr v = service.view();
      EXPECT_EQ(v->version, epoch_sum(*v));
      EXPECT_EQ(r.epoch, v->version);
    }
    // A shard-scoped publish adds one (vertex 8 is the last shard's).
    const std::uint64_t before = service.view()->version;
    (void)service.apply_updates_shard(shards - 1, {EdgeUpdate::add(8, 0)});
    EXPECT_EQ(service.view()->version, before + 1);
    EXPECT_EQ(service.view()->version, epoch_sum(*service.view()));

    service.persist(path);
    const std::uint64_t persisted = service.view()->version;
    (void)service.apply_updates(updates(9, 6, 50));
    (void)service.apply_updates(updates(9, 6, 51));
    service.restore(path);
    const shard::ShardViewPtr v = service.view();
    EXPECT_EQ(v->version, epoch_sum(*v));
    EXPECT_EQ(v->version, persisted);
    EXPECT_EQ(service.global_count().get().epoch, v->version);
    const PublishResult next = service.apply_updates(updates(9, 6, 52));
    EXPECT_EQ(next.epoch, epoch_sum(*service.view()));
    for (const char* suffix : {"", ".shard0", ".shard1", ".shard2"})
      std::remove((path + suffix).c_str());
  }
}

TEST(ServingVersion, OneShardRestoreKeepsEpochsAligned) {
  const std::string path = ::testing::TempDir() + "bfc_serving_version1_" +
                           std::to_string(::getpid());
  ButterflyService service(7, 5, {.threads = 1});
  for (std::uint64_t b = 0; b < 3; ++b)
    (void)service.apply_updates(updates(7, 5, 60 + b));
  service.persist(path);
  (void)service.apply_updates(updates(7, 5, 70));
  (void)service.apply_updates(updates(7, 5, 71));
  service.restore(path);  // back to epoch 3

  const std::uint64_t epoch = service.store().epoch();
  EXPECT_EQ(epoch, 3u);
  EXPECT_EQ(service.view()->version, epoch);
  EXPECT_EQ(service.global_count().get().epoch, epoch);
  EXPECT_EQ(service.vertex_tip_v1(0).get().epoch, epoch);
  EXPECT_EQ(service.apply_updates(updates(7, 5, 72)).epoch - 1, epoch);
  std::remove(path.c_str());
}

/// Every query kind on `view` against the oracle answers of `edges`.
void expect_answers(ButterflyService& service, const shard::ShardViewPtr& view,
                    const State& state) {
  const State::Answers& want = state.answers(9, 6);
  const Request req(view);
  EXPECT_EQ(service.global_count(req).get().value, want.global);
  EXPECT_EQ(service.vertex_tip_v1(7, req).get().value, want.tips_v1[7]);
  EXPECT_EQ(service.vertex_tip_v1(0, req).get().value, want.tips_v1[0]);
  EXPECT_EQ(service.vertex_tip_v2(3, req).get().value, want.tips_v2[3]);
  EXPECT_EQ(service.edge_support(7, 3, req).get().value,
            want.support.at({7, 3}));
  const QueryResult<TopPairsPtr> top = service.top_pairs(4, req).get();
  EXPECT_EQ(*top.value, count::top_wedge_pairs_v1(want.g, 4));
  EXPECT_EQ(top.epoch, view->version);
  EXPECT_FALSE(top.degraded());
}

// A view pinned before restore() keeps its own answers once post-restore
// publishes re-reach its epochs with different content: the caches and
// memos key by the snapshot lineage as well as the epoch. Vertices 0, 4 and
// 7 sit on shards 0, 1 and 2 of three.
TEST(ServingRestore, PinnedViewKeepsItsAnswersAfterRestore) {
  const std::string path = ::testing::TempDir() + "bfc_serving_restore_" +
                           std::to_string(::getpid());
  const auto add = EdgeUpdate::add;
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ButterflyService service(9, 6, {.threads = 1, .shards = shards});
    State base;
    base.edges = {{0, 0}, {0, 1}, {4, 0}, {4, 1}};
    (void)service.apply_updates({add(0, 0), add(0, 1), add(4, 0), add(4, 1)});
    service.persist(path);

    // State A: a butterfly local to vertices 7 and 8.
    State a;
    a.edges = base.edges;
    a.edges.insert({{7, 3}, {7, 4}, {8, 3}, {8, 4}});
    (void)service.apply_updates({add(7, 3), add(7, 4), add(8, 3), add(8, 4)});
    const shard::ShardViewPtr pinned = service.view();

    // State B at the same epochs: vertex 7 closes butterflies with 0 and 4
    // instead, and edge (7, 3) is in none.
    service.restore(path);
    State b;
    b.edges = base.edges;
    b.edges.insert({{7, 0}, {7, 1}, {7, 3}, {8, 3}});
    (void)service.apply_updates({add(7, 0), add(7, 1), add(7, 3), add(8, 3)});
    const shard::ShardViewPtr latest = service.view();
    ASSERT_EQ(latest->version, pinned->version);
    ASSERT_NE(a.answers(9, 6).tips_v1[7], b.answers(9, 6).tips_v1[7]);

    expect_answers(service, latest, b);
    expect_answers(service, pinned, a);
    expect_answers(service, latest, b);
    for (const char* suffix : {"", ".shard0", ".shard1", ".shard2"})
      std::remove((path + suffix).c_str());
  }
}

}  // namespace
}  // namespace bfc::svc
