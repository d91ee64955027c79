// Tests for the out-of-process shard seam (src/shard/transport.hpp,
// remote.hpp, supervisor.hpp): wire codec roundtrips, protocol parity of a
// RemoteShard against the LocalShard it proxies (served in-process by
// serve_connection on a real Unix socket), the retry/circuit-breaker state
// machine under injected transport faults (driven through epoch() and
// pin(), which never throw), the pin-serves-last-known
// contract when the host dies, a sharded service composing its cross
// aggregate across a host that moved on its own, and — when
// BFC_SHARD_HOST_BIN points at the
// real bfc-shard-host binary — supervised crash/restart/restore across
// actual process boundaries.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chk/check.hpp"
#include "count/baselines.hpp"
#include "count/local_counts.hpp"
#include "count/top_pairs.hpp"
#include "obs/metrics.hpp"
#include "shard/remote.hpp"
#include "shard/scatter_gather.hpp"
#include "shard/shard.hpp"
#include "shard/supervisor.hpp"
#include "shard/transport.hpp"
#include "svc/fault.hpp"
#include "svc/service.hpp"
#include "test_helpers.hpp"

namespace bfc::shard {
namespace {

using namespace std::chrono_literals;

/// Short socket paths (sun_path is 108 bytes; TempDir can be long).
std::string sock_path(const std::string& stem) {
  return "/tmp/bfc_" + stem + "_" + std::to_string(::getpid()) + ".sock";
}

/// Serves one ShardHandle on a listening socket from a background thread —
/// the protocol without the process boundary, so transport tests stay fast
/// and runnable everywhere.
class InProcHost {
 public:
  InProcHost(std::string path, ShardHandle& shard)
      : path_(std::move(path)), lfd_(listen_unix(path_)) {
    server_ = std::jthread([this, &shard](const std::stop_token& st) {
      while (!st.stop_requested()) {
        const int fd = ::accept(lfd_, nullptr, nullptr);
        if (fd < 0) break;
        if (st.stop_requested()) {
          ::close(fd);
          break;
        }
        serve_connection(fd, shard, /*idle_timeout_ms=*/2000);
        ::close(fd);
      }
    });
  }

  ~InProcHost() {
    server_.request_stop();
    // Wake the blocking accept with one throwaway connection.
    try {
      ::close(connect_unix(path_, 200));
    } catch (...) {  // server already gone: accept has already returned
    }
    server_.join();
    ::close(lfd_);
    ::unlink(path_.c_str());
  }

  InProcHost(const InProcHost&) = delete;
  InProcHost& operator=(const InProcHost&) = delete;

 private:
  std::string path_;
  int lfd_;
  std::jthread server_;
};

/// A 2x2 biclique = exactly one butterfly, four edges.
std::vector<svc::EdgeUpdate> butterfly_square() {
  return {svc::EdgeUpdate::add(0, 0), svc::EdgeUpdate::add(0, 1),
          svc::EdgeUpdate::add(1, 0), svc::EdgeUpdate::add(1, 1)};
}

std::int64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

/// Fast-failing client options so breaker tests run in milliseconds.
RemoteOptions fast_opts() {
  RemoteOptions o;
  o.call_timeout_ms = 300;
  o.transfer_timeout_ms = 1000;
  o.max_attempts = 2;
  o.backoff_base_ms = 1;
  o.failure_threshold = 3;
  o.open_cooldown_ms = 40;
  return o;
}

TEST(WireCodec, PayloadCursorRoundTrip) {
  wire::Payload p;
  p.u8(7);
  p.u64(0xdeadbeefcafe1234ULL);
  p.i64(-42);
  p.str("hello, shard");
  p.str("");  // empty strings are legal
  wire::Cursor c(p.view());
  EXPECT_EQ(c.u8(), 7);
  EXPECT_EQ(c.u64(), 0xdeadbeefcafe1234ULL);
  EXPECT_EQ(c.i64(), -42);
  EXPECT_EQ(c.str(), "hello, shard");
  EXPECT_EQ(c.str(), "");
  EXPECT_TRUE(c.done());
}

TEST(WireCodec, ShortPayloadThrowsNotReadsGarbage) {
  wire::Payload p;
  p.u8(1);
  wire::Cursor c(p.view());
  (void)c.u8();
  EXPECT_THROW((void)c.u64(), ShardUnavailableError);
}

TEST(WireCodec, BatchAndPublishRoundTrip) {
  const std::vector<svc::EdgeUpdate> batch = {
      svc::EdgeUpdate::add(3, 1), svc::EdgeUpdate::del(7, 0),
      svc::EdgeUpdate::add(0, 5)};
  const std::vector<svc::EdgeUpdate> back =
      wire::decode_batch(wire::encode_batch(batch));
  ASSERT_EQ(back.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(back[i].u, batch[i].u);
    EXPECT_EQ(back[i].v, batch[i].v);
    EXPECT_EQ(back[i].insert, batch[i].insert);
  }

  svc::PublishResult r;
  r.epoch = 9;
  r.applied = 12;
  r.ignored = 3;
  r.created = 5;
  r.destroyed = 2;
  const svc::PublishResult r2 = wire::decode_publish(wire::encode_publish(r));
  EXPECT_EQ(r2.epoch, 9u);
  EXPECT_EQ(r2.applied, 12);
  EXPECT_EQ(r2.ignored, 3);
  EXPECT_EQ(r2.created, 5);
  EXPECT_EQ(r2.destroyed, 2);
}

TEST(WireCodec, SnapshotRoundTripCarriesGraphAndCounts) {
  LocalShard shard(0, 6, 5, 0, 6);
  const std::vector<svc::EdgeUpdate> batch = {
      svc::EdgeUpdate::add(0, 0), svc::EdgeUpdate::add(0, 1),
      svc::EdgeUpdate::add(2, 0), svc::EdgeUpdate::add(2, 1)};
  (void)shard.apply(batch);
  const svc::SnapshotPtr snap = shard.pin();
  const svc::SnapshotPtr back =
      wire::decode_snapshot(wire::encode_snapshot(*snap), /*lineage=*/0);
  EXPECT_EQ(back->epoch, snap->epoch);
  EXPECT_EQ(back->butterflies, 1);
  EXPECT_EQ(back->edges, 4);
  EXPECT_EQ(back->graph.n1(), 6);
  EXPECT_EQ(back->graph.n2(), 5);
  EXPECT_EQ(count::wedge_reference(back->graph), 1);
}

TEST(RemoteShardProto, ParityWithTheLocalShardItProxies) {
  const std::string sock = sock_path("parity");
  LocalShard host(0, 8, 6, 0, 8);
  InProcHost server(sock, host);
  RemoteShard remote(0, 8, 6, 0, 8, sock, fast_opts());

  // Publish THROUGH the socket; the host's LocalShard is the reference.
  std::vector<svc::EdgeUpdate> batch;
  for (vidx_t u = 0; u < 4; ++u)
    for (vidx_t v = 0; v < 3; ++v) batch.push_back(svc::EdgeUpdate::add(u, v));
  const svc::PublishResult pub = remote.apply(batch);
  EXPECT_EQ(pub.epoch, 1u);
  EXPECT_EQ(pub.applied, 12);
  EXPECT_EQ(host.epoch(), 1u);

  const svc::SnapshotPtr ref = host.pin();
  const svc::SnapshotPtr got = remote.pin();
  EXPECT_EQ(got->epoch, ref->epoch);
  EXPECT_EQ(got->butterflies, ref->butterflies);
  EXPECT_EQ(got->edges, ref->edges);
  // The fetched snapshot's tips are the client's own recount, and equal the
  // host's maintained ones.
  EXPECT_EQ(got->tips_v1, count::butterflies_per_v1(got->graph));
  EXPECT_EQ(got->tips_v2, count::butterflies_per_v2(got->graph));
  EXPECT_EQ(got->tips_v1, ref->tips_v1);
  EXPECT_EQ(got->tips_v2, ref->tips_v2);
  // So is its top-pair buffer, one pass on the received graph.
  EXPECT_EQ(got->top_pairs, count::TopPairBuffer::of(got->graph));
  EXPECT_TRUE(std::ranges::equal(*got->top_pairs.certified(3),
                                 *ref->top_pairs.certified(3)));
  EXPECT_EQ(remote.epoch(), 1u);
  EXPECT_TRUE(remote.healthy());

  // Semantic errors (host replied kError) cross as std::runtime_error and
  // leave the breaker alone: the host is alive, it just said no.
  EXPECT_THROW(remote.restore("/tmp/bfc_no_such_ckpt.bin"),
               std::runtime_error);
  EXPECT_TRUE(remote.healthy()) << "a kError reply must not trip the breaker";
  EXPECT_EQ(remote.circuit(), CircuitState::kClosed);
}

TEST(RemoteShardProto, PinServesLastKnownSnapshotAfterHostDeath) {
  const std::string sock = sock_path("pincache");
  RemoteOptions opts = fast_opts();
  LocalShard host(0, 6, 4, 0, 6);
  auto server = std::make_unique<InProcHost>(sock, host);
  RemoteShard remote(0, 6, 4, 0, 6, sock, opts);
  (void)remote.apply(butterfly_square());
  const svc::SnapshotPtr live = remote.pin();
  ASSERT_EQ(live->butterflies, 1);

  server.reset();  // the host is gone; the socket path dangles

  // pin() NEVER throws: each call fails its epoch probe (counting toward
  // the breaker) and serves the last transferred snapshot.
  for (int i = 0; i < 3; ++i) {
    const svc::SnapshotPtr cached = remote.pin();
    EXPECT_EQ(cached->epoch, live->epoch);
    EXPECT_EQ(cached->butterflies, live->butterflies);
  }
  EXPECT_FALSE(remote.healthy());
  EXPECT_EQ(remote.circuit(), CircuitState::kOpen);
  // Writes fail fast while open — no socket, no retry storm.
  const std::vector<svc::EdgeUpdate> one = {svc::EdgeUpdate::add(2, 2)};
  EXPECT_THROW((void)remote.apply(one), ShardUnavailableError);
}

// A batch applied to the host's LocalShard directly, not through the
// service, moves shard 1 behind the service's last composed aggregate. The
// next view's aggregate, composed by comparing the shard's rows, must equal
// a full pass, and every query must match one store holding the same edges.
TEST(RemoteShardProto, ComposesAcrossAHostThatMovedOnItsOwn) {
  const std::string sock = sock_path("moved");
  constexpr vidx_t kN1 = 9;  // shards own [0, 3), [3, 6) and [6, 9)
  constexpr vidx_t kN2 = 6;
  svc::ButterflyService service(kN1, kN2, {.threads = 1, .shards = 3});
  svc::ButterflyService one(kN1, kN2, {.threads = 1});
  LocalShard host(1, kN1, kN2, 3, 6);
  InProcHost server(sock, host);
  service.swap_shard(
      1, std::make_shared<RemoteShard>(1, kN1, kN2, 3, 6, sock, fast_opts()));

  Rng rng(17);
  std::vector<svc::EdgeUpdate> all;
  for (vidx_t u = 0; u < kN1; ++u)
    for (vidx_t v = 0; v < kN2; ++v)
      if (rng.bernoulli(0.5)) all.push_back(svc::EdgeUpdate::add(u, v));
  (void)service.apply_updates(all);
  (void)one.apply_updates(all);
  const shard::ShardViewPtr before = service.view();  // the base

  std::vector<svc::EdgeUpdate> moved;
  for (vidx_t u = 3; u < 6; ++u)
    for (vidx_t v = 0; v < kN2; ++v)
      if (rng.bernoulli(0.4)) moved.push_back({u, v, rng.bernoulli(0.5)});
  (void)host.apply(moved);
  (void)one.apply_updates(moved);

  const shard::ShardViewPtr view = service.view();
  ASSERT_NE(view->shards[1], before->shards[1]) << "the host's move is seen";
  EXPECT_TRUE(view->cross->answers_like(shard::ScatterGather::compute(*view)));
  const svc::Request req(view);
  EXPECT_EQ(service.global_count(req).get().value,
            one.global_count().get().value);
  for (vidx_t u = 0; u < kN1; ++u)
    EXPECT_EQ(service.vertex_tip_v1(u, req).get().value,
              one.vertex_tip_v1(u).get().value)
        << "tip_v1(" << u << ")";
  for (vidx_t v = 0; v < kN2; ++v) {
    EXPECT_EQ(service.vertex_tip_v2(v, req).get().value,
              one.vertex_tip_v2(v).get().value)
        << "tip_v2(" << v << ")";
    for (vidx_t u = 0; u < kN1; ++u)
      EXPECT_EQ(service.edge_support(u, v, req).get().value,
                one.edge_support(u, v).get().value)
          << "support(" << u << ", " << v << ")";
  }
  for (const std::size_t k : {std::size_t{4}, count::TopPairBuffer::kCapacity + 1})
    EXPECT_EQ(*service.top_pairs(k, req).get().value,
              *one.top_pairs(k).get().value)
        << "top_pairs(" << k << ")";
}

// ---------------------------------------------------------------------------
// Fault-injected transport paths (checked builds only)
// ---------------------------------------------------------------------------

class TransportFaultGated : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!chk::kCheckedEnabled)
      GTEST_SKIP() << "fault injection compiled out (BFC_CHECKED=OFF)";
  }
  void TearDown() override { svc::fault::reset(); }

  static constexpr std::uint64_t kForever = 1u << 20;
};

TEST_F(TransportFaultGated, RetriesAbsorbATransientDrop) {
  const std::string sock = sock_path("transient");
  LocalShard host(0, 4, 4, 0, 4);
  InProcHost server(sock, host);
  RemoteShard remote(0, 4, 4, 0, 4, sock, fast_opts());
  (void)remote.apply(butterfly_square());  // epoch 1
  const std::int64_t retries0 = counter_value("svc.remote.retries");
  // Exactly one dropped leg: the first attempt fails, the retry answers.
  const svc::fault::Scoped drop(svc::fault::Point::kTransportDrop, 0, 1);
  EXPECT_EQ(remote.epoch(), 1u);
  EXPECT_EQ(svc::fault::fired_count(svc::fault::Point::kTransportDrop), 1u);
  if (obs::kMetricsEnabled)
    EXPECT_EQ(counter_value("svc.remote.retries"), retries0 + 1);
  EXPECT_TRUE(remote.healthy());
  EXPECT_EQ(remote.circuit(), CircuitState::kClosed);
}

TEST_F(TransportFaultGated, DropsOpenTheCircuitAndCooldownRecloses) {
  const std::string sock = sock_path("breaker");
  RemoteOptions opts = fast_opts();
  LocalShard host(0, 4, 4, 0, 4);
  InProcHost server(sock, host);
  RemoteShard remote(0, 4, 4, 0, 4, sock, opts);
  (void)remote.apply(butterfly_square());  // epoch 1
  ASSERT_EQ(remote.pin()->epoch, 1u);      // healthy baseline

  {
    const svc::fault::Scoped drop(svc::fault::Point::kTransportDrop, 0,
                                  kForever);
    // Every leg drops: each probe exhausts its attempts, records one
    // failure and serves the last known epoch; failure_threshold of them
    // open the breaker.
    for (int i = 0; i < opts.failure_threshold; ++i) {
      EXPECT_EQ(remote.circuit(), CircuitState::kClosed) << "probe " << i;
      EXPECT_EQ(remote.epoch(), 1u);
    }
    EXPECT_EQ(remote.circuit(), CircuitState::kOpen);
    EXPECT_FALSE(remote.healthy());
    // While open and inside the cooldown: fail fast, no socket touched and
    // so no retry, and the last pinned snapshot still serves.
    const std::int64_t retries0 = counter_value("svc.remote.retries");
    const std::uint64_t fired0 =
        svc::fault::fired_count(svc::fault::Point::kTransportDrop);
    EXPECT_EQ(remote.pin()->epoch, 1u);
    EXPECT_EQ(svc::fault::fired_count(svc::fault::Point::kTransportDrop),
              fired0);
    EXPECT_EQ(counter_value("svc.remote.retries"), retries0);
  }

  // Fault disarmed: after the cooldown one probe passes half-open and its
  // success recloses the breaker.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(opts.open_cooldown_ms + 10));
  EXPECT_EQ(remote.epoch(), 1u);
  EXPECT_EQ(remote.circuit(), CircuitState::kClosed);
  EXPECT_TRUE(remote.healthy());
}

TEST_F(TransportFaultGated, DelayTripsThePerLegTimeout) {
  const std::string sock = sock_path("delay");
  RemoteOptions opts = fast_opts();
  opts.call_timeout_ms = 30;
  opts.max_attempts = 1;
  opts.failure_threshold = 1;
  LocalShard host(0, 4, 4, 0, 4);
  InProcHost server(sock, host);
  RemoteShard remote(0, 4, 4, 0, 4, sock, opts);
  const std::int64_t timeouts0 = counter_value("svc.remote.timeouts");
  // Stall 10× the leg budget before the receive: the probe times out
  // (counted as a timeout, not only as a failure), which opens the
  // one-failure breaker, and serves the last known epoch.
  const svc::fault::Scoped delay(svc::fault::Point::kTransportDelay, 0, 1,
                                 /*ms=*/300);
  EXPECT_EQ(remote.epoch(), 0u);
  EXPECT_EQ(svc::fault::fired_count(svc::fault::Point::kTransportDelay), 1u);
  if (obs::kMetricsEnabled)
    EXPECT_EQ(counter_value("svc.remote.timeouts"), timeouts0 + 1);
  EXPECT_EQ(remote.circuit(), CircuitState::kOpen);
  EXPECT_FALSE(remote.healthy());
}

TEST_F(TransportFaultGated, OpenCircuitDegradesShardedAnswersNotQueries) {
  const std::string sock = sock_path("stale");
  RemoteOptions opts = fast_opts();
  svc::ButterflyService service(8, 6, {.threads = 1, .shards = 2});
  // K_{3,3} on shard 0's range [0, 4): all butterflies live there.
  std::vector<svc::EdgeUpdate> k33;
  for (vidx_t u = 0; u < 3; ++u)
    for (vidx_t v = 0; v < 3; ++v) k33.push_back(svc::EdgeUpdate::add(u, v));

  LocalShard host(0, 8, 6, 0, 4);
  InProcHost server(sock, host);
  service.swap_shard(0, std::make_shared<RemoteShard>(0, 8, 6, 0, 4, sock,
                                                      opts));
  (void)service.apply_updates(k33);
  const svc::QueryResult<count_t> exact = service.global_count().get();
  ASSERT_EQ(exact.value, 9);  // C(3,2)^2 butterflies in K_{3,3}
  ASSERT_FALSE(exact.degraded());
  ASSERT_EQ(exact.stale_shards, 0u);

  // Kill the transport and open shard 0's circuit.
  const svc::fault::Scoped drop(svc::fault::Point::kTransportDrop, 0,
                                kForever);
  const shard::ShardHandlePtr h = service.shard_store().shard(0);
  for (int i = 0; i < opts.failure_threshold; ++i) (void)h->pin();
  ASSERT_FALSE(h->healthy());

  // Scatter query: answered (from the last pinned epoch), tagged stale
  // with shard 0's bit — never failed.
  const svc::QueryResult<count_t> dark = service.global_count().get();
  EXPECT_EQ(dark.value, 9);
  EXPECT_EQ(dark.fidelity, svc::Fidelity::kStale);
  EXPECT_EQ(dark.stale_shards, 1u);

  // Routed query on the HEALTHY shard: a dead shard takes no publishes,
  // so the surviving ranges' answers stay exact.
  const svc::QueryResult<count_t> routed = service.vertex_tip_v1(6).get();
  EXPECT_EQ(routed.value, 0);
  EXPECT_FALSE(routed.degraded());
  EXPECT_EQ(routed.stale_shards, 0u);
  // Routed query on the DARK shard: tagged with exactly its bit.
  const svc::QueryResult<count_t> blind = service.vertex_tip_v1(0).get();
  EXPECT_EQ(blind.value, 6);
  EXPECT_EQ(blind.fidelity, svc::Fidelity::kStale);
  EXPECT_EQ(blind.stale_shards, 1u);
}

// ---------------------------------------------------------------------------
// Real process boundaries: needs the bfc-shard-host binary
// ---------------------------------------------------------------------------

class ShardSupervisorProc : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* bin = std::getenv("BFC_SHARD_HOST_BIN");
    if (bin == nullptr || *bin == '\0')
      GTEST_SKIP() << "BFC_SHARD_HOST_BIN not set (host binary unavailable)";
    binary_ = bin;
  }

  std::string binary_;
};

TEST_F(ShardSupervisorProc, RestartsAKilledHostAndRestoresItsCheckpoint) {
  const std::string sock = sock_path("supervised");
  const std::string ckpt = bfc::testing::temp_path("bfc_supervised.ckpt");
  SupervisorOptions sopts;
  sopts.health_interval_ms = 20;
  ShardSupervisor sup(sopts);
  HostSpec spec;
  spec.binary = binary_;
  spec.socket = sock;
  spec.id = 0;
  spec.n1 = 6;
  spec.n2 = 4;
  spec.lo = 0;
  spec.hi = 6;
  ASSERT_EQ(sup.add_host(spec), 0);
  ASSERT_TRUE(sup.alive(0));
  const pid_t first = sup.pid(0);
  ASSERT_GT(first, 0);

  // Publish a butterfly through the real socket, checkpoint it host-side.
  RemoteShard remote(0, 6, 4, 0, 6, sock, fast_opts());
  (void)remote.apply(butterfly_square());
  remote.persist(ckpt);
  sup.set_snapshot(0, ckpt);

  std::atomic<int> restarted_shard{-1};
  std::atomic<std::uint64_t> restored_epoch{~0ULL};
  sup.start_monitor([&](int k, std::uint64_t epoch) {
    restarted_shard.store(k);
    restored_epoch.store(epoch);
  });
  sup.kill_host(0, SIGKILL);

  // The monitor must notice the SIGKILL, respawn with --restore, and fire
  // the callback. Generous bound; typically well under a second.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (sup.restarts() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(10ms);
  ASSERT_EQ(sup.restarts(), 1u) << "supervisor did not restart the host";
  EXPECT_EQ(restarted_shard.load(), 0);
  EXPECT_EQ(restored_epoch.load(), 1u);
  EXPECT_NE(sup.pid(0), first);
  EXPECT_TRUE(sup.alive(0));

  // The reborn host serves the checkpointed state: same epoch, same count.
  EXPECT_EQ(remote.epoch(), 1u);
  const svc::SnapshotPtr snap = remote.pin();
  EXPECT_EQ(snap->butterflies, 1);
  EXPECT_EQ(snap->edges, 4);
  sup.stop_monitor();
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace bfc::shard
