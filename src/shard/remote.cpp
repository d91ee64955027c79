#include "shard/remote.hpp"

#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace bfc::shard {
namespace {

/// Epoch 0 over the full dimensions, as a freshly started host holds it,
/// under a lineage of its own.
svc::SnapshotPtr empty_snapshot(vidx_t n1, vidx_t n2) {
  auto empty = std::make_shared<svc::GraphSnapshot>();
  empty->lineage = svc::next_lineage();
  empty->graph = graph::BipartiteGraph::from_edges(n1, n2, {});
  empty->tips_v1.assign(static_cast<std::size_t>(n1), 0);
  empty->tips_v2.assign(static_cast<std::size_t>(n2), 0);
  empty->top_pairs.floor = count::VertexPair{};  // no pair is left out
  return empty;
}

}  // namespace

RemoteShard::RemoteShard(int id, vidx_t n1, vidx_t n2, vidx_t lo, vidx_t hi,
                         std::string socket_path, RemoteOptions opts)
    : id_(id),
      n1_(n1),
      n2_(n2),
      lo_(lo),
      hi_(hi),
      socket_(std::move(socket_path)),
      opts_(opts),
      jitter_(opts.jitter_seed + static_cast<std::uint64_t>(id)) {
  require(id >= 0, "RemoteShard: id must be >= 0");
  require(0 <= lo && lo <= hi && hi <= n1,
          "RemoteShard: owned range must satisfy 0 <= lo <= hi <= n1");
  // pin() is total from the first instant.
  {
    const MutexLock lock(mu_);
    cached_ = empty_snapshot(n1, n2);
  }
  if constexpr (obs::kMetricsEnabled) {
    auto& reg = obs::Registry::instance();
    retries_ = &reg.counter("svc.remote.retries");
    timeouts_ = &reg.counter("svc.remote.timeouts");
    // Per-shard families: same literal "svc.shard." prefix discipline as
    // LocalShard's publishes counter (documented in docs/telemetry.md).
    unavailable_ = &reg.counter("svc.shard." + std::to_string(id) +
                                ".unavailable");
    circuit_gauge_ = &reg.gauge("svc.shard." + std::to_string(id) +
                                ".circuit_state");
    circuit_gauge_->set(0.0);
  }
}

void RemoteShard::set_state(CircuitState s) const {
  state_ = s;
  if (circuit_gauge_ != nullptr)
    circuit_gauge_->set(static_cast<double>(static_cast<int>(s)));
}

bool RemoteShard::admit_call() const {
  const MutexLock lock(mu_);
  if (state_ != CircuitState::kOpen) return true;
  const auto now = std::chrono::steady_clock::now();
  if (now - opened_at_ <
      std::chrono::milliseconds(opts_.open_cooldown_ms))
    return false;
  set_state(CircuitState::kHalfOpen);  // one probe may pass
  return true;
}

void RemoteShard::record_success() const {
  const MutexLock lock(mu_);
  failures_ = 0;
  if (state_ != CircuitState::kClosed) set_state(CircuitState::kClosed);
}

void RemoteShard::record_failure() const {
  if (unavailable_ != nullptr) unavailable_->increment();
  const MutexLock lock(mu_);
  ++failures_;
  if (state_ == CircuitState::kHalfOpen ||
      failures_ >= opts_.failure_threshold) {
    set_state(CircuitState::kOpen);
    opened_at_ = std::chrono::steady_clock::now();
  }
}

std::string RemoteShard::rpc(wire::Msg msg, std::string_view payload,
                             bool idempotent, int timeout_ms) const {
  // Transport spans root their own traces, like svc.publish: an RPC
  // belongs to whatever query is running, but the query's context doesn't
  // thread through the ShardHandle seam, and cross-process legs are exactly
  // what a post-mortem wants to see unsampled.
  obs::Span span("svc.remote.call");
  span.tag("shard", std::to_string(id_));
  span.tag("msg", std::to_string(static_cast<int>(msg)));
  if (!admit_call()) {
    if (unavailable_ != nullptr) unavailable_->increment();
    span.tag("outcome", "open");
    throw ShardUnavailableError("shard " + std::to_string(id_) +
                                ": circuit open");
  }
  const int attempts = idempotent ? opts_.max_attempts : 1;
  for (int a = 0;; ++a) {
    try {
      std::string reply = call_host(socket_, msg, payload, timeout_ms);
      record_success();
      span.tag("outcome", "ok");
      return reply;
    } catch (const ShardTimeoutError&) {
      if (timeouts_ != nullptr) timeouts_->increment();
      if (a + 1 >= attempts) {
        record_failure();
        span.tag("outcome", "timeout");
        throw;
      }
    } catch (const ShardUnavailableError&) {
      if (a + 1 >= attempts) {
        record_failure();
        span.tag("outcome", "unavailable");
        throw;
      }
    }
    // Jittered exponential backoff: base·2^a plus up to one extra base.
    int sleep_ms;
    {
      const MutexLock lock(mu_);
      const auto jitter = static_cast<int>(jitter_.bounded(
          static_cast<std::uint64_t>(opts_.backoff_base_ms) + 1));
      sleep_ms = (opts_.backoff_base_ms << a) + jitter;
    }
    if (retries_ != nullptr) retries_->increment();
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

svc::PublishResult RemoteShard::apply(
    std::span<const svc::EdgeUpdate> batch) {
  require_owned(batch, lo_, hi_, id_, "RemoteShard");
  // Publishes are not idempotent at the transport level: when the reply is
  // lost the batch may or may not have landed, and a blind replay would
  // publish a second epoch. One attempt; the caller owns recovery (the
  // chaos bench replays whole rounds after a supervised restore, where
  // replay from the restored state is exact by construction).
  const std::string reply = rpc(wire::Msg::kApply, wire::encode_batch(batch),
                                /*idempotent=*/false,
                                opts_.transfer_timeout_ms);
  return wire::decode_publish(reply);
}

svc::SnapshotPtr RemoteShard::pin() const {
  try {
    for (;;) {
      std::uint64_t cached_epoch = 0;
      std::uint64_t lineage = 0;
      {
        const MutexLock lock(mu_);
        cached_epoch = cached_->epoch;
        lineage = cached_->lineage;
      }
      // The reply must outlive the Cursor: Cursor is a view, not an owner.
      const std::string reply = rpc(wire::Msg::kEpoch, "",
                                    /*idempotent=*/true,
                                    opts_.call_timeout_ms);
      wire::Cursor c(reply);
      const std::uint64_t remote_epoch = c.u64();
      if (remote_epoch == cached_epoch) break;
      // Snapshots keep the lineage of the last restore() through this
      // handle. A host whose epoch went back restarted from an older
      // checkpoint: its epochs start a new sequence here too.
      const std::uint64_t stamp =
          remote_epoch < cached_epoch ? svc::next_lineage() : lineage;
      const std::string blob = rpc(wire::Msg::kPin, "", /*idempotent=*/true,
                                   opts_.transfer_timeout_ms);
      svc::SnapshotPtr fresh = wire::decode_snapshot(blob, stamp);
      const MutexLock lock(mu_);
      // The lineage changed since the first read: a restore() through this
      // handle (or a concurrent pin that saw the host go back) started a
      // new sequence, and the blob may predate it. Stamping it with either
      // lineage could pair an epoch with the other sequence's content, so
      // fetch again.
      if (cached_->lineage != lineage) continue;
      cached_ = std::move(fresh);
      break;
    }
  } catch (const ShardUnavailableError&) {
    // Serve the last known epoch; the view layer tags the range stale via
    // healthy(). The breaker/unavailable accounting happened inside rpc().
  } catch (const std::exception&) {
    // Host kError replies and corrupt snapshot blobs surface as plain
    // std::exception (runtime_error from rpc(), decode failures from
    // decode_snapshot/read_binary). Those bypass rpc()'s breaker
    // accounting, so record the failure here — pin() never throws; the
    // range degrades to its last known epoch like any transport failure.
    record_failure();
  }
  const MutexLock lock(mu_);
  return cached_;
}

std::uint64_t RemoteShard::epoch() const {
  try {
    const std::string reply = rpc(wire::Msg::kEpoch, "", /*idempotent=*/true,
                                  opts_.call_timeout_ms);
    wire::Cursor c(reply);
    return c.u64();
  } catch (const ShardUnavailableError&) {
    // Breaker accounting happened inside rpc().
  } catch (const std::exception&) {
    record_failure();  // host kError / short payload — see pin()
  }
  const MutexLock lock(mu_);
  return cached_->epoch;
}

void RemoteShard::persist(const std::string& path) const {
  wire::Payload p;
  p.str(path);
  (void)rpc(wire::Msg::kPersist, p.view(), /*idempotent=*/false,
            opts_.transfer_timeout_ms);
}

void RemoteShard::restore(const std::string& path) {
  wire::Payload p;
  p.str(path);
  const std::string reply = rpc(wire::Msg::kRestore, p.view(),
                                /*idempotent=*/false,
                                opts_.transfer_timeout_ms);
  wire::Cursor c(reply);
  const std::uint64_t restored_epoch = c.u64();
  // Drop the cache so the next pin() transfers the restored graph even
  // when the restored epoch collides with the cached one, under a new
  // lineage.
  svc::SnapshotPtr empty = empty_snapshot(n1_, n2_);
  const MutexLock lock(mu_);
  cached_ = std::move(empty);
  (void)restored_epoch;
}

bool RemoteShard::healthy() const noexcept {
  const MutexLock lock(mu_);
  return state_ == CircuitState::kClosed;
}

CircuitState RemoteShard::circuit() const noexcept {
  const MutexLock lock(mu_);
  return state_;
}

bool RemoteShard::probe() const noexcept {
  try {
    const std::string reply =
        call_host(socket_, wire::Msg::kPing, "", opts_.call_timeout_ms);
    wire::Cursor c(reply);
    const auto host_id = static_cast<int>(c.u64());
    const auto host_lo = static_cast<vidx_t>(c.u64());
    const auto host_hi = static_cast<vidx_t>(c.u64());
    const bool ok = host_id == id_ && host_lo == lo_ && host_hi == hi_;
    if (ok)
      record_success();
    else
      record_failure();
    return ok;
  } catch (...) {
    record_failure();
    return false;
  }
}

}  // namespace bfc::shard
