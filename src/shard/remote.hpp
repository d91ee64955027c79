// RemoteShard: the client half of the out-of-process shard seam. It
// implements ShardHandle over the transport.hpp protocol so the sharded
// store, the scatter-gather planner and the service cannot tell a process
// boundary from a LocalShard — except through healthy(), which is the
// whole point:
//
//   - every leg carries a per-call timeout (call_timeout_ms for control
//     messages, transfer_timeout_ms for graph transfers);
//   - idempotent reads (ping/epoch/pin) retry with jittered
//     exponential backoff; apply/persist/restore never retry — a publish
//     must not be replayed by the transport when the outcome is unknown;
//   - a per-shard circuit breaker opens after `failure_threshold`
//     consecutive failed calls. While open, reads are served from the
//     last pinned snapshot (epoch-keyed cache, refreshed only on epoch
//     change) without touching the socket, and apply() fails fast with
//     ShardUnavailableError. After `open_cooldown_ms` the breaker goes
//     half-open and the next read probes the host; one success closes it.
//
// pin() therefore NEVER throws: a dead host degrades the shard to its
// last known epoch, ShardedSnapshotStore::view() records the staleness in
// ShardView::stale_mask, and the service downgrades fidelity — range
// isolation instead of query failure.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "shard/shard.hpp"
#include "shard/transport.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace bfc::obs {
class Counter;
class Gauge;
}  // namespace bfc::obs

namespace bfc::shard {

struct RemoteOptions {
  int call_timeout_ms = 500;       // control-message budget per leg
  int transfer_timeout_ms = 5000;  // pin/apply/persist/restore budget
  int max_attempts = 3;            // idempotent reads only
  int backoff_base_ms = 2;         // doubles per retry, plus jitter
  int failure_threshold = 3;       // consecutive failures to open
  int open_cooldown_ms = 100;      // open -> half-open probe interval
  std::uint64_t jitter_seed = 0x5eedULL;
};

/// Exported for gauges: svc.shard.<k>.circuit_state is 0/1/2.
enum class CircuitState : int { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

class RemoteShard final : public ShardHandle {
 public:
  /// Dimensions and range mirror the host's; the constructor synthesizes
  /// an empty epoch-0 snapshot so pin() is total before first contact.
  RemoteShard(int id, vidx_t n1, vidx_t n2, vidx_t lo, vidx_t hi,
              std::string socket_path, RemoteOptions opts = {});

  svc::PublishResult apply(std::span<const svc::EdgeUpdate> batch) override;
  [[nodiscard]] svc::SnapshotPtr pin() const override;
  [[nodiscard]] std::uint64_t epoch() const override;
  void persist(const std::string& path) const override;
  void restore(const std::string& path) override;

  [[nodiscard]] int id() const noexcept override { return id_; }
  [[nodiscard]] vidx_t range_begin() const noexcept override { return lo_; }
  [[nodiscard]] vidx_t range_end() const noexcept override { return hi_; }
  [[nodiscard]] bool healthy() const noexcept override;

  [[nodiscard]] CircuitState circuit() const noexcept;

  /// One non-retried ping; true when the host answered with the expected
  /// identity. Used by the supervisor's health loop (which must see
  /// failures quickly, not after three backoffs).
  [[nodiscard]] bool probe() const noexcept;

 private:
  // One protocol call under the retry/backoff/circuit policy.
  std::string rpc(wire::Msg msg, std::string_view payload, bool idempotent,
                  int timeout_ms) const;
  bool admit_call() const;       // circuit gate; true = may touch socket
  void record_success() const;
  void record_failure() const;
  void set_state(CircuitState s) const BFC_REQUIRES(mu_);

  int id_;
  vidx_t n1_, n2_, lo_, hi_;
  std::string socket_;
  RemoteOptions opts_;

  mutable Mutex mu_{"shard.remote"};
  mutable CircuitState state_ BFC_GUARDED_BY(mu_) = CircuitState::kClosed;
  mutable int failures_ BFC_GUARDED_BY(mu_) = 0;
  mutable std::chrono::steady_clock::time_point opened_at_
      BFC_GUARDED_BY(mu_){};
  mutable Rng jitter_ BFC_GUARDED_BY(mu_);
  mutable svc::SnapshotPtr cached_ BFC_GUARDED_BY(mu_);

  obs::Counter* retries_ = nullptr;     // svc.remote.retries
  obs::Counter* timeouts_ = nullptr;    // svc.remote.timeouts
  obs::Counter* unavailable_ = nullptr; // svc.shard.<k>.unavailable
  obs::Gauge* circuit_gauge_ = nullptr; // svc.shard.<k>.circuit_state
};

}  // namespace bfc::shard
