// Query vocabulary of the serving layer: the request shapes the counting
// stack answers in production (Shi & Shun's and Wang et al.'s workhorse
// statistics) — the global count, per-vertex tip numbers, per-edge wing
// support, and top-k wedge pairs — plus the fault-tolerance vocabulary
// every query carries: a per-request Deadline, the Request envelope
// (pinned view + deadline), the QueryResult fidelity tag that makes an
// answer read from a dark shard explicit, and OverloadError, the one
// exception a caller sees when the query pool sheds its read.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/spans.hpp"
#include "shard/view.hpp"
#include "svc/snapshot.hpp"
#include "util/cancel.hpp"
#include "util/common.hpp"

namespace bfc::svc {

enum class QueryKind : std::uint8_t {
  kGlobalCount = 0,  // Ξ_G of the pinned snapshot
  kVertexTipV1,      // butterflies containing one V1 vertex (Eq. 19)
  kVertexTipV2,      // butterflies containing one V2 vertex
  kEdgeSupport,      // butterflies containing one edge (Eq. 25); 0 if absent
  kTopPairs,         // k V1-pairs with the most wedges
};

inline constexpr int kQueryKinds = 5;

/// Stable label used for metric names, latency tables and reports.
[[nodiscard]] inline const char* kind_name(QueryKind k) noexcept {
  switch (k) {
    case QueryKind::kGlobalCount: return "global";
    case QueryKind::kVertexTipV1: return "tip_v1";
    case QueryKind::kVertexTipV2: return "tip_v2";
    case QueryKind::kEdgeSupport: return "edge";
    case QueryKind::kTopPairs: return "top_pairs";
  }
  return "unknown";
}

/// Wall-clock budget of one request. Unarmed (the default) means "no
/// deadline". Carried through the Executor queue — tasks whose deadline
/// passes before a worker picks them up are abandoned, not run — and into
/// the tip/wing kernels as a CancelToken so an in-flight scan gives up
/// cooperatively instead of finishing work nobody is waiting for.
class Deadline {
 public:
  using Clock = CancelToken::Clock;

  Deadline() = default;  // no deadline

  [[nodiscard]] static Deadline at(Clock::time_point t) noexcept {
    Deadline d;
    d.at_ = t;
    d.armed_ = true;
    return d;
  }

  /// Deadline `budget` from now, e.g. Deadline::after(5ms).
  [[nodiscard]] static Deadline after(Clock::duration budget) noexcept {
    return at(Clock::now() + budget);
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] bool expired() const noexcept {
    return armed_ && Clock::now() >= at_;
  }
  [[nodiscard]] Clock::time_point time() const noexcept { return at_; }

  /// The kernel-side view of this deadline (unarmed -> never-firing token).
  [[nodiscard]] CancelToken token() const noexcept {
    return armed_ ? CancelToken(at_) : CancelToken();
  }

 private:
  Clock::time_point at_{};
  bool armed_ = false;
};

/// Per-query envelope: which state to answer against and how long the
/// caller is willing to wait. Implicitly constructible from a ShardViewPtr
/// or a SnapshotPtr so `service.vertex_tip_v1(u, pinned)` reads naturally.
struct Request {
  /// The pinned view to answer from; empty = pin the latest at submission.
  /// A snapshot becomes the one-shard view over it. A view whose shard
  /// count differs from the service's (a snapshot handed to a sharded
  /// service) is ignored, and the query pins the latest view instead.
  shard::ShardViewPtr view{};
  Deadline deadline{};
  /// Telemetry identity. Inactive (the default) makes the service root a
  /// fresh trace when span collection is on; a caller that owns a wider
  /// trace (one bench iteration, one RPC) passes its own context so the
  /// query's spans parent into it.
  obs::TraceContext trace{};

  Request() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a bare pinned view IS a
  // request; forcing Request{view, {}} on every call site buys nothing.
  Request(shard::ShardViewPtr v) : view(std::move(v)) {}
  // NOLINTNEXTLINE(google-explicit-constructor): same for a snapshot.
  Request(SnapshotPtr s)
      : view(s ? shard::make_view({std::move(s)}) : nullptr) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Request(Deadline d) : deadline(d) {}
  Request(shard::ShardViewPtr v, Deadline d)
      : view(std::move(v)), deadline(d) {}
  Request(SnapshotPtr s, Deadline d) : Request(std::move(s)) {
    deadline = d;
  }
};

/// How trustworthy a query answer is. kStale means a shard the answer
/// reads was unreachable, so its part came from that shard's last known
/// snapshot.
enum class Fidelity : std::uint8_t {
  kExact = 0,  // exact value at the result's epoch
  kStale,      // partly from a dark shard's last known snapshot
};

[[nodiscard]] inline const char* fidelity_name(Fidelity f) noexcept {
  switch (f) {
    case Fidelity::kExact: return "exact";
    case Fidelity::kStale: return "stale";
  }
  return "unknown";
}

/// Every service query resolves to one of these: the value, the epoch it
/// reflects (the pinned view's version — Σ of its shard epochs, with one
/// shard that shard's epoch), and the explicit fidelity tag.
template <typename T>
struct QueryResult {
  T value{};
  std::uint64_t epoch = 0;
  Fidelity fidelity = Fidelity::kExact;
  // Per-shard fidelity: bit k set means shard k's contribution came from
  // its last known snapshot because the shard was unreachable (open
  // circuit) when the view was pinned. Nonzero implies fidelity != kExact
  // for queries whose answer touches those ranges; in-process shards are
  // always reachable and leave it 0.
  std::uint64_t stale_shards = 0;

  [[nodiscard]] bool degraded() const noexcept {
    return fidelity != Fidelity::kExact;
  }
};

/// Raised through a query future when a queued read was shed: refused at
/// admission (kRejected), evicted from the queue by a shedding policy
/// (kShed), or given up because its deadline passed, before a worker picked
/// it up or during its pass (kDeadline).
class OverloadError : public std::runtime_error {
 public:
  enum class Reason : std::uint8_t { kRejected = 0, kShed, kDeadline };

  explicit OverloadError(Reason reason)
      : std::runtime_error(std::string("query shed under overload: ") +
                           reason_name(reason)),
        reason_(reason) {}

  [[nodiscard]] Reason reason() const noexcept { return reason_; }

  [[nodiscard]] static const char* reason_name(Reason r) noexcept {
    switch (r) {
      case Reason::kRejected: return "rejected at admission";
      case Reason::kShed: return "evicted from the queue";
      case Reason::kDeadline: return "deadline expired";
    }
    return "unknown";
  }

 private:
  Reason reason_;
};

}  // namespace bfc::svc
