// The narrow shard boundary. A ShardHandle is everything the sharded store
// and the scatter-gather planner are allowed to know about one shard: apply
// a batch, pin a snapshot, read the epoch, checkpoint. The interface is
// deliberately value-in / value-out (spans of updates, shared_ptr
// snapshots, scalar epochs) with no shared mutable state across it, so a
// future PR can implement it with a process boundary behind the calls
// without touching any caller.
//
// LocalShard is the in-process implementation: one svc::SnapshotStore
// spanning the FULL (n1, n2) vertex sets but owning only the V1 interval
// [lo, hi). Keeping full dimensions means a shard snapshot is an ordinary
// BipartiteGraph — every existing kernel (tip passes, edge support,
// top-pairs) runs on it unmodified, with the rows outside the owned range
// simply empty.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "util/common.hpp"

namespace bfc::obs {
class Counter;
}

namespace bfc::shard {

class ShardHandle {
 public:
  virtual ~ShardHandle() = default;

  /// Applies one batch and publishes the shard's next epoch. Every update's
  /// V1 endpoint must be owned by this shard; routing is the caller's job
  /// (ShardedSnapshotStore / ShardRouter).
  virtual svc::PublishResult apply(std::span<const svc::EdgeUpdate> batch) = 0;

  /// Pins the shard's latest published snapshot (full-dimension graph,
  /// non-owned V1 rows empty). One atomic load; never blocks the writer.
  [[nodiscard]] virtual svc::SnapshotPtr pin() const = 0;

  /// Epoch of the shard's latest published snapshot.
  [[nodiscard]] virtual std::uint64_t epoch() const = 0;

  /// Crash-safe checkpoint of the shard's latest epoch (write-then-rename).
  virtual void persist(const std::string& path) const = 0;

  /// Warm restart from a checkpoint written by persist(); throws
  /// std::runtime_error on a corrupt file, leaving the shard unchanged.
  virtual void restore(const std::string& path) = 0;

  [[nodiscard]] virtual int id() const noexcept = 0;
  /// Owned V1 interval [range_begin(), range_end()).
  [[nodiscard]] virtual vidx_t range_begin() const noexcept = 0;
  [[nodiscard]] virtual vidx_t range_end() const noexcept = 0;

  /// Whether the shard can currently serve fresh answers. In-process shards
  /// are always healthy; a RemoteShard reports false while its circuit
  /// breaker is open (host crashed / unreachable), in which case pin()
  /// still returns the last known snapshot so views stay total — the
  /// sharded store folds this bit into ShardView::stale_mask and the
  /// service downgrades fidelity instead of failing the query.
  [[nodiscard]] virtual bool healthy() const noexcept { return true; }
};

using ShardHandlePtr = std::shared_ptr<ShardHandle>;

/// The ownership check of ShardHandle::apply: throws std::invalid_argument
/// naming the first update whose u lies outside [lo, hi), the owned range
/// and the shard id. The text is built only when an update is misrouted.
void require_owned(std::span<const svc::EdgeUpdate> batch, vidx_t lo,
                   vidx_t hi, int id, const char* who);

/// In-process shard: a SnapshotStore plus ownership checks and a
/// construction-bound svc.shard.<id>.publishes counter.
class LocalShard final : public ShardHandle {
 public:
  LocalShard(int id, vidx_t n1, vidx_t n2, vidx_t lo, vidx_t hi);

  svc::PublishResult apply(std::span<const svc::EdgeUpdate> batch) override;
  [[nodiscard]] svc::SnapshotPtr pin() const override {
    return store_.current();
  }
  [[nodiscard]] std::uint64_t epoch() const override { return store_.epoch(); }
  void persist(const std::string& path) const override {
    store_.persist(path);
  }
  void restore(const std::string& path) override;

  [[nodiscard]] int id() const noexcept override { return id_; }
  [[nodiscard]] vidx_t range_begin() const noexcept override { return lo_; }
  [[nodiscard]] vidx_t range_end() const noexcept override { return hi_; }

  /// The backing store, for introspection (ButterflyService::store()).
  /// Deliberately absent from ShardHandle: a remote shard has no local
  /// store to hand out.
  [[nodiscard]] const svc::SnapshotStore& store() const noexcept {
    return store_;
  }

 private:
  int id_;
  vidx_t lo_;
  vidx_t hi_;
  svc::SnapshotStore store_;
  obs::Counter* publishes_ = nullptr;  // svc.shard.<id>.publishes
};

}  // namespace bfc::shard
