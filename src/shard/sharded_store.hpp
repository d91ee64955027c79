// N independently-published shards behind one store facade. The v1 side is
// range-partitioned (shard/partition.hpp); each shard is a ShardHandle —
// in-process today (LocalShard), possibly remote tomorrow — publishing its
// own epoch sequence with no synchronisation against the other shards.
// That independence is the whole point: writers whose batches touch
// disjoint vertex ranges call apply_to_shard() concurrently and their
// publishes overlap in time, where the single SnapshotStore serialised
// every batch on one writer mutex.
//
// Readers pin a ShardView: one snapshot per shard plus a signature over
// the per-shard epochs. There is deliberately no cross-shard atomic cut —
// see view.hpp for the consistency contract.
//
// Checkpointing follows the same fuzziness: with one shard, persist() and
// restore() speak the exact legacy SnapshotStore format (a 1-shard store
// is drop-in compatible with files written before sharding existed); with
// N > 1 shards, persist() writes one legacy-format file per shard plus a
// small CRC-checked manifest binding them together, and restore() demands
// a manifest whose shard count and dimensions match this store's layout.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "shard/partition.hpp"
#include "shard/shard.hpp"
#include "shard/view.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "util/common.hpp"
#include "util/sync.hpp"

namespace bfc::shard {

class ShardedSnapshotStore {
 public:
  /// Builds `shards` LocalShards over [0, n1), each starting at epoch 0.
  /// At most 64 shards: ShardView::stale_mask tags staleness per shard in
  /// a 64-bit bitmap, and an untaggable shard would degrade silently.
  ShardedSnapshotStore(vidx_t n1, vidx_t n2, int shards);

  // ---- writer side -------------------------------------------------------

  /// Routes a mixed batch by V1 owner and applies one sub-batch per touched
  /// shard, in ascending shard order, preserving the batch's relative
  /// update order within each shard. Returns the summed PublishResult with
  /// `epoch` carrying the store's version() after the last publish
  /// (per-shard epochs are per-shard; the version is the only scalar that
  /// means "after this batch" across shards).
  svc::PublishResult apply_batch(std::span<const svc::EdgeUpdate> batch);
  svc::PublishResult apply_batch(std::initializer_list<svc::EdgeUpdate> b) {
    return apply_batch(std::span<const svc::EdgeUpdate>(b.begin(), b.end()));
  }

  /// Applies a batch known to be wholly owned by shard k (the shard itself
  /// enforces ownership). This is the concurrent-writer entry point: no
  /// store-wide lock is taken, so callers on different shards publish in
  /// parallel.
  svc::PublishResult apply_to_shard(int k,
                                    std::span<const svc::EdgeUpdate> batch);
  svc::PublishResult apply_to_shard(int k,
                                    std::initializer_list<svc::EdgeUpdate> b) {
    return apply_to_shard(
        k, std::span<const svc::EdgeUpdate>(b.begin(), b.end()));
  }

  // ---- reader side -------------------------------------------------------

  /// Pins every shard's latest snapshot into one view. N atomic loads, no
  /// locks, never blocks any writer.
  [[nodiscard]] ShardViewPtr view() const;

  /// Pins one shard's latest snapshot.
  [[nodiscard]] svc::SnapshotPtr shard_snapshot(int k) const;

  /// Max per-shard epoch — NOT a global ordering across shards; use
  /// version() for that.
  [[nodiscard]] std::uint64_t epoch() const;

  /// Σ of the shards' latest epochs, the version of a view pinned now:
  /// every publish adds one, and with one shard it is that shard's epoch.
  /// restore() and swap_shard() move it to the new shards' epochs.
  [[nodiscard]] std::uint64_t version() const;

  // ---- checkpointing ----------------------------------------------------

  void persist(const std::string& path) const;
  /// Warm-start from a checkpoint. Like SnapshotStore::restore this demands
  /// writer exclusivity — and, in the single-shard case, reader exclusivity
  /// for the LAYOUT accessors too: a legacy checkpoint may change the
  /// dimensions, so restore() rebuilds part_ and rewrites n1_/n2_, and a
  /// concurrent partition()/ShardRouter user would race on the rebuild.
  /// n1()/n2() stay individually tear-free (atomic, SnapshotStore idiom)
  /// but readers needing dimensions coherent with a graph must take them
  /// from a pinned view, never from here across a restore.
  void restore(const std::string& path);

  // ---- layout ------------------------------------------------------------

  [[nodiscard]] int shard_count() const noexcept { return part_.shards(); }
  /// The live partition, lock-free. Must not be called concurrently with a
  /// single-shard restore(), which may rebuild it — see restore().
  [[nodiscard]] const RangePartition& partition() const noexcept {
    return part_;
  }
  [[nodiscard]] vidx_t n1() const noexcept {
    return n1_.load(std::memory_order_relaxed);  // see SnapshotStore::n1()
  }
  [[nodiscard]] vidx_t n2() const noexcept {
    return n2_.load(std::memory_order_relaxed);
  }

  /// The shard handle in slot k (never null).
  [[nodiscard]] ShardHandlePtr shard(int k) const;

  /// Replaces slot k with another implementation of the same range — the
  /// seam a future PR uses to move one shard out of process. The handle's
  /// id and owned range must match the slot.
  void swap_shard(int k, ShardHandlePtr handle);

  /// Shard k's backing SnapshotStore when it is a LocalShard, else null
  /// (ButterflyService::store() hands out slot 0's).
  [[nodiscard]] const svc::SnapshotStore* local_store(int k) const;

 private:
  struct ShardMap {
    std::vector<ShardHandlePtr> shards;
  };
  using ShardMapPtr = std::shared_ptr<const ShardMap>;

  [[nodiscard]] ShardMapPtr map_load() const;
  void map_store(ShardMapPtr map);

  // Rebuilt only by single-shard restore(), which the contract makes fully
  // exclusive (no concurrent partition() readers) — see restore().
  RangePartition part_;
  std::atomic<vidx_t> n1_;
  std::atomic<vidx_t> n2_;
  mutable Mutex swap_mu_{"shard.store.swap"};  // restore/swap_shard
#if defined(__SANITIZE_THREAD__)
  // Same TSan accommodation as SnapshotStore::head_: libstdc++'s
  // atomic<shared_ptr> spin lock is invisible to TSan.
  mutable Mutex map_mu_{"shard.store.map"};
  ShardMapPtr map_ BFC_GUARDED_BY(map_mu_);
#else
  std::atomic<ShardMapPtr> map_;
#endif
};

}  // namespace bfc::shard
