// Single-writer, many-reader snapshot store. The writer owns a
// DynamicButterflyCounter (the authoritative mutable state), applies edge
// batches through it, and publishes the result as an immutable
// GraphSnapshot behind std::atomic<std::shared_ptr>. Readers never block
// the writer and the writer never blocks readers: current() is one atomic
// shared_ptr load, and a pinned snapshot stays alive (and bit-identical)
// for as long as the reader holds it.
//
// Crash safety: persist() serialises the latest published epoch (epoch
// number, exact count, and the checksummed BFC2 graph blob) to disk with
// write-then-rename, and restore() warm-starts a store from that file —
// rebuilding the incremental counter from the persisted edges and
// cross-checking its recomputed butterfly total against the persisted one,
// so a corrupted-but-CRC-colliding file still cannot smuggle in a wrong
// count. A process kill between persist() and restore() loses at most the
// epochs published after the last persist, never the file's integrity.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "count/dynamic.hpp"
#include "svc/snapshot.hpp"
#include "util/common.hpp"
#include "util/sync.hpp"

namespace bfc::svc {

/// Outcome of one apply_batch() call.
struct PublishResult {
  std::uint64_t epoch = 0;     // epoch of the snapshot just published
  offset_t applied = 0;        // updates that changed the graph
  offset_t ignored = 0;        // duplicate inserts / missing removes
  count_t created = 0;         // butterflies created by this batch
  count_t destroyed = 0;       // butterflies destroyed by this batch
};

class SnapshotStore {
 public:
  /// Starts at epoch 0: the empty graph over fixed vertex sets. A
  /// non-negative `shard_id` marks this store as one shard of a
  /// shard::ShardedSnapshotStore: the "svc.publish" root span of each of
  /// its publishes is then tagged with the shard id, which is how the
  /// serving bench proves that disjoint-range shard publishes overlap in
  /// time instead of serialising.
  explicit SnapshotStore(vidx_t n1, vidx_t n2, int shard_id = -1);

  /// Applies the batch through the incremental counter, materialises the
  /// resulting graph by patching the head snapshot's graph with the rows
  /// the batch changed, and publishes it as epoch current+1. Updates are
  /// applied in order; duplicate inserts and absent removes are counted in
  /// PublishResult::ignored. Serialised internally, so concurrent callers
  /// are safe — but the design intent is a single writer thread.
  PublishResult apply_batch(std::span<const EdgeUpdate> batch);
  PublishResult apply_batch(std::initializer_list<EdgeUpdate> batch) {
    return apply_batch(std::span<const EdgeUpdate>(batch.begin(), batch.end()));
  }

  /// Pins the latest published snapshot: one atomic load, never blocks on
  /// the writer.
  [[nodiscard]] SnapshotPtr current() const;

  /// Epoch of the latest published snapshot.
  [[nodiscard]] std::uint64_t epoch() const;

  /// Atomically writes the latest published snapshot to `path` (tmp file +
  /// rename): epoch, exact count, and the checksummed graph sections.
  /// Readers and the writer are never blocked — the snapshot is immutable.
  void persist(const std::string& path) const;

  /// Warm-start: replaces this store's entire state (graph, incremental
  /// counter, epoch sequence) with the persisted snapshot, so the next
  /// apply_batch publishes persisted_epoch + 1. The restored snapshot and
  /// its successors carry a new lineage. Throws std::runtime_error
  /// on a missing/truncated/corrupted file — the store is left unchanged.
  void restore(const std::string& path);

  [[nodiscard]] vidx_t n1() const noexcept {
    // relaxed: an independent scalar, overwritten only by restore(); readers
    // needing dimensions coherent with a graph take them from a pinned
    // snapshot, not from here.
    return n1_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] vidx_t n2() const noexcept {
    return n2_.load(std::memory_order_relaxed);  // see n1()
  }

 private:
  [[nodiscard]] SnapshotPtr head_load() const;
  void head_store(SnapshotPtr snap);

  // Atomic because restore() rewrites the dimensions while concurrent
  // readers may call n1()/n2() without any lock (previously a plain-int
  // data race the annotations surfaced).
  std::atomic<vidx_t> n1_;
  std::atomic<vidx_t> n2_;
  int shard_id_ = -1;  // >= 0 when owned by a ShardedSnapshotStore
  mutable Mutex writer_mu_{"svc.store.writer"};  // apply_batch/restore
  std::uint64_t next_epoch_ BFC_GUARDED_BY(writer_mu_) = 1;
  // Stamped on every snapshot this store publishes; restore() takes a new
  // one from next_lineage(), as it starts a new epoch sequence.
  std::uint64_t lineage_ BFC_GUARDED_BY(writer_mu_) = 0;
  // Writer-side mutable state.
  count::DynamicButterflyCounter counter_ BFC_GUARDED_BY(writer_mu_);
#if defined(__SANITIZE_THREAD__)
  // libstdc++'s atomic<shared_ptr> embeds a spin lock in the control word
  // that TSan cannot see through, so it reports the publish/pin pair as a
  // data race. Under TSan only, publish through a mutex it models exactly;
  // the production build keeps the atomic fast path.
  mutable Mutex head_mu_{"svc.store.head"};
  SnapshotPtr head_ BFC_GUARDED_BY(head_mu_);
#else
  std::atomic<SnapshotPtr> head_;  // latest published snapshot
#endif
};

}  // namespace bfc::svc
