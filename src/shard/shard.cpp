#include "shard/shard.hpp"

#include <stdexcept>
#include <string>

#include "chk/validate.hpp"
#include "obs/metrics.hpp"

namespace bfc::shard {

LocalShard::LocalShard(int id, vidx_t n1, vidx_t n2, vidx_t lo, vidx_t hi)
    : id_(id), lo_(lo), hi_(hi), store_(n1, n2, id) {
  require(id >= 0, "LocalShard: id must be >= 0");
  require(0 <= lo && lo <= hi && hi <= n1,
          "LocalShard: owned range must satisfy 0 <= lo <= hi <= n1");
  if constexpr (obs::kMetricsEnabled) {
    // Bound once at construction so the per-shard family has a literal
    // "svc.shard." prefix (documented as a family in docs/telemetry.md)
    // and the publish hot path pays one pointer indirection, not a
    // registry lookup.
    publishes_ = &obs::Registry::instance().counter(
        "svc.shard." + std::to_string(id) + ".publishes");
  }
}

void require_owned(std::span<const svc::EdgeUpdate> batch, vidx_t lo,
                   vidx_t hi, int id, const char* who) {
  for (const svc::EdgeUpdate& up : batch)
    if (up.u < lo || up.u >= hi)
      throw std::invalid_argument(
          std::string(who) + ": update routed to the wrong shard (u=" +
          std::to_string(up.u) + " outside [" + std::to_string(lo) + ", " +
          std::to_string(hi) + ") of shard " + std::to_string(id) + ")");
}

svc::PublishResult LocalShard::apply(std::span<const svc::EdgeUpdate> batch) {
  require_owned(batch, lo_, hi_, id_, "LocalShard");
  svc::PublishResult result = store_.apply_batch(batch);
  if (publishes_ != nullptr) publishes_->increment();
  return result;
}

void LocalShard::restore(const std::string& path) {
  const bool full_range = lo_ == 0 && hi_ == store_.n1();
  store_.restore(path);
  const svc::SnapshotPtr snap = store_.current();
  if (full_range) {
    // A full-range shard IS the legacy unsharded store, and keeps its
    // semantics: the checkpoint's dimensions win (a legacy file is free to
    // change them) and the shard follows. restore() is writer-exclusive,
    // like SnapshotStore::restore, so nobody reads hi_ concurrently.
    hi_ = snap->graph.n1();
    return;
  }
  // The file passed every structural/CRC/recount check inside the store;
  // what only the shard layer can know is ownership: a checkpoint written
  // by a different shard (or a different partition) would smuggle in edges
  // this shard must not own.
  require(snap->graph.n1() >= hi_,
          "LocalShard: restored checkpoint is too small for the owned range");
  // Unconditional (not BFC_VALIDATE-gated): O(n1) over row_ptr is nothing
  // next to the counter rebuild restore() just did, and ownership is the
  // one invariant the store itself cannot check.
  chk::validate_shard_range(snap->graph, lo_, hi_);
}

}  // namespace bfc::shard
