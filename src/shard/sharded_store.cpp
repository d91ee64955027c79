#include "shard/sharded_store.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "chk/checked_math.hpp"
#include "obs/metrics.hpp"
#include "shard/router.hpp"
#include "util/crc32.hpp"

namespace bfc::shard {
namespace {

// Manifest envelope for multi-shard checkpoints: the per-shard files are
// ordinary legacy-format SnapshotStore files (each individually CRC'd and
// recount-verified on restore); the manifest only binds the set together —
// how many shards, over which dimensions.
constexpr std::array<char, 8> kManifestMagic = {'B', 'F', 'C', 'S',
                                                'H', 'D', '0', '1'};

struct ManifestMeta {
  std::int32_t shards;
  vidx_t n1;
  vidx_t n2;
};
static_assert(sizeof(ManifestMeta) == 12, "manifest meta must pack to 12B");

std::string shard_file(const std::string& path, int k) {
  return path + ".shard" + std::to_string(k);
}

}  // namespace

ShardedSnapshotStore::ShardedSnapshotStore(vidx_t n1, vidx_t n2, int shards)
    : part_(n1, shards), n1_(n1), n2_(n2) {
  require(n2 >= 0, "ShardedSnapshotStore: n2 must be >= 0");
  // ShardView::stale_mask (and QueryResult::stale_shards) is a 64-bit
  // per-shard bitmap; a shard beyond bit 63 could fail without ever being
  // taggable, silently serving stale data as kExact. Refuse the layout.
  require(shards <= 64,
          "ShardedSnapshotStore: at most 64 shards (stale_mask is 64-bit)");
  auto map = std::make_shared<ShardMap>();
  map->shards.reserve(static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k)
    map->shards.push_back(
        std::make_shared<LocalShard>(k, n1, n2, part_.begin(k), part_.end(k)));
  map_store(std::move(map));
}

ShardedSnapshotStore::ShardMapPtr ShardedSnapshotStore::map_load() const {
#if defined(__SANITIZE_THREAD__)
  const MutexLock lock(map_mu_);
  return map_;
#else
  // acquire: pairs with the release in map_store so a loaded map's handles
  // are fully constructed (mirrors SnapshotStore::head_load).
  return map_.load(std::memory_order_acquire);
#endif
}

void ShardedSnapshotStore::map_store(ShardMapPtr map) {
#if defined(__SANITIZE_THREAD__)
  const MutexLock lock(map_mu_);
  map_ = std::move(map);
#else
  // release: publishes the fully built map (see map_load).
  map_.store(std::move(map), std::memory_order_release);
#endif
}

svc::PublishResult ShardedSnapshotStore::apply_batch(
    std::span<const svc::EdgeUpdate> batch) {
  const std::vector<std::vector<svc::EdgeUpdate>> buckets =
      ShardRouter(part_).bucket(batch);
  svc::PublishResult total;
  for (int k = 0; k < shard_count(); ++k) {
    const auto& bucket = buckets[static_cast<std::size_t>(k)];
    if (bucket.empty()) continue;
    const svc::PublishResult r = apply_to_shard(k, bucket);
    total.applied += r.applied;
    total.ignored += r.ignored;
    total.created = chk::checked_add(total.created, r.created);
    total.destroyed = chk::checked_add(total.destroyed, r.destroyed);
  }
  total.epoch = version();
  return total;
}

svc::PublishResult ShardedSnapshotStore::apply_to_shard(
    int k, std::span<const svc::EdgeUpdate> batch) {
  require(0 <= k && k < shard_count(),
          "ShardedSnapshotStore: shard index out of range");
  // No store-wide lock: the shard serialises its own publishes, and writers
  // on different shards proceed fully in parallel.
  const ShardMapPtr map = map_load();
  return map->shards[static_cast<std::size_t>(k)]->apply(batch);
}

ShardViewPtr ShardedSnapshotStore::view() const {
  const ShardMapPtr map = map_load();
  std::vector<svc::SnapshotPtr> pinned;
  pinned.reserve(map->shards.size());
  std::uint64_t stale_mask = 0;
  for (std::size_t k = 0; k < map->shards.size(); ++k) {
    const ShardHandlePtr& h = map->shards[k];
    pinned.push_back(h->pin());
    // healthy() AFTER pin(): a RemoteShard discovers a dead host during
    // the pin, so probing first would blame a healthy snapshot on a shard
    // that only just failed (or miss a failure by one view).
    // k < 64 always holds (constructor refuses wider layouts), so every
    // unhealthy shard is representable in the mask.
    if (!h->healthy()) stale_mask |= std::uint64_t{1} << k;
  }
  return make_view(std::move(pinned), stale_mask);
}

std::uint64_t ShardedSnapshotStore::version() const {
  std::uint64_t sum = 0;
  for (const ShardHandlePtr& h : map_load()->shards) sum += h->epoch();
  return sum;
}

svc::SnapshotPtr ShardedSnapshotStore::shard_snapshot(int k) const {
  require(0 <= k && k < shard_count(),
          "ShardedSnapshotStore: shard index out of range");
  return map_load()->shards[static_cast<std::size_t>(k)]->pin();
}

std::uint64_t ShardedSnapshotStore::epoch() const {
  const ShardMapPtr map = map_load();
  std::uint64_t m = 0;
  for (const ShardHandlePtr& h : map->shards) m = std::max(m, h->epoch());
  return m;
}

ShardHandlePtr ShardedSnapshotStore::shard(int k) const {
  require(0 <= k && k < shard_count(),
          "ShardedSnapshotStore: shard index out of range");
  return map_load()->shards[static_cast<std::size_t>(k)];
}

void ShardedSnapshotStore::swap_shard(int k, ShardHandlePtr handle) {
  require(handle != nullptr, "ShardedSnapshotStore: null shard handle");
  require(0 <= k && k < shard_count(),
          "ShardedSnapshotStore: shard index out of range");
  require(handle->id() == k && handle->range_begin() == part_.begin(k) &&
              handle->range_end() == part_.end(k),
          "ShardedSnapshotStore: replacement shard id/range mismatch");
  const MutexLock lock(swap_mu_);
  auto next = std::make_shared<ShardMap>(*map_load());
  next->shards[static_cast<std::size_t>(k)] = std::move(handle);
  map_store(std::move(next));
}

const svc::SnapshotStore* ShardedSnapshotStore::local_store(int k) const {
  require(0 <= k && k < shard_count(),
          "ShardedSnapshotStore: shard index out of range");
  const ShardMapPtr map = map_load();
  const auto* local = dynamic_cast<const LocalShard*>(
      map->shards[static_cast<std::size_t>(k)].get());
  return local != nullptr ? &local->store() : nullptr;
}

void ShardedSnapshotStore::persist(const std::string& path) const {
  const ShardMapPtr map = map_load();
  if (shard_count() == 1) {
    // Drop-in legacy format: a 1-shard store's checkpoint is exactly a
    // SnapshotStore checkpoint.
    map->shards[0]->persist(path);
    return;
  }
  // Shard files first (each write-then-rename on its own), manifest last:
  // a crash mid-persist leaves either the old manifest (pointing at the
  // old, still-valid shard files it was written with — shard files are
  // only replaced atomically) or no new manifest at all.
  for (int k = 0; k < shard_count(); ++k)
    map->shards[static_cast<std::size_t>(k)]->persist(shard_file(path, k));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write shard manifest: " + tmp);
    out.write(kManifestMagic.data(), kManifestMagic.size());
    const ManifestMeta meta{shard_count(), n1(), n2()};
    const std::uint32_t crc = crc32(&meta, sizeof meta);
    out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    out.write(reinterpret_cast<const char*>(&meta), sizeof meta);
    out.flush();
    if (!out) throw std::runtime_error("write failed for manifest: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot publish shard manifest (rename " + tmp +
                             " -> " + path + " failed)");
  }
  BFC_COUNT_ADD("svc.snapshots_persisted", 1);
}

void ShardedSnapshotStore::restore(const std::string& path) {
  if (shard_count() == 1) {
    // Restore into a FRESH full-range shard and only then swap the map, so
    // a corrupt file leaves this store untouched — and so the restored
    // dimensions (which a legacy checkpoint is free to change) rebuild the
    // partition instead of fighting it. The layout rewrite below leans on
    // restore()'s documented full exclusivity: no concurrent writers AND no
    // concurrent partition()/ShardRouter readers (see header).
    auto reborn =
        std::make_shared<LocalShard>(0, n1(), n2(), vidx_t{0}, n1());
    reborn->restore(path);  // throws on any corruption, nothing changed yet
    const svc::SnapshotPtr snap = reborn->pin();
    const MutexLock lock(swap_mu_);
    part_ = RangePartition(snap->graph.n1(), 1);
    n1_.store(snap->graph.n1(), std::memory_order_relaxed);  // see n1()
    n2_.store(snap->graph.n2(), std::memory_order_relaxed);
    auto next = std::make_shared<ShardMap>();
    next->shards.push_back(std::move(reborn));
    map_store(std::move(next));
    return;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open shard manifest: " + path);
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (static_cast<std::size_t>(in.gcount()) != magic.size() ||
      std::memcmp(magic.data(), kManifestMagic.data(),
                  kManifestMagic.size()) != 0)
    throw std::runtime_error("shard manifest " + path + ": bad magic");
  std::uint32_t crc = 0;
  in.read(reinterpret_cast<char*>(&crc), sizeof crc);
  ManifestMeta meta{};
  in.read(reinterpret_cast<char*>(&meta), sizeof meta);
  if (!in) throw std::runtime_error("shard manifest " + path + ": truncated");
  if (crc32(&meta, sizeof meta) != crc)
    throw std::runtime_error("shard manifest " + path + ": meta CRC mismatch");
  if (meta.shards != shard_count() || meta.n1 != n1() || meta.n2 != n2())
    throw std::runtime_error(
        "shard manifest " + path + ": layout mismatch (file has " +
        std::to_string(meta.shards) + " shards over " +
        std::to_string(meta.n1) + "x" + std::to_string(meta.n2) +
        ", store has " + std::to_string(shard_count()) + " over " +
        std::to_string(n1()) + "x" + std::to_string(n2()) + ")");

  // Restore every shard into a fresh LocalShard before touching the live
  // map: the swap happens only after all N files validated, so a torn or
  // corrupt shard file cannot leave the store half-restored.
  auto next = std::make_shared<ShardMap>();
  next->shards.reserve(static_cast<std::size_t>(shard_count()));
  for (int k = 0; k < shard_count(); ++k) {
    auto reborn = std::make_shared<LocalShard>(k, n1(), n2(), part_.begin(k),
                                               part_.end(k));
    reborn->restore(shard_file(path, k));
    next->shards.push_back(std::move(reborn));
  }
  const MutexLock lock(swap_mu_);
  map_store(std::move(next));
  BFC_COUNT_ADD("svc.snapshots_restored", 1);
}

}  // namespace bfc::shard
