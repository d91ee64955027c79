#include "svc/snapshot_store.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "chk/validate.hpp"
#include "graph/io_binary.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "sparse/ops.hpp"
#include "svc/fault.hpp"
#include "util/crc32.hpp"

namespace bfc::svc {
namespace {

// Snapshot-file envelope around the BFC2 graph blob: magic, version, then
// a CRC-checked epoch/count/edges trailer the graph format knows nothing
// about. The embedded graph sections carry their own per-section CRCs.
constexpr std::array<char, 8> kSnapMagic = {'B', 'F', 'C', 'S',
                                            'N', 'P', '0', '1'};

struct SnapMeta {
  std::uint64_t epoch;
  count_t butterflies;
  offset_t edges;
};
static_assert(sizeof(SnapMeta) == 24, "snapshot meta must pack to 24 bytes");

/// The snapshot of `counter`, whose materialised graph is `g`. When the
/// counter's top-pair buffer no longer certifies every k ≤ K′ it is rebuilt
/// from `g` first (one pass), so every snapshot a store publishes does.
std::shared_ptr<GraphSnapshot> snapshot_of(
    count::DynamicButterflyCounter& counter, graph::BipartiteGraph g,
    std::uint64_t epoch) {
  auto snap = std::make_shared<GraphSnapshot>();
  snap->epoch = epoch;
  snap->butterflies = counter.butterflies();
  snap->edges = counter.edge_count();
  snap->tips_v1 = counter.tips_v1();
  snap->tips_v2 = counter.tips_v2();
  snap->top_pairs = counter.top_pairs();
  if (!snap->top_pairs.certified(count::TopPairBuffer::kCapacity)) {
    counter.rebuild_top_pairs(g);
    snap->top_pairs = counter.top_pairs();
    BFC_COUNT_ADD("svc.top_pair_rebuilds", 1);
  }
  snap->graph = std::move(g);
  return snap;
}

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::istream& in, const std::string& path, const char* what) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (static_cast<std::size_t>(in.gcount()) != sizeof value)
    throw std::runtime_error("snapshot " + path + ": truncated " + what);
  return value;
}

}  // namespace

SnapshotStore::SnapshotStore(vidx_t n1, vidx_t n2, int shard_id)
    : n1_(n1), n2_(n2), shard_id_(shard_id), counter_(n1, n2) {
  head_store(snapshot_of(counter_, counter_.to_graph(), 0));
}

SnapshotPtr SnapshotStore::head_load() const {
#if defined(__SANITIZE_THREAD__)
  const MutexLock lock(head_mu_);
  return head_;
#else
  // acquire: pairs with the release store in head_store so a pinned
  // snapshot's contents are fully visible to the reader.
  return head_.load(std::memory_order_acquire);
#endif
}

void SnapshotStore::head_store(SnapshotPtr snap) {
#if defined(__SANITIZE_THREAD__)
  const MutexLock lock(head_mu_);
  head_ = std::move(snap);
#else
  // release: publishes the fully constructed snapshot (see head_load).
  head_.store(std::move(snap), std::memory_order_release);
#endif
}

PublishResult SnapshotStore::apply_batch(std::span<const EdgeUpdate> batch) {
  // A root span, never head-sampled: publishes are writer-side and rare,
  // and the sharded bench's concurrency self-check needs to see every one.
  obs::Span phase("svc.publish");
  const MutexLock lock(writer_mu_);

  PublishResult result;
  for (const EdgeUpdate& up : batch) {
    if (up.insert) {
      const bool present = counter_.has_edge(up.u, up.v);
      result.created += counter_.insert(up.u, up.v);
      present ? ++result.ignored : ++result.applied;
    } else {
      const bool present = counter_.has_edge(up.u, up.v);
      result.destroyed += counter_.remove(up.u, up.v);
      present ? ++result.applied : ++result.ignored;
    }
  }

  // The head's graph is the counter's graph as of the last clear_dirty()
  // (construction, the previous publish, restore()), so the new graph is a
  // copy of its arrays patched with the rows the batch changed.
  const SnapshotPtr head = head_load();
  auto snap =
      snapshot_of(counter_, counter_.to_graph(head->graph), next_epoch_++);
  snap->lineage = lineage_;
  result.epoch = snap->epoch;

  // Checked build: the batch just mutated the counter, so re-verify its
  // internal structure, the patched graph against a full materialisation,
  // the snapshot (including a recount of the incremental butterfly total,
  // tips and top-pair buffer), and the epoch transition before any reader
  // can pin the new head. The snapshot is the counter's graph, count, tips
  // and buffer, so its check is the one recount the counter needs.
  if constexpr (chk::kCheckedEnabled) {
    chk::validate_structure(counter_);
    const graph::BipartiteGraph full = counter_.to_graph();
    chk::enforce(snap->graph.csr() == full.csr() &&
                     snap->graph.csc() == full.csc(),
                 "snapshot: patched graph != full to_graph()");
    chk::validate(*snap);
    chk::validate_epoch_transition(*head, *snap);
  }

  head_store(std::move(snap));
  BFC_COUNT_ADD("svc.publish_rows", counter_.dirty_rows());
  counter_.clear_dirty();
  if (phase.armed()) {
    if (shard_id_ >= 0) phase.tag("shard", std::to_string(shard_id_));
    phase.tag("epoch", std::to_string(result.epoch));
  }
  BFC_COUNT_ADD("svc.epochs_published", 1);
  BFC_COUNT_ADD("svc.updates_applied", result.applied);
  return result;
}

SnapshotPtr SnapshotStore::current() const { return head_load(); }

std::uint64_t SnapshotStore::epoch() const { return head_load()->epoch; }

void SnapshotStore::persist(const std::string& path) const {
  obs::Span phase("svc.persist");
  // Pin once: everything below reads the immutable snapshot, so the writer
  // keeps publishing and readers keep answering while we serialise.
  const SnapshotPtr snap = head_load();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write snapshot: " + tmp);
    out.write(kSnapMagic.data(), kSnapMagic.size());
    write_pod(out, graph::kBinaryFormatVersion);
    const SnapMeta meta{snap->epoch, snap->butterflies, snap->edges};
    write_pod(out, crc32(&meta, sizeof meta));
    write_pod(out, meta);
    graph::write_binary(out, snap->graph);
    out.flush();
    if (!out) throw std::runtime_error("write failed for snapshot: " + tmp);
  }

  // Fault injection (checked builds): manufacture the crash modes the
  // restore path must reject or survive.
  if (fault::fires(fault::Point::kPersistTruncate)) {
    const auto full = std::filesystem::file_size(tmp);
    const std::uint64_t keep = fault::param(fault::Point::kPersistTruncate);
    std::filesystem::resize_file(tmp, keep != 0 ? keep : full / 2);
  }
  if (fault::fires(fault::Point::kPersistCorrupt)) {
    std::fstream f(tmp, std::ios::binary | std::ios::in | std::ios::out);
    const auto size =
        static_cast<std::uint64_t>(std::filesystem::file_size(tmp));
    const std::uint64_t at = fault::param(fault::Point::kPersistCorrupt) %
                             (size != 0 ? size : 1);
    f.seekg(static_cast<std::streamoff>(at));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    f.seekp(static_cast<std::streamoff>(at));
    f.write(&byte, 1);
  }
  if (fault::fires(fault::Point::kPersistNoRename)) {
    // Simulated crash between flush and rename: the tmp file is torn off
    // mid-publish and the previously persisted snapshot stays authoritative.
    return;
  }

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot publish snapshot (rename " + tmp +
                             " -> " + path + " failed)");
  }
  BFC_COUNT_ADD("svc.snapshots_persisted", 1);
  BFC_GAUGE_SET("svc.persisted_epoch", snap->epoch);
}

void SnapshotStore::restore(const std::string& path) {
  obs::Span phase("svc.restore");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open snapshot: " + path);

  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (static_cast<std::size_t>(in.gcount()) != magic.size() ||
      std::memcmp(magic.data(), kSnapMagic.data(), kSnapMagic.size()) != 0)
    throw std::runtime_error("snapshot " + path + ": bad magic");
  const auto version = read_pod<std::uint32_t>(in, path, "version");
  if (version != graph::kBinaryFormatVersion)
    throw std::runtime_error("snapshot " + path +
                             ": unsupported format version " +
                             std::to_string(version));
  const auto meta_crc = read_pod<std::uint32_t>(in, path, "meta CRC");
  const auto meta = read_pod<SnapMeta>(in, path, "meta section");
  if (crc32(&meta, sizeof meta) != meta_crc)
    throw std::runtime_error("snapshot " + path + ": meta CRC mismatch");

  // The graph blob carries its own per-section CRCs; read_binary reports
  // the path and byte offset on any truncation or mismatch.
  graph::BipartiteGraph g = graph::read_binary(in, path);
  if (g.edge_count() != meta.edges)
    throw std::runtime_error(
        "snapshot " + path + ": edge count mismatch (meta says " +
        std::to_string(meta.edges) + ", graph has " +
        std::to_string(g.edge_count()) + ")");

  // Rebuild the incremental counter from the persisted edges. The rebuild
  // recomputes the butterfly count from scratch, so a file whose sections
  // all pass CRC but disagree with the recorded count is still rejected —
  // the count in RAM after restore is never taken on faith.
  count::DynamicButterflyCounter counter(g.n1(), g.n2());
  for (const auto& [u, v] : sparse::edges(g.csr())) counter.insert(u, v);
  if (counter.butterflies() != meta.butterflies)
    throw std::runtime_error(
        "snapshot " + path + ": butterfly count mismatch (meta says " +
        std::to_string(meta.butterflies) + ", recount gives " +
        std::to_string(counter.butterflies()) + ")");

  counter.clear_dirty();  // the snapshot below holds its graph
  auto snap = snapshot_of(counter, std::move(g), meta.epoch);
  if constexpr (chk::kCheckedEnabled) {
    chk::validate_structure(counter);  // validate(*snap) recounts its edges
    chk::validate(*snap);
  }

  // All validation passed — only now touch the store's state.
  const MutexLock lock(writer_mu_);
  // relaxed: see the n1()/n2() accessors — dimension reads are independent.
  n1_.store(snap->graph.n1(), std::memory_order_relaxed);
  n2_.store(snap->graph.n2(), std::memory_order_relaxed);
  counter_ = std::move(counter);
  next_epoch_ = meta.epoch + 1;
  lineage_ = next_lineage();
  snap->lineage = lineage_;
  head_store(std::move(snap));
  BFC_COUNT_ADD("svc.snapshots_restored", 1);
}

}  // namespace bfc::svc
