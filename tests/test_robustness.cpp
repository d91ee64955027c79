// Fault-tolerance suite: checksummed binary I/O corruption handling, load
// shedding and deadlines in the query executor, the service's shed
// contract for the one read that queues, and crash-safe snapshot
// persist/restore. Tests that need a fault
// injected into an otherwise-healthy code path (forced queue saturation,
// slow kernels, torn snapshot writes) only run in checked builds, where
// svc::fault compiles to real hooks; everything else runs everywhere.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chk/check.hpp"
#include "count/baselines.hpp"
#include "count/local_counts.hpp"
#include "count/top_pairs.hpp"
#include "graph/io_binary.hpp"
#include "graph/io_edgelist.hpp"
#include "graph/io_mtx.hpp"
#include "svc/executor.hpp"
#include "svc/fault.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"
#include "svc/snapshot_store.hpp"
#include "test_helpers.hpp"
#include "util/cancel.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace bfc {
namespace {

namespace fs = std::filesystem;

/// Runs fn, which must throw; returns the exception message.
template <typename Fn>
std::string message_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

std::string binary_bytes(const graph::BipartiteGraph& g) {
  std::ostringstream out(std::ios::binary);
  graph::write_binary(out, g);
  return out.str();
}

graph::BipartiteGraph parse_binary(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return graph::read_binary(in, "test.bin");
}

/// Unique temp path; removed (with its .tmp sibling) on scope exit.
struct TempFile {
  fs::path path;

  explicit TempFile(const std::string& stem)
      : path(fs::temp_directory_path() / stem) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  ~TempFile() {
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(fs::path(path.string() + ".tmp"), ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
};

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Synthetic update batches for store round-trip tests: deterministic mixed
/// inserts/removes over a fixed vertex grid.
std::vector<svc::EdgeUpdate> random_batch(vidx_t n1, vidx_t n2,
                                          std::size_t count,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<svc::EdgeUpdate> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<vidx_t>(rng.bounded(
        static_cast<std::uint64_t>(n1)));
    const auto v = static_cast<vidx_t>(rng.bounded(
        static_cast<std::uint64_t>(n2)));
    batch.push_back({u, v, !rng.bernoulli(0.25)});
  }
  return batch;
}

/// K_{3,3} on vertices 0..2 of both sides.
std::vector<svc::EdgeUpdate> k33() {
  std::vector<svc::EdgeUpdate> batch;
  for (vidx_t u = 0; u < 3; ++u)
    for (vidx_t v = 0; v < 3; ++v) batch.push_back(svc::EdgeUpdate::add(u, v));
  return batch;
}

// ---------------------------------------------------------------------------
// Binary graph format: every corruption is detected
// ---------------------------------------------------------------------------

TEST(BinaryRobustness, RoundTripSurvives) {
  const graph::BipartiteGraph g = testing::random_graph(13, 11, 0.3, 42);
  const graph::BipartiteGraph back = parse_binary(binary_bytes(g));
  EXPECT_EQ(back.n1(), g.n1());
  EXPECT_EQ(back.n2(), g.n2());
  EXPECT_EQ(back.edge_count(), g.edge_count());
  EXPECT_EQ(count::wedge_reference(back), count::wedge_reference(g));
}

TEST(BinaryRobustness, EveryTruncationIsRejected) {
  // Truncating the stream at ANY length — every section boundary and every
  // mid-section byte — must fail loudly, never yield a graph.
  const std::string bytes = binary_bytes(testing::random_graph(9, 7, 0.4, 1));
  ASSERT_GT(bytes.size(), 36u);  // magic+version+CRC+dims+row CRC
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string msg = message_of(
        [&] { (void)parse_binary(bytes.substr(0, cut)); });
    EXPECT_NE(msg.find("binary graph test.bin"), std::string::npos)
        << "cut at " << cut << ": " << msg;
  }
}

TEST(BinaryRobustness, EverySingleByteFlipIsRejected) {
  // Every byte of the format is covered by the magic, the version check, or
  // one of the per-section CRCs, so no single-byte flip can slip through.
  const std::string bytes = binary_bytes(testing::random_graph(9, 7, 0.4, 2));
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x5A);
    EXPECT_THROW((void)parse_binary(mutated), std::runtime_error)
        << "flip at byte " << at << " was accepted";
  }
}

TEST(BinaryRobustness, CrcMismatchNamesTheSection) {
  const std::string bytes = binary_bytes(testing::random_graph(9, 7, 0.4, 3));
  // Layout: magic(8) version(4) dimsCRC(4) dims(16) rowCRC(4) row_ptr ...
  std::string dims = bytes;
  dims[20] = static_cast<char>(dims[20] ^ 0x01);
  EXPECT_NE(message_of([&] { (void)parse_binary(dims); })
                .find("dimension header CRC mismatch"),
            std::string::npos);
  std::string rows = bytes;
  rows[40] = static_cast<char>(rows[40] ^ 0x01);
  EXPECT_NE(message_of([&] { (void)parse_binary(rows); })
                .find("row_ptr section CRC mismatch"),
            std::string::npos);
  std::string cols = bytes;
  cols[cols.size() - 1] = static_cast<char>(cols[cols.size() - 1] ^ 0x01);
  EXPECT_NE(message_of([&] { (void)parse_binary(cols); })
                .find("col_idx section CRC mismatch"),
            std::string::npos);
}

TEST(BinaryRobustness, LegacyFormatGetsARegenerateHint) {
  std::string legacy(64, '\0');
  std::memcpy(legacy.data(), "BFC1", 4);
  const std::string msg = message_of([&] { (void)parse_binary(legacy); });
  EXPECT_NE(msg.find("legacy BFC1"), std::string::npos);
  EXPECT_NE(msg.find("regenerate"), std::string::npos);
}

TEST(BinaryRobustness, SaveIsAtomicAndLeavesNoTmp) {
  const TempFile file("bfc_robust_atomic.bin");
  const graph::BipartiteGraph first = testing::random_graph(8, 8, 0.5, 10);
  const graph::BipartiteGraph second = testing::random_graph(6, 9, 0.5, 11);

  graph::save_binary(file.str(), first);
  EXPECT_EQ(count::wedge_reference(graph::load_binary(file.str())),
            count::wedge_reference(first));
  // Overwrite: the path flips to the complete new snapshot, no .tmp debris.
  graph::save_binary(file.str(), second);
  const graph::BipartiteGraph back = graph::load_binary(file.str());
  EXPECT_EQ(back.n1(), second.n1());
  EXPECT_EQ(count::wedge_reference(back), count::wedge_reference(second));
  EXPECT_FALSE(fs::exists(file.str() + ".tmp"));
}

// ---------------------------------------------------------------------------
// Parser errors carry the source name and position
// ---------------------------------------------------------------------------

TEST(ParserErrors, EdgelistNamesFileAndLine) {
  std::istringstream in("1 2\n% comment\nbogus line\n");
  const std::string msg = message_of(
      [&] { (void)graph::read_edgelist(in, 0, 0, "toy.el"); });
  EXPECT_NE(msg.find("edgelist toy.el:3"), std::string::npos) << msg;
}

TEST(ParserErrors, MtxNamesFileAndEntry) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 1\n9 9\n");
  const std::string msg =
      message_of([&] { (void)graph::read_mtx(in, "toy.mtx"); });
  EXPECT_NE(msg.find("mtx toy.mtx"), std::string::npos) << msg;
  EXPECT_NE(msg.find("entry 2 of 2"), std::string::npos) << msg;
}

TEST(ParserErrors, BinaryNamesFileAndOffset) {
  const std::string bytes =
      binary_bytes(testing::random_graph(5, 5, 0.5, 4)).substr(0, 20);
  std::istringstream in(bytes, std::ios::binary);
  const std::string msg =
      message_of([&] { (void)graph::read_binary(in, "toy.bin"); });
  EXPECT_NE(msg.find("binary graph toy.bin"), std::string::npos) << msg;
  EXPECT_NE(msg.find("byte offset"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// Executor: admission control and deadlines
// ---------------------------------------------------------------------------

/// Parks the pool's single worker on a gate so queued tasks stay queued
/// until release() — the only way to test shedding deterministically.
class WorkerGate {
 public:
  explicit WorkerGate(svc::Executor& pool) {
    std::promise<void> entered;
    std::future<void> entered_f = entered.get_future();
    blocker_ = pool.submit([this, &entered] {
      entered.set_value();
      opened_.wait();
      return 0;
    });
    entered_f.wait();  // worker is now inside the blocker, queue is empty
  }

  void release() {
    if (!released_) open_.set_value();
    released_ = true;
  }
  void join() {
    release();
    (void)blocker_.get();
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> opened_ = open_.get_future().share();
  std::future<int> blocker_;
  bool released_ = false;
};

template <typename T>
svc::OverloadError::Reason shed_reason(std::future<T>& f) {
  try {
    (void)f.get();
  } catch (const svc::OverloadError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "expected OverloadError";
  return svc::OverloadError::Reason::kRejected;
}

TEST(ExecutorRobustness, RejectNewRefusesAtTheBound) {
  svc::Executor pool(
      svc::ExecutorOptions{1, 1, svc::ShedPolicy::kRejectNew});
  WorkerGate gate(pool);
  std::future<int> queued = pool.submit([] { return 7; });
  ASSERT_EQ(pool.queue_depth(), 1u);

  // Queue is at its bound: try_submit refuses, submit yields OverloadError.
  EXPECT_FALSE(pool.try_submit([] { return 8; }).has_value());
  std::future<int> rejected = pool.submit([] { return 9; });
  EXPECT_EQ(shed_reason(rejected), svc::OverloadError::Reason::kRejected);

  gate.join();
  EXPECT_EQ(queued.get(), 7);  // admitted work still completes exactly
}

TEST(ExecutorRobustness, DropOldestEvictsTheQueueHead) {
  svc::Executor pool(
      svc::ExecutorOptions{1, 1, svc::ShedPolicy::kDropOldest});
  WorkerGate gate(pool);
  std::future<int> oldest = pool.submit([] { return 1; });
  std::future<int> newest = pool.submit([] { return 2; });

  EXPECT_EQ(shed_reason(oldest), svc::OverloadError::Reason::kShed);
  gate.join();
  EXPECT_EQ(newest.get(), 2);
}

TEST(ExecutorRobustness, ShedTaskResolvesThroughItsFallback) {
  svc::Executor pool(
      svc::ExecutorOptions{1, 1, svc::ShedPolicy::kDropOldest});
  WorkerGate gate(pool);
  auto victim = pool.try_submit([] { return 1; }, svc::Deadline{},
                                [] { return std::optional<int>(-1); });
  ASSERT_TRUE(victim.has_value());
  std::future<int> newest = pool.submit([] { return 2; });

  EXPECT_EQ(victim->get(), -1);  // degraded value, not an exception
  gate.join();
  EXPECT_EQ(newest.get(), 2);
}

TEST(ExecutorRobustness, DeadlineAwareShedsLeastViableTask) {
  using namespace std::chrono_literals;
  svc::Executor pool(
      svc::ExecutorOptions{1, 2, svc::ShedPolicy::kDeadlineAware});
  WorkerGate gate(pool);
  std::future<int> patient = pool.submit([] { return 1; },
                                         svc::Deadline::after(10s));
  std::future<int> urgent = pool.submit([] { return 2; },
                                        svc::Deadline::after(50ms));

  // Incoming task has more headroom than `urgent`: urgent is the victim.
  auto mid = pool.try_submit([] { return 3; }, svc::Deadline::after(5s));
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(shed_reason(urgent), svc::OverloadError::Reason::kShed);

  // Incoming task with the soonest deadline of all is itself refused.
  EXPECT_FALSE(
      pool.try_submit([] { return 4; }, svc::Deadline::after(1ms))
          .has_value());

  gate.join();
  EXPECT_EQ(patient.get(), 1);
  EXPECT_EQ(mid->get(), 3);
}

TEST(ExecutorRobustness, ExpiredTaskIsAbandonedAtDequeue) {
  using namespace std::chrono_literals;
  svc::Executor pool(svc::ExecutorOptions{1, 0, svc::ShedPolicy::kRejectNew});
  WorkerGate gate(pool);
  std::atomic<bool> ran{false};
  std::future<int> doomed = pool.submit(
      [&ran] {
        ran = true;
        return 1;
      },
      svc::Deadline::after(1ms));
  std::this_thread::sleep_for(20ms);  // deadline passes while queued

  gate.release();
  EXPECT_EQ(shed_reason(doomed), svc::OverloadError::Reason::kDeadline);
  EXPECT_FALSE(ran.load());  // abandoned, never started
  gate.join();
}

TEST(ExecutorRobustness, DestructionAbandonsQueuedTasks) {
  // ~Executor's contract: running tasks finish, queued tasks that never ran
  // are abandoned (not drained). The gate pins the only worker inside a
  // running task while a queued task waits behind it; the releaser opens
  // the gate well after the destructor has flagged the shutdown, so the
  // worker's next loop iteration sees it and leaves the queued task for the
  // destructor to abandon.
  using namespace std::chrono_literals;
  std::future<int> doomed;
  std::optional<WorkerGate> gate;
  std::thread releaser;
  {
    svc::Executor pool(
        svc::ExecutorOptions{1, 0, svc::ShedPolicy::kRejectNew});
    gate.emplace(pool);
    doomed = pool.submit([] { return 7; });
    ASSERT_EQ(pool.queue_depth(), 1u);
    releaser = std::thread([&gate] {
      std::this_thread::sleep_for(50ms);
      gate->release();
    });
  }  // ~Executor runs here, long before the gate opens
  releaser.join();
  gate->join();  // the running task itself completed normally
  EXPECT_EQ(shed_reason(doomed), svc::OverloadError::Reason::kShed);
}

// ---------------------------------------------------------------------------
// Kernel-level cooperative cancellation
// ---------------------------------------------------------------------------

TEST(CancelRobustness, ExpiredTokenAbortsEveryKernel) {
  const graph::BipartiteGraph g = testing::random_graph(60, 50, 0.15, 7);
  // One fresh token per kernel, as in production (tokens are per-request):
  // the clock check is strided on the token's own tick counter.
  const auto expired = [] {
    return CancelToken(CancelToken::Clock::now() - std::chrono::seconds(1));
  };
  EXPECT_THROW((void)count::butterflies_per_v1(g, expired()), CancelledError);
  EXPECT_THROW((void)count::butterflies_per_v2(g, expired()), CancelledError);
  EXPECT_THROW((void)count::support_per_edge(g, expired()), CancelledError);
  EXPECT_THROW((void)count::top_wedge_pairs_v1(g, 5, expired()),
               CancelledError);
}

TEST(CancelRobustness, UnarmedTokenChangesNothing) {
  const graph::BipartiteGraph g = testing::random_graph(40, 45, 0.2, 8);
  EXPECT_EQ(count::butterflies_per_v1(g, CancelToken{}),
            count::butterflies_per_v1(g));
  EXPECT_EQ(count::support_per_edge(g, CancelToken{}),
            count::support_per_edge(g));
  EXPECT_EQ(count::top_wedge_pairs_v1(g, 5, CancelToken{}),
            count::top_wedge_pairs_v1(g, 5));
}

TEST(CancelRobustness, CancelledErrorNamesTheKernel) {
  const graph::BipartiteGraph g = testing::complete_bipartite(4, 4);
  const CancelToken expired(CancelToken::Clock::now() -
                            std::chrono::seconds(1));
  const std::string msg =
      message_of([&] { (void)count::butterflies_per_v1(g, expired); });
  EXPECT_NE(msg.find("butterflies_per_v1"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// Snapshot persistence: crash-safe round trip and rejection of corruption
// ---------------------------------------------------------------------------

TEST(PersistRestore, RoundTripRecoversExactEpochAndCount) {
  const TempFile file("bfc_robust_store.snap");
  svc::SnapshotStore writer(30, 25);
  for (std::uint64_t e = 0; e < 3; ++e)
    (void)writer.apply_batch(random_batch(30, 25, 120, 100 + e));
  ASSERT_EQ(writer.epoch(), 3u);
  writer.persist(file.str());

  svc::SnapshotStore reborn(1, 1);  // dimensions come from the file
  reborn.restore(file.str());
  EXPECT_EQ(reborn.epoch(), writer.epoch());
  EXPECT_EQ(reborn.n1(), writer.n1());
  EXPECT_EQ(reborn.n2(), writer.n2());
  const svc::SnapshotPtr a = writer.current();
  const svc::SnapshotPtr b = reborn.current();
  EXPECT_EQ(b->butterflies, a->butterflies);
  EXPECT_EQ(b->edges, a->edges);
  EXPECT_EQ(count::wedge_reference(b->graph), b->butterflies);
  // The tips are not in the file: the restore recounts them.
  EXPECT_EQ(b->tips_v1, count::butterflies_per_v1(b->graph));
  EXPECT_EQ(b->tips_v2, count::butterflies_per_v2(b->graph));
  EXPECT_EQ(b->tips_v1, a->tips_v1);

  // Warm restart continues the epoch sequence with zero count drift.
  const svc::PublishResult next =
      reborn.apply_batch(random_batch(30, 25, 120, 777));
  EXPECT_EQ(next.epoch, writer.epoch() + 1);
  const svc::SnapshotPtr c = reborn.current();
  EXPECT_EQ(c->butterflies, count::wedge_reference(c->graph));
  EXPECT_EQ(c->tips_v1, count::butterflies_per_v1(c->graph));
  EXPECT_EQ(c->tips_v2, count::butterflies_per_v2(c->graph));
}

TEST(PersistRestore, EveryTruncationRejectedAndStoreUntouched) {
  const TempFile good("bfc_robust_trunc_src.snap");
  const TempFile bad("bfc_robust_trunc.snap");
  svc::SnapshotStore writer(12, 10);
  (void)writer.apply_batch(random_batch(12, 10, 60, 5));
  writer.persist(good.str());
  const std::string bytes = read_file(good.str());
  ASSERT_GT(bytes.size(), 40u);  // envelope = magic+version+CRC+meta

  svc::SnapshotStore victim(4, 4);
  (void)victim.apply_batch({svc::EdgeUpdate::add(0, 0)});
  const std::uint64_t epoch_before = victim.epoch();
  const count_t count_before = victim.current()->butterflies;
  // Step 7 keeps the loop count ~50 while still hitting every envelope
  // boundary (8/12/16/40 are all distinct mod-7 residues plus the explicit
  // boundary list below).
  std::vector<std::size_t> cuts = {0, 8, 12, 16, 28, 40};
  for (std::size_t c = 1; c < bytes.size(); c += 7) cuts.push_back(c);
  for (const std::size_t cut : cuts) {
    write_file(bad.str(), bytes.substr(0, cut));
    EXPECT_THROW(victim.restore(bad.str()), std::runtime_error)
        << "cut at " << cut;
    EXPECT_EQ(victim.epoch(), epoch_before);
    EXPECT_EQ(victim.current()->butterflies, count_before);
  }
}

TEST(PersistRestore, EveryByteFlipRejected) {
  const TempFile good("bfc_robust_flip_src.snap");
  const TempFile bad("bfc_robust_flip.snap");
  svc::SnapshotStore writer(12, 10);
  (void)writer.apply_batch(random_batch(12, 10, 60, 6));
  writer.persist(good.str());
  const std::string bytes = read_file(good.str());

  svc::SnapshotStore victim(4, 4);
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x5A);
    write_file(bad.str(), mutated);
    EXPECT_THROW(victim.restore(bad.str()), std::runtime_error)
        << "flip at byte " << at << " was accepted";
    EXPECT_EQ(victim.epoch(), 0u);
  }
}

TEST(PersistRestore, RecountCatchesAForgedButterflyTotal) {
  // Keep the envelope's CRC self-consistent while lying about the count:
  // only the from-scratch recount during restore can catch this.
  const TempFile file("bfc_robust_forged.snap");
  svc::SnapshotStore writer(10, 10);
  (void)writer.apply_batch(random_batch(10, 10, 50, 9));
  writer.persist(file.str());
  std::string bytes = read_file(file.str());

  // Envelope: magic(8) version(4) metaCRC(4) meta{epoch, butterflies,
  // edges}(24). Bump the persisted count and re-seal the meta CRC.
  count_t forged = 0;
  std::memcpy(&forged, bytes.data() + 24, sizeof forged);
  ++forged;
  std::memcpy(bytes.data() + 24, &forged, sizeof forged);
  const std::uint32_t reseal = crc32(bytes.data() + 16, 24);
  std::memcpy(bytes.data() + 12, &reseal, sizeof reseal);
  write_file(file.str(), bytes);

  svc::SnapshotStore victim(1, 1);
  const std::string msg =
      message_of([&] { victim.restore(file.str()); });
  EXPECT_NE(msg.find("butterfly count mismatch"), std::string::npos) << msg;
  EXPECT_EQ(victim.epoch(), 0u);
}

TEST(PersistRestore, MissingFileAndBadMagicAreNamed) {
  svc::SnapshotStore store(2, 2);
  EXPECT_NE(message_of([&] { store.restore("/nonexistent/bfc.snap"); })
                .find("cannot open snapshot"),
            std::string::npos);
  const TempFile file("bfc_robust_magic.snap");
  write_file(file.str(), std::string(64, 'x'));
  EXPECT_NE(message_of([&] { store.restore(file.str()); }).find("bad magic"),
            std::string::npos);
}

TEST(PersistRestore, ServiceRestoreFlushesCachesAndContinues) {
  const TempFile file("bfc_robust_service.snap");
  svc::ButterflyService service(3, 3, svc::ServiceOptions{.threads = 1});
  (void)service.apply_updates(random_batch(3, 3, 12, 21));
  const std::uint64_t persisted_epoch = service.store().epoch();
  const count_t persisted_count = service.snapshot()->butterflies;
  service.persist(file.str());

  (void)service.apply_updates(random_batch(3, 3, 12, 22));
  // Above K′ the answer comes from a pass and is cached.
  (void)service.top_pairs(count::TopPairBuffer::kCapacity + 1).get();
  ASSERT_GT(service.cache().size(), 0u);

  service.restore(file.str());
  EXPECT_EQ(service.cache().size(), 0u);  // old-epoch keys mean nothing now
  const svc::QueryResult<count_t> total = service.global_count().get();
  EXPECT_EQ(total.value, persisted_count);
  EXPECT_EQ(total.epoch, persisted_epoch);
  EXPECT_FALSE(total.degraded());
  EXPECT_EQ(service.apply_updates({svc::EdgeUpdate::add(0, 0)}).epoch,
            persisted_epoch + 1);
}

// ---------------------------------------------------------------------------
// Fault-injected paths (checked builds only)
// ---------------------------------------------------------------------------

class FaultGated : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!chk::kCheckedEnabled)
      GTEST_SKIP() << "fault injection compiled out (BFC_CHECKED=OFF)";
  }
  void TearDown() override { svc::fault::reset(); }

  static constexpr std::uint64_t kForever = 1u << 20;
};

TEST_F(FaultGated, SaturatedOneShardTipAnswersInlineAndExact) {
  svc::ButterflyService service(4, 4, svc::ServiceOptions{.threads = 1});
  (void)service.apply_updates(k33());                         // epoch 1
  const svc::SnapshotPtr pinned = service.snapshot();
  (void)service.apply_updates({svc::EdgeUpdate::add(3, 3)});  // epoch 2

  const svc::fault::Scoped saturated(
      svc::fault::Point::kQueueSaturation, 0, kForever);
  // Nothing is cached and the queue refuses everything, yet every tip is
  // exact at the epoch it was asked at: a lookup never reaches admission.
  for (vidx_t x = 0; x < 3; ++x) {
    const svc::QueryResult<count_t> v1 = service.vertex_tip_v1(x).get();
    EXPECT_EQ(v1.value, 6);  // 2·C(3,2) butterflies touch each vertex
    EXPECT_EQ(v1.epoch, 2u);
    EXPECT_EQ(v1.fidelity, svc::Fidelity::kExact);
    const svc::QueryResult<count_t> v2 =
        service.vertex_tip_v2(x, pinned).get();
    EXPECT_EQ(v2.value, 6);
    EXPECT_EQ(v2.epoch, 1u);
    EXPECT_EQ(v2.fidelity, svc::Fidelity::kExact);
  }
  EXPECT_EQ(service.vertex_tip_v1(3).get().value, 0);
  EXPECT_EQ(svc::fault::fired_count(svc::fault::Point::kQueueSaturation), 0u);
}

TEST_F(FaultGated, SaturatedShardedTipAnswersInlineAndExact) {
  // Three shards over V1 ranges [0, 3), [3, 6), [6, 9).
  svc::ButterflyService service(9, 6,
                                svc::ServiceOptions{.threads = 1, .shards = 3});
  const auto add = svc::EdgeUpdate::add;
  // A: one butterfly across shards 0 and 1, {0, 4} x {0, 1}.
  const std::vector<svc::EdgeUpdate> a = {add(0, 0), add(0, 1), add(4, 0),
                                          add(4, 1)};
  (void)service.apply_updates(a);
  const shard::ShardViewPtr pinned = service.view();
  // B: a butterfly local to shard 0, {0, 1} x {2, 3}, and vertex 7 of
  // shard 2 closing cross butterflies with 0 and 4 over {0, 1}.
  const std::vector<svc::EdgeUpdate> b = {add(0, 2), add(0, 3), add(1, 2),
                                          add(1, 3), add(7, 0), add(7, 1)};
  (void)service.apply_updates(b);

  const svc::fault::Scoped saturated(
      svc::fault::Point::kQueueSaturation, 0, kForever);
  // Nothing is cached and the queue refuses everything, yet every tip and
  // the global count are exact at the view they were asked at: the view's
  // cross aggregate makes each a lookup that never reaches admission.
  std::vector<std::pair<vidx_t, vidx_t>> edges;
  for (const auto* batch : {&a, &b}) {
    for (const svc::EdgeUpdate& up : *batch) edges.emplace_back(up.u, up.v);
    const graph::BipartiteGraph g = graph::BipartiteGraph::from_edges(9, 6, edges);
    const svc::Request req = batch == &a ? svc::Request(pinned) : svc::Request();
    const std::uint64_t version = batch == &a ? pinned->version
                                              : service.view()->version;
    const std::vector<count_t> tips1 = count::butterflies_per_v1(g);
    const std::vector<count_t> tips2 = count::butterflies_per_v2(g);
    const auto exact = [&](const svc::QueryResult<count_t>& r, count_t want) {
      EXPECT_EQ(r.value, want);
      EXPECT_EQ(r.epoch, version);
      EXPECT_EQ(r.fidelity, svc::Fidelity::kExact);
    };
    exact(service.global_count(req).get(), count::wedge_reference(g));
    for (vidx_t u = 0; u < 9; ++u)
      exact(service.vertex_tip_v1(u, req).get(),
            tips1[static_cast<std::size_t>(u)]);
    for (vidx_t v = 0; v < 6; ++v)
      exact(service.vertex_tip_v2(v, req).get(),
            tips2[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(svc::fault::fired_count(svc::fault::Point::kQueueSaturation), 0u);
}

TEST_F(FaultGated, SaturationAnswersEdgeSupportInlineAndExact) {
  svc::ButterflyService service(3, 3, svc::ServiceOptions{.threads = 1});
  (void)service.apply_updates(k33());

  const svc::fault::Scoped saturated(
      svc::fault::Point::kQueueSaturation, 0, kForever);
  const svc::QueryResult<count_t> support = service.edge_support(0, 0).get();
  EXPECT_EQ(support.value, 4);  // (3−1)·(3−1) butterflies per K_{3,3} edge
  EXPECT_EQ(support.fidelity, svc::Fidelity::kExact);  // inline, not degraded
}

TEST_F(FaultGated, SaturationShedsTopPairsAboveTheBuffers) {
  svc::ButterflyService service(3, 3, svc::ServiceOptions{.threads = 1});
  (void)service.apply_updates(k33());  // epoch 1
  // Above K′ a top-pairs query needs the pass, so it queues.
  constexpr std::size_t kPass = count::TopPairBuffer::kCapacity + 1;
  ASSERT_EQ(service.top_pairs(kPass).get().value->size(), 3u);  // K_{3,3}

  (void)service.apply_updates({svc::EdgeUpdate::del(0, 0)});  // epoch 2
  {
    const svc::fault::Scoped saturated(
        svc::fault::Point::kQueueSaturation, 0, kForever);
    // The queue refuses the pass: the read fails with its reason, and
    // epoch 1's cached list does not answer for epoch 2.
    std::future<svc::QueryResult<svc::TopPairsPtr>> shed =
        service.top_pairs(kPass);
    EXPECT_EQ(shed_reason(shed), svc::OverloadError::Reason::kRejected);
    // At k ≤ K′ the buffer answers exact at epoch 2, saturation or not.
    const svc::QueryResult<svc::TopPairsPtr> buffered =
        service.top_pairs(2).get();
    EXPECT_EQ(buffered.fidelity, svc::Fidelity::kExact);
    EXPECT_EQ(buffered.epoch, 2u);
    EXPECT_EQ(buffered.value->size(), 2u);
  }
  // Saturation over: the next read runs the pass, exact at epoch 2.
  const svc::QueryResult<svc::TopPairsPtr> next =
      service.top_pairs(kPass).get();
  EXPECT_EQ(next.fidelity, svc::Fidelity::kExact);
  EXPECT_EQ(next.epoch, 2u);
  EXPECT_EQ(*next.value,
            count::top_wedge_pairs_v1(service.snapshot()->graph, kPass));
}

TEST_F(FaultGated, SlowKernelTripsDeadlineIntoShed) {
  using namespace std::chrono_literals;
  svc::ButterflyService service(40, 40, svc::ServiceOptions{.threads = 1});
  std::vector<svc::EdgeUpdate> batch;
  const graph::BipartiteGraph g = testing::random_graph(40, 40, 0.2, 12);
  for (vidx_t u = 0; u < g.n1(); ++u)
    for (const vidx_t v : g.csr().row(u))
      batch.push_back(svc::EdgeUpdate::add(u, v));
  (void)service.apply_updates(batch);                          // epoch 1
  (void)service.apply_updates({svc::EdgeUpdate::del(0, 0),
                               svc::EdgeUpdate::add(0, 0)});  // epoch 2
  // Above K′ a top-pairs query needs the pass, which the fault stalls.
  constexpr std::size_t kPass = count::TopPairBuffer::kCapacity + 4;

  // The injected 80 ms stall outlives the 5 ms budget, so the top-pairs
  // pass is cancelled mid-flight (or abandoned at dequeue): the read fails
  // with the deadline as its reason, never with a late exact answer.
  {
    const svc::fault::Scoped slow(svc::fault::Point::kSlowKernel, 0, 1, 80);
    const svc::Request req(service.snapshot(), svc::Deadline::after(5ms));
    std::future<svc::QueryResult<svc::TopPairsPtr>> late =
        service.top_pairs(kPass, req);
    EXPECT_EQ(shed_reason(late), svc::OverloadError::Reason::kDeadline);
  }
  // The next query runs the pass and answers exact at epoch 2.
  const svc::QueryResult<svc::TopPairsPtr> next =
      service.top_pairs(kPass).get();
  EXPECT_FALSE(next.degraded());
  EXPECT_EQ(next.epoch, 2u);
  EXPECT_EQ(*next.value,
            count::top_wedge_pairs_v1(service.snapshot()->graph, kPass));
}

TEST_F(FaultGated, TornPersistIsRejectedAtRestore) {
  const TempFile file("bfc_robust_torn.snap");
  svc::SnapshotStore writer(10, 10);
  (void)writer.apply_batch(random_batch(10, 10, 40, 31));
  {
    const svc::fault::Scoped torn(svc::fault::Point::kPersistTruncate, 0, 1);
    writer.persist(file.str());  // publishes a half-length file
  }
  svc::SnapshotStore victim(1, 1);
  EXPECT_THROW(victim.restore(file.str()), std::runtime_error);
  EXPECT_EQ(victim.epoch(), 0u);
}

TEST_F(FaultGated, BitRotInPersistIsRejectedAtRestore) {
  const TempFile file("bfc_robust_rot.snap");
  svc::SnapshotStore writer(10, 10);
  (void)writer.apply_batch(random_batch(10, 10, 40, 32));
  {
    const svc::fault::Scoped rot(svc::fault::Point::kPersistCorrupt, 0, 1,
                                 /*byte*/ 50);
    writer.persist(file.str());
  }
  svc::SnapshotStore victim(1, 1);
  EXPECT_THROW(victim.restore(file.str()), std::runtime_error);
}

TEST_F(FaultGated, CrashBeforeRenameKeepsPreviousSnapshot) {
  const TempFile file("bfc_robust_crash.snap");
  svc::SnapshotStore writer(10, 10);
  (void)writer.apply_batch(random_batch(10, 10, 40, 33));
  writer.persist(file.str());  // epoch 1 lands cleanly
  const count_t count_at_1 = writer.current()->butterflies;

  (void)writer.apply_batch(random_batch(10, 10, 40, 34));  // epoch 2
  {
    const svc::fault::Scoped crash(svc::fault::Point::kPersistNoRename, 0, 1);
    writer.persist(file.str());  // "crashes" after the tmp write
    EXPECT_EQ(svc::fault::fired_count(svc::fault::Point::kPersistNoRename),
              1u);
  }
  // The interrupted publish must not have touched the real file: restore
  // recovers epoch 1 exactly.
  svc::SnapshotStore victim(1, 1);
  victim.restore(file.str());
  EXPECT_EQ(victim.epoch(), 1u);
  EXPECT_EQ(victim.current()->butterflies, count_at_1);
}

TEST_F(FaultGated, ForcedSaturationStillRejectsWithEmptyQueue) {
  // With the queue empty there is nothing to evict: every policy
  // degenerates to reject-new rather than crashing on a missing victim.
  svc::Executor pool(
      svc::ExecutorOptions{1, 2, svc::ShedPolicy::kDropOldest});
  const svc::fault::Scoped saturated(
      svc::fault::Point::kQueueSaturation, 0, 1);
  EXPECT_FALSE(pool.try_submit([] { return 1; }).has_value());
  // The fault consumed its single firing: the pool is healthy again.
  auto ok = pool.try_submit([] { return 2; });
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->get(), 2);
}

}  // namespace
}  // namespace bfc
