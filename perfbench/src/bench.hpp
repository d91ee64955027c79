// The two phases every workload runs — batch kernels and serving — and the
// run record they fill. main.cpp sequences them; see README.md for the
// metric definitions.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "count/top_pairs.hpp"
#include "graph/bipartite_graph.hpp"
#include "inputs.hpp"
#include "peel/peeling.hpp"
#include "stats.hpp"
#include "svc/service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Named numbers of one run. `metrics` holds every end-to-end and per-layer
/// value; `health` the run-health record. NaN is written as null.
struct Record {
  std::map<std::string, double> metrics;
  std::map<std::string, double> health;
};

/// Milliseconds the host took this machine's CPUs away from it so far
/// (the steal column of /proc/stat), or NaN when unreadable.
double steal_ms();

/// Converts generated edges to the library's vertex type (input
/// preparation, never timed).
std::vector<std::pair<bfc::vidx_t, bfc::vidx_t>> to_edge_list(
    const GraphInput& g);

// ---------------------------------------------------------------------------

enum class Cell : int {
  kCount = 0,       // la::count_butterflies(g)
  kTipV1,           // count::butterflies_per_v1
  kTipV2,           // count::butterflies_per_v2
  kVertexPriority,  // count::vertex_priority
  kWedgeReference,  // count::wedge_reference
  kKTip,            // peel::k_tip, V1, look-ahead
  kKWing,           // peel::k_wing
  kInv2Blocked,     // Inv2, Engine::kBlocked, sequential
  kInv6Blocked,     // Inv6, Engine::kBlocked, sequential
  kInv2Parallel,    // Inv2, Engine::kWedge, 2 threads
  kInv6Parallel,    // Inv6, Engine::kWedge, 2 threads
};
inline constexpr int kCells = 11;
inline constexpr bfc::count_t kPeelK = 4;

/// The kernel phase: every cell on every graph, interleaved round-robin.
class KernelPhase {
 public:
  KernelPhase(const Inputs& in, SpanBuffer& buf, bool plant_wrong);

  /// Builds every graph from its edges; returns the milliseconds spent in
  /// the library. Called once per set-up repetition; the last build is kept.
  double setup(std::uint64_t rep);

  /// One unmeasured warm-up round, then measured rounds until `budget_s`
  /// has elapsed and at least `min_rounds` rounds ran.
  void run(double budget_s, int min_rounds, Tally& tally);

  /// Off-clock checks of the warm-up outputs (k_tip recompute, k-core
  /// conditions of the peel results).
  void deep_checks(Tally& tally);

  void report(Record& rec) const;

 private:
  struct Dataset {
    std::string name;
    bfc::vidx_t n1 = 0, n2 = 0;
    std::vector<std::pair<bfc::vidx_t, bfc::vidx_t>> edges;
    bfc::graph::BipartiteGraph g;
    bfc::count_t ref = 0;  // count::wedge_reference, the oracle
    double wedges = 0.0;   // Σ deg² over both sides
    std::vector<bfc::count_t> tips1, tips2;  // warm-up outputs
    bfc::peel::TipPeelResult ktip;
    bfc::peel::WingPeelResult kwing;
    std::array<std::vector<double>, kCells> ms;  // per measured round
  };

  void run_cell(Dataset& d, Cell c, int round, std::uint64_t parent,
                Tally& tally);
  [[nodiscard]] double sum_medians(std::initializer_list<Cell> cells) const;

  SpanBuffer& buf_;
  bool plant_wrong_;
  std::vector<Dataset> data_;
  int rounds_ = 0;
  // obs work counters summed over one measured round, per round (traced).
  std::vector<double> wedges_, nnz_, panels_, peel_rounds_;
};

// ---------------------------------------------------------------------------

/// A reader's pinned state: a snapshot (one shard) or a view (sharded), and
/// its key — the snapshot's epoch or the view's signature.
struct Pin {
  bfc::svc::SnapshotPtr snap;
  bfc::shard::ShardViewPtr view;
  std::uint64_t key = 0;
};

/// One answer kept for off-clock verification: what was asked, what came
/// back, and which snapshot (epoch) or view (signature) it was pinned to.
struct Sample {
  QueryKind kind = QueryKind::kGlobal;
  std::uint32_t a = 0, b = 0;
  bfc::count_t value = 0;
  std::vector<bfc::count::VertexPair> pairs;
  std::uint64_t pin = 0;
};

/// The serving phase: 2 fixed-rate readers and 1 open-loop writer against
/// one ButterflyService, then a sequential replay of the write script that
/// splits a publish into its layers and verifies the sampled answers.
class ServingPhase {
 public:
  ServingPhase(const Inputs& in, const WorkloadSpec& w, double window_s,
               Tracer& tracer, SpanBuffer& main_buf, bool plant_wrong);
  ~ServingPhase();
  ServingPhase(const ServingPhase&) = delete;
  ServingPhase& operator=(const ServingPhase&) = delete;

  /// Constructs a service, bulk-loads the initial graph, and runs one warm
  /// query per kind; returns the milliseconds. The last service is kept.
  double setup(std::uint64_t rep, Tally& tally);

  /// The measured window.
  void run(Tally& tally);

  /// Maintained Ξ against a recount on the live service, then shuts the
  /// service down.
  void finish(Tally& tally);

  /// Sequential replay into standalone counter/store instances; verifies
  /// every kept sample and the final Ξ.
  void replay(Tally& tally);

  void report(Record& rec) const;

 private:
  struct ReaderOut;
  struct WriterOut;

  void reader(int r, SpanBuffer& buf, ReaderOut& out, Clock::time_point start,
              Clock::time_point end);
  void writer(SpanBuffer& buf, WriterOut& out, Clock::time_point start,
              Clock::time_point end);
  [[nodiscard]] bool keep_epoch(std::uint64_t epoch) const;
  void verify(const std::vector<const Sample*>& samples,
              const bfc::graph::BipartiteGraph& g,
              const std::vector<bfc::count_t>& tips1,
              const std::vector<bfc::count_t>& tips2,
              const std::vector<bfc::count::VertexPair>& top, Tally& tally);

  const Inputs& in_;
  const WorkloadSpec& w_;
  double window_s_;
  Tracer& tracer_;
  SpanBuffer& buf_;
  bool plant_wrong_;
  bfc::vidx_t n1_ = 0, n2_ = 0;
  std::vector<bfc::svc::EdgeUpdate> initial_;
  std::vector<std::vector<bfc::svc::EdgeUpdate>> batches_;
  int probe_period_ = 1;  // single shard: verify epochs 1, 1+P, 1+2P, ...
  std::unique_ptr<bfc::svc::ButterflyService> svc_;
  // The state readers pin: the writer announces an epoch (view) once its
  // freshness probe has answered, so reads never wait on a pass.
  std::atomic<std::shared_ptr<const Pin>> announced_;

  std::vector<Sample> samples_;
  LatencyHistogram all_, per_kind_[kKinds];
  // One-second slots of the window, both readers merged.
  std::vector<std::uint64_t> slot_reads_;
  std::vector<LatencyHistogram> slot_hist_;
  std::uint64_t reads_ = 0, reads_scheduled_ = 0;
  LatencyHistogram reader_lateness_;
  double window_ms_ = 0.0;
  double steal_ms_ = 0.0;
  std::vector<double> publish_ms_, fresh_ms_, lateness_ms_, queue_depth_;
  int published_in_window_ = 0;
  std::map<std::string, double> counters_;  // obs deltas over the window
  std::map<std::string, std::vector<double>> replay_ms_;
  std::vector<double> cross_pairs_;
  std::uint64_t samples_verified_ = 0;
  bfc::count_t final_xi_ = -1;
};

}  // namespace perfbench
