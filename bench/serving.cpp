// Closed-loop load generator for the serving subsystem (src/svc/): N reader
// threads issue a configurable mix of butterfly queries against pinned
// snapshots while one writer thread applies edge-update batches and
// publishes epochs underneath them. Emits a throughput / p50 / p95 / p99
// latency table per query kind, the usual RunReport (--json) with every
// latency sample plus the svc.* counters (cache hits, epochs published,
// shed reads, ...), and with --trace every span of the run.
//
//   ./serving [--readers 4] [--epochs 8] [--batch 200] [--queries 500]
//             [--pool 4] [--mix tip:6,global:2,edge:1,top:1] [--top-k 8]
//             [--scale 0.05] [--seed 42] [--json out.json] [--trace t.json]
//
// A top-pairs read asks for --top-k pairs. Up to K′ = 64 the shards'
// top-pair buffers answer it as a lookup; above K′ it queues for a pass and
// caches its answer: the only read that queues, so the load the overload
// checks need. Every other read answers on the reader's thread.
//
// Overload mode exercises the fault-tolerance path: a small bounded queue
// and per-query deadlines. The run then also fails unless the admission
// layer actually shed work — the whole point of the exercise — while the
// drift check still must pass (shedding queries must never corrupt the
// maintained count).
//
//   ./serving --overload [--max-queue 8] [--policy drop-oldest|reject|deadline]
//             [--deadline-ms 5]
//
// Sharded mode partitions the V1 range across N independent stores and
// exercises the scatter-gather query plane: one writer per shard publishes
// disjoint-range batches with rounds aligned on a barrier (so the per-shard
// publish spans genuinely race), readers pin shard views instead of
// materialised snapshots, and the run fails unless the sharded count matches
// both a from-scratch recount and a sequential --shards 1 replay of the same
// scripted batches. --zipf theta (YCSB skew, rank 0 hottest) concentrates
// keys on the low shards so the per-shard cache hit-rate spread is visible.
//
//   ./serving --shards 4 [--zipf 0.9]
//
// Chaos mode moves every shard into its own bfc-shard-host process behind a
// RemoteShard and SIGKILLs one of them mid-load while the supervisor watches:
//
//   ./serving --shards 4 --kill-shard 2@mid --host-bin path/to/bfc-shard-host
//
// <round> is a 0-based publish round or "mid" (= epochs/2). The run fails
// unless: no query ever failed outright, the dead range's answers were
// tagged stale (per-shard fidelity bit) while a healthy range stayed exact,
// the supervisor restarted the host exactly once from its checkpoint, the
// victim writer's replay converged, and the final count still matches the
// sequential --shards 1 replay — crash recovery with zero drift.
//
// Telemetry plane (all optional, see docs/telemetry.md):
//
//   --metrics-port N   serve the OpenMetrics rendering on 127.0.0.1:N
//                      (0 = ephemeral; the bound port is printed)
//   --metrics-file F   dump the OpenMetrics rendering to F after every
//                      published epoch and at the end of the run
//   --trace F          (the common flag) collect spans and write them as
//                      Chrome trace events; also arms span self-checks
//                      (intact parent links; overload runs show shed
//                      outcomes)
//   --trace-sample N   head-based sampling: root (and therefore trace) only
//                      1 in N requests (default 1 = every request)
//   --profile-hz N     sample call stacks at N Hz for the whole run
//   --profile-out F    write the folded stacks (flamegraph.pl input)
//   --flight-out F     arm the flight recorder's fault dump at F and write
//                      the final ring there on success too
//   --slo-ms X         arm an X-millisecond latency objective on every
//                      query kind (the svc.slo.* instruments);
//                      --slo-objective sets the fraction
//
// The run fails (exit 1) if the incrementally maintained count or any tip
// answer at the final epoch drifts from a from-scratch recount, or — when
// kernel metrics are compiled in — if the run produced no cache hits
// (normal mode), or no shed/rejected work (overload mode).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string_view>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "count/baselines.hpp"
#include "count/local_counts.hpp"
#include "la/count.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/spans.hpp"
#include "shard/partition.hpp"
#include "shard/remote.hpp"
#include "shard/supervisor.hpp"
#include "shard/transport.hpp"
#include "sparse/ops.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace bfc;

struct MixEntry {
  std::string name;  // tip | global | edge | top
  int weight = 0;
};

std::vector<MixEntry> parse_mix(const std::string& spec) {
  std::vector<MixEntry> mix;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t colon = item.find(':');
    require(colon != std::string::npos,
            "--mix entries must look like kind:weight");
    const std::string name = item.substr(0, colon);
    // bfc-analyze: eager-message-ok one check per --mix entry, at startup
    require(name == "tip" || name == "global" || name == "edge" ||
                name == "top",
            "--mix kinds are tip|global|edge|top, got '" + name + "'");
    const int weight = std::stoi(item.substr(colon + 1));
    require(weight >= 0, "--mix weights must be >= 0");
    mix.push_back({name, weight});
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  int total = 0;
  for (const MixEntry& m : mix) total += m.weight;
  require(total > 0, "--mix must have positive total weight");
  return mix;
}

const MixEntry& pick(const std::vector<MixEntry>& mix, Rng& rng, int total) {
  auto roll = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(total)));
  for (const MixEntry& m : mix) {
    roll -= m.weight;
    if (roll < 0) return m;
  }
  return mix.back();
}

svc::ShedPolicy parse_policy(const std::string& name) {
  if (name == "reject") return svc::ShedPolicy::kRejectNew;
  if (name == "drop-oldest") return svc::ShedPolicy::kDropOldest;
  if (name == "deadline") return svc::ShedPolicy::kDeadlineAware;
  require(false, "--policy must be reject|drop-oldest|deadline, got '" +
                     name + "'");
  return svc::ShedPolicy::kRejectNew;  // unreachable
}

/// Uniform present neighbour of `u` in the pinned shard snapshot; when u
/// currently has no edges, a uniform (possibly absent) partner — support of
/// an absent edge is a legal query answering 0.
std::pair<vidx_t, vidx_t> random_edge_at(const svc::SnapshotPtr& snap,
                                         vidx_t u, vidx_t n2, Rng& rng) {
  const sparse::CsrPattern& a = snap->graph.csr();
  const offset_t b = a.row_ptr()[static_cast<std::size_t>(u)];
  const offset_t e = a.row_ptr()[static_cast<std::size_t>(u) + 1];
  if (e > b) {
    const auto k = b + static_cast<offset_t>(
                           rng.bounded(static_cast<std::uint64_t>(e - b)));
    return {u, a.col_idx()[static_cast<std::size_t>(k)]};
  }
  return {u, static_cast<vidx_t>(rng.bounded(static_cast<std::uint64_t>(n2)))};
}

/// The first two "svc.publish" spans of different shards that overlap in
/// time, if any; `publishes` receives the number of shard publish spans.
std::optional<std::pair<std::string, std::string>> overlapping_publishes(
    std::size_t& publishes) {
  const std::vector<obs::SpanRecord> spans = obs::SpanLog::snapshot();
  struct Pub {
    std::string_view shard;
    std::int64_t begin, end;
  };
  std::vector<Pub> pubs;
  for (const obs::SpanRecord& s : spans)
    if (s.name == std::string_view("svc.publish") && !s.tag("shard").empty())
      pubs.push_back({s.tag("shard"), s.ts_us,
                      s.ts_us + std::max<std::int64_t>(s.dur_us, 1)});
  publishes = pubs.size();
  // Sweep in start order; `open` holds the spans still running at p.begin.
  std::sort(pubs.begin(), pubs.end(),
            [](const Pub& a, const Pub& b) { return a.begin < b.begin; });
  std::vector<Pub> open;
  for (const Pub& p : pubs) {
    std::erase_if(open, [&](const Pub& o) { return o.end <= p.begin; });
    for (const Pub& o : open)
      if (o.shard != p.shard)
        return std::pair{std::string(o.shard), std::string(p.shard)};
    open.push_back(p);
  }
  return std::nullopt;
}

constexpr std::size_t kProbeSide = 8;

/// A probe batch for shard range [lo, hi) of `g`: inserts of the edges
/// absent from `g` between the range's kProbeSide highest-degree V1
/// vertices and the graph's kProbeSide highest-degree V2 vertices, then
/// removes of the same edges. Each update walks the butterflies its edge
/// closes, and the batch leaves the shard's edges as they were.
std::vector<svc::EdgeUpdate> probe_batch(const graph::BipartiteGraph& g,
                                         vidx_t lo, vidx_t hi) {
  const auto highest = [](vidx_t begin, vidx_t end,
                          const sparse::CsrPattern& rows) {
    std::vector<vidx_t> ids(static_cast<std::size_t>(end - begin));
    std::iota(ids.begin(), ids.end(), begin);
    const auto keep =
        static_cast<std::ptrdiff_t>(std::min(kProbeSide, ids.size()));
    std::ranges::partial_sort(ids, ids.begin() + keep, std::ranges::greater{},
                              [&](vidx_t x) { return rows.row_degree(x); });
    ids.resize(static_cast<std::size_t>(keep));
    return ids;
  };
  std::vector<svc::EdgeUpdate> batch;
  for (const vidx_t u : highest(lo, hi, g.csr()))
    for (const vidx_t v : highest(0, g.n2(), g.csc()))
      if (!g.has_edge(u, v)) batch.push_back(svc::EdgeUpdate::add(u, v));
  const std::size_t inserts = batch.size();
  for (std::size_t i = 0; i < inserts; ++i)
    batch.push_back(svc::EdgeUpdate::del(batch[i].u, batch[i].v));
  return batch;
}

/// Sharded acceptance: the per-shard writers publish through independent
/// stores, so their root "svc.publish" spans must overlap in time —
/// serialised publishes would mean the shard layer still funnels every
/// write through one lock. Whether two short publishes of the scripted
/// rounds happened to overlap is up to the scheduler, so when none did,
/// probe rounds follow: one writer per shard, released together by a
/// spinning barrier, each publishes its probe_batch, until two probes
/// overlap or kProbeRounds are spent. A probe walks butterflies, so its
/// publish lasts about as long as a scripted one, and it leaves the edges
/// (and so the drift checks above) exactly as they were; an empty batch
/// would publish a copy of the previous snapshot, too short to overlap
/// reliably. A serialised shard layer stays red however many rounds run.
/// Only enforced with >= 2 hardware threads; a single-core box can
/// legitimately never overlap two CPU-bound sections.
bool check_publish_overlap(svc::ButterflyService& service,
                           const shard::RangePartition& part, int shards) {
  constexpr int kProbeRounds = 2000;
  constexpr int kRoundsPerCheck = 50;
  std::size_t publishes = 0;
  auto overlap = overlapping_publishes(publishes);
  if (publishes < 2) {
    std::cerr << "FATAL: sharded run recorded " << publishes
              << " shard svc.publish span(s); expected one per shard epoch\n";
    return false;
  }
  if (std::thread::hardware_concurrency() < 2 && !overlap) {
    std::cout << "publish overlap: skipped (single hardware thread)\n";
    return true;
  }
  const svc::SnapshotPtr now = service.snapshot();
  std::vector<std::vector<svc::EdgeUpdate>> probes_of(
      static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k)
    probes_of[static_cast<std::size_t>(k)] =
        probe_batch(now->graph, part.begin(k), part.end(k));
  int probes = 0;
  while (!overlap && probes < kProbeRounds) {
    std::atomic<int> arrived{0};
    {
      std::vector<std::jthread> writers;
      for (int k = 0; k < shards; ++k)
        writers.emplace_back([&, k] {
          for (int r = 1; r <= kRoundsPerCheck; ++r) {
            arrived.fetch_add(1, std::memory_order_acq_rel);
            while (arrived.load(std::memory_order_acquire) < shards * r)
              std::this_thread::yield();
            service.apply_updates_shard(
                k, probes_of[static_cast<std::size_t>(k)]);
          }
        });
    }
    probes += kRoundsPerCheck;
    overlap = overlapping_publishes(publishes);
  }
  if (overlap) {
    std::cout << "publish overlap: shards " << overlap->first << " and "
              << overlap->second << " published concurrently (" << publishes
              << " publish spans total, " << probes << " probe rounds)\n";
    return true;
  }
  std::cerr << "FATAL: no two svc.publish spans from different shards "
               "overlap across "
            << publishes << " publishes (" << probes
            << " probe rounds); shard writers appear serialised\n";
  return false;
}

struct KindStats {
  Samples latency;  // seconds per completed query
};

constexpr const char* kKinds[] = {"tip", "global", "edge", "top"};
constexpr int kKindCount = 4;

int kind_index(const std::string& name) {
  for (int i = 0; i < kKindCount; ++i)
    if (name == kKinds[i]) return i;
  return 0;
}

// The service's cumulative latency histograms, one per QueryKind
// (docs/telemetry.md).
constexpr const char* kLatencyHistograms[] = {
    "svc.latency_ns.global", "svc.latency_ns.tip_v1", "svc.latency_ns.tip_v2",
    "svc.latency_ns.edge", "svc.latency_ns.top_pairs"};

/// Span-plane self-checks over the spans --trace writes. The log must be
/// non-empty with intact parent links (unless the bounded log dropped
/// spans, which can orphan survivors legitimately); an overload run must
/// additionally show at least one shed/cancelled request in the tree.
bool check_spans(bool overload) {
  const std::vector<obs::SpanRecord> spans = obs::SpanLog::snapshot();
  if (spans.empty()) {
    std::cerr << "FATAL: --trace is set but the span log is empty\n";
    return false;
  }
  std::set<std::uint64_t> ids;
  for (const obs::SpanRecord& s : spans) ids.insert(s.span_id);
  std::size_t broken = 0;
  std::int64_t shed = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id != 0 && ids.count(s.parent_id) == 0) ++broken;
    const std::string_view outcome = s.tag("outcome");
    if (outcome == "shed" || outcome == "cancelled" ||
        s.tag("rejected") == "true")
      ++shed;
  }
  if (obs::SpanLog::dropped() == 0 && broken > 0) {
    std::cerr << "FATAL: " << broken << " span(s) have dangling parent ids\n";
    return false;
  }
  if (overload && shed == 0) {
    std::cerr << "FATAL: overload span tree shows no shed or cancelled "
                 "request\n";
    return false;
  }
  std::cout << "spans: " << spans.size() << " recorded ("
            << obs::SpanLog::dropped() << " dropped), " << shed
            << " shed/cancelled\n";
  return true;
}

/// Tip-drift acceptance at the final epoch: every vertex_tip_v1/v2 answer on
/// `view` must equal count::butterflies_per_v1/v2 of `truth`, a graph built
/// without the tips the writers maintained.
bool check_tip_drift(svc::ButterflyService& service,
                     const shard::ShardViewPtr& view,
                     const graph::BipartiteGraph& truth) {
  for (const bool v1_side : {true, false}) {
    const std::vector<count_t> want = v1_side
                                          ? count::butterflies_per_v1(truth)
                                          : count::butterflies_per_v2(truth);
    for (vidx_t x = 0; x < static_cast<vidx_t>(want.size()); ++x) {
      const svc::QueryResult<count_t> r =
          v1_side ? service.vertex_tip_v1(x, view).get()
                  : service.vertex_tip_v2(x, view).get();
      if (r.value != want[static_cast<std::size_t>(x)]) {
        std::cerr << "FATAL: tip drift at view version " << view->version
                  << ": vertex_tip_" << (v1_side ? "v1(" : "v2(") << x
                  << ") = " << r.value << " (" << svc::fidelity_name(r.fidelity)
                  << ") != recount " << want[static_cast<std::size_t>(x)]
                  << "\n";
        return false;
      }
    }
  }
  std::cout << "tip drift check: all " << truth.n1() << " + " << truth.n2()
            << " tips == from-scratch recount\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using bfc::bench::BenchConfig;
  const BenchConfig cfg = bfc::bench::parse_config(
      argc, argv,
      {"readers", "epochs", "batch", "queries", "pool", "mix", "shards",
       "zipf", "kill-shard", "host-bin", "overload", "max-queue", "policy",
       "deadline-ms", "metrics-port", "metrics-file",
       "trace-sample", "profile-hz", "profile-out", "flight-out", "slo-ms",
       "slo-objective", "top-k"});
  const Cli cli(argc, argv);
  const int readers = static_cast<int>(cli.get_int("readers", 4));
  const int epochs = static_cast<int>(cli.get_int("epochs", 8));
  const int batch_size = static_cast<int>(cli.get_int("batch", 200));
  const int queries_per_reader = static_cast<int>(cli.get_int("queries", 500));
  const int pool = static_cast<int>(cli.get_int("pool", 4));
  const std::vector<MixEntry> mix =
      parse_mix(cli.get("mix", "tip:6,global:2,edge:1,top:1"));
  const auto top_k =
      static_cast<std::size_t>(cli.get_int_at_least("top-k", 8, 1));
  require(readers >= 1 && epochs >= 1 && batch_size >= 1 &&
              queries_per_reader >= 1 && pool >= 1,
          "--readers/--epochs/--batch/--queries/--pool must be >= 1");
  int mix_total = 0;
  for (const MixEntry& m : mix) mix_total += m.weight;

  const int shards = static_cast<int>(cli.get_int_at_least("shards", 1, 1));
  const bool sharded = shards > 1;
  const double zipf_theta = cli.get_double("zipf", 0.0);
  require(zipf_theta >= 0.0 && zipf_theta < 1.0,
          "--zipf must be in [0, 1): 0 disables, YCSB theta otherwise");

  // Chaos mode: out-of-process shard hosts, one SIGKILLed mid-run.
  const std::string kill_spec = cli.get("kill-shard", "");
  const std::string host_bin = cli.get("host-bin", "");
  const bool chaos = !kill_spec.empty();
  int victim = -1;
  int kill_round = -1;
  if (chaos) {
    require(sharded, "--kill-shard needs --shards > 1");
    require(!host_bin.empty(),
            "--kill-shard needs --host-bin <path to bfc-shard-host>");
    const std::size_t at = kill_spec.find('@');
    require(at != std::string::npos && at > 0 && at + 1 < kill_spec.size(),
            "--kill-shard spec is <shard>@<round|mid>, got '" + kill_spec +
                "'");
    victim = std::stoi(kill_spec.substr(0, at));
    const std::string round = kill_spec.substr(at + 1);
    kill_round = round == "mid" ? epochs / 2 : std::stoi(round);
    require(victim >= 0 && victim < shards,
            "--kill-shard shard index out of range");
    require(kill_round >= 0 && kill_round < epochs,
            "--kill-shard round must be in [0, epochs)");
  }

  // Overload mode: bounded queue sized to saturate under the reader load,
  // tight deadlines.
  const bool overload = cli.get_bool("overload", false);
  const auto max_queue = static_cast<std::size_t>(cli.get_int_at_least(
      "max-queue", overload ? 2 * static_cast<std::int64_t>(pool) : 0, 0));
  const svc::ShedPolicy policy =
      parse_policy(cli.get("policy", overload ? "drop-oldest" : "reject"));
  const double deadline_ms =
      cli.get_double("deadline-ms", overload ? 5.0 : 0.0);
  require(!overload || max_queue > 0, "--overload needs --max-queue >= 1");
  require(!overload || !chaos,
          "--kill-shard and --overload are separate acceptance runs: chaos "
          "asserts zero failed queries, overload asserts shed work");

  // ---- telemetry plane ----------------------------------------------------
  const bool has_metrics_port = cli.has("metrics-port");
  const int metrics_port =
      static_cast<int>(cli.get_int_at_least("metrics-port", 0, 0));
  const std::string metrics_file = cli.get("metrics-file", "");
  const int profile_hz =
      static_cast<int>(cli.get_int_at_least("profile-hz", 0, 0));
  const std::string profile_out = cli.get("profile-out", "");
  const std::string flight_out = cli.get("flight-out", "");
  const double slo_ms = cli.get_double("slo-ms", 0.0);
  const double slo_objective = cli.get_double("slo-objective", 0.99);
  require(slo_objective > 0.0 && slo_objective <= 1.0,
          "--slo-objective must be in (0, 1]");
  obs::SpanLog::set_sample_period(static_cast<std::uint64_t>(
      cli.get_int_at_least("trace-sample", 1, 1)));
  if (!flight_out.empty()) obs::FlightRecorder::set_dump_path(flight_out);
  std::unique_ptr<obs::MetricsHttpServer> exporter;
  if (has_metrics_port)
    exporter = std::make_unique<obs::MetricsHttpServer>(metrics_port);

  bfc::bench::print_header("serving: concurrent query load generator", cfg);
  if (exporter)
    std::cout << "metrics exporter: http://127.0.0.1:" << exporter->port()
              << "/metrics\n";

  // Initial graph: the arXiv cond-mat stand-in at --scale, loaded as the
  // first published epoch.
  const gen::KonectPreset& preset = gen::konect_preset("arXiv cond-mat");
  const graph::BipartiteGraph initial =
      gen::make_konect_like(preset, cfg.scale, cfg.seed);
  const vidx_t n1 = initial.n1(), n2 = initial.n2();

  svc::ServiceOptions service_options{.threads = pool,
                                      .shards = shards,
                                      .max_queue = max_queue,
                                      .shed_policy = policy};
  if (slo_ms > 0.0) {
    service_options.slo_target_us.fill(slo_ms * 1e3);
    service_options.slo_objective = slo_objective;
  }
  svc::ButterflyService service(n1, n2, service_options);
  const shard::RangePartition part = service.shard_store().partition();

  // Chaos plumbing: every shard moves into its own bfc-shard-host process
  // behind a RemoteShard BEFORE the initial load, so all shard state lives
  // across a process boundary and every publish/pin crosses the socket.
  std::optional<shard::ShardSupervisor> supervisor;
  std::vector<std::shared_ptr<shard::RemoteShard>> remotes;
  std::vector<std::string> chaos_ckpts;
  if (chaos) {
    const std::string stem =
        "/tmp/bfc_chaos_" + std::to_string(::getpid()) + "_";
    supervisor.emplace();
    for (int k = 0; k < shards; ++k) {
      shard::HostSpec spec;
      spec.binary = host_bin;
      spec.socket = stem + std::to_string(k) + ".sock";
      spec.id = k;
      spec.n1 = n1;
      spec.n2 = n2;
      spec.lo = part.begin(k);
      spec.hi = part.end(k);
      supervisor->add_host(spec);
      auto remote = std::make_shared<shard::RemoteShard>(
          k, n1, n2, spec.lo, spec.hi, spec.socket);
      service.swap_shard(k, remote);
      remotes.push_back(std::move(remote));
      chaos_ckpts.push_back(stem + std::to_string(k) + ".ckpt");
    }
  }

  {
    std::vector<svc::EdgeUpdate> load;
    for (const auto& [u, v] : sparse::edges(initial.csr()))
      load.push_back(svc::EdgeUpdate::add(u, v));
    service.apply_updates(load);
  }

  if (chaos) {
    // Checkpoint every host right after the initial load and hand the paths
    // to the supervisor: a restart restores this state, and the victim
    // writer replays its scripted rounds on top — exact by construction.
    for (int k = 0; k < shards; ++k) {
      remotes[static_cast<std::size_t>(k)]->persist(
          chaos_ckpts[static_cast<std::size_t>(k)]);
      supervisor->set_snapshot(k, chaos_ckpts[static_cast<std::size_t>(k)]);
    }
    // The monitor is NOT started here: the victim writer starts it right
    // after the staleness witness below. With the monitor live from the
    // start, a fast restart can heal the range before the circuit breaker
    // (3 consecutive failed pins, ~tens of ms) ever opens, and the witness
    // would race the recovery instead of deterministically observing the
    // dark range.
  }
  const auto start_chaos_monitor = [&supervisor] {
    supervisor->start_monitor([](int k, std::uint64_t restored_epoch) {
      std::cout << "supervisor: restarted shard " << k
                << " from its checkpoint (restored epoch " << restored_epoch
                << ")\n";
    });
  };
  std::cout << "graph: |V1|=" << n1 << " |V2|=" << n2
            << " |E|=" << service.snapshot()->edges << "  readers=" << readers
            << " pool=" << pool << " epochs=" << epochs
            << " batch=" << batch_size << " queries/reader="
            << queries_per_reader << "\n";
  if (overload)
    std::cout << "overload: max-queue=" << max_queue << " policy="
              << svc::shed_policy_name(policy) << " deadline="
              << Table::fixed(deadline_ms, 1) << " ms\n";
  if (sharded) {
    std::cout << "sharded: " << shards << " range-partitioned stores, "
              << shards << " concurrent writers (V1 ranges";
    for (int k = 0; k < shards; ++k)
      std::cout << (k == 0 ? " " : ", ") << "[" << part.begin(k) << ","
                << part.end(k) << ")";
    std::cout << ")\n";
  }
  if (zipf_theta > 0.0)
    std::cout << "zipf: theta=" << Table::fixed(zipf_theta, 2)
              << " (rank 0 hottest; low ranks land in shard 0)\n";
  if (chaos)
    std::cout << "chaos: " << shards << " out-of-process hosts (" << host_bin
              << "); SIGKILL shard " << victim << " after round " << kill_round
              << "\n";
  std::cout << "\n";

  // Key popularity: --zipf draws ranks from the YCSB Zipf generator (rank 0
  // hottest, and under the range partition low ranks live in shard 0, so the
  // skew shows up as a per-shard hit-rate spread in the report). Without
  // --zipf, a small uniform hot set supplies the cache repeats as before.
  constexpr int kHotSet = 16;
  std::optional<Zipf> zipf_v1, zipf_v2;
  if (zipf_theta > 0.0) {
    zipf_v1.emplace(static_cast<std::uint64_t>(n1), zipf_theta);
    zipf_v2.emplace(static_cast<std::uint64_t>(n2), zipf_theta);
  }
  const auto pick_v1 = [&](Rng& rng) {
    if (zipf_v1) return static_cast<vidx_t>(zipf_v1->next(rng));
    const bool hot = rng.bernoulli(0.3);
    return static_cast<vidx_t>(rng.bounded(
        static_cast<std::uint64_t>(hot ? std::min(kHotSet, n1) : n1)));
  };
  const auto pick_v2 = [&](Rng& rng) {
    if (zipf_v2) return static_cast<vidx_t>(zipf_v2->next(rng));
    const bool hot = rng.bernoulli(0.3);
    return static_cast<vidx_t>(rng.bounded(
        static_cast<std::uint64_t>(hot ? std::min(kHotSet, n2) : n2)));
  };

  const std::int64_t total_queries =
      static_cast<std::int64_t>(readers) * queries_per_reader;
  std::atomic<std::int64_t> completed{0};
  std::atomic<std::int64_t> degraded_answers{0};
  std::atomic<std::int64_t> overload_errors{0};

  // Chaos evidence, written by the victim writer and read after the join.
  std::atomic<bool> saw_victim_stale{false};
  std::atomic<bool> saw_healthy_exact{false};
  std::atomic<bool> chaos_recovery_failed{false};
  std::atomic<std::int64_t> outage_rounds{0};

  // Sharded writers replay a pre-generated script: shard k's round-e batch
  // only touches V1 vertices in [begin(k), end(k)), so the N writers can
  // publish concurrently, and the exact same batches can be replayed
  // sequentially into a --shards 1 service for the zero-drift check.
  std::vector<std::vector<std::vector<svc::EdgeUpdate>>> script;
  if (sharded) {
    const int per_shard = std::max(1, batch_size / shards);
    script.resize(static_cast<std::size_t>(shards));
    for (int k = 0; k < shards; ++k) {
      Rng wrng(cfg.seed + 1 + static_cast<std::uint64_t>(k));
      const vidx_t lo = part.begin(k), hi = part.end(k);
      auto& rounds = script[static_cast<std::size_t>(k)];
      rounds.resize(static_cast<std::size_t>(epochs));
      for (auto& round : rounds) {
        round.reserve(static_cast<std::size_t>(per_shard));
        for (int i = 0; i < per_shard && hi > lo; ++i)
          round.push_back(
              {lo + static_cast<vidx_t>(wrng.bounded(
                        static_cast<std::uint64_t>(hi - lo))),
               static_cast<vidx_t>(
                   wrng.bounded(static_cast<std::uint64_t>(n2))),
               wrng.bernoulli(0.7)});
      }
    }
  }

  // Epoch boundary, shared by both writer modes: dump the metrics rendering
  // and pace the next round against reader progress so the epochs spread
  // across the whole run. Sharded, this runs as the barrier's completion
  // step — on one writer thread while the rest are parked at the barrier.
  const std::int64_t quota =
      std::max<std::int64_t>(1, total_queries / (epochs + 1));
  // The cache's per-tier hit/miss counts are generation-scoped: a publish on
  // shard k resets tier k's stats (result_cache.hpp). To report per-shard
  // hit rates over the whole run, each boundary — after pacing has let a
  // quota of queries run against the fresh generation — folds the tier
  // stats into these cumulative sums before the next publish resets them.
  std::vector<std::int64_t> shard_gen_hits, shard_gen_misses;
  if (sharded) {
    shard_gen_hits.assign(static_cast<std::size_t>(shards) + 1, 0);
    shard_gen_misses.assign(static_cast<std::size_t>(shards) + 1, 0);
  }
  const auto epoch_boundary = [&]() noexcept {
    if (!metrics_file.empty()) obs::write_openmetrics_file(metrics_file);
    const std::int64_t target = std::min(
        total_queries, completed.load(std::memory_order_relaxed) + quota);
    while (completed.load(std::memory_order_relaxed) < target)
      std::this_thread::yield();
    if (sharded)
      for (int k = 0; k <= shards; ++k) {
        shard_gen_hits[static_cast<std::size_t>(k)] +=
            service.cache().hits(k);
        shard_gen_misses[static_cast<std::size_t>(k)] +=
            service.cache().misses(k);
      }
  };
  std::barrier round_barrier(std::max(shards, 1), epoch_boundary);

  if (profile_hz > 0)
    require(obs::Profiler::start(profile_hz),
            "--profile-hz: cannot arm the sampling profiler");
  std::vector<std::vector<KindStats>> per_reader(
      static_cast<std::size_t>(readers));

  Timer wall;
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(readers) + 1);

    // Writer(s): publishes `epochs` update batches, paced against reader
    // progress so the epochs are spread across the whole run. shards==1
    // keeps the classic single writer; sharded runs start one writer per
    // shard over its pre-scripted disjoint-range batches, with rounds
    // aligned on the barrier so the per-shard publishes genuinely race (the
    // epoch boundary then runs as the barrier's completion step, on one
    // writer thread while the rest are parked).
    if (!sharded) {
      threads.emplace_back([&] {
        Rng rng(cfg.seed + 1);
        for (int e = 0; e < epochs; ++e) {
          std::vector<svc::EdgeUpdate> batch;
          batch.reserve(static_cast<std::size_t>(batch_size));
          for (int i = 0; i < batch_size; ++i)
            batch.push_back({static_cast<vidx_t>(rng.bounded(
                                 static_cast<std::uint64_t>(n1))),
                             static_cast<vidx_t>(rng.bounded(
                                 static_cast<std::uint64_t>(n2))),
                             rng.bernoulli(0.7)});
          service.apply_updates(batch);
          epoch_boundary();
        }
      });
    } else {
      for (int k = 0; k < shards; ++k)
        threads.emplace_back([&, k] {
          const auto& rounds = script[static_cast<std::size_t>(k)];
          // behind = the host restored its initial-load checkpoint (or is
          // about to), so every scripted round applied so far is gone from
          // it. Recovery replays the script from round 0 in publish order:
          // EdgeUpdate batches are absolute (add -> present, del -> absent),
          // so reapplying an ordered prefix that partially landed converges
          // on exactly the sequential state.
          bool behind = false;
          const auto replay_through = [&](int upto) {
            for (int r = 0; r < upto; ++r)
              service.apply_updates_shard(k, rounds[static_cast<std::size_t>(
                                                 r)]);
          };
          for (int e = 0; e < epochs; ++e) {
            try {
              if (behind) {
                replay_through(e);
                behind = false;
              }
              service.apply_updates_shard(k,
                                          rounds[static_cast<std::size_t>(e)]);
            } catch (const shard::ShardUnavailableError&) {
              behind = true;  // quarantined round; the drain below replays it
              outage_rounds.fetch_add(1, std::memory_order_relaxed);
            }
            if (chaos && k == victim && e == kill_round) {
              supervisor->kill_host(victim, SIGKILL);
              behind = true;  // the restart will restore the checkpoint
              // Witness the failure domain from the query plane while the
              // range is dark: the dead range's answer must pick up the
              // victim's staleness bit (the circuit opens after a handful
              // of failed pins), and a healthy range must stay exact in
              // the same window. Bounded spin: the breaker opens in
              // milliseconds, long before the supervised restart lands.
              const vidx_t dead_u = part.begin(victim);
              const vidx_t live_u = part.begin(victim == 0 ? 1 : 0);
              for (int t = 0; t < 20000; ++t) {
                const svc::QueryResult<count_t> r =
                    service.vertex_tip_v1(dead_u).get();
                if (r.stale_shards >> victim & 1u) {
                  saw_victim_stale.store(true, std::memory_order_relaxed);
                  break;
                }
              }
              const svc::QueryResult<count_t> live =
                  service.vertex_tip_v1(live_u).get();
              if (!live.degraded())
                saw_healthy_exact.store(true, std::memory_order_relaxed);
              // Witness done: now let the supervisor notice the corpse and
              // restore it (the drain below waits for that restart).
              start_chaos_monitor();
            }
            round_barrier.arrive_and_wait();
          }
          // Drain: rounds lost to the outage are still owed. Wait out the
          // supervised restart and replay the whole script in order.
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(60);
          while (behind) {
            try {
              replay_through(epochs);
              behind = false;
            } catch (const shard::ShardUnavailableError&) {
              if (std::chrono::steady_clock::now() > give_up) {
                chaos_recovery_failed.store(true, std::memory_order_relaxed);
                break;
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
          }
        });
    }

    for (int r = 0; r < readers; ++r) {
      per_reader[static_cast<std::size_t>(r)].resize(kKindCount);
      threads.emplace_back([&, r] {
        std::vector<KindStats>& stats = per_reader[static_cast<std::size_t>(r)];
        Rng rng(cfg.seed + 100 + static_cast<std::uint64_t>(r));
        for (int q = 0; q < queries_per_reader; ++q) {
          // Fresh deadline per request: the budget is relative to *now*.
          const svc::Deadline deadline =
              deadline_ms > 0.0
                  ? svc::Deadline::after(std::chrono::duration_cast<
                                         svc::Deadline::Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            deadline_ms)))
                  : svc::Deadline{};
          // Pin the consistency unit once per query: one view, one pointer
          // per shard.
          const shard::ShardViewPtr view = service.view();
          const svc::Request req(view, deadline);
          const MixEntry& kind = pick(mix, rng, mix_total);
          bool degraded = false;
          bool shed = false;
          Timer timer;
          try {
            if (kind.name == "tip") {
              if (rng.bernoulli(0.5)) {
                degraded =
                    service.vertex_tip_v1(pick_v1(rng), req).get().degraded();
              } else {
                degraded =
                    service.vertex_tip_v2(pick_v2(rng), req).get().degraded();
              }
            } else if (kind.name == "global") {
              (void)service.global_count(req).get();
            } else if (kind.name == "edge") {
              const vidx_t u = pick_v1(rng);
              const svc::SnapshotPtr& owner =
                  view->shards[static_cast<std::size_t>(part.owner(u))];
              const auto [eu, ev] = random_edge_at(owner, u, n2, rng);
              degraded = service.edge_support(eu, ev, req).get().degraded();
            } else {  // top
              degraded = service.top_pairs(top_k, req).get().degraded();
            }
          } catch (const svc::OverloadError&) {
            shed = true;  // no answer at any fidelity; the caller retries
          }
          if (!shed)
            stats[static_cast<std::size_t>(kind_index(kind.name))].latency.add(
                timer.seconds());
          if (degraded) degraded_answers.fetch_add(1, std::memory_order_relaxed);
          if (shed) overload_errors.fetch_add(1, std::memory_order_relaxed);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }  // join writer + readers
  const double elapsed = wall.seconds();

  // Merge per-reader samples and print the latency table.
  obs::RunReport& report = bfc::bench::report();
  Table table({"kind", "queries", "qps", "p50 ms", "p95 ms", "p99 ms"});
  std::int64_t answered = 0;
  for (int k = 0; k < kKindCount; ++k) {
    Samples merged;
    for (const std::vector<KindStats>& stats : per_reader)
      for (const double s :
           stats[static_cast<std::size_t>(k)].latency.values())
        merged.add(s);
    if (merged.count() == 0) continue;
    answered += static_cast<std::int64_t>(merged.count());
    table.add_row({kKinds[k], Table::num(static_cast<count_t>(merged.count())),
                   Table::fixed(static_cast<double>(merged.count()) / elapsed,
                                1),
                   Table::fixed(merged.percentile(50) * 1e3, 3),
                   Table::fixed(merged.percentile(95) * 1e3, 3),
                   Table::fixed(merged.percentile(99) * 1e3, 3)});
    report.add_sample(std::string("latency.") + kKinds[k], merged);
  }
  table.print(std::cout);
  std::cout << "\n" << answered << " answered of " << total_queries
            << " issued in " << Table::fixed(elapsed, 3) << " s ("
            << Table::fixed(static_cast<double>(answered) / elapsed, 1)
            << " qps aggregate) across " << service.snapshot()->epoch
            << " published epochs\n";
  std::cout << "degraded answers: "
            << degraded_answers.load(std::memory_order_relaxed)
            << "  shed without answer: "
            << overload_errors.load(std::memory_order_relaxed) << "\n";
  const auto gen_rate = [&](int k) {
    const std::int64_t total = shard_gen_hits[static_cast<std::size_t>(k)] +
                               shard_gen_misses[static_cast<std::size_t>(k)];
    return total == 0 ? 0.0
                      : static_cast<double>(
                            shard_gen_hits[static_cast<std::size_t>(k)]) /
                            static_cast<double>(total);
  };
  if (sharded) {
    // Tiers 0..N-1 hold shard-local components keyed by shard epoch; tier N
    // holds answers composed per view signature. Zipf skew shows up here as
    // a hit-rate (and traffic) spread across the shard tiers.
    std::cout << "per-shard cache tiers:";
    for (int k = 0; k < shards; ++k)
      std::cout << "  s" << k << "=" << Table::fixed(gen_rate(k) * 100.0, 1)
                << "% ("
                << shard_gen_hits[static_cast<std::size_t>(k)] +
                       shard_gen_misses[static_cast<std::size_t>(k)]
                << " lookups)";
    std::cout << "  view=" << Table::fixed(gen_rate(shards) * 100.0, 1)
              << "%\n";
  }

  report.set_config("readers", static_cast<std::int64_t>(readers));
  report.set_config("epochs", static_cast<std::int64_t>(epochs));
  report.set_config("batch", static_cast<std::int64_t>(batch_size));
  report.set_config("queries_per_reader",
                    static_cast<std::int64_t>(queries_per_reader));
  report.set_config("pool", static_cast<std::int64_t>(pool));
  report.set_config("overload", static_cast<std::int64_t>(overload ? 1 : 0));
  report.set_config("max_queue", static_cast<std::int64_t>(max_queue));
  report.set_config("degraded_answers",
                    degraded_answers.load(std::memory_order_relaxed));
  report.set_config("overload_errors",
                    overload_errors.load(std::memory_order_relaxed));
  report.set_config("shards", static_cast<std::int64_t>(shards));
  report.set_config("zipf", zipf_theta);
  if (sharded) {
    for (int k = 0; k < shards; ++k) {
      const std::string prefix = "shard_" + std::to_string(k) + "_";
      report.set_config(prefix + "hits",
                        shard_gen_hits[static_cast<std::size_t>(k)]);
      report.set_config(prefix + "misses",
                        shard_gen_misses[static_cast<std::size_t>(k)]);
      report.set_config(prefix + "hit_rate", gen_rate(k));
    }
    report.set_config("view_tier_hit_rate", gen_rate(shards));
  }

  // Chaos acceptance: the failure was observed from the query plane,
  // isolated to its range, healed by exactly one supervised restart, and no
  // query ever failed outright. The drift checks below then prove the
  // recovery replay converged on the sequential state.
  if (chaos) {
    if (chaos_recovery_failed.load(std::memory_order_relaxed)) {
      std::cerr << "FATAL: the victim shard never recovered; the replay "
                   "drain gave up\n";
      return 1;
    }
    if (supervisor->restarts() != 1) {
      std::cerr << "FATAL: expected exactly one supervised restart, saw "
                << supervisor->restarts() << "\n";
      return 1;
    }
    if (!saw_victim_stale.load(std::memory_order_relaxed)) {
      std::cerr << "FATAL: no query on the dead range picked up shard "
                << victim << "'s staleness bit during the outage\n";
      return 1;
    }
    if (!saw_healthy_exact.load(std::memory_order_relaxed)) {
      std::cerr << "FATAL: a healthy-range query degraded during the "
                   "outage; the failure was not isolated to the dead shard\n";
      return 1;
    }
    if (overload_errors.load(std::memory_order_relaxed) != 0) {
      std::cerr << "FATAL: "
                << overload_errors.load(std::memory_order_relaxed)
                << " query(ies) failed outright during the chaos run; a "
                   "dead shard must degrade answers, never fail them\n";
      return 1;
    }
    std::cout << "chaos check: shard " << victim << " SIGKILLed after round "
              << kill_round << ", "
              << outage_rounds.load(std::memory_order_relaxed)
              << " publish round(s) quarantined, 1 supervised restart, dead "
                 "range served stale, healthy ranges exact, zero failed "
                 "queries\n";
    if constexpr (obs::kMetricsEnabled) {
      const auto counter = [](const std::string& name) {
        return obs::Registry::instance().counter(name).value();
      };
      const std::int64_t retries = counter("svc.remote.retries");
      const std::int64_t unavailable =
          counter("svc.shard." + std::to_string(victim) + ".unavailable");
      const std::int64_t restarts = counter("svc.supervisor.restarts");
      if (retries <= 0 || unavailable <= 0 || restarts != 1) {
        std::cerr << "FATAL: failure-domain counters look wrong: "
                     "svc.remote.retries="
                  << retries << " svc.shard." << victim
                  << ".unavailable=" << unavailable
                  << " svc.supervisor.restarts=" << restarts << "\n";
        return 1;
      }
      std::cout << "chaos telemetry: svc.remote.retries=" << retries
                << " svc.remote.timeouts=" << counter("svc.remote.timeouts")
                << " svc.shard." << victim << ".unavailable=" << unavailable
                << " svc.supervisor.restarts=" << restarts << "\n";
    }
    report.set_config("chaos_victim", static_cast<std::int64_t>(victim));
    report.set_config("chaos_kill_round",
                      static_cast<std::int64_t>(kill_round));
    report.set_config("chaos_outage_rounds",
                      outage_rounds.load(std::memory_order_relaxed));
    report.set_config("chaos_restarts",
                      static_cast<std::int64_t>(supervisor->restarts()));
    supervisor->stop_monitor();
  }

  // Zero-drift acceptance: the incrementally maintained count at the final
  // epoch must equal a from-scratch recount of the materialised snapshot —
  // shedding and degrading reads must never have touched the write path.
  // Two independent engines recount (wedge reference and the linear-algebra
  // dispatch); running the la/ kernel here also keeps it inside the
  // profiler's sampling window, so folded profiles attribute time to it.
  const shard::ShardViewPtr final_view = service.view();
  const svc::SnapshotPtr fin = service.snapshot();
  const count_t recount = count::wedge_reference(fin->graph);
  const count_t la_recount = la::count_butterflies(fin->graph);
  if (profile_hz > 0) {
    // A profiled run repeats the la/ recount for ~0.2 s of kernel CPU so the
    // sampler (capped near the kernel tick rate) lands enough stacks inside
    // it to attribute; every repetition must agree with the first.
    for (Timer t; t.seconds() < 0.2;) {
      if (la::count_butterflies(fin->graph) != la_recount) {
        std::cerr << "FATAL: la recount is not deterministic\n";
        return 1;
      }
    }
  }
  if (fin->butterflies != recount || fin->butterflies != la_recount) {
    std::cerr << "FATAL: count drift at epoch " << fin->epoch << ": serving "
              << fin->butterflies << " != recount " << recount << " (wedge) / "
              << la_recount << " (la)\n";
    return 1;
  }
  std::cout << "drift check: epoch " << fin->epoch << " count "
            << fin->butterflies << " == from-scratch recount (both engines)\n";

  // Sharded zero-drift acceptance: the same scripted batches, replayed
  // sequentially into a --shards 1 service, must land on exactly the same
  // count — concurrent disjoint-range publishes may not lose or duplicate a
  // single butterfly relative to the serial single-store execution.
  svc::SnapshotPtr single;  // the --shards 1 replay's final snapshot
  if (sharded) {
    svc::ButterflyService replay(n1, n2, svc::ServiceOptions{.threads = 1});
    std::vector<svc::EdgeUpdate> load;
    for (const auto& [u, v] : sparse::edges(initial.csr()))
      load.push_back(svc::EdgeUpdate::add(u, v));
    replay.apply_updates(load);
    for (int e = 0; e < epochs; ++e)
      for (int k = 0; k < shards; ++k)
        replay.apply_updates(script[static_cast<std::size_t>(k)]
                                   [static_cast<std::size_t>(e)]);
    single = replay.snapshot();
    if (single->butterflies != fin->butterflies ||
        single->edges != fin->edges) {
      std::cerr << "FATAL: sharded count drift: --shards " << shards
                << " finished with " << fin->butterflies << " butterflies / "
                << fin->edges << " edges but the --shards 1 replay has "
                << single->butterflies << " / " << single->edges << "\n";
      return 1;
    }
    std::cout << "shard drift check: --shards " << shards
              << " == --shards 1 sequential replay (" << single->butterflies
              << " butterflies)\n";
  }

  // ---- telemetry teardown -------------------------------------------------
  if (profile_hz > 0) {
    obs::Profiler::stop();
    std::cout << "profiler: " << obs::Profiler::samples_captured()
              << " samples captured, " << obs::Profiler::samples_dropped()
              << " dropped, at " << profile_hz << " Hz\n";
    if (!profile_out.empty()) obs::Profiler::write_folded(profile_out);
  }
  if (!metrics_file.empty()) obs::write_openmetrics_file(metrics_file);
  if (!flight_out.empty() &&
      !obs::FlightRecorder::dump(flight_out, "end of run")) {
    std::cerr << "FATAL: cannot write flight-recorder dump to " << flight_out
              << '\n';
    return 1;
  }
  if (exporter)
    std::cout << "metrics exporter served " << exporter->requests_served()
              << " request(s) on port " << exporter->port() << "\n";
  if constexpr (obs::kMetricsEnabled) {
    if (!cfg.trace_path.empty()) {
      if (!check_spans(overload)) return 1;
      if (sharded && !check_publish_overlap(service, part, shards)) return 1;
    }

    const auto counter = [](const char* name) {
      return obs::Registry::instance().counter(name).value();
    };
    const std::int64_t hits = counter("svc.cache_hits");
    std::cout << "cache hits: " << hits
              << "  misses: " << counter("svc.cache_misses") << '\n';
    const std::int64_t shed = counter("svc.shed");
    const std::int64_t rejected = counter("svc.rejected");
    const std::int64_t expired = counter("svc.deadline_expired");
    std::cout << "shed: " << shed << "  rejected: " << rejected
              << "  deadline expired: " << expired
              << "  stale answers: " << counter("svc.stale_answers")
              << '\n';
    // Reading the counters registers them, so the report shows their 0s.
    std::cout << "top-pair buffer rebuilds: "
              << counter("svc.top_pair_rebuilds")
              << "  query-side top-pairs passes: "
              << counter("svc.top_pair_passes") << '\n';
    if (overload) {
      // The overload run is meaningless if admission never pushed back.
      if (shed + rejected + expired <= 0) {
        std::cerr << "FATAL: overload run shed no work (queue never "
                     "saturated?); raise --readers or lower --max-queue\n";
        return 1;
      }
    } else if (hits <= 0) {
      std::cerr << "FATAL: serving run produced no cache hits\n";
      return 1;
    }

    // Every answer observes its latency, and every query either answers
    // or fails with OverloadError on its reader.
    std::int64_t observed = 0;
    for (const char* name : kLatencyHistograms)
      observed += obs::Registry::instance().histogram(name).count();
    const std::int64_t queries = counter("svc.queries");
    const std::int64_t failed = overload_errors.load(std::memory_order_relaxed);
    if (observed + failed != queries) {
      std::cerr << "FATAL: latency histograms hold " << observed
                << " observations and " << failed
                << " queries failed with OverloadError, against svc.queries "
                << queries << "\n";
      return 1;
    }
    std::cout << "latency histograms: " << observed << " observations of "
              << queries << " queries\n";
  }

  if (!check_tip_drift(service, final_view, (single ? single : fin)->graph))
    return 1;

  for (const std::string& p : chaos_ckpts) std::remove(p.c_str());
  bfc::bench::write_reports(cfg);
  return 0;
}
