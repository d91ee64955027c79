// The kernel phase: the paper's batch cells (Figs. 10-11 plus baselines,
// tip passes and peeling) on every graph of the workload. Cells run
// round-robin inside each round, never one block at a time, so machine
// drift lands on every cell alike; a metric is the sum over graphs of each
// cell's median over rounds.
#include <numeric>

#include "bench.hpp"
#include "count/baselines.hpp"
#include "count/local_counts.hpp"
#include "la/count.hpp"
#include "obs/metrics.hpp"
#include "peel/decompose.hpp"

namespace perfbench {

using bfc::count_t;
using bfc::vidx_t;
namespace count = bfc::count;
namespace la = bfc::la;
namespace peel = bfc::peel;

std::vector<std::pair<vidx_t, vidx_t>> to_edge_list(const GraphInput& g) {
  std::vector<std::pair<vidx_t, vidx_t>> out;
  out.reserve(g.edges.size());
  for (const auto& [u, v] : g.edges)
    out.emplace_back(static_cast<vidx_t>(u), static_cast<vidx_t>(v));
  return out;
}

namespace {

const char* cell_name(Cell c) {
  switch (c) {
    case Cell::kCount: return "la.count_butterflies";
    case Cell::kTipV1: return "count.butterflies_per_v1";
    case Cell::kTipV2: return "count.butterflies_per_v2";
    case Cell::kVertexPriority: return "count.vertex_priority";
    case Cell::kWedgeReference: return "count.wedge_reference";
    case Cell::kKTip: return "peel.k_tip";
    case Cell::kKWing: return "peel.k_wing";
    case Cell::kInv2Blocked: return "la.inv2_blocked";
    case Cell::kInv6Blocked: return "la.inv6_blocked";
    case Cell::kInv2Parallel: return "la.inv2_wedge_t2";
    case Cell::kInv6Parallel: return "la.inv6_wedge_t2";
  }
  return "unknown";
}

count_t sum(const std::vector<count_t>& v) {
  return std::accumulate(v.begin(), v.end(), count_t{0});
}

double sum_sq_degrees(const bfc::sparse::CsrPattern& p) {
  double s = 0.0;
  for (vidx_t r = 0; r < p.rows(); ++r) {
    const auto d = static_cast<double>(p.row(r).size());
    s += d * d;
  }
  return s;
}

la::CountOptions blocked() {
  la::CountOptions o;
  o.engine = la::Engine::kBlocked;
  return o;
}

la::CountOptions parallel2() {
  la::CountOptions o;
  o.engine = la::Engine::kWedge;
  o.threads = 2;
  return o;
}

// obs counters that are exact work counts of the cells.
struct WorkCounters {
  bfc::obs::Counter& wedges = bfc::obs::Registry::instance().counter("la.wedges");
  bfc::obs::Counter& nnz = bfc::obs::Registry::instance().counter("la.nnz_scanned");
  bfc::obs::Counter& panels = bfc::obs::Registry::instance().counter("la.panels");
  bfc::obs::Counter& rounds = bfc::obs::Registry::instance().counter("peel.rounds");
  [[nodiscard]] std::array<double, 4> read() const {
    return {static_cast<double>(wedges.value()), static_cast<double>(nnz.value()),
            static_cast<double>(panels.value()), static_cast<double>(rounds.value())};
  }
};

WorkCounters& work_counters() {
  static WorkCounters c;
  return c;
}

}  // namespace

KernelPhase::KernelPhase(const Inputs& in, SpanBuffer& buf, bool plant_wrong)
    : buf_(buf), plant_wrong_(plant_wrong) {
  for (const GraphInput& g : in.graphs) {
    Dataset d;
    d.name = g.name;
    d.n1 = static_cast<vidx_t>(g.n1);
    d.n2 = static_cast<vidx_t>(g.n2);
    d.edges = to_edge_list(g);
    data_.push_back(std::move(d));
  }
}

double KernelPhase::setup(std::uint64_t rep) {
  Span all(buf_, "setup.graphs", rep);
  for (Dataset& d : data_) {
    Span s(buf_, "graph.BipartiteGraph.from_edges", rep, all.id());
    d.g = bfc::graph::BipartiteGraph::from_edges(d.n1, d.n2, d.edges);
  }
  return all.stop();
}

void KernelPhase::run_cell(Dataset& d, Cell c, int round, std::uint64_t parent,
                           Tally& tally) {
  const bool warm = round < 0;
  WorkCounters& wc = work_counters();
  const bool count_work = buf_.on() && !warm;
  const auto before = count_work ? wc.read() : std::array<double, 4>{};
  bool ok = true;
  std::string why;
  double ms = 0.0;
  try {
    Span s(buf_, cell_name(c), static_cast<std::uint64_t>(round + 1), parent);
    switch (c) {
      case Cell::kCount:
      case Cell::kVertexPriority:
      case Cell::kWedgeReference:
      case Cell::kInv2Blocked:
      case Cell::kInv6Blocked:
      case Cell::kInv2Parallel:
      case Cell::kInv6Parallel: {
        count_t v = 0;
        switch (c) {
          case Cell::kCount: v = la::count_butterflies(d.g); break;
          case Cell::kVertexPriority: v = count::vertex_priority(d.g); break;
          case Cell::kWedgeReference: v = count::wedge_reference(d.g); break;
          case Cell::kInv2Blocked:
            v = la::count_butterflies(d.g, la::Invariant::kInv2, blocked());
            break;
          case Cell::kInv6Blocked:
            v = la::count_butterflies(d.g, la::Invariant::kInv6, blocked());
            break;
          case Cell::kInv2Parallel:
            v = la::count_butterflies(d.g, la::Invariant::kInv2, parallel2());
            break;
          default:
            v = la::count_butterflies(d.g, la::Invariant::kInv6, parallel2());
            break;
        }
        ms = s.stop();
        if (plant_wrong_ && round == 0 && c == Cell::kCount && &d == &data_[0])
          ++v;  // the planted wrong answer the self-test expects to count
        ok = v == d.ref;
        if (!ok) why = std::to_string(v) + " != wedge_reference " + std::to_string(d.ref);
        break;
      }
      case Cell::kTipV1:
      case Cell::kTipV2: {
        std::vector<count_t> t = c == Cell::kTipV1 ? count::butterflies_per_v1(d.g)
                                                   : count::butterflies_per_v2(d.g);
        ms = s.stop();
        std::vector<count_t>& keep = c == Cell::kTipV1 ? d.tips1 : d.tips2;
        ok = sum(t) == 2 * d.ref;
        if (!ok) why = "sum of tips != 2 * wedge_reference";
        if (warm) keep = std::move(t);
        else if (ok && t != keep) ok = false, why = "tips differ between rounds";
        break;
      }
      case Cell::kKTip: {
        auto r = peel::k_tip(d.g, kPeelK, peel::Side::kV1,
                             peel::TipAlgorithm::kLookahead);
        ms = s.stop();
        if (warm) d.ktip = std::move(r);
        else ok = r.kept == d.ktip.kept && r.rounds == d.ktip.rounds;
        if (!ok) why = "k_tip differs between rounds";
        break;
      }
      case Cell::kKWing: {
        auto r = peel::k_wing(d.g, kPeelK);
        ms = s.stop();
        if (warm) d.kwing = std::move(r);
        else ok = r.kept_edges == d.kwing.kept_edges && r.rounds == d.kwing.rounds;
        if (!ok) why = "k_wing differs between rounds";
        break;
      }
    }
  } catch (const std::exception& e) {
    ok = false;
    why = std::string("threw: ") + e.what();
  }
  tally.record(ok, d.name + " " + cell_name(c) + ": " + why);
  if (warm) return;
  d.ms[static_cast<std::size_t>(c)].push_back(ms);
  if (count_work) {
    const auto after = wc.read();
    wedges_.back() += after[0] - before[0];
    nnz_.back() += after[1] - before[1];
    panels_.back() += after[2] - before[2];
    peel_rounds_.back() += after[3] - before[3];
  }
}

void KernelPhase::run(double budget_s, int min_rounds, Tally& tally) {
  for (Dataset& d : data_) {
    d.ref = count::wedge_reference(d.g);
    d.wedges = sum_sq_degrees(d.g.csr()) + sum_sq_degrees(d.g.csc());
  }
  const auto round_robin = [&](int round) {
    Span r(buf_, round < 0 ? "kernels.warmup" : "kernels.round",
           static_cast<std::uint64_t>(round + 1));
    for (int c = 0; c < kCells; ++c)
      for (Dataset& d : data_) run_cell(d, static_cast<Cell>(c), round, r.id(), tally);
  };
  round_robin(-1);
  const Clock::time_point start = Clock::now();
  while (rounds_ < min_rounds ||
         ms_between(start, Clock::now()) < budget_s * 1e3) {
    for (auto* v : {&wedges_, &nnz_, &panels_, &peel_rounds_}) v->push_back(0.0);
    round_robin(rounds_++);
  }
}

void KernelPhase::deep_checks(Tally& tally) {
  for (Dataset& d : data_) {
    try {
      const auto recompute = peel::k_tip(d.g, kPeelK, peel::Side::kV1,
                                         peel::TipAlgorithm::kRecompute);
      if (recompute.kept != d.ktip.kept || !(recompute.subgraph == d.ktip.subgraph))
        tally.flag(d.name + " k_tip look-ahead != recompute");
      const auto tips = count::butterflies_per_v1(d.ktip.subgraph);
      for (std::size_t u = 0; u < d.ktip.kept.size(); ++u)
        if (d.ktip.kept[u] != 0 && tips[u] < kPeelK) {
          tally.flag(d.name + " k_tip kept a vertex with < k butterflies");
          break;
        }
      // The bucket-peeling wing decomposition is the independent k_wing: an
      // edge belongs to the k-wing iff its wing number is at least k.
      const auto wings = peel::wing_decomposition(d.g);
      bool mask_ok = wings.wing_number.size() == d.kwing.kept_edges.size();
      for (std::size_t e = 0; mask_ok && e < wings.wing_number.size(); ++e)
        mask_ok = (wings.wing_number[e] >= kPeelK) == (d.kwing.kept_edges[e] != 0);
      if (!mask_ok || !(peel::wing_subgraph(d.g, wings, kPeelK) == d.kwing.subgraph))
        tally.flag(d.name + " k_wing != wing decomposition at k");
      const auto support = count::support_per_edge(d.kwing.subgraph);
      for (const count_t s : support)
        if (s < kPeelK) {
          tally.flag(d.name + " k_wing kept an edge with support < k");
          break;
        }
    } catch (const std::exception& e) {
      tally.flag(d.name + " deep check threw: " + e.what());
    }
  }
}

double KernelPhase::sum_medians(std::initializer_list<Cell> cells) const {
  double total = 0.0;
  for (const Dataset& d : data_)
    for (const Cell c : cells) total += median(d.ms[static_cast<std::size_t>(c)]);
  return total;
}

void KernelPhase::report(Record& rec) const {
  auto& m = rec.metrics;
  m["count_ms"] = m["la.wedge_ms"] = sum_medians({Cell::kCount});
  m["tips_ms"] = sum_medians({Cell::kTipV1, Cell::kTipV2});
  m["baseline_ms"] = sum_medians({Cell::kVertexPriority, Cell::kWedgeReference});
  m["peel_ms"] = sum_medians({Cell::kKTip, Cell::kKWing});
  m["la.blocked_ms"] = sum_medians({Cell::kInv2Blocked, Cell::kInv6Blocked});
  m["la.parallel_ms"] = sum_medians({Cell::kInv2Parallel, Cell::kInv6Parallel});
  m["paper_ms"] = m["la.blocked_ms"] + m["la.parallel_ms"];
  m["kernel.tip_v1_ms"] = sum_medians({Cell::kTipV1});
  m["kernel.tip_v2_ms"] = sum_medians({Cell::kTipV2});
  double wedges = 0.0;
  for (const Dataset& d : data_) wedges += d.wedges;
  m["count.tip_ns_per_wedge"] = m["tips_ms"] * 1e6 / wedges;
  m["count.vertex_priority_ms"] = sum_medians({Cell::kVertexPriority});
  m["count.wedge_reference_ms"] = sum_medians({Cell::kWedgeReference});
  m["peel.k_tip_ms"] = sum_medians({Cell::kKTip});
  m["peel.k_wing_ms"] = sum_medians({Cell::kKWing});
  m["la.wedges"] = median(wedges_);
  m["la.nnz_scanned"] = median(nnz_);
  m["la.panels"] = median(panels_);
  m["peel.rounds"] = median(peel_rounds_);
  rec.health["kernel_rounds"] = rounds_;
  rec.health["kernel_graphs"] = static_cast<double>(data_.size());
  double edges = 0.0;
  for (const Dataset& d : data_) edges += static_cast<double>(d.g.edge_count());
  rec.health["kernel_edges"] = edges;
}

}  // namespace perfbench
