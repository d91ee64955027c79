// butterfly_tool: a command-line front end over the whole library — what a
// downstream user runs against their own KONECT / MatrixMarket files.
//
//   butterfly_tool count   --file out.github [--invariant 2] [--engine wedge]
//                          [--threads 4] [--approx edge --samples 10000]
//   butterfly_tool stats   --file graph.mtx
//   butterfly_tool peel    --file out.github --k 100 [--mode tip|wing]
//   butterfly_tool pairs   --file out.github [--top 10]
//   butterfly_tool prune   --file out.github [--to pruned.bin]
//   butterfly_tool convert --file out.github --to graph.mtx
//
// Inputs: --file <path> (KONECT edge list), --mtx <path>, --bin <path>, or
// --preset "<name>" --scale <s> for a synthetic stand-in.
//
// Add --stats to any command to print the kernel metrics the run recorded
// (wedges expanded, lines processed, peel rounds, parse counters, ...);
// requires a build with the default BFC_METRICS=ON for nonzero values.
#include <iostream>
#include <string>

#include "count/approx.hpp"
#include "count/baselines.hpp"
#include "count/top_pairs.hpp"
#include "gen/konect_like.hpp"
#include "graph/components.hpp"
#include "graph/io_binary.hpp"
#include "graph/io_edgelist.hpp"
#include "graph/io_mtx.hpp"
#include "graph/stats.hpp"
#include "la/count.hpp"
#include "obs/metrics.hpp"
#include "peel/peeling.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace bfc;

graph::BipartiteGraph load_input(const Cli& cli) {
  if (cli.has("file")) return graph::load_edgelist(cli.get("file", ""));
  if (cli.has("mtx")) return graph::load_mtx(cli.get("mtx", ""));
  if (cli.has("bin")) return graph::load_binary(cli.get("bin", ""));
  const std::string preset = cli.get("preset", "arXiv cond-mat");
  return gen::make_konect_like(
      gen::konect_preset(preset), cli.get_double("scale", 0.05),
      static_cast<std::uint64_t>(cli.get_int("seed", 42)));
}

int cmd_count(const Cli& cli, const graph::BipartiteGraph& g) {
  Timer timer;
  if (cli.has("approx")) {
    count::ApproxOptions opts;
    opts.samples = cli.get_int_at_least("samples", 10000, 1);
    opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    const std::string kind = cli.get("approx", "edge");
    count::ApproxResult r;
    if (kind == "vertex") r = count::approx_vertex_sampling(g, opts);
    else if (kind == "edge") r = count::approx_edge_sampling(g, opts);
    else if (kind == "wedge") r = count::approx_wedge_sampling(g, opts);
    else {
      std::cerr << "unknown --approx kind: " << kind
                << " (vertex|edge|wedge)\n";
      return 1;
    }
    std::cout << "approx butterflies (" << kind << ", " << r.samples
              << " samples): " << Table::fixed(r.estimate, 1) << " ± "
              << Table::fixed(r.standard_error, 1) << "  ["
              << Table::fixed(timer.seconds(), 3) << " s]\n";
    return 0;
  }

  la::CountOptions opts;
  const std::string engine = cli.get("engine", "wedge");
  if (engine == "unblocked") opts.engine = la::Engine::kUnblocked;
  else if (engine == "wedge") opts.engine = la::Engine::kWedge;
  else if (engine == "blocked") opts.engine = la::Engine::kBlocked;
  else {
    std::cerr << "unknown --engine: " << engine
              << " (unblocked|wedge|blocked)\n";
    return 1;
  }
  opts.threads = static_cast<int>(cli.get_int_at_least("threads", 1, 1));
  opts.block_size = static_cast<vidx_t>(cli.get_int_at_least(
      "block-size", la::CountOptions{}.block_size, 1));

  count_t result;
  if (cli.has("invariant")) {
    const auto inv =
        la::invariant_from_number(static_cast<int>(cli.get_int("invariant", 2)));
    result = la::count_butterflies(g, inv, opts);
    std::cout << la::name(inv) << " (" << engine << "): ";
  } else {
    result = la::count_butterflies(g);
    std::cout << "auto-selected invariant: ";
  }
  std::cout << Table::num(result) << " butterflies  ["
            << Table::fixed(timer.seconds(), 3) << " s]\n";
  return 0;
}

int cmd_stats(const graph::BipartiteGraph& g) {
  std::cout << graph::summarize(g) << '\n';
  const count_t butterflies = la::count_butterflies(g);
  std::cout << "butterflies=" << Table::num(butterflies)
            << " clustering=" << Table::fixed(
                   graph::clustering_coefficient(g, butterflies), 6)
            << '\n';
  return 0;
}

int cmd_peel(const Cli& cli, const graph::BipartiteGraph& g) {
  const count_t k = cli.get_int_at_least("k", 1, 0);
  const std::string mode = cli.get("mode", "tip");
  Timer timer;
  if (mode == "tip") {
    const std::string side_name = cli.get("side", "v1");
    const peel::Side side =
        side_name == "v2" ? peel::Side::kV2 : peel::Side::kV1;
    const peel::TipPeelResult r = peel::k_tip(g, k, side);
    std::cout << k << "-tip (" << side_name << "): removed "
              << r.removed_vertices << " vertices in " << r.rounds
              << " rounds; " << r.subgraph.edge_count() << "/"
              << g.edge_count() << " edges remain  ["
              << Table::fixed(timer.seconds(), 3) << " s]\n";
  } else if (mode == "wing") {
    const peel::WingPeelResult r = peel::k_wing(g, k);
    std::cout << k << "-wing: removed " << r.removed_edges << " edges in "
              << r.rounds << " rounds; " << r.subgraph.edge_count() << "/"
              << g.edge_count() << " edges remain  ["
              << Table::fixed(timer.seconds(), 3) << " s]\n";
  } else {
    std::cerr << "unknown --mode: " << mode << " (tip|wing)\n";
    return 1;
  }
  return 0;
}

int cmd_pairs(const Cli& cli, const graph::BipartiteGraph& g) {
  const auto top = static_cast<std::size_t>(cli.get_int_at_least("top", 10, 1));
  Table table({"V1 pair", "shared neighbours", "butterflies"});
  for (const count::VertexPair& p : count::top_wedge_pairs_v1(g, top)) {
    // Appended piecewise: GCC 12's -Wrestrict misfires on the chained
    // operator+ form of this label at -O3.
    std::string label = "(";
    label += std::to_string(p.a);
    label += ", ";
    label += std::to_string(p.b);
    label += ")";
    table.add_row({label, Table::num(p.wedges), Table::num(p.butterflies())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_prune(const Cli& cli, const graph::BipartiteGraph& g) {
  Timer timer;
  const graph::CorePruneResult r = graph::two_core_prune(g);
  std::cout << "2-core: kept " << r.subgraph.edge_count() << "/"
            << g.edge_count() << " edges; pruned " << r.removed_v1 << " V1 + "
            << r.removed_v2 << " V2 vertices in " << r.rounds << " rounds  ["
            << Table::fixed(timer.seconds(), 3) << " s]\n";
  const std::string to = cli.get("to", "");
  if (!to.empty()) {
    if (to.ends_with(".mtx")) graph::save_mtx(to, r.subgraph);
    else if (to.ends_with(".bin")) graph::save_binary(to, r.subgraph);
    else graph::save_edgelist(to, r.subgraph);
    std::cout << "wrote " << to << '\n';
  }
  return 0;
}

int cmd_convert(const Cli& cli, const graph::BipartiteGraph& g) {
  const std::string to = cli.get("to", "");
  if (to.empty()) {
    std::cerr << "convert: missing --to <output path>\n";
    return 1;
  }
  if (to.ends_with(".mtx")) graph::save_mtx(to, g);
  else if (to.ends_with(".bin")) graph::save_binary(to, g);
  else graph::save_edgelist(to, g);
  std::cout << "wrote " << to << " (|V1|=" << g.n1() << " |V2|=" << g.n2()
            << " |E|=" << g.edge_count() << ")\n";
  return 0;
}

void print_metrics_table() {
  Table table({"metric", "kind", "value"});
  for (const obs::MetricSnapshot& m : obs::Registry::instance().snapshot()) {
    switch (m.kind) {
      case obs::MetricSnapshot::Kind::kCounter:
        table.add_row({m.name, "counter", Table::num(m.value)});
        break;
      case obs::MetricSnapshot::Kind::kGauge:
        table.add_row({m.name, "gauge", Table::fixed(m.gauge, 6)});
        break;
      case obs::MetricSnapshot::Kind::kHistogram:
        table.add_row({m.name, "histogram",
                       "count=" + Table::num(m.hist_count) +
                           " sum=" + Table::num(m.hist_sum) +
                           " min=" + Table::num(m.hist_min) +
                           " max=" + Table::num(m.hist_max)});
        break;
    }
  }
  if (table.rows() == 0) {
    std::cout << "(no metrics recorded"
              << (obs::kMetricsEnabled
                      ? ")\n"
                      : "; rebuild with -DBFC_METRICS=ON)\n");
    return;
  }
  std::cout << '\n';
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.positional().empty()) {
    std::cerr << "usage: butterfly_tool <count|stats|peel|convert> "
                 "[--file|--mtx|--bin|--preset ...] [options]\n";
    return 1;
  }
  try {
    const graph::BipartiteGraph g = load_input(cli);
    const std::string& command = cli.positional()[0];
    int rc = 1;
    if (command == "count") rc = cmd_count(cli, g);
    else if (command == "stats") rc = cmd_stats(g);
    else if (command == "peel") rc = cmd_peel(cli, g);
    else if (command == "pairs") rc = cmd_pairs(cli, g);
    else if (command == "prune") rc = cmd_prune(cli, g);
    else if (command == "convert") rc = cmd_convert(cli, g);
    else {
      std::cerr << "unknown command: " << command << '\n';
      return 1;
    }
    if (cli.has("stats")) print_metrics_table();
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
