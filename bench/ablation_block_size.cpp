// Ablation A5: panel width of the FLAME blocked engine. Each panel scans
// the peer partition once for `block_size` pivot lines, so the O(p·nnz)
// peer traffic shrinks by the panel width while the within-panel work grows
// — the sweep locates the knee and shows how far blocking closes the gap to
// the wedge engine. Inv2 and Inv6 are the two cells the benchmark's
// paper_ms times with the library's default width.
#include <cstdlib>
#include <iostream>

#include "bench_common.hpp"
#include "la/count.hpp"

int main(int argc, char** argv) {
  using namespace bfc;
  const bench::BenchConfig cfg = bench::parse_config(argc, argv);
  bench::print_header("Ablation A5: blocked-engine panel width (seconds)",
                      cfg);

  const vidx_t widths[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};

  std::vector<std::string> header{"Dataset", "Inv", "unblocked"};
  for (const vidx_t b : widths) header.push_back("b=" + std::to_string(b));
  header.emplace_back("wedge");
  Table table(std::move(header));

  for (const auto& ds : bench::make_datasets(cfg)) {
    for (const la::Invariant inv :
         {la::Invariant::kInv2, la::Invariant::kInv6}) {
      // Each cell is counted under every panel width; all runs must agree
      // before the row is accepted.
      std::vector<std::string> row{ds.name, la::name(inv)};
      const auto time_with = [&](const la::CountOptions& o, count_t* c) {
        return bench::time_median_seconds(
            cfg, [&] { return la::count_butterflies(ds.graph, inv, o); }, c);
      };
      count_t reference = 0;
      row.push_back(Table::fixed(time_with(la::CountOptions{}, &reference), 3));

      for (const vidx_t b : widths) {
        la::CountOptions blocked;
        blocked.engine = la::Engine::kBlocked;
        blocked.block_size = b;
        count_t c = 0;
        const double secs = time_with(blocked, &c);
        if (c != reference) {
          std::cerr << "FATAL: blocked b=" << b << " disagrees on " << ds.name
                    << ' ' << la::name(inv) << '\n';
          return EXIT_FAILURE;
        }
        row.push_back(Table::fixed(secs, 3));
      }

      la::CountOptions wedge;
      wedge.engine = la::Engine::kWedge;
      count_t cw = 0;
      row.push_back(Table::fixed(time_with(wedge, &cw), 3));
      if (cw != reference) {
        std::cerr << "FATAL: wedge engine disagrees on " << ds.name << ' '
                  << la::name(inv) << '\n';
        return EXIT_FAILURE;
      }
      table.add_row(std::move(row));
    }
  }

  table.print(std::cout);
  bench::write_reports(cfg);
  return EXIT_SUCCESS;
}
