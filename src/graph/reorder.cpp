#include "graph/reorder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "sparse/coo.hpp"
#include "sparse/ops.hpp"
#include "util/rng.hpp"

namespace bfc::graph {
namespace {

std::vector<vidx_t> permutation_for(const std::vector<offset_t>& degrees,
                                    Order order, Rng& rng) {
  const auto n = static_cast<vidx_t>(degrees.size());
  std::vector<vidx_t> by_rank(static_cast<std::size_t>(n));
  std::iota(by_rank.begin(), by_rank.end(), 0);
  switch (order) {
    case Order::kDegreeAscending:
      std::sort(by_rank.begin(), by_rank.end(), [&](vidx_t a, vidx_t b) {
        const offset_t da = degrees[static_cast<std::size_t>(a)];
        const offset_t db = degrees[static_cast<std::size_t>(b)];
        return da != db ? da < db : a < b;
      });
      break;
    case Order::kDegreeDescending:
      std::sort(by_rank.begin(), by_rank.end(), [&](vidx_t a, vidx_t b) {
        const offset_t da = degrees[static_cast<std::size_t>(a)];
        const offset_t db = degrees[static_cast<std::size_t>(b)];
        return da != db ? da > db : a < b;
      });
      break;
    case Order::kRandom:
      std::shuffle(by_rank.begin(), by_rank.end(), rng);
      break;
  }
  // by_rank[new] = old  ->  invert to old -> new.
  std::vector<vidx_t> old_to_new(static_cast<std::size_t>(n));
  for (vidx_t pos = 0; pos < n; ++pos)
    old_to_new[static_cast<std::size_t>(by_rank[static_cast<std::size_t>(pos)])] =
        pos;
  return old_to_new;
}

[[noreturn]] void bad_permutation(const char* what, const char* why) {
  throw std::invalid_argument(std::string(what) + ": " + why);
}

/// Throws on the first bad entry; the message is built only then.
void check_permutation(const std::vector<vidx_t>& perm, vidx_t n,
                       const char* what) {
  if (perm.size() != static_cast<std::size_t>(n))
    bad_permutation(what, "permutation size mismatch");
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
  for (const vidx_t p : perm) {
    if (p < 0 || p >= n) bad_permutation(what, "entry out of range");
    if (seen[static_cast<std::size_t>(p)])
      bad_permutation(what, "duplicate entry");
    seen[static_cast<std::size_t>(p)] = 1;
  }
}

}  // namespace

BipartiteGraph relabel(const BipartiteGraph& g,
                       const std::vector<vidx_t>& v1_old_to_new,
                       const std::vector<vidx_t>& v2_old_to_new) {
  check_permutation(v1_old_to_new, g.n1(), "relabel v1");
  check_permutation(v2_old_to_new, g.n2(), "relabel v2");
  sparse::CooBuilder builder(g.n1(), g.n2());
  builder.reserve(static_cast<std::size_t>(g.edge_count()));
  for (vidx_t u = 0; u < g.n1(); ++u)
    for (const vidx_t v : g.neighbors_of_v1(u))
      builder.add(v1_old_to_new[static_cast<std::size_t>(u)],
                  v2_old_to_new[static_cast<std::size_t>(v)]);
  return BipartiteGraph(builder.build());
}

Relabeling reorder(const BipartiteGraph& g, Order order, std::uint64_t seed) {
  Rng rng(seed);
  Relabeling r;
  r.v1_old_to_new =
      permutation_for(sparse::row_degrees(g.csr()), order, rng);
  r.v2_old_to_new =
      permutation_for(sparse::row_degrees(g.csc()), order, rng);
  r.graph = relabel(g, r.v1_old_to_new, r.v2_old_to_new);
  return r;
}

}  // namespace bfc::graph
