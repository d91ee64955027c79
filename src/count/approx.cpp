#include "count/approx.hpp"

#include "chk/checked_math.hpp"

#include <algorithm>
#include <cmath>

#include "count/wedges.hpp"
#include "gen/discrete_sampler.hpp"
#include "sparse/ops.hpp"
#include "util/rng.hpp"

namespace bfc::count {
namespace {

/// Point estimate and standard error from per-sample values x_i, where the
/// estimator of Ξ is mean(x)·scale.
ApproxResult finalize(const std::vector<double>& x, double scale) {
  ApproxResult r;
  r.samples = static_cast<std::int64_t>(x.size());
  if (x.empty()) return r;
  double mean = 0.0;
  for (const double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  double var = 0.0;
  for (const double v : x) var += (v - mean) * (v - mean);
  var = x.size() > 1 ? var / static_cast<double>(x.size() - 1) : 0.0;
  r.estimate = mean * scale;
  r.standard_error =
      std::sqrt(var / static_cast<double>(x.size())) * scale;
  return r;
}

}  // namespace

ApproxResult approx_vertex_sampling(const graph::BipartiteGraph& g,
                                    const ApproxOptions& options) {
  require(options.samples >= 1, "approx: samples must be >= 1");
  if (g.n1() == 0) return {};
  Rng rng(options.seed);
  WedgeAccumulator acc(g.n1());
  std::vector<double> x;
  x.reserve(static_cast<std::size_t>(options.samples));
  for (std::int64_t s = 0; s < options.samples; ++s) {
    const auto u = static_cast<vidx_t>(
        rng.bounded(static_cast<std::uint64_t>(g.n1())));
    // Butterflies containing u: Σ_{j≠u} C(|N(u)∩N(j)|, 2).
    acc.expand(g.csr().row(u), g.csc(), {}, [u](vidx_t j) { return j != u; });
    x.push_back(static_cast<double>(acc.drain_butterflies()));
  }
  // E[x] = 2Ξ/|V1|  ->  Ξ = mean·|V1|/2.
  return finalize(x, static_cast<double>(g.n1()) / 2.0);
}

ApproxResult approx_edge_sampling(const graph::BipartiteGraph& g,
                                  const ApproxOptions& options) {
  require(options.samples >= 1, "approx: samples must be >= 1");
  const offset_t m = g.edge_count();
  if (m == 0) return {};
  Rng rng(options.seed);
  const auto& a = g.csr();
  const auto& at = g.csc();
  const auto& row_ptr = a.row_ptr();

  std::vector<double> x;
  x.reserve(static_cast<std::size_t>(options.samples));
  for (std::int64_t s = 0; s < options.samples; ++s) {
    const auto e =
        static_cast<offset_t>(rng.bounded(static_cast<std::uint64_t>(m)));
    // Recover (u, v) for CSR entry e.
    const auto it =
        std::upper_bound(row_ptr.begin(), row_ptr.end(), e) - 1;
    const auto u = static_cast<vidx_t>(it - row_ptr.begin());
    const vidx_t v = a.col_idx()[static_cast<std::size_t>(e)];

    // Eq. (23): support = Σ_{w∈N(v)} |N(u)∩N(w)| − deg(u) − deg(v) + 1.
    count_t wedge_sum = 0;
    for (const vidx_t w : at.row(v))
      wedge_sum = chk::checked_add(
          wedge_sum, sparse::intersection_size(a.row(u), a.row(w)));
    x.push_back(static_cast<double>(wedge_sum - a.row_degree(u) -
                                    at.row_degree(v) + 1));
  }
  // E[x] = 4Ξ/|E|  ->  Ξ = mean·|E|/4.
  return finalize(x, static_cast<double>(m) / 4.0);
}

ApproxResult approx_wedge_sampling(const graph::BipartiteGraph& g,
                                   const ApproxOptions& options) {
  require(options.samples >= 1, "approx: samples must be >= 1");
  const auto& at = g.csc();
  std::vector<double> weights(static_cast<std::size_t>(g.n2()));
  count_t total_wedges = 0;
  for (vidx_t w = 0; w < g.n2(); ++w) {
    const count_t c = choose2(at.row_degree(w));
    weights[static_cast<std::size_t>(w)] = static_cast<double>(c);
    total_wedges = chk::checked_add(total_wedges, c);
  }
  if (total_wedges == 0) return {};

  gen::DiscreteSampler wedge_points(weights);
  Rng rng(options.seed);
  std::vector<double> x;
  x.reserve(static_cast<std::size_t>(options.samples));
  for (std::int64_t s = 0; s < options.samples; ++s) {
    const vidx_t w = wedge_points.sample(rng);
    const auto ends = at.row(w);
    // Uniform distinct endpoint pair.
    const auto i = static_cast<std::size_t>(rng.bounded(ends.size()));
    auto j = static_cast<std::size_t>(rng.bounded(ends.size() - 1));
    if (j >= i) ++j;
    const count_t common = sparse::intersection_size(
        g.csr().row(ends[i]), g.csr().row(ends[j]));
    x.push_back(static_cast<double>(common - 1));
  }
  // E[x] = 2Ξ/W  ->  Ξ = mean·W/2.
  return finalize(x, static_cast<double>(total_wedges) / 2.0);
}

}  // namespace bfc::count
