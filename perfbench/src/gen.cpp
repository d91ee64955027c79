// perfbench_gen: writes the inputs of one workload run.
//
//   perfbench_gen --workload serve --seed 7 --seconds 20 --out inputs.bin
//
// The graphs are Chung–Lu draws over power-law weights with the Fig. 9
// shapes (workloads.hpp); the writer script is a sequence of 64-update
// batches (70 % inserts of absent edges, 30 % removes of present ones,
// simulated so every update changes the graph); each reader script is a
// Zipf(0.99)-keyed query sequence in the mix tip 6 : global 2 : edge 1 :
// top 1. The graphs are fixed datasets; the scripts follow the seed.
// Everything is a pure function of (workload, seed, seconds): the
// RNG and samplers live here, so a change under the library's src/gen/
// cannot alter a workload, and the same arguments give a byte-identical
// file.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256**.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& w : s_) w = splitmix64(seed);
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

// Walker alias table over w_i ∝ (i+1)^-alpha.
class PowerLawSampler {
 public:
  PowerLawSampler(std::uint32_t n, double alpha) : prob_(n), alias_(n) {
    std::vector<double> scaled(n);
    double total = 0.0;
    for (std::uint32_t i = 0; i < n; ++i)
      total += scaled[i] = std::pow(static_cast<double>(i) + 1.0, -alpha);
    std::vector<std::uint32_t> small, large;
    for (std::uint32_t i = 0; i < n; ++i) {
      scaled[i] *= static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(i);
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (const std::uint32_t i : small) prob_[i] = 1.0;
    for (const std::uint32_t i : large) prob_[i] = 1.0;
  }
  std::uint32_t sample(Rng& rng) const {
    const auto i = static_cast<std::uint32_t>(rng.below(prob_.size()));
    return rng.uniform() < prob_[i] ? i : alias_[i];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

// YCSB Zipf ranks over [0, n), rank 0 hottest.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n) {
    for (std::uint64_t i = 1; i <= n; ++i)
      zetan_ += std::pow(static_cast<double>(i), -theta);
    alpha_ = 1.0 / (1.0 - theta);
    half_pow_ = std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - (1.0 + half_pow_) / zetan_);
  }
  std::uint64_t next(Rng& rng) const {
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow_) return n_ > 1 ? 1 : 0;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
  }

 private:
  std::uint64_t n_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double half_pow_ = 0.0;
  double eta_ = 0.0;
};

constexpr std::uint64_t kDatasetSeed = 0x5eed0000;

std::uint64_t key(std::uint32_t u, std::uint32_t v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

struct Shape {
  std::uint32_t n1, n2;
  std::uint64_t edges;
};

Shape scaled(const Preset& p, double scale) {
  return {std::max<std::uint32_t>(2, static_cast<std::uint32_t>(
                                         std::lround(p.n1 * scale))),
          std::max<std::uint32_t>(2, static_cast<std::uint32_t>(
                                         std::lround(p.n2 * scale))),
          std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(
                                         static_cast<double>(p.edges) * scale)))};
}

// Chung–Lu: draw endpoint pairs until the target number of distinct edges
// exists (attempts capped, as heavy heads saturate). Edges are kept in
// acceptance order, which depends on the RNG alone.
GraphInput chung_lu(const Preset& p, double scale, Rng& rng) {
  const Shape s = scaled(p, scale);
  const PowerLawSampler side1(s.n1, p.alpha_v1);
  const PowerLawSampler side2(s.n2, p.alpha_v2);
  GraphInput g;
  g.name = p.name;
  g.n1 = s.n1;
  g.n2 = s.n2;
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(s.edges * 2);
  const std::uint64_t max_attempts = 64 * s.edges + 1024;
  for (std::uint64_t attempt = 0;
       g.edges.size() < s.edges && attempt < max_attempts; ++attempt) {
    const std::uint32_t u = side1.sample(rng);
    const std::uint32_t v = side2.sample(rng);
    if (chosen.insert(key(u, v)).second) g.edges.emplace_back(u, v);
  }
  return g;
}

// Present-edge set with O(1) uniform choice and removal.
class EdgeSet {
 public:
  explicit EdgeSet(const GraphInput& g) {
    for (const auto& [u, v] : g.edges) add(u, v);
  }
  bool has(std::uint32_t u, std::uint32_t v) const {
    return index_.count(key(u, v)) != 0;
  }
  void add(std::uint32_t u, std::uint32_t v) {
    index_.emplace(key(u, v), list_.size());
    list_.push_back(key(u, v));
  }
  std::uint64_t remove_random(Rng& rng) {
    const std::size_t i = static_cast<std::size_t>(rng.below(list_.size()));
    const std::uint64_t k = list_[i];
    index_[list_.back()] = i;
    list_[i] = list_.back();
    list_.pop_back();
    index_.erase(k);
    return k;
  }

 private:
  std::vector<std::uint64_t> list_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

// Each batch inserts first, then removes; a remove picks any edge present at
// that point, including one this batch inserted.
std::vector<std::vector<Update>> write_script(const Preset& p,
                                              const GraphInput& g,
                                              int batches, Rng& rng) {
  const PowerLawSampler side1(g.n1, p.alpha_v1);
  const PowerLawSampler side2(g.n2, p.alpha_v2);
  EdgeSet present(g);
  std::vector<std::vector<Update>> script;
  for (int b = 0; b < batches; ++b) {
    std::vector<Update> batch;
    for (int i = 0; i < kBatchSize; ++i) {
      if (i < kBatchInserts) {
        std::uint32_t u = 0, v = 0;
        do {
          u = side1.sample(rng);
          v = side2.sample(rng);
        } while (present.has(u, v));
        present.add(u, v);
        batch.push_back({u, v, 1});
      } else {
        const std::uint64_t k = present.remove_random(rng);
        batch.push_back({static_cast<std::uint32_t>(k >> 32),
                         static_cast<std::uint32_t>(k & 0xffffffffu), 0});
      }
    }
    script.push_back(std::move(batch));
  }
  return script;
}

std::vector<std::vector<Query>> read_scripts(
    const GraphInput& g, const std::vector<std::vector<Update>>& batches,
    Rng& rng) {
  // Edge-support queries ask about edges present at every epoch: initial
  // edges that no batch removes, in (u, v) order so Zipf rank 0 is the
  // lowest-id (highest-weight) endpoint.
  std::unordered_set<std::uint64_t> removed;
  for (const auto& b : batches)
    for (const Update& up : b)
      if (up.insert == 0) removed.insert(key(up.u, up.v));
  std::vector<std::uint64_t> stable;
  for (const auto& [u, v] : g.edges)
    if (removed.count(key(u, v)) == 0) stable.push_back(key(u, v));
  std::sort(stable.begin(), stable.end());
  if (stable.empty()) throw std::runtime_error("no stable edge to query");

  const Zipf zipf_v1(g.n1, kZipfTheta);
  const Zipf zipf_v2(g.n2, kZipfTheta);
  const Zipf zipf_edge(stable.size(), kZipfTheta);
  std::vector<std::vector<Query>> scripts(kReaders);
  for (auto& script : scripts) {
    script.reserve(kScriptLength);
    for (std::size_t i = 0; i < kScriptLength; ++i) {
      const std::uint64_t slot = rng.below(10);  // tip 6, global 2, edge 1, top 1
      Query q;
      if (slot < 3) {
        q = {QueryKind::kTipV1, static_cast<std::uint32_t>(zipf_v1.next(rng)), 0};
      } else if (slot < 6) {
        q = {QueryKind::kTipV2, static_cast<std::uint32_t>(zipf_v2.next(rng)), 0};
      } else if (slot < 8) {
        q = {QueryKind::kGlobal, 0, 0};
      } else if (slot < 9) {
        const std::uint64_t k = stable[zipf_edge.next(rng)];
        q = {QueryKind::kEdge, static_cast<std::uint32_t>(k >> 32),
             static_cast<std::uint32_t>(k & 0xffffffffu)};
      } else {
        q = {QueryKind::kTop, static_cast<std::uint32_t>(kTopK), 0};
      }
      script.push_back(q);
    }
  }
  return scripts;
}

Inputs generate(const WorkloadSpec& w, std::uint64_t seed, double seconds) {
  Inputs in;
  in.workload = w.name;
  in.seed = seed;
  // The stand-ins are fixed datasets, as the KONECT files they replace
  // are: one draw per (shape, scale), independent of the run seed. Peeling
  // rounds differ by one or two between draws of the same shape, which moved
  // peel_ms on the arXiv stand-in from 43 to 63 ms across five draws — a
  // property of the draw, not of the code. The seed drives the traffic:
  // which edges the writer inserts and removes, and which keys the readers
  // ask for.
  for (const int idx : w.kernel_presets) {
    std::uint64_t dataset = kDatasetSeed + static_cast<std::uint64_t>(idx);
    Rng rng(splitmix64(dataset));
    in.graphs.push_back(
        chung_lu(presets()[static_cast<std::size_t>(idx)], w.kernel_scale, rng));
  }
  std::uint64_t stream = seed;
  in.serve_graph = static_cast<std::uint32_t>(w.serve_graph);
  const Preset& served =
      presets()[static_cast<std::size_t>(w.kernel_presets[w.serve_graph])];
  Rng writer_rng(splitmix64(stream));
  in.batches = write_script(served, in.graphs[in.serve_graph],
                            scheduled_batches(w, seconds), writer_rng);
  Rng reader_rng(splitmix64(stream));
  in.readers = read_scripts(in.graphs[in.serve_graph], in.batches, reader_rng);
  return in;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload, out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--out") out = value;
    else {
      std::fprintf(stderr, "perfbench_gen: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (workload.empty() || out.empty() || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --workload W --seed N --seconds S "
                 "--out FILE\n");
    return 2;
  }
  try {
    perfbench::write_inputs(
        perfbench::generate(perfbench::workload(workload), seed, seconds), out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
