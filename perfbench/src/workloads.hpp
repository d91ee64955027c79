// The benchmark's workload table, shared by the input generator and the
// measured program. Nothing here includes the library: the generator must
// not change when src/gen/ does, so the Fig. 9 preset shapes are copied
// (|V1|, |V2|, |E| and the Chung–Lu exponents of the paper's five KONECT
// datasets) rather than read from gen::konect_presets().
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct Preset {
  const char* name;
  std::uint32_t n1;
  std::uint32_t n2;
  std::uint64_t edges;
  double alpha_v1;
  double alpha_v2;
};

/// Fig. 9 shapes, paper row order.
inline const std::vector<Preset>& presets() {
  static const std::vector<Preset> table = {
      {"arXiv cond-mat", 16726, 22015, 58595, 0.55, 0.55},
      {"Producers", 48833, 138844, 207268, 0.65, 0.70},
      {"Record Labels", 168337, 18421, 233286, 0.70, 0.75},
      {"Occupations", 127577, 101730, 250945, 0.75, 0.75},
      {"GitHub", 56519, 120867, 440237, 0.75, 0.75},
  };
  return table;
}

struct WorkloadSpec {
  std::string name;
  std::vector<int> kernel_presets;  // indices into presets()
  double kernel_scale = 1.0;
  int serve_graph = 0;              // index into kernel_presets
  int shards = 1;
  double writer_hz = 10.0;          // open-loop publish schedule
  // Shares of --seconds spent in the kernel phase (measured rounds) and in
  // the serving window.
  double kernel_share = 0.5;
  double serve_share = 1.0;
};

/// Every workload runs both phases so that every metric is measured on every
/// workload; the workload decides which phase dominates the run.
///   kernels        five Fig. 9 stand-ins at scale 0.25; a short serving
///                  phase on the arXiv stand-in at the same scale.
///   serve          the arXiv stand-in at scale 1, one shard, 10 publishes/s;
///                  a kernel phase on the same graph.
///   serve_sharded  as serve with 4 shards and 1 publish/s.
inline const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> table = {
      {"kernels", {0, 1, 2, 3, 4}, 0.25, 0, 1, 10.0, 0.7, 0.3},
      {"serve", {0}, 1.0, 0, 1, 10.0, 0.5, 1.0},
      {"serve_sharded", {0}, 1.0, 0, 4, 1.0, 0.5, 1.0},
  };
  return table;
}

inline const WorkloadSpec& workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

/// Writer batches scheduled inside a serving window of `seconds`.
inline int scheduled_batches(const WorkloadSpec& w, double seconds) {
  const double window = seconds * w.serve_share;
  const int n = static_cast<int>(window * w.writer_hz + 1e-9);
  return n < 1 ? 1 : n;
}

inline constexpr int kBatchSize = 64;
inline constexpr int kBatchInserts = 45;  // 70 % of 64, rounded
inline constexpr int kReaders = 2;
inline constexpr double kReaderHz = 1000.0;  // reads per second per reader
inline constexpr std::size_t kScriptLength = std::size_t{1} << 16;
inline constexpr double kZipfTheta = 0.99;
inline constexpr int kTopK = 8;

}  // namespace perfbench
