// perfbench_run: the measured process of one benchmark run.
//
//   perfbench_run --inputs FILE --workload W --seconds S --trace 0|1
//                 [--trace-out FILE] [--plant-wrong 1]
//
// Sequence: set-up (timed several times, median kept), the kernel phase,
// the serving phase, then — with peak RSS already read — every off-clock
// check and the replay. Prints one JSON run record on stdout. Exit code 0
// means the run completed; whether its answers were right is in the record
// (`failed`), which perfbench/run.py turns into the final result line.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

double steal_ms() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return kUnsupported;
  for (double& f : field)
    if (!(stat >> f)) return kUnsupported;
  return field[7] * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

constexpr int kSetupReps = 5;

// Fixed CPU work owned by the benchmark, timed at the start and end of a
// run, so machine drift shows beside the metrics.
double calibrate() {
  std::vector<std::uint32_t> table(1u << 18);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (auto& t : table) t = static_cast<std::uint32_t>(x = x * 6364136223846793005ULL + 1);
  const Clock::time_point t0 = Clock::now();
  std::uint64_t acc = 0;
  for (int i = 0; i < (1 << 23); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x & (table.size() - 1)];
  }
  const double ms = ms_between(t0, Clock::now());
  if (acc == 0) std::fputs("calibration sum was 0\n", stderr);  // keeps the loop
  return ms;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  out += '"';
}

void json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void json_map(std::string& out, const std::map<std::string, double>& m) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    json_string(out, k);
    out += ':';
    json_number(out, v);
  }
  out += '}';
}

int run(int argc, char** argv) {
  std::string inputs_path, workload_name, trace_out;
  double seconds = 0.0;
  bool traced = false, plant_wrong = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--inputs") inputs_path = value;
    else if (flag == "--workload") workload_name = value;
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") traced = value == "1";
    else if (flag == "--trace-out") trace_out = value;
    else if (flag == "--plant-wrong") plant_wrong = value == "1";
    else {
      std::fprintf(stderr, "perfbench_run: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (inputs_path.empty() || workload_name.empty() || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench_run --inputs FILE --workload W --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--plant-wrong 1]\n");
    return 2;
  }
  const WorkloadSpec& w = workload(workload_name);
  const Inputs in = read_inputs(inputs_path);
  if (in.workload != w.name)
    throw std::runtime_error("inputs were generated for " + in.workload);

  Record rec;
  Tally tally;
  Tracer tracer(traced);
  SpanBuffer& main_buf = tracer.buffer();
  rec.health["calib_start_ms"] = calibrate();

  KernelPhase kernels(in, main_buf, plant_wrong);
  ServingPhase serving(in, w, seconds * w.serve_share, tracer, main_buf,
                       plant_wrong);

  std::vector<double> graph_setup, service_setup;
  for (int rep = 0; rep < kSetupReps; ++rep)
    graph_setup.push_back(kernels.setup(static_cast<std::uint64_t>(rep)));
  const double steal_before = steal_ms();
  kernels.run(seconds * w.kernel_share, 3, tally);
  rec.health["steal_ms.kernels"] = steal_ms() - steal_before;

  for (int rep = 0; rep < kSetupReps; ++rep)
    service_setup.push_back(serving.setup(static_cast<std::uint64_t>(rep), tally));
  serving.run(tally);
  rec.metrics["peak_rss_mb"] = peak_rss_mb();

  serving.finish(tally);
  kernels.deep_checks(tally);
  serving.replay(tally);
  rec.health["calib_end_ms"] = calibrate();

  rec.metrics["setup_s"] = (median(graph_setup) + median(service_setup)) / 1e3;
  rec.metrics["graph.ingest_ms"] = median(graph_setup);
  rec.health["setup_reps"] = kSetupReps;
  rec.health["setup.graphs_ms"] = median(graph_setup);
  rec.health["setup.service_ms"] = median(service_setup);
  kernels.report(rec);
  serving.report(rec);

  // Layer times the replay splits out of a publish and an epoch's passes
  // (the shard.* ones on sharded workloads only).
  auto& m = rec.metrics;
  for (const char* key : {"count.apply_ms", "count.to_graph_ms", "sparse.validate_ms",
                          "sparse.transpose_ms", "svc.store_publish_ms",
                          "count.top_pairs_ms", "shard.publish_ms",
                          "shard.cross_pass_ms"})
    if (const auto it = m.find("replay." + std::string(key)); it != m.end())
      m[key] = it->second;
  // Tip passes: per round on the kernels workload, per epoch in the serving
  // replay elsewhere (they feed tips_ms there and fresh_p50_ms here).
  const bool kernel_tips = w.name == "kernels";
  m["count.tip_v1_ms"] = kernel_tips ? m["kernel.tip_v1_ms"] : m["replay.count.tip_v1_ms"];
  m["count.tip_v2_ms"] = kernel_tips ? m["kernel.tip_v2_ms"] : m["replay.count.tip_v2_ms"];

  rec.health["failed_ratio"] = tally.failed_ratio();
  if (traced && !trace_out.empty()) {
    tracer.write_chrome_json(trace_out);
    rec.health["spans"] = static_cast<double>(tracer.span_count());
  }

  std::string out = "{\"workload\":";
  json_string(out, w.name);
  out += ",\"seed\":" + std::to_string(in.seed);
  out += ",\"seconds\":";
  json_number(out, seconds);
  out += std::string(",\"traced\":") + (traced ? "1" : "0");
  out += ",\"attempted\":" + std::to_string(tally.attempted());
  out += ",\"failed\":" + std::to_string(tally.failed());
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < tally.reasons().size(); ++i) {
    if (i > 0) out += ',';
    json_string(out, tally.reasons()[i]);
  }
  out += "],\"metrics\":";
  json_map(out, rec.metrics);
  out += ",\"health\":";
  json_map(out, rec.health);
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
}
