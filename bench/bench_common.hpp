// Shared plumbing for the table-reproduction benches (Figs. 9-11 and the
// ablations). Each bench binary prints the same rows/columns as the paper
// figure it regenerates, plus measured values from this machine.
//
// Common flags:
//   --scale <s>   linear dataset scale factor in (0, 1]; default 0.125 so
//                 the whole suite runs in a CI-sized budget. --scale 1
//                 reproduces the paper's published sizes (slow: the
//                 unblocked kernels are O(p·nnz) by design).
//   --seed <n>    generator seed (default 42).
//   --reps <n>    timed repetitions per cell; the median is reported.
//   --json <path> write a machine-readable RunReport (config, environment,
//                 kernel metrics, every timing sample) after the table.
//   --trace <path> record every span (bench cells, loader and kernel
//                 phases, request spans) and write them as Chrome
//                 trace-event JSON (chrome://tracing, ui.perfetto.dev). A
//                 BFC_METRICS=OFF build compiles spans out and writes an
//                 empty "traceEvents" list.
//
// Unknown flags are rejected (a typo like --rep must not silently run with
// defaults).
#pragma once

#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "gen/konect_like.hpp"
#include "graph/bipartite_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/spans.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bfc::bench {

struct BenchConfig {
  double scale = 0.125;
  std::uint64_t seed = 42;
  int reps = 1;
  std::string json_path;   // empty = no report
  std::string trace_path;  // empty = no trace
};

/// The per-binary RunReport that time_median_seconds() feeds and
/// write_reports() serializes.
inline obs::RunReport& report() {
  static obs::RunReport r;
  return r;
}

/// Parses the common flags, rejecting anything not in the common set or in
/// `extra_allowed` (bench-specific flags like fig11's --threads).
inline BenchConfig parse_config(
    int argc, const char* const* argv,
    std::initializer_list<std::string> extra_allowed = {}) {
  const Cli cli(argc, argv);
  std::set<std::string> allowed = {"scale", "seed", "reps", "json", "trace"};
  allowed.insert(extra_allowed.begin(), extra_allowed.end());
  for (const std::string& name : cli.option_names()) {
    if (!allowed.contains(name)) {
      std::cerr << cli.program() << ": unknown flag --" << name
                << "\nknown flags:";
      for (const std::string& known : allowed) std::cerr << " --" << known;
      std::cerr << '\n';
      std::exit(2);
    }
  }

  BenchConfig cfg;
  cfg.scale = cli.get_double("scale", cfg.scale);
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  cfg.reps = static_cast<int>(cli.get_int("reps", 1));
  cfg.json_path = cli.get("json", "");
  cfg.trace_path = cli.get("trace", "");
  require(cfg.scale > 0.0 && cfg.scale <= 1.0, "--scale must be in (0, 1]");
  require(cfg.reps >= 1, "--reps must be >= 1");

  if (!cfg.trace_path.empty()) obs::SpanLog::set_enabled(true);
  return cfg;
}

struct Dataset {
  std::string name;
  graph::BipartiteGraph graph;
  count_t paper_butterflies = 0;
};

/// The five Fig. 9 stand-ins at the configured scale (DESIGN.md §4).
inline std::vector<Dataset> make_datasets(const BenchConfig& cfg) {
  obs::Span phase("bench.make_datasets");
  std::vector<Dataset> out;
  std::uint64_t salt = 0;
  for (const auto& preset : gen::konect_presets()) {
    out.push_back({preset.name,
                   gen::make_konect_like(preset, cfg.scale, cfg.seed + salt),
                   preset.paper_butterflies});
    ++salt;
  }
  return out;
}

/// `label` as a span name that lives as long as the process: a span keeps a
/// view of its name until the trace is written, and cell labels are built
/// at run time. Node-based, so earlier names stay put as the set grows.
inline std::string_view span_name(std::string label) {
  static std::set<std::string> names;
  return *names.insert(std::move(label)).first;
}

/// Times one run of fn (which must return the computed count so the work
/// cannot be optimised away); repeats cfg.reps times, reports the median.
/// Every repetition is recorded into the RunReport under `label` (or an
/// auto-numbered cell name) and traced as one span per rep named `label`.
template <typename Fn>
double time_median_seconds(const BenchConfig& cfg, Fn&& fn,
                           count_t* count_out = nullptr,
                           std::string label = {}) {
  if (label.empty()) {
    static int auto_cell = 0;
    label = "cell_" + std::to_string(auto_cell++);
  }
  const std::string_view name = span_name(label);
  Samples samples;
  count_t result = 0;
  for (int r = 0; r < cfg.reps; ++r) {
    // bfc-analyze: span-pairing-ok span_name keeps labels for the process
    obs::Span cell(name);
    Timer timer;
    result = fn();
    samples.add(timer.seconds());
  }
  report().add_sample(label, samples);
  if (count_out != nullptr) *count_out = result;
  return samples.median();
}

inline void print_header(const std::string& title, const BenchConfig& cfg) {
  std::cout << "=== " << title << " ===\n"
            << "scale=" << cfg.scale << " seed=" << cfg.seed
            << " reps=" << cfg.reps << '\n'
            << std::endl;
  report().set_config("title", title);
}

/// Serializes the RunReport (--json) and the trace (--trace) if requested.
/// Call once at the end of main; safe to call when neither flag was given.
inline void write_reports(const BenchConfig& cfg) try {
  if (!cfg.json_path.empty()) {
    obs::RunReport& r = report();
    r.set_config("scale", cfg.scale);
    r.set_config("seed", static_cast<std::int64_t>(cfg.seed));
    r.set_config("reps", static_cast<std::int64_t>(cfg.reps));
    r.capture_environment();
    r.set_metrics_from_registry();
    r.write(cfg.json_path);
    std::cout << "wrote run report: " << cfg.json_path << '\n';
  }
  if (!cfg.trace_path.empty()) {
    obs::SpanLog::write_chrome_json(cfg.trace_path);
    std::cout << "wrote trace: " << cfg.trace_path;
    if constexpr (!obs::kMetricsEnabled)
      std::cout << " (empty: BFC_METRICS=OFF compiles spans out)";
    std::cout << '\n';
  }
} catch (const std::exception& e) {
  // An unwritable path must not abort() away a finished bench run — the
  // table already printed; fail with a plain diagnostic instead.
  std::cerr << "error: " << e.what() << '\n';
  std::exit(EXIT_FAILURE);
}

}  // namespace bfc::bench
