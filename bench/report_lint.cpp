// report_lint: validates the machine-readable artifacts the benches emit.
//
//   report_lint --report      out.json  check a RunReport (--json output)
//   report_lint --trace       out.json  check a Chrome trace-event file
//                                       (--trace output); events on one
//                                       track must nest
//   report_lint --openmetrics out.txt   check an OpenMetrics text dump
//                                       (--metrics-file / /metrics output)
//   ... --families tools/analyze/metrics.registry
//                                       additionally require every svc_/obs_/
//                                       chk_ family in the dump to map back
//                                       to a `metric` entry in the registry
//                                       bfc-analyze enforces on source
//                                       literals — one contract, one file
//
// Exits 0 when the file parses and has the documented shape, 1 with a
// diagnostic otherwise. The `validate-report` and `telemetry-smoke` ctests
// run a bench at tiny scale and pipe its artifacts through this linter, so
// a PR that breaks an artifact schema fails CI rather than downstream
// tooling (Prometheus scrapers included).
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "registry.hpp"  // tools/analyze: the shared telemetry-name registry
#include "util/cli.hpp"

namespace {

using bfc::obs::Json;

Json load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

void check(bool cond, const std::string& what) {
  if (!cond) throw std::runtime_error(what);
}

void lint_report(const Json& doc) {
  for (const char* key : {"config", "environment", "metrics", "samples"})
    check(doc.has(key), std::string("missing top-level key \"") + key + '"');
  check(doc.at("config").is_object(), "\"config\" is not an object");
  check(doc.at("metrics").is_object(), "\"metrics\" is not an object");

  const Json& env = doc.at("environment");
  for (const char* key :
       {"compiler", "omp_max_threads", "metrics_enabled", "timestamp_utc"})
    check(env.has(key), std::string("environment missing \"") + key + '"');

  // Sharded runs publish one cache-tier stat triple per shard into the
  // config block; a missing shard index means the bench's per-shard
  // accounting silently dropped a store.
  const Json& config = doc.at("config");
  if (config.has("shards") && config.at("shards").as_int() > 1) {
    const auto shards = config.at("shards").as_int();
    for (std::int64_t k = 0; k < shards; ++k) {
      const std::string prefix = "shard_" + std::to_string(k) + "_";
      for (const char* stat : {"hits", "misses", "hit_rate"})
        check(config.has(prefix + stat),
              "sharded config missing \"" + prefix + stat + '"');
      const double rate = config.at(prefix + "hit_rate").as_double();
      check(rate >= 0.0 && rate <= 1.0,
            prefix + "hit_rate out of [0, 1]: " + std::to_string(rate));
    }
    check(config.has("view_tier_hit_rate"),
          "sharded config missing \"view_tier_hit_rate\"");
  }

  // A serving run's latency histograms observe each query at most once.
  const Json& metrics = doc.at("metrics");
  if (metrics.has("svc.queries")) {
    std::int64_t observed = 0;
    for (const auto& [name, m] : metrics.as_object())
      if (name.rfind("svc.latency_ns.", 0) == 0)
        observed += m.at("count").as_int();
    const std::int64_t queries = metrics.at("svc.queries").as_int();
    check(observed <= queries,
          "latency histograms hold " + std::to_string(observed) +
              " observations but svc.queries is " + std::to_string(queries));
  }

  const Json& samples = doc.at("samples");
  check(samples.is_array(), "\"samples\" is not an array");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Json& cell = samples.at(i);
    for (const char* key : {"label", "seconds", "count", "median"})
      check(cell.has(key),
            "sample " + std::to_string(i) + " missing \"" + key + '"');
    check(cell.at("seconds").size() ==
              static_cast<std::size_t>(cell.at("count").as_int()),
          "sample " + std::to_string(i) + ": seconds[] shorter than count");
  }
  std::cout << "report ok: " << samples.size() << " sample cells, "
            << doc.at("metrics").size() << " metrics\n";
}

/// Complete events on one track (pid, tid) must nest, as the spans of one
/// thread open and close in stack order: an event that starts inside an
/// earlier one on its track and ends after it renders as a broken stack in
/// chrome://tracing and Perfetto. Returns the number of tracks.
std::size_t check_nesting(const Json& events) {
  struct Event {
    double ts, end;
    std::size_t index;
  };
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<Event>> tracks;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& ev = events.at(i);
    const double ts = ev.at("ts").as_double();
    tracks[{ev.at("pid").as_int(), ev.at("tid").as_int()}].push_back(
        {ts, ts + ev.at("dur").as_double(), i});
  }
  for (auto& [track, list] : tracks) {
    // By start, the longer of two events that start together first: it is
    // the enclosing one.
    std::sort(list.begin(), list.end(), [](const Event& a, const Event& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.end > b.end;
    });
    std::vector<Event> open;  // the enclosing events, innermost last
    for (const Event& e : list) {
      while (!open.empty() && open.back().end <= e.ts) open.pop_back();
      check(open.empty() || e.end <= open.back().end,
            "event " + std::to_string(e.index) + " starts inside event " +
                std::to_string(open.empty() ? 0 : open.back().index) +
                " on tid " + std::to_string(track.second) +
                " and ends after it");
      open.push_back(e);
    }
  }
  return tracks.size();
}

void lint_trace(const Json& doc) {
  check(doc.has("traceEvents"), "missing top-level key \"traceEvents\"");
  const Json& events = doc.at("traceEvents");
  check(events.is_array(), "\"traceEvents\" is not an array");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& ev = events.at(i);
    for (const char* key : {"name", "ph", "pid", "tid", "ts", "dur"})
      check(ev.has(key),
            "event " + std::to_string(i) + " missing \"" + key + '"');
    check(ev.at("ph").as_string() == "X",
          "event " + std::to_string(i) + ": ph is not \"X\"");
    check(ev.at("ts").as_double() >= 0 && ev.at("dur").as_double() >= 0,
          "event " + std::to_string(i) + ": negative ts/dur");
    check(ev.has("args") && ev.at("args").is_object(),
          "event " + std::to_string(i) + " has no \"args\" object");
    for (const char* id : {"trace", "span", "parent"})
      check(ev.at("args").has(id) && ev.at("args").at(id).is_int(),
            "event " + std::to_string(i) + ": args has no integer \"" + id +
                '"');
  }
  check(doc.has("otherData") && doc.at("otherData").has("dropped"),
        "missing the span log's drop count (otherData.dropped)");
  const std::size_t tracks = check_nesting(events);
  std::cout << "trace ok: " << events.size() << " events on " << tracks
            << " tracks, " << doc.at("otherData").at("dropped").as_int()
            << " dropped\n";
}

// ---- OpenMetrics text format ---------------------------------------------

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || c == '_' || c == ':' || (i > 0 && digit))) return false;
  }
  return true;
}

/// Per-family state accumulated while scanning sample lines.
struct Family {
  std::string type;  // counter | gauge | histogram
  bool saw_help = false;
  int samples = 0;
  // Histogram bookkeeping.
  long long prev_le = -1;          // last finite bucket threshold
  long long prev_cumulative = -1;  // bucket counts must be non-decreasing
  long long inf_bucket = -1;       // le="+Inf" sample value
  long long count = -1;            // _count sample value
  bool saw_sum = false;
};

long long parse_int(const std::string& s, const std::string& what) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(s, &used);
    check(used == s.size(), what + ": not an integer: '" + s + "'");
    return v;
  } catch (const std::logic_error&) {
    throw std::runtime_error(what + ": not an integer: '" + s + "'");
  }
}

double parse_double(const std::string& s, const std::string& what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    check(used == s.size(), what + ": not a number: '" + s + "'");
    return v;
  } catch (const std::logic_error&) {
    throw std::runtime_error(what + ": not a number: '" + s + "'");
  }
}

// An OpenMetrics family name is the registry metric name mangled to the
// legal charset ('.' -> '_'), with `<seg>` placeholders standing for one or
// more name characters (the mangling erases segment boundaries, so a
// placeholder may legitimately swallow several underscores: svc.latency_ns.
// <kind> covers svc_latency_ns_tip_v1).
bool family_matches_entry(const std::string& family, const std::string& entry,
                          std::size_t fi = 0, std::size_t ei = 0) {
  while (ei < entry.size()) {
    if (entry[ei] == '<') {
      const std::size_t close = entry.find('>', ei);
      check(close != std::string::npos,
            "registry entry '" + entry + "': unterminated placeholder");
      // wildcard: try every non-empty tail consumption
      for (std::size_t take = 1; fi + take <= family.size(); ++take)
        if (family_matches_entry(family, entry, fi + take, close + 1))
          return true;
      return false;
    }
    const char want = entry[ei] == '.' ? '_' : entry[ei];
    if (fi >= family.size() || family[fi] != want) return false;
    ++fi;
    ++ei;
  }
  return fi == family.size();
}

void check_families_against_registry(
    const std::map<std::string, Family>& families,
    const std::string& registry_path) {
  const bfc::analyze::Registry registry =
      bfc::analyze::Registry::load(registry_path);
  std::vector<std::string> metric_entries;
  for (const auto& e : registry.entries)
    if (e.kind == "metric") metric_entries.push_back(e.name);
  check(!metric_entries.empty(),
        "registry " + registry_path + " declares no metric entries");
  std::size_t checked = 0;
  for (const auto& [name, fam] : families) {
    (void)fam;
    if (name.rfind("svc_", 0) != 0 && name.rfind("obs_", 0) != 0 &&
        name.rfind("chk_", 0) != 0)
      continue;
    ++checked;
    const bool known = std::any_of(
        metric_entries.begin(), metric_entries.end(),
        [&](const std::string& e) { return family_matches_entry(name, e); });
    check(known, "family '" + name + "' maps to no metric entry in " +
                     registry_path +
                     " (bfc-analyze keeps source literals in sync with that "
                     "file; add the family there and to docs/telemetry.md)");
  }
  std::cout << "openmetrics families ok: " << checked
            << " namespaced families covered by " << registry_path << "\n";
}

void lint_openmetrics(const std::string& path,
                      const std::string& families_registry) {
  std::ifstream in(path);
  check(static_cast<bool>(in), "cannot open " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  check(!lines.empty() && lines.back() == "# EOF",
        "last line must be '# EOF'");
  lines.pop_back();

  std::map<std::string, Family> families;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::string where = "line " + std::to_string(i + 1);
    check(!line.empty(), where + ": blank line");
    if (line.rfind("# TYPE ", 0) == 0 || line.rfind("# HELP ", 0) == 0) {
      const bool is_type = line[2] == 'T';
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      check(sp != std::string::npos, where + ": metadata without a value");
      const std::string name = rest.substr(0, sp);
      check(valid_metric_name(name), where + ": bad metric name '" + name +
                                         '\'');
      if (is_type) {
        const std::string type = rest.substr(sp + 1);
        check(type == "counter" || type == "gauge" || type == "histogram",
              where + ": unknown type '" + type + '\'');
        check(families.find(name) == families.end(),
              where + ": duplicate TYPE for '" + name + '\'');
        families[name].type = type;
      } else {
        const auto it = families.find(name);
        check(it != families.end(),
              where + ": HELP for '" + name + "' precedes its TYPE");
        it->second.saw_help = true;
      }
      continue;
    }
    check(line[0] != '#', where + ": unexpected comment");

    // Sample line: <name>[{le="<threshold>"}] <value>
    const std::size_t sp = line.rfind(' ');
    check(sp != std::string::npos && sp + 1 < line.size(),
          where + ": sample without a value");
    const std::string value = line.substr(sp + 1);
    std::string metric = line.substr(0, sp);
    std::string le;
    const std::size_t brace = metric.find('{');
    if (brace != std::string::npos) {
      const std::string labels = metric.substr(brace);
      metric.resize(brace);
      check(labels.rfind("{le=\"", 0) == 0 && labels.back() == '}' &&
                labels.size() > 7,
            where + ": malformed label set " + labels);
      le = labels.substr(5, labels.size() - 7);
    }
    check(valid_metric_name(metric),
          where + ": bad sample name '" + metric + '\'');

    // Resolve the sample to its family via the suffix conventions, then
    // enforce the family's shape. TYPE must precede every sample.
    const auto strip = [&metric](const char* suffix) {
      const std::string s(suffix);
      if (metric.size() <= s.size() ||
          metric.compare(metric.size() - s.size(), s.size(), s) != 0)
        return std::string();
      return metric.substr(0, metric.size() - s.size());
    };
    const auto family_of = [&](const std::string& base) -> Family* {
      if (base.empty()) return nullptr;
      const auto it = families.find(base);
      return it == families.end() ? nullptr : &it->second;
    };
    if (Family* fam = family_of(strip("_total")); fam != nullptr) {
      check(fam->type == "counter",
            where + ": _total sample on non-counter '" + metric + '\'');
      check(le.empty(), where + ": counter sample with labels");
      check(parse_int(value, where) >= 0, where + ": negative counter");
      ++fam->samples;
    } else if (Family* fam = family_of(strip("_bucket")); fam != nullptr) {
      check(fam->type == "histogram",
            where + ": _bucket sample on non-histogram '" + metric + '\'');
      check(!le.empty(), where + ": bucket without an le label");
      const long long cumulative = parse_int(value, where);
      check(cumulative >= 0 && cumulative >= fam->prev_cumulative,
            where + ": bucket counts must be cumulative (non-decreasing)");
      fam->prev_cumulative = cumulative;
      if (le == "+Inf") {
        check(fam->inf_bucket < 0, where + ": duplicate +Inf bucket");
        fam->inf_bucket = cumulative;
      } else {
        check(fam->inf_bucket < 0,
              where + ": finite bucket after the +Inf bucket");
        const long long threshold = parse_int(le, where + " (le)");
        check(threshold > fam->prev_le,
              where + ": bucket thresholds must increase");
        fam->prev_le = threshold;
      }
      ++fam->samples;
    } else if (Family* fam = family_of(strip("_sum")); fam != nullptr) {
      check(fam->type == "histogram",
            where + ": _sum sample on non-histogram '" + metric + '\'');
      fam->saw_sum = true;
      ++fam->samples;
    } else if (Family* fam = family_of(strip("_count")); fam != nullptr) {
      check(fam->type == "histogram",
            where + ": _count sample on non-histogram '" + metric + '\'');
      fam->count = parse_int(value, where);
      ++fam->samples;
    } else if (Family* fam = family_of(metric); fam != nullptr) {
      check(fam->type == "gauge",
            where + ": bare sample on non-gauge '" + metric + '\'');
      check(le.empty(), where + ": gauge sample with labels");
      (void)parse_double(value, where + " (gauge value)");
      ++fam->samples;
    } else {
      check(false, where + ": sample '" + metric +
                       "' matches no declared family (TYPE missing or after "
                       "the sample?)");
    }
  }

  // Per-shard instrument families (svc_shard_<k>_<stat>) must form a dense
  // 0..N-1 index range per stat: the sharded service binds one instrument
  // per shard at construction, so a gap means some shard's plane never
  // registered (or a rendering bug dropped it).
  std::map<std::string, std::vector<long long>> shard_stats;
  for (const auto& [name, fam] : families) {
    const std::string prefix = "svc_shard_";
    if (name.rfind(prefix, 0) != 0) continue;
    std::size_t digits_end = prefix.size();
    while (digits_end < name.size() && name[digits_end] >= '0' &&
           name[digits_end] <= '9')
      ++digits_end;
    if (digits_end == prefix.size() || digits_end + 1 >= name.size() ||
        name[digits_end] != '_')
      continue;  // not the per-shard shape; the generic checks still apply
    shard_stats[name.substr(digits_end + 1)].push_back(
        parse_int(name.substr(prefix.size(), digits_end - prefix.size()),
                  "shard index of '" + name + '\''));
  }
  for (auto& [stat, indices] : shard_stats) {
    std::sort(indices.begin(), indices.end());
    for (std::size_t i = 0; i < indices.size(); ++i)
      check(indices[i] == static_cast<long long>(i),
            "per-shard family svc_shard_*_" + stat + " has a gap: shard " +
                std::to_string(i) + " missing (have " +
                std::to_string(indices.size()) + " shards)");
  }

  for (const auto& [name, fam] : families) {
    check(fam.saw_help, "family '" + name + "' has no HELP line");
    check(fam.samples > 0, "family '" + name + "' has no samples");
    if (fam.type == "histogram") {
      check(fam.inf_bucket >= 0, "histogram '" + name + "' has no +Inf bucket");
      check(fam.saw_sum, "histogram '" + name + "' has no _sum sample");
      check(fam.count == fam.inf_bucket,
            "histogram '" + name + "': _count " + std::to_string(fam.count) +
                " != +Inf bucket " + std::to_string(fam.inf_bucket));
    }
  }
  std::cout << "openmetrics ok: " << families.size() << " metric families, "
            << lines.size() << " lines\n";
  if (!families_registry.empty())
    check_families_against_registry(families, families_registry);
}

}  // namespace

int main(int argc, char** argv) {
  const bfc::Cli cli(argc, argv);
  const std::string report_path = cli.get("report", "");
  const std::string trace_path = cli.get("trace", "");
  const std::string metrics_path = cli.get("openmetrics", "");
  const std::string families_registry = cli.get("families", "");
  if (report_path.empty() && trace_path.empty() && metrics_path.empty()) {
    std::cerr << "usage: report_lint --report <run.json> | --trace "
                 "<trace.json> | --openmetrics <metrics.txt> "
                 "[--families <metrics.registry>]\n";
    return 2;
  }
  try {
    if (!report_path.empty()) lint_report(load(report_path));
    if (!trace_path.empty()) lint_trace(load(trace_path));
    if (!metrics_path.empty())
      lint_openmetrics(metrics_path, families_registry);
  } catch (const std::exception& e) {
    std::cerr << "report_lint: " << e.what() << '\n';
    return 1;
  }
  return EXIT_SUCCESS;
}
