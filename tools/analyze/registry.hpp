// The telemetry-name registry: the single source of truth for metric, span,
// and tag-key names shared by bfc-analyze (rule metric-registry / span-pairing)
// and bench/report_lint (--families). Format, one entry per line:
//
//   metric svc.cache.hits
//   metric svc.slo.violations.<kind>     # <seg> matches exactly one segment
//   metric svc.latency_ns.               # trailing '.' = dynamic prefix
//   span   svc.query.<kind>
//   tag    epoch
//
// '#' starts a comment; blank lines are ignored.
#pragma once

#include <string>
#include <vector>

namespace bfc::analyze {

struct RegistryEntry {
  std::string kind;  // "metric" | "span" | "tag"
  std::string name;
  int line = 0;  // in the registry file, for diagnostics
};

struct Registry {
  std::string path;  // as loaded, for diagnostics
  std::vector<RegistryEntry> entries;

  /// Parses the format above; malformed lines land in `errors` (line, text).
  [[nodiscard]] static Registry parse(std::string path,
                                      const std::string& content,
                                      std::vector<std::pair<int, std::string>>*
                                          errors = nullptr);
  /// Throws std::runtime_error when the file cannot be read.
  [[nodiscard]] static Registry load(const std::string& path);

  /// True when `literal` (as written in source, e.g. "svc.slo.violations.p99"
  /// or the dynamic prefix "svc.shard.") matches an entry of `kind`.
  /// Matching is segment-wise: `<x>` entry segments match any one literal
  /// segment; a literal ending in '.' is a prefix and matches when some
  /// entry extends it.
  [[nodiscard]] bool matches(const std::string& kind,
                             const std::string& literal) const;
};

/// Segment-wise match of one literal against one entry name; exposed for the
/// same logic to be reused by report_lint's family mangling tests.
[[nodiscard]] bool registry_name_matches(const std::string& entry,
                                         const std::string& literal);

}  // namespace bfc::analyze
