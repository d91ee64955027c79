// Content-hash incremental cache for bfc-analyze. Rules are pure functions
// over one lexed file plus the shared registry, so per-file findings can be
// replayed verbatim as long as (a) the file's bytes are unchanged and (b) the
// tool itself — rule set, rule revision, registry — is unchanged. The cache
// stores findings WITHOUT fingerprints; fingerprints carry cross-file
// ordinals, so the engine recomputes them over the merged result list.
//
// Invalidation is deliberately coarse: one tool hash over every rule
// name/summary, a hand-bumped revision constant, and the registry contents.
// Any of those changing drops the whole cache — correctness over cleverness;
// a cold run is cheap enough, a stale finding replayed forever is not.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "registry.hpp"
#include "rules.hpp"

namespace bfc::analyze {

/// Bump whenever rule BEHAVIOR changes without a rule name/summary change,
/// so caches written by older binaries are not replayed.
inline constexpr int kCacheRevision = 2;

struct CacheEntry {
  std::string content_hash;        // hex64 fnv1a of the file's source lines
  std::vector<Finding> findings;   // fingerprint field left empty
};

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
};

struct Cache {
  std::string tool_hash;                    // hex64; "" = freshly created
  std::map<std::string, CacheEntry> files;  // keyed by repo-relative path

  /// Missing or unparseable file yields an empty cache (a cache must never
  /// turn into a hard error — worst case is a cold run).
  [[nodiscard]] static Cache load(const std::string& path);
  [[nodiscard]] static Cache parse(const std::string& json_text);

  [[nodiscard]] std::string render() const;
  /// Throws std::runtime_error when the file cannot be written.
  void save(const std::string& path) const;
};

/// Hex64 fnv1a over the file's raw source lines (joined with '\n').
[[nodiscard]] std::string content_hash(const LexedFile& lex);

/// Hex64 fnv1a over rule names + summaries, kCacheRevision, and the registry
/// entries (null registry hashes as a distinct marker).
[[nodiscard]] std::string compute_tool_hash(const Registry* registry);

/// Drop-in replacement for run_rules(): consults `cache` per file, replays
/// cached findings on content-hash hits, runs the full rule set on misses,
/// and updates `cache` in place so the caller can save() it. The tool-hash
/// check (clearing the cache wholesale on mismatch) happens here, not in
/// load(), so stats reflect what actually got skipped.
[[nodiscard]] std::vector<Finding> run_rules_cached(
    const std::vector<SourceFile>& files, const Registry* registry,
    Cache& cache, CacheStats& stats);

}  // namespace bfc::analyze
