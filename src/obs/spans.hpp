// The one tracing system. Every span is a node of a causal tree — a trace
// id shared by everything one svc::Request touched, its own span id, the
// span id of its parent, and string tags for the decisions made inside it
// (cache hit/miss, shed/cancelled outcome, fidelity of the answer) — and
// one complete event on a chrome://tracing / Perfetto timeline, on the
// track of the OS thread that opened it, so a span closed on another
// thread (a query a pool worker answers) still nests on its opener's
// track. A query's life — admission, queue wait, kernel pass — reconstructs
// as one tree no matter how many threads it crossed; a phase no request
// reaches (a loader, a bench cell, one thread's share of a parallel region,
// a store publish) opens the root span of a trace of its own.
//
// Collection is runtime-gated: a disabled SpanLog costs one relaxed load
// per Span construction, and under BFC_METRICS=OFF enabled() is
// constant-false so the whole plumbing folds away. Storage is sharded by
// recording thread (span close is on the serving hot path; a single log
// mutex would serialise every reader), each shard a bounded ring that
// overwrites its oldest span past capacity, so a long-running service
// cannot grow the log without bound.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace bfc::obs {

/// Microseconds on the steady clock since the process's first call: the
/// clock of every span, queue-wait task and flight-recorder event.
[[nodiscard]] std::int64_t now_us();

/// Sticky index of the calling OS thread, taken from a process-wide counter
/// at its first call: the tid of every span and flight-recorder event the
/// thread records, so each thread has a track of its own in an exported
/// trace (OpenMP thread numbers restart at 0 in every team and read 0
/// outside one).
[[nodiscard]] int thread_track() noexcept;

/// The identity a request carries through the service: which trace it
/// belongs to and which span is the current parent. Copied by value into
/// queue tasks and kernel lambdas; 16 bytes, trivially copyable.
struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = not part of any trace
  std::uint64_t span_id = 0;   // parent for spans opened under this context

  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }

  /// Fresh root context with a process-unique nonzero trace id. The span id
  /// starts at 0: the first Span opened under it becomes the root span.
  [[nodiscard]] static TraceContext root() noexcept;
};

/// One key/value tag. Spans close on the serving hot path, so tags are
/// plain inline storage: the key must be a string literal (or otherwise
/// outlive the log) and the value is copied, truncated past 15 characters.
struct SpanTag {
  const char* key = nullptr;
  std::array<char, 16> value{};  // NUL-terminated copy
};

/// One completed span as stored in the log. Fixed-size and deliberately
/// small — no heap allocation happens anywhere between Span construction
/// and the record landing in its shard, and the record spans few cache
/// lines (recording streams through a large ring, so every byte of the
/// record is a cold write) — so tracing every query stays cheap enough to
/// leave on under load. The serving spans use at most 4 tags.
struct SpanRecord {
  static constexpr std::size_t kMaxTags = 5;

  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root span of its trace
  std::string_view name;        // literal; must outlive the log
  std::int64_t ts_us = 0;   // start, microseconds on the now_us() clock
  std::int64_t dur_us = 0;  // duration in microseconds
  int tid = 0;              // thread_track() of the thread that opened it
  std::uint64_t seq = 0;    // process-wide completion order, set by record()
  std::array<SpanTag, kMaxTags> tags{};
  std::uint8_t tag_count = 0;

  /// Appends a tag; silently dropped past kMaxTags, value truncated to fit.
  void add_tag(const char* key, std::string_view value) noexcept;

  /// First value recorded under `key`, or "" when the tag is absent.
  [[nodiscard]] std::string_view tag(std::string_view key) const noexcept;
};

/// Process-wide bounded log of completed spans. All members are static: the
/// span tree is a property of the process.
class SpanLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 13;

  [[nodiscard]] static bool enabled() noexcept {
    if constexpr (!kMetricsEnabled) return false;
    return enabled_flag().load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) noexcept {
    enabled_flag().store(on, std::memory_order_relaxed);
  }

  /// Head-based sampling: only 1 in `n` requests is rooted (and therefore
  /// traced — an unrooted request's spans are all inert). Default 1 =
  /// trace everything; production loads wanting negligible overhead pick a
  /// larger period. Applied where root contexts are minted, not per span,
  /// so a sampled request always yields its complete tree.
  static void set_sample_period(std::uint64_t n) noexcept;
  [[nodiscard]] static std::uint64_t sample_period() noexcept;

  /// True for 1 of every sample_period() calls (thread-local stride, so
  /// concurrent readers each sample at the configured rate).
  [[nodiscard]] static bool sample() noexcept;

  /// Caps the number of retained spans per thread shard (>= 1); excess
  /// drops the oldest within each shard.
  static void set_capacity(std::size_t capacity);

  /// Appends one completed span, dropping its shard's oldest past capacity.
  static void record(SpanRecord rec);

  /// Snapshot in completion order (oldest first), merged across shards.
  [[nodiscard]] static std::vector<SpanRecord> snapshot();

  /// Spans discarded because the log was at capacity.
  [[nodiscard]] static std::int64_t dropped();

  static void clear();

  /// Process-unique nonzero id for spans and traces.
  [[nodiscard]] static std::uint64_t next_id() noexcept;

  /// Writes the log as Chrome trace-event JSON (chrome://tracing,
  /// ui.perfetto.dev): {"traceEvents": [...], "displayTimeUnit": "ms",
  /// "otherData": {"dropped": n}}, one complete ("ph": "X") event per span
  /// with pid, tid, ts and dur (µs), its trace, span and parent ids and its
  /// tags under "args". Throws std::runtime_error if the file cannot be
  /// written.
  static void write_chrome_json(const std::string& path);

 private:
  static std::atomic<bool>& enabled_flag() noexcept;
};

/// RAII span. Inert (zero allocation, no record) unless the log is enabled
/// AND the parent context is active — a request that was never rooted stays
/// invisible no matter how deep its call tree goes. The span takes its
/// track when it opens; close() stamps the duration and records early, on
/// any thread; the destructor closes if nobody did.
class Span {
 public:
  /// A child of `parent`. `name` must be a string literal (or otherwise
  /// outlive the log).
  Span(const TraceContext& parent, std::string_view name);
  /// The root span of a fresh trace when the log is enabled, inert
  /// otherwise: for work no request context reaches. Not head-sampled.
  explicit Span(std::string_view name);
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] bool armed() const noexcept { return armed_; }

  /// Context for child spans / cross-thread continuations.
  [[nodiscard]] TraceContext context() const noexcept {
    return TraceContext{rec_.trace_id, rec_.span_id};
  }

  /// Attaches a key/value tag; no-op on an inert or closed span. The key
  /// must be a literal; the value is copied (truncated past 15 chars).
  void tag(const char* key, std::string_view value);

  /// Stamps the duration and records the span; idempotent.
  void close();

 private:
  void arm(const TraceContext& parent, std::string_view name);

  SpanRecord rec_;
  bool armed_ = false;
};

}  // namespace bfc::obs
