#include "obs/spans.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/sync.hpp"

namespace bfc::obs {
namespace {

// Span close sits on the serving hot path (one record per query, from
// every reader thread at once), so storage is sharded: each recording
// thread is pinned to one of kShards bounded rings with its own mutex.
// A process-wide sequence number stamped at record() restores global
// completion order when shards are merged at snapshot().
constexpr std::size_t kShards = 16;

// Mutex and guarded state in one struct so TSA can relate them through the
// single reference store() returns; two independent function-local statics
// would look like unrelated objects to TSA.
struct SpanShard {
  Mutex mu{"obs.spans"};
  std::vector<SpanRecord> ring BFC_GUARDED_BY(mu);  // at most capacity slots
  std::size_t head BFC_GUARDED_BY(mu) = 0;          // oldest slot when full
  std::int64_t dropped BFC_GUARDED_BY(mu) = 0;
};

struct SpanStore {
  std::array<SpanShard, kShards> shards;
  // Read on the record() fast path without any shard lock held.
  std::atomic<std::size_t> capacity{SpanLog::kDefaultCapacity};
  std::atomic<std::uint64_t> seq{0};
};

SpanStore& store() {
  static SpanStore s;
  return s;
}

// Threads are spread round-robin over the shards; the assignment is sticky
// so a thread's spans stay in one ring (per-shard drop-oldest then matches
// per-thread recording order).
std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return idx;
}

}  // namespace

std::int64_t now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch)
      .count();
}

int thread_track() noexcept {
  static std::atomic<int> next{0};
  thread_local const int track = next.fetch_add(1, std::memory_order_relaxed);
  return track;
}

void SpanRecord::add_tag(const char* key, std::string_view value) noexcept {
  if (tag_count >= kMaxTags) return;
  SpanTag& t = tags[tag_count++];
  t.key = key;
  const std::size_t n = std::min(value.size(), t.value.size() - 1);
  std::memcpy(t.value.data(), value.data(), n);
  t.value[n] = '\0';
}

std::string_view SpanRecord::tag(std::string_view key) const noexcept {
  for (std::size_t i = 0; i < tag_count; ++i)
    if (tags[i].key == key) return {tags[i].value.data()};
  return {};
}

std::atomic<bool>& SpanLog::enabled_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

namespace {
std::atomic<std::uint64_t>& sample_period_flag() noexcept {
  static std::atomic<std::uint64_t> period{1};
  return period;
}
}  // namespace

void SpanLog::set_sample_period(std::uint64_t n) noexcept {
  sample_period_flag().store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

std::uint64_t SpanLog::sample_period() noexcept {
  return sample_period_flag().load(std::memory_order_relaxed);
}

bool SpanLog::sample() noexcept {
  const std::uint64_t period = sample_period();
  if (period <= 1) return true;
  thread_local std::uint64_t tick = 0;
  return tick++ % period == 0;
}

std::uint64_t SpanLog::next_id() noexcept {
  // Ids are identities, not an ordering, so each thread draws blocks of
  // 1024 from the shared counter instead of contending on it per span
  // (every query mints a trace id plus 1-3 span ids).
  constexpr std::uint64_t kBlock = 1024;
  static std::atomic<std::uint64_t> next{1};
  thread_local std::uint64_t cursor = 0;
  thread_local std::uint64_t end = 0;
  if (cursor == end) {
    cursor = next.fetch_add(kBlock, std::memory_order_relaxed);
    end = cursor + kBlock;
  }
  return cursor++;
}

TraceContext TraceContext::root() noexcept {
  return TraceContext{SpanLog::next_id(), 0};
}

void SpanLog::set_capacity(std::size_t capacity) {
  SpanStore& s = store();
  const std::size_t cap = capacity == 0 ? 1 : capacity;
  s.capacity.store(cap, std::memory_order_relaxed);
  for (SpanShard& sh : s.shards) {
    const MutexLock lock(sh.mu);
    if (sh.ring.size() <= cap) continue;
    const std::size_t n = sh.ring.size();
    const std::size_t drop = n - cap;
    std::vector<SpanRecord> keep;
    keep.reserve(cap);
    for (std::size_t i = 0; i < cap; ++i)
      keep.push_back(std::move(sh.ring[(sh.head + drop + i) % n]));
    sh.ring = std::move(keep);
    sh.head = 0;
    sh.dropped += static_cast<std::int64_t>(drop);
  }
}

void SpanLog::record(SpanRecord rec) {
  SpanStore& s = store();
  rec.seq = s.seq.fetch_add(1, std::memory_order_relaxed);
  const std::size_t cap = s.capacity.load(std::memory_order_relaxed);
  SpanShard& sh = s.shards[shard_index()];
  const MutexLock lock(sh.mu);
  if (sh.ring.size() < cap) {
    sh.ring.push_back(std::move(rec));
  } else {
    sh.ring[sh.head] = std::move(rec);
    sh.head = (sh.head + 1) % sh.ring.size();
    ++sh.dropped;
  }
}

std::vector<SpanRecord> SpanLog::snapshot() {
  SpanStore& s = store();
  std::vector<SpanRecord> out;
  for (SpanShard& sh : s.shards) {
    const MutexLock lock(sh.mu);
    const std::size_t n = sh.ring.size();
    out.reserve(out.size() + n);
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(sh.ring[(sh.head + i) % n]);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::int64_t SpanLog::dropped() {
  SpanStore& s = store();
  std::int64_t total = 0;
  for (SpanShard& sh : s.shards) {
    const MutexLock lock(sh.mu);
    total += sh.dropped;
  }
  return total;
}

void SpanLog::clear() {
  SpanStore& s = store();
  for (SpanShard& sh : s.shards) {
    const MutexLock lock(sh.mu);
    sh.ring.clear();
    sh.head = 0;
    sh.dropped = 0;
  }
}

void SpanLog::write_chrome_json(const std::string& path) {
  Json root = Json::object();
  Json& list = root["traceEvents"];
  list = Json::array();
  for (const SpanRecord& rec : snapshot()) {
    Json args = Json::object();
    args["trace"] = rec.trace_id;
    args["span"] = rec.span_id;
    args["parent"] = rec.parent_id;
    for (std::size_t i = 0; i < rec.tag_count; ++i)
      args[rec.tags[i].key] = std::string(rec.tags[i].value.data());
    Json e = Json::object();
    e["name"] = std::string(rec.name);
    e["cat"] = "bfc";
    e["ph"] = "X";
    e["pid"] = 1;
    e["tid"] = rec.tid;
    e["ts"] = rec.ts_us;
    e["dur"] = rec.dur_us;
    e["args"] = std::move(args);
    list.push_back(std::move(e));
  }
  root["displayTimeUnit"] = "ms";
  root["otherData"]["dropped"] = dropped();

  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file: " + path);
  out << root.dump(1) << '\n';
}

Span::Span(const TraceContext& parent, std::string_view name) {
  if (SpanLog::enabled() && parent.active()) arm(parent, name);
}

Span::Span(std::string_view name) {
  if (SpanLog::enabled()) arm(TraceContext::root(), name);
}

void Span::arm(const TraceContext& parent, std::string_view name) {
  armed_ = true;
  rec_.trace_id = parent.trace_id;
  rec_.parent_id = parent.span_id;
  rec_.span_id = SpanLog::next_id();
  rec_.name = name;
  rec_.ts_us = now_us();
  rec_.tid = thread_track();
}

void Span::tag(const char* key, std::string_view value) {
  if (!armed_) return;
  rec_.add_tag(key, value);
}

void Span::close() {
  if (!armed_) return;
  armed_ = false;
  rec_.dur_us = now_us() - rec_.ts_us;
  SpanLog::record(std::move(rec_));
}

}  // namespace bfc::obs
