// Spans recorded by the benchmark around its own calls into the library
// (the traced mode). Each span has a name, start, end, parent span and the
// id of the operation it belongs to; spans are kept in memory, one buffer
// per benchmark thread, and written at exit as Chrome trace-event JSON,
// which Perfetto opens. With the tracer off a Span is a stopwatch only.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct SpanRecord {
  const char* name;      // string literal
  std::uint64_t op;      // operation id shared by the spans of one operation
  std::uint64_t id;      // unique span id
  std::uint64_t parent;  // 0 = root
  Clock::time_point start;
  Clock::time_point end;
};

/// One thread's span buffer; only its owning thread writes to it.
class SpanBuffer {
 public:
  SpanBuffer(int tid, bool on) : tid_(tid), on_(on) {}
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] int tid() const { return tid_; }
  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(tid_) << 40) | ++last_;
  }
  void push(const SpanRecord& r) { spans_.push_back(r); }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  int tid_;
  bool on_;
  std::uint64_t last_ = 0;
  std::vector<SpanRecord> spans_;
};

/// Stopwatch that also records a span when its buffer is on.
class Span {
 public:
  Span(SpanBuffer& buf, const char* name, std::uint64_t op,
       std::uint64_t parent = 0)
      : buf_(buf),
        name_(name),
        op_(op),
        parent_(parent),
        id_(buf.on() ? buf.next_id() : 0),
        start_(Clock::now()) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Ends the span (once) and returns its length in milliseconds.
  double stop() {
    if (!stopped_) {
      end_ = Clock::now();
      stopped_ = true;
      if (buf_.on()) buf_.push({name_, op_, id_, parent_, start_, end_});
    }
    return ms_between(start_, end_);
  }

 private:
  SpanBuffer& buf_;
  const char* name_;
  std::uint64_t op_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point start_;
  Clock::time_point end_{};
  bool stopped_ = false;
};

/// Owns the per-thread buffers and writes them as one trace file.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  [[nodiscard]] bool on() const { return on_; }

  /// A new buffer for one thread; the reference stays valid for the
  /// tracer's lifetime (deque growth never moves elements).
  SpanBuffer& buffer() {
    buffers_.emplace_back(static_cast<int>(buffers_.size()) + 1, on_);
    return buffers_.back();
  }

  [[nodiscard]] std::size_t span_count() const {
    std::size_t n = 0;
    for (const SpanBuffer& b : buffers_) n += b.spans().size();
    return n;
  }

  void write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (const SpanBuffer& b : buffers_) {
      for (const SpanRecord& s : b.spans()) {
        const double ts =
            std::chrono::duration<double, std::micro>(s.start - epoch_).count();
        const double dur =
            std::chrono::duration<double, std::micro>(s.end - s.start).count();
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                     "\"id\":%llu,\"parent\":%llu}}",
                     first ? "" : ",", s.name, b.tid(), ts, dur,
                     static_cast<unsigned long long>(s.op),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        first = false;
      }
    }
    std::fputs("\n]}\n", f);
    if (std::fclose(f) != 0) throw std::runtime_error("close failed: " + path);
  }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::deque<SpanBuffer> buffers_;
};

}  // namespace perfbench
