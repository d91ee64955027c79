// Flight recorder: a fixed-size lock-free ring of recent serving events
// (admissions, sheds, degradations, publishes, persist attempts, check
// failures) that is dumped to JSON when something goes wrong — a CheckError,
// a persist failure, or a fatal signal. The point is post-mortem context:
// the last ~1k decisions the service made before the fault, with timestamps
// and the trace ids of the requests involved, without paying for a full
// trace of every healthy request.
//
// record() is wait-free (one fetch_add plus plain stores into the claimed
// slot, seqlock-stamped so readers detect torn slots) and never allocates,
// so it is safe on every hot path and from failure contexts. Under
// BFC_METRICS=OFF record() compiles to nothing, matching the rest of obs/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace bfc::obs {

/// One recorded event. `kind` and `detail` are short fixed-size strings
/// (truncated on record) so slots stay POD and the ring never allocates.
struct FlightEvent {
  std::int64_t ts_us = 0;        // obs::now_us(), the span clock
  std::uint64_t trace_id = 0;    // owning request's trace, 0 = none
  std::int64_t a = 0, b = 0;     // kind-specific payload (epoch, depth, ...)
  int tid = 0;                   // thread_track() of the recording thread
  char kind[16] = {0};           // "shed", "reject", "publish", ...
  char detail[48] = {0};         // free-form qualifier ("stale_memo", ...)
};

class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 1024;  // power of two

  /// Appends one event; oldest events are overwritten once the ring is
  /// full. Wait-free, never throws, never allocates.
  static void record(const char* kind, const char* detail = "",
                     std::int64_t a = 0, std::int64_t b = 0,
                     std::uint64_t trace_id = 0) noexcept;

  /// Events still in the ring, oldest first. Slots being overwritten
  /// concurrently are skipped rather than returned torn.
  [[nodiscard]] static std::vector<FlightEvent> snapshot();

  /// Total events ever recorded (snapshot().size() once past capacity).
  [[nodiscard]] static std::int64_t recorded() noexcept;

  static void clear() noexcept;

  /// Arms automatic dumping: dump_on_fault() writes the ring to `path`.
  /// An empty path disarms. The chk layer and the persist path call
  /// dump_on_fault() on failure; bench/serving arms it via --flight-out.
  static void set_dump_path(const std::string& path);
  [[nodiscard]] static std::string dump_path();

  /// Writes {"events": [...], "recorded": n, "reason": why} to `path`.
  /// Returns false instead of throwing on I/O failure — callers are
  /// failure paths that must not mask the original error.
  static bool dump(const std::string& path,
                   const char* why = "manual") noexcept;

  /// Best-effort auto-dump to the configured path (no-op when disarmed).
  /// Safe to call while the original exception is in flight.
  static void dump_on_fault(const char* why) noexcept;

  /// Installs SIGSEGV/SIGABRT/SIGBUS handlers that dump_on_fault() and
  /// then re-raise with the default disposition. Idempotent.
  static void install_signal_dump();
};

}  // namespace bfc::obs
