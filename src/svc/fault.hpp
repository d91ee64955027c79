// Deterministic fault injection for the serving stack. Test code arms a
// fault point — either "fire for invocations (skip, skip+times]" (fully
// deterministic) or "fire with probability p from a seeded RNG" (a
// deterministic *sequence* for a given seed) — and production code asks
// fires() at the matching seam:
//
//   kQueueSaturation  Executor::admit treats the admission queue as full
//   kSlowKernel       the service's top-pairs pass or the cross-shard pass
//                     sleeps param() milliseconds before it scans
//   kPersistTruncate  SnapshotStore::persist publishes a torn file
//                     (truncated to param() bytes, or half when 0)
//   kPersistCorrupt   persist flips one bit (byte index param()) before
//                     publishing
//   kPersistNoRename  persist writes the .tmp file then "crashes" before
//                     the atomic rename — the previous snapshot survives
//   kTransportDrop    a RemoteShard send/recv leg fails as if the peer
//                     vanished (connection refused / EOF mid-frame)
//   kTransportDelay   a RemoteShard receive leg stalls param() milliseconds
//                     before reading — long enough params trip the per-leg
//                     timeout and exercise retry/backoff deterministically
//   kShardHostCrash   bfc-shard-host _exit(137)s before replying to the
//                     current request, simulating a SIGKILLed host without
//                     an external killer
//
// Everything compiles to constant-false stubs unless -DBFC_CHECKED=ON, so
// the release hot paths carry no fault-injection branches at all; the
// checked CI lane drives the whole degradation/recovery suite through it.
#pragma once

#include <cstdint>

#include "chk/check.hpp"

namespace bfc::svc::fault {

enum class Point : std::uint8_t {
  kQueueSaturation = 0,
  kSlowKernel,
  kPersistTruncate,
  kPersistCorrupt,
  kPersistNoRename,
  kTransportDrop,
  kTransportDelay,
  kShardHostCrash,
};

inline constexpr int kPoints = 8;

#if defined(BFC_CHECKED_ENABLED) && BFC_CHECKED_ENABLED

/// Fire deterministically on invocations (skip, skip + times]; `param` is
/// the point-specific knob (sleep ms, truncation size, corrupt byte index).
void arm(Point p, std::uint64_t skip, std::uint64_t times,
         std::uint64_t param = 0);

/// Fire with probability `prob` per invocation, drawn from an RNG seeded
/// with `seed` — a reproducible fault schedule, not a flaky one.
void arm_random(Point p, double prob, std::uint64_t seed,
                std::uint64_t param = 0);

void disarm(Point p);
void reset();  // disarm every point (test fixture teardown)

/// Consumes one invocation at the fault point; true = inject the fault.
[[nodiscard]] bool fires(Point p);

/// The armed point-specific parameter (0 when unarmed).
[[nodiscard]] std::uint64_t param(Point p);

/// Faults actually injected at this point since it was last armed.
[[nodiscard]] std::uint64_t fired_count(Point p);

#else  // fault injection compiled out: constant-false, branch-free

inline void arm(Point, std::uint64_t, std::uint64_t, std::uint64_t = 0) {}
inline void arm_random(Point, double, std::uint64_t, std::uint64_t = 0) {}
inline void disarm(Point) {}
inline void reset() {}
[[nodiscard]] inline constexpr bool fires(Point) { return false; }
[[nodiscard]] inline constexpr std::uint64_t param(Point) { return 0; }
[[nodiscard]] inline constexpr std::uint64_t fired_count(Point) { return 0; }

#endif

/// RAII arming for tests: arms in the constructor, disarms on scope exit
/// so a failing assertion cannot leak a live fault into the next test.
class Scoped {
 public:
  Scoped(Point p, std::uint64_t skip, std::uint64_t times,
         std::uint64_t parameter = 0)
      : point_(p) {
    arm(p, skip, times, parameter);
  }
  ~Scoped() { disarm(point_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Point point_;
};

}  // namespace bfc::svc::fault
