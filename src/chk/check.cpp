#include "chk/check.hpp"

#include <sstream>

#include "chk/checked_math.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace bfc::chk {

void check_fail(const char* expr, const char* file, int line,
                const std::string& msg) {
  BFC_COUNT_ADD("chk.failures", 1);
  std::ostringstream out;
  out << file << ':' << line << ": check failed: " << expr;
  if (!msg.empty()) out << " (" << msg << ')';
  // A failed invariant is exactly what the flight recorder exists for:
  // preserve the recent event history before unwinding destroys it.
  obs::FlightRecorder::record("check_fail", expr, line);
  obs::FlightRecorder::dump_on_fault("CheckError");
  throw CheckError(out.str());
}

void enforce_fail(const char* msg) {
  throw CheckError(std::string("validation failed: ") + msg);
}

void enforce_row_fail(const char* what, long long row) {
  throw CheckError(std::string("validation failed: ") + what + " at row " +
                   std::to_string(row));
}

void overflow_fail(const char* op, long long a, long long b) {
  BFC_COUNT_ADD("chk.overflows", 1);
  std::ostringstream out;
  out << "checked_" << op << ": signed 64-bit overflow on " << a << ' ' << op
      << ' ' << b << " — wedge/butterfly accumulator exceeded count_t";
  obs::FlightRecorder::record("overflow", op, a, b);
  obs::FlightRecorder::dump_on_fault("overflow");
  throw CheckError(out.str());
}

}  // namespace bfc::chk
