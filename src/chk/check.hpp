// Checked-build invariant machinery. BFC_CHECK / BFC_CHECK_MSG are the
// repo's internal invariant assertions: they compile to nothing in a normal
// build (the condition is NOT evaluated) and, under -DBFC_CHECKED=ON, they
// evaluate the condition and throw chk::CheckError with file/line context
// when it fails. The deep structural validators in chk/validate.hpp are
// built on the same error type but are ordinary functions, always compiled,
// so corruption-injection tests can exercise them in every build lane; the
// BFC_VALIDATE macro gates the *call sites* on the hot mutation seams.
//
// CheckError derives from std::invalid_argument so a failing check
// surfaces through the same exception taxonomy as the library's existing
// API-boundary require() calls.
#pragma once

#include <stdexcept>
#include <string>

namespace bfc::chk {

#if defined(BFC_CHECKED_ENABLED) && BFC_CHECKED_ENABLED
inline constexpr bool kCheckedEnabled = true;
#else
inline constexpr bool kCheckedEnabled = false;
#endif

/// Thrown by a failing BFC_CHECK, a structural validator, or an
/// overflow-checked arithmetic helper.
class CheckError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Formats "<file>:<line>: check failed: <expr> (<msg>)", bumps the
/// chk.failures counter, and throws CheckError. Out-of-line so the cold
/// failure path never bloats a checked hot loop.
[[noreturn]] void check_fail(const char* expr, const char* file, int line,
                             const std::string& msg);

/// Throws CheckError("validation failed: <msg>"), or with " at row <row>"
/// appended for enforce_row. Out-of-line and cold, so the text of a check is
/// only ever built on the path that throws.
[[noreturn, gnu::cold]] void enforce_fail(const char* msg);
[[noreturn, gnu::cold]] void enforce_row_fail(const char* what, long long row);

/// Always-on building block for the validators: throws CheckError when the
/// condition is false. Unlike BFC_CHECK this never compiles out — the
/// validators themselves must fire in every lane; only their call sites on
/// hot paths are gated. Inside a loop, pass a literal (or use enforce_row):
/// a computed std::string message is built on every call, passing or not.
inline void enforce(bool cond, const char* msg) {
  if (!cond) [[unlikely]] enforce_fail(msg);
}
inline void enforce(bool cond, const std::string& msg) {
  if (!cond) [[unlikely]] enforce_fail(msg.c_str());
}

/// enforce(cond, "<what> at row <row>") with the row number formatted only
/// when the check fails: the per-entry form the structural validators use.
inline void enforce_row(bool cond, const char* what, long long row) {
  if (!cond) [[unlikely]] enforce_row_fail(what, row);
}

}  // namespace bfc::chk

#if defined(BFC_CHECKED_ENABLED) && BFC_CHECKED_ENABLED
#define BFC_CHECK(cond)                                              \
  do {                                                               \
    if (!(cond))                                                     \
      ::bfc::chk::check_fail(#cond, __FILE__, __LINE__, {});         \
  } while (0)
#define BFC_CHECK_MSG(cond, msg)                                     \
  do {                                                               \
    if (!(cond))                                                     \
      ::bfc::chk::check_fail(#cond, __FILE__, __LINE__, (msg));      \
  } while (0)
#else
// Compiled out entirely: the condition is not evaluated, so a BFC_CHECK may
// guard arbitrarily expensive expressions without release-build cost.
#define BFC_CHECK(cond) static_cast<void>(0)
#define BFC_CHECK_MSG(cond, msg) static_cast<void>(0)
#endif
