// Common fixed-width types and small helpers shared by every bfc module.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace bfc {

/// Vertex / row / column index. 32-bit: the paper's graphs (and anything this
/// library targets) stay well under 2^31 vertices per side.
using vidx_t = std::int32_t;

/// Offset into a nonzero array. 64-bit so nnz can exceed 2^31.
using offset_t = std::int64_t;

/// Butterfly / wedge counts. Counts grow as O(nnz^2) in the worst case, so
/// they always live in 64 bits (the paper's GitHub graph already has 5e7
/// butterflies at only 4.4e5 edges).
using count_t = std::int64_t;

/// Exact n-choose-2 without overflow for any non-negative 64-bit n whose
/// result fits in count_t.
[[nodiscard]] constexpr count_t choose2(count_t n) noexcept {
  return n <= 1 ? 0 : (n % 2 == 0 ? (n / 2) * (n - 1) : n * ((n - 1) / 2));
}

/// Throws std::invalid_argument(msg). Out-of-line and cold, so a passing
/// require() costs one branch and never touches its message.
[[noreturn, gnu::cold]] void require_fail(const char* msg);

/// Throwing check used at API boundaries (argument validation), as opposed to
/// assert() which guards internal invariants. Prefer a literal message on hot
/// paths: a computed std::string is built on every call, passing or not.
inline void require(bool cond, const char* msg) {
  if (!cond) [[unlikely]] require_fail(msg);
}
inline void require(bool cond, const std::string& msg) {
  if (!cond) [[unlikely]] require_fail(msg.c_str());
}

}  // namespace bfc
