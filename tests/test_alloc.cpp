// Passing checks allocate nothing. require() and chk::enforce() take literal
// messages on hot paths and the validators format row numbers only when a
// check fails (chk::enforce_row); the eager-message analyzer rule sees
// computed messages, but not a call that quietly picks the std::string
// overload again. A counting global operator new brackets each measured
// loop, and since it counts every allocation in the process, it lives in
// this executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "chk/validate.hpp"
#include "count/dynamic.hpp"
#include "sparse/coo.hpp"

namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bfc {
namespace {

/// Heap allocations made while `f` runs.
template <typename F>
long long allocations_during(F&& f) {
  const long long before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

struct Arrays {
  vidx_t rows = 200;
  vidx_t cols = 128;
  std::vector<offset_t> row_ptr{0};
  std::vector<vidx_t> col_idx;
};

/// 200 rows of 64 sorted columns each: 12,800 entries.
Arrays valid_arrays() {
  Arrays a;
  for (vidx_t r = 0; r < a.rows; ++r) {
    for (vidx_t c = r % 2; c < a.cols; c += 2) a.col_idx.push_back(c);
    a.row_ptr.push_back(static_cast<offset_t>(a.col_idx.size()));
  }
  return a;
}

void validate(const Arrays& a) {
  chk::validate_csr_arrays(a.rows, a.cols, a.row_ptr, a.col_idx);
}

TEST(PassingChecksAllocateNothing, ValidateCsrArrays) {
  const Arrays a = valid_arrays();
  ASSERT_GE(a.col_idx.size(), 10000u);
  validate(a);  // the first call registers the chk.validations counter
  EXPECT_EQ(allocations_during([&] { validate(a); }), 0);
}

TEST(PassingChecksAllocateNothing, FailingCheckIsCounted) {
  // The control: the counter does see the text a failing check builds.
  Arrays a = valid_arrays();
  std::swap(a.col_idx[5000], a.col_idx[5001]);
  EXPECT_GT(allocations_during([&] {
              try {
                validate(a);
              } catch (const chk::CheckError&) {
              }
            }),
            0);
}

TEST(PassingChecksAllocateNothing, CooBuilderAddAfterReserve) {
  sparse::CooBuilder b(100, 100);
  b.reserve(10000);
  EXPECT_EQ(allocations_during([&] {
              for (vidx_t i = 0; i < 10000; ++i) b.add(i % 100, i * 7 % 100);
            }),
            0);
  EXPECT_EQ(b.size(), 10000u);
}

TEST(PassingChecksAllocateNothing, DynamicCounterHasEdge) {
  count::DynamicButterflyCounter c(100, 100);
  for (vidx_t i = 0; i < 1000; ++i) c.insert(i % 100, i * 13 % 100);
  long long hits = 0;
  EXPECT_EQ(allocations_during([&] {
              for (vidx_t i = 0; i < 10000; ++i)
                hits += c.has_edge(i % 100, i * 13 % 100) ? 1 : 0;
            }),
            0);
  EXPECT_EQ(hits, 10000);
}

}  // namespace
}  // namespace bfc
