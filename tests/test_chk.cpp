// Corruption-injection tests for the checked-build subsystem (src/chk/).
// Each test hands a validator a deliberately broken object — unsorted CSR
// row, out-of-bounds column, broken CSC mirror, drifted snapshot counts,
// epoch regression — and asserts the corresponding check fires with
// chk::CheckError. The validators are always compiled, so these run in
// every build lane; only the overflow tests need BFC_CHECKED=ON (the
// checked helpers collapse to plain arithmetic otherwise) and skip when
// the checks are compiled out.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "chk/check.hpp"
#include "chk/checked_math.hpp"
#include "chk/validate.hpp"
#include "count/baselines.hpp"
#include "count/dynamic.hpp"
#include "gen/generators.hpp"
#include "graph/bipartite_graph.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "svc/snapshot.hpp"

namespace bfc {
namespace {

constexpr count_t kMax = std::numeric_limits<count_t>::max();
constexpr count_t kMin = std::numeric_limits<count_t>::min();

// --- raw CSR array checks ---------------------------------------------

struct RawCsr {
  vidx_t rows = 3;
  vidx_t cols = 4;
  std::vector<offset_t> row_ptr{0, 2, 2, 4};
  std::vector<vidx_t> col_idx{0, 3, 1, 2};
};

void validate_raw(const RawCsr& r) {
  chk::validate_csr_arrays(r.rows, r.cols, r.row_ptr, r.col_idx);
}

TEST(ChkCsrArrays, AcceptsWellFormed) {
  EXPECT_NO_THROW(validate_raw(RawCsr{}));
  EXPECT_NO_THROW(chk::validate_csr_arrays(0, 0, std::vector<offset_t>{0},
                                           std::vector<vidx_t>{}));
}

TEST(ChkCsrArrays, FiresOnWrongRowPtrLength) {
  RawCsr r;
  r.row_ptr = {0, 2, 4};  // rows+1 == 4 expected
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnNonzeroFront) {
  RawCsr r;
  r.row_ptr = {1, 2, 2, 4};
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnNonMonotoneRowPtr) {
  RawCsr r;
  r.row_ptr = {0, 3, 2, 4};
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnNnzMismatch) {
  RawCsr r;
  r.row_ptr = {0, 2, 2, 3};  // back() != col_idx.size()
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnUnsortedRow) {
  RawCsr r;
  r.col_idx = {3, 0, 1, 2};  // row 0 descending
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnDuplicateColumn) {
  RawCsr r;
  r.col_idx = {0, 0, 1, 2};
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnOutOfRangeColumn) {
  RawCsr r;
  r.col_idx = {0, 4, 1, 2};  // cols == 4, so 4 is out of range
  EXPECT_THROW(validate_raw(r), chk::CheckError);
  r.col_idx = {-1, 3, 1, 2};
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

// The CsrPattern constructor routes through the same core, so corrupt
// arrays can never become a live pattern (and the thrown CheckError still
// IS-A std::invalid_argument for the pre-existing API-boundary tests).
TEST(ChkCsrArrays, ConstructorRejectsCorruptArrays) {
  EXPECT_THROW(sparse::CsrPattern(2, 3, {0, 2, 2}, {1, 0}), chk::CheckError);
  EXPECT_THROW(sparse::CsrPattern(2, 3, {0, 2, 2}, {1, 0}),
               std::invalid_argument);
}

// --- pattern / counts / builder / mirror ------------------------------

TEST(ChkValidate, AcceptsPatternCountsAndBuilder) {
  const sparse::CsrPattern p(3, 4, {0, 2, 2, 4}, {0, 3, 1, 2});
  EXPECT_NO_THROW(chk::validate(p));

  sparse::CsrCounts c;
  c.rows = 2;
  c.cols = 2;
  c.row_ptr = {0, 1, 2};
  c.col_idx = {1, 0};
  c.values = {7, 9};
  EXPECT_NO_THROW(chk::validate(c));

  sparse::CooBuilder b(2, 2);
  b.add(0, 1);
  b.add(1, 0);
  EXPECT_NO_THROW(chk::validate(b));
}

TEST(ChkValidate, FiresOnCountsValueSizeDrift) {
  sparse::CsrCounts c;
  c.rows = 2;
  c.cols = 2;
  c.row_ptr = {0, 1, 2};
  c.col_idx = {1, 0};
  c.values = {7};  // nnz == 2 but only one value
  EXPECT_THROW(chk::validate(c), chk::CheckError);
}

TEST(ChkMirror, AcceptsTrueTranspose) {
  const sparse::CsrPattern a(2, 3, {0, 2, 3}, {0, 2, 1});
  EXPECT_NO_THROW(chk::validate_mirror(a, a.transpose()));
}

TEST(ChkMirror, FiresOnShapeMismatch) {
  const sparse::CsrPattern a(2, 3, {0, 2, 3}, {0, 2, 1});
  const sparse::CsrPattern not_swapped(2, 3, {0, 2, 3}, {0, 2, 1});
  EXPECT_THROW(chk::validate_mirror(a, not_swapped), chk::CheckError);
}

TEST(ChkMirror, FiresOnBrokenMirror) {
  // Same shape and nnz as the true transpose, but the identity pattern is
  // not the mirror of the anti-diagonal one.
  const sparse::CsrPattern a(2, 2, {0, 1, 2}, {1, 0});
  const sparse::CsrPattern wrong(2, 2, {0, 1, 2}, {0, 1});
  EXPECT_THROW(chk::validate_mirror(a, wrong), chk::CheckError);
}

TEST(ChkGraph, AcceptsGeneratedGraphs) {
  EXPECT_NO_THROW(chk::validate(gen::erdos_renyi(20, 30, 0.2, 7)));
  EXPECT_NO_THROW(chk::validate(
      graph::BipartiteGraph(sparse::CsrPattern::empty(5, 9))));
}

// --- dynamic counter and serving snapshots ----------------------------

count::DynamicButterflyCounter make_counter() {
  count::DynamicButterflyCounter c(3, 3);
  c.insert(0, 0);
  c.insert(0, 1);
  c.insert(1, 0);
  c.insert(1, 1);  // completes one butterfly
  c.insert(2, 2);
  return c;
}

TEST(ChkDynamic, AcceptsConsistentCounter) {
  const auto c = make_counter();
  ASSERT_EQ(c.butterflies(), 1);
  EXPECT_NO_THROW(chk::validate(c));
}

svc::GraphSnapshot make_snapshot() {
  const auto c = make_counter();
  svc::GraphSnapshot s;
  s.epoch = 5;
  s.graph = c.to_graph();
  s.butterflies = c.butterflies();
  s.edges = c.edge_count();
  s.tips_v1 = c.tips_v1();
  s.tips_v2 = c.tips_v2();
  s.top_pairs = c.top_pairs();
  return s;
}

TEST(ChkSnapshot, AcceptsConsistentSnapshot) {
  EXPECT_NO_THROW(chk::validate(make_snapshot()));
}

TEST(ChkSnapshot, FiresOnButterflyCountDrift) {
  auto s = make_snapshot();
  s.butterflies += 3;  // incremental total no longer matches a recount
  EXPECT_THROW(chk::validate(s), chk::CheckError);
}

TEST(ChkSnapshot, FiresOnEdgeCountDrift) {
  auto s = make_snapshot();
  s.edges -= 1;
  EXPECT_THROW(chk::validate(s), chk::CheckError);
}

TEST(ChkSnapshot, FiresOnTipDrift) {
  auto s = make_snapshot();
  ASSERT_EQ(s.tips_v1[0], 1);
  s.tips_v1[0] += 1;  // one maintained tip off by one
  EXPECT_THROW(chk::validate(s), chk::CheckError);
  s = make_snapshot();
  s.tips_v2.pop_back();  // a vector of the wrong length
  EXPECT_THROW(chk::validate(s), chk::CheckError);
}

TEST(ChkSnapshot, FiresOnTopBufferDrift) {
  auto s = make_snapshot();
  // (0, 1) is the one connected pair; the 0-wedge floor says so.
  ASSERT_EQ(s.top_pairs.pairs, std::vector<count::VertexPair>({{0, 1, 2}}));
  ASSERT_EQ(s.top_pairs.floor.wedges, 0);
  s.top_pairs.pairs[0].wedges += 1;  // a buffered count off by one
  EXPECT_THROW(chk::validate(s), chk::CheckError);
  s = make_snapshot();
  // The floor still ranks below (0, 1), which is no longer buffered. The
  // buffer still certifies every k (it claims to hold every pair), so only
  // the floor check can fire.
  s.top_pairs.pairs.clear();
  ASSERT_TRUE(s.top_pairs.certified(count::TopPairBuffer::kCapacity));
  EXPECT_THROW(chk::validate(s), chk::CheckError);
}

TEST(ChkSnapshot, EpochMustAdvanceByOne) {
  const auto prev = make_snapshot();
  auto next = make_snapshot();
  next.epoch = prev.epoch + 1;
  EXPECT_NO_THROW(chk::validate_epoch_transition(prev, next));
  next.epoch = prev.epoch;  // stalled
  EXPECT_THROW(chk::validate_epoch_transition(prev, next), chk::CheckError);
  next.epoch = prev.epoch + 2;  // skipped
  EXPECT_THROW(chk::validate_epoch_transition(prev, next), chk::CheckError);
}

// --- failing checks say where ----------------------------------------
// The validators format the row number only when a check fails; these pin
// the text that reaches the caller.

/// The what() of the CheckError `f` throws ("" and a test failure if none).
template <typename F>
std::string check_error_text(F&& f) {
  try {
    f();
  } catch (const chk::CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no CheckError thrown";
  return "";
}

TEST(ChkMessages, CsrArrayErrorsNameTheRow) {
  RawCsr r;
  r.col_idx = {0, 3, 2, 1};  // row 2 descending
  EXPECT_EQ(check_error_text([&] { validate_raw(r); }),
            "validation failed: csr: row not sorted/unique at row 2");
  r.col_idx = {0, 3, 1, 4};  // cols == 4
  EXPECT_EQ(check_error_text([&] { validate_raw(r); }),
            "validation failed: csr: column index out of range at row 2");
}

TEST(ChkMessages, MirrorErrorNamesTheRowOfTheMissingEdge) {
  // A holds (1, 1) and (2, 0); the "transpose" has (0, 2) but not (1, 1).
  const sparse::CsrPattern a(3, 2, {0, 0, 1, 2}, {1, 0});
  const sparse::CsrPattern wrong(2, 3, {0, 1, 2}, {2, 2});
  EXPECT_EQ(check_error_text([&] { chk::validate_mirror(a, wrong); }),
            "validation failed: mirror: edge missing from transpose at row 1");
}

TEST(ChkMessages, DynamicCounterErrorNamesTheCorruptRow) {
  auto c = make_counter();
  // V1 vertex 1 holds {0, 1}; swap it through the span's storage (the
  // counter is not const, so the write is defined).
  auto* row = const_cast<vidx_t*>(c.neighbors_v1(1).data());
  std::swap(row[0], row[1]);
  EXPECT_EQ(check_error_text([&] { chk::validate(c); }),
            "validation failed: dynamic counter: adjacency not sorted/unique "
            "at row 1");
}

// --- overflow-checked arithmetic --------------------------------------

TEST(ChkMath, AgreesWithPlainArithmeticInRange) {
  EXPECT_EQ(chk::checked_add(40, 2), 42);
  EXPECT_EQ(chk::checked_sub(40, 2), 38);
  EXPECT_EQ(chk::checked_mul(6, 7), 42);
  for (count_t n = 0; n < 20; ++n)
    EXPECT_EQ(chk::checked_choose2(n), choose2(n)) << n;
}

TEST(ChkMath, FiresOnOverflow) {
  if constexpr (!chk::kCheckedEnabled)
    GTEST_SKIP() << "BFC_CHECKED=OFF: checked helpers are plain arithmetic";
  EXPECT_THROW(chk::checked_add(kMax, 1), chk::CheckError);
  EXPECT_THROW(chk::checked_add(kMin, -1), chk::CheckError);
  EXPECT_THROW(chk::checked_sub(kMin, 1), chk::CheckError);
  EXPECT_THROW(chk::checked_mul(kMax / 2 + 1, 2), chk::CheckError);
  // choose2(2^33) ≈ 2^65 overflows; the accumulator path must trap, not
  // silently wrap negative.
  EXPECT_THROW(chk::checked_choose2(count_t{1} << 33), chk::CheckError);
}

TEST(ChkMath, NearLimitValuesSurvive) {
  EXPECT_EQ(chk::checked_add(kMax - 1, 1), kMax);
  EXPECT_EQ(chk::checked_sub(kMin + 1, 1), kMin);
  EXPECT_EQ(chk::checked_mul(kMax, 1), kMax);
}

// --- BFC_CHECK macro semantics ----------------------------------------

TEST(ChkMacro, CheckFiresExactlyWhenCompiledIn) {
  int evaluations = 0;
  const auto falsy = [&] {
    ++evaluations;
    return false;
  };
  static_cast<void>(falsy);  // odr-unused when the macros compile out
  if constexpr (chk::kCheckedEnabled) {
    EXPECT_THROW(BFC_CHECK(falsy()), chk::CheckError);
    EXPECT_THROW(BFC_CHECK_MSG(falsy(), "context"), chk::CheckError);
    EXPECT_NO_THROW(BFC_CHECK(1 + 1 == 2));
    EXPECT_EQ(evaluations, 2);
  } else {
    // Compiled out: the condition must not even be evaluated.
    BFC_CHECK(falsy());
    BFC_CHECK_MSG(falsy(), "context");
    EXPECT_EQ(evaluations, 0);
  }
}

TEST(ChkMacro, CheckFailMessageCarriesLocation) {
  try {
    chk::check_fail("x == y", "some_file.cpp", 42, "context");
    FAIL() << "check_fail must throw";
  } catch (const chk::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("some_file.cpp:42"), std::string::npos) << what;
    EXPECT_NE(what.find("x == y"), std::string::npos) << what;
    EXPECT_NE(what.find("context"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace bfc
