#include <gtest/gtest.h>

#include "dense/dense_matrix.hpp"
#include "dense/spec.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "test_helpers.hpp"

namespace bfc::sparse {
namespace {

using dense::DenseMatrix;

TEST(CsrPattern, EmptyMatrix) {
  const CsrPattern m = CsrPattern::empty(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_TRUE(m.row(1).empty());
}

TEST(CsrPattern, ValidationRejectsBadArrays) {
  // row_ptr wrong length
  EXPECT_THROW(CsrPattern(2, 2, {0, 1}, {0}), std::invalid_argument);
  // row_ptr not starting at 0
  EXPECT_THROW(CsrPattern(1, 2, {1, 1}, {}), std::invalid_argument);
  // back != nnz
  EXPECT_THROW(CsrPattern(1, 2, {0, 2}, {0}), std::invalid_argument);
  // column out of range
  EXPECT_THROW(CsrPattern(1, 2, {0, 1}, {2}), std::invalid_argument);
  // unsorted row
  EXPECT_THROW(CsrPattern(1, 3, {0, 2}, {2, 0}), std::invalid_argument);
  // duplicate within a row
  EXPECT_THROW(CsrPattern(1, 3, {0, 2}, {1, 1}), std::invalid_argument);
  // non-monotone row_ptr
  EXPECT_THROW(CsrPattern(2, 3, {0, 2, 1}, {0, 1}), std::invalid_argument);
}

TEST(CsrPattern, DenseRoundTrip) {
  const DenseMatrix d = bfc::testing::random_dense01(9, 6, 0.35, 42);
  const CsrPattern m = CsrPattern::from_dense(d);
  EXPECT_EQ(m.to_dense(), d);
  EXPECT_EQ(m.nnz(), d.sum());
}

TEST(CsrPattern, HasMembership) {
  const DenseMatrix d = {{0, 1, 0}, {1, 0, 1}};
  const CsrPattern m = CsrPattern::from_dense(d);
  EXPECT_TRUE(m.has(0, 1));
  EXPECT_FALSE(m.has(0, 0));
  EXPECT_TRUE(m.has(1, 2));
  EXPECT_FALSE(m.has(1, 1));
}

TEST(CsrPattern, TransposeMatchesDense) {
  const DenseMatrix d = bfc::testing::random_dense01(7, 11, 0.3, 5);
  const CsrPattern m = CsrPattern::from_dense(d);
  EXPECT_EQ(m.transpose().to_dense(), d.transpose());
  EXPECT_EQ(m.transpose().transpose(), m);
}

TEST(CsrPattern, RowSpansSortedUnique) {
  const CsrPattern m =
      CsrPattern::from_dense(bfc::testing::random_dense01(6, 6, 0.5, 8));
  for (vidx_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    for (std::size_t i = 1; i < row.size(); ++i)
      EXPECT_LT(row[i - 1], row[i]);
  }
}

TEST(CooBuilder, DeduplicatesAndSorts) {
  CooBuilder b(3, 3);
  b.add(2, 1);
  b.add(0, 2);
  b.add(2, 1);  // duplicate
  b.add(0, 0);
  const CsrPattern m = b.build();
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_TRUE(m.has(2, 1));
  EXPECT_TRUE(m.has(0, 0));
  EXPECT_TRUE(m.has(0, 2));
}

TEST(CooBuilder, RangeChecked) {
  CooBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0), std::invalid_argument);
  EXPECT_THROW(b.add(0, -1), std::invalid_argument);
}

TEST(CooBuilder, RangeErrorsKeepTheirText) {
  CooBuilder b(2, 2);
  const auto text = [&](vidx_t r, vidx_t c) -> std::string {
    try {
      b.add(r, c);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  EXPECT_EQ(text(2, 0), "CooBuilder::add: row out of range");
  EXPECT_EQ(text(0, -1), "CooBuilder::add: column out of range");
}

TEST(Ops, Degrees) {
  const DenseMatrix d = {{1, 1, 0}, {0, 0, 0}, {1, 0, 1}};
  const CsrPattern m = CsrPattern::from_dense(d);
  EXPECT_EQ(row_degrees(m), (std::vector<offset_t>{2, 0, 2}));
  EXPECT_EQ(col_degrees(m), (std::vector<offset_t>{2, 1, 1}));
  EXPECT_EQ(empty_row_count(m), 1);
}

TEST(Ops, SpmvBothDirections) {
  const DenseMatrix d = {{1, 0, 1}, {0, 1, 1}};
  const CsrPattern m = CsrPattern::from_dense(d);
  const std::vector<count_t> x{1, 2, 3};
  EXPECT_EQ(spmv(m, x), (std::vector<count_t>{4, 5}));
  const std::vector<count_t> y{10, 1};
  EXPECT_EQ(spmv_transpose(m, y), (std::vector<count_t>{10, 1, 11}));
  EXPECT_THROW(spmv(m, y), std::invalid_argument);
  EXPECT_THROW(spmv_transpose(m, x), std::invalid_argument);
}

TEST(Ops, IntersectionSize) {
  const std::vector<vidx_t> a{1, 3, 5, 7};
  const std::vector<vidx_t> b{3, 4, 5, 9};
  EXPECT_EQ(intersection_size(a, b), 2);
  EXPECT_EQ(intersection_size(a, a), 4);
  EXPECT_EQ(intersection_size(a, std::vector<vidx_t>{}), 0);
}

TEST(Ops, MaskRowsColsEntries) {
  const DenseMatrix d = {{1, 1}, {1, 1}, {1, 0}};
  const CsrPattern m = CsrPattern::from_dense(d);

  const std::vector<std::uint8_t> row_mask{1, 0, 1};
  const CsrPattern rm = mask_rows(m, row_mask);
  EXPECT_EQ(rm.rows(), 3);  // dimensions preserved
  EXPECT_EQ(rm.nnz(), 3);
  EXPECT_TRUE(rm.row(1).empty());

  const std::vector<std::uint8_t> col_mask{0, 1};
  const CsrPattern cm = mask_cols(m, col_mask);
  EXPECT_EQ(cm.nnz(), 2);
  EXPECT_FALSE(cm.has(0, 0));
  EXPECT_TRUE(cm.has(0, 1));

  const std::vector<std::uint8_t> entry_mask{1, 0, 0, 1, 1};
  const CsrPattern em = mask_entries(m, entry_mask);
  EXPECT_EQ(em.nnz(), 3);
  EXPECT_TRUE(em.has(0, 0));
  EXPECT_FALSE(em.has(0, 1));
  EXPECT_TRUE(em.has(1, 1));

  EXPECT_THROW(mask_rows(m, col_mask), std::invalid_argument);
  EXPECT_THROW(mask_entries(m, row_mask), std::invalid_argument);
}

TEST(Ops, EdgesListsCsrOrder) {
  const DenseMatrix d = {{0, 1}, {1, 1}};
  const auto e = edges(CsrPattern::from_dense(d));
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0], (std::pair<vidx_t, vidx_t>{0, 1}));
  EXPECT_EQ(e[1], (std::pair<vidx_t, vidx_t>{1, 0}));
  EXPECT_EQ(e[2], (std::pair<vidx_t, vidx_t>{1, 1}));
}

class SpgemmRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpgemmRandom, MatchesDenseProduct) {
  const auto seed = GetParam();
  const DenseMatrix da = bfc::testing::random_dense01(6, 8, 0.4, seed);
  const DenseMatrix db = bfc::testing::random_dense01(8, 5, 0.4, seed + 7);
  const CsrCounts c =
      spgemm(CsrPattern::from_dense(da), CsrPattern::from_dense(db));
  EXPECT_EQ(c.to_dense(), multiply(da, db));
}

TEST_P(SpgemmRandom, GramMatchesDense) {
  const auto seed = GetParam();
  const DenseMatrix da = bfc::testing::random_dense01(7, 9, 0.35, seed);
  const CsrPattern a = CsrPattern::from_dense(da);
  const CsrCounts b = gram(a, a.transpose());
  EXPECT_EQ(b.to_dense(), multiply(da, da.transpose()));
}

TEST_P(SpgemmRandom, PairwiseButterfliesMatchesSpec) {
  const auto seed = GetParam();
  const DenseMatrix da = bfc::testing::random_dense01(10, 8, 0.45, seed);
  const CsrPattern a = CsrPattern::from_dense(da);
  EXPECT_EQ(gram_pairwise_butterflies(a, a.transpose()),
            dense::butterflies_spec(da));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpgemmRandom,
                         ::testing::Values(1u, 2u, 3u, 10u, 20u, 31337u));

TEST(Spgemm, DimensionMismatchThrows) {
  EXPECT_THROW(spgemm(CsrPattern::empty(2, 3), CsrPattern::empty(2, 3)),
               std::invalid_argument);
  const CsrPattern a = CsrPattern::empty(2, 3);
  EXPECT_THROW(gram(a, CsrPattern::empty(2, 3)), std::invalid_argument);
}

TEST(Spgemm, EmptyOperands) {
  const CsrCounts c = spgemm(CsrPattern::empty(0, 4), CsrPattern::empty(4, 0));
  EXPECT_EQ(c.rows, 0);
  EXPECT_EQ(c.cols, 0);
  EXPECT_EQ(c.nnz(), 0);
}

}  // namespace
}  // namespace bfc::sparse
