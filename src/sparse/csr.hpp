// Compressed sparse row storage for 0/1 pattern matrices (biadjacency
// matrices are binary, so no value array is stored). A CSC view of a matrix
// A is simply the CsrPattern of Aᵀ; graph::BipartiteGraph keeps both
// orientations because the paper's invariants 1-4 want CSC and 5-8 want CSR
// (§V of the paper).
#pragma once

#include <span>
#include <vector>

#include "util/common.hpp"

namespace bfc::dense {
class DenseMatrix;
}

namespace bfc::count {
class DynamicButterflyCounter;
}

namespace bfc::sparse {

class CsrPattern {
 public:
  CsrPattern() = default;

  /// Takes ownership of prebuilt arrays; validates shape (monotone row_ptr,
  /// in-range sorted unique column indices).
  CsrPattern(vidx_t rows, vidx_t cols, std::vector<offset_t> row_ptr,
             std::vector<vidx_t> col_idx);

  /// Empty (all-zero) matrix of the given shape.
  static CsrPattern empty(vidx_t rows, vidx_t cols);

  /// Dense 0/1 matrix -> pattern (nonzero entries become edges).
  static CsrPattern from_dense(const dense::DenseMatrix& d);

  [[nodiscard]] dense::DenseMatrix to_dense() const;

  [[nodiscard]] vidx_t rows() const noexcept { return rows_; }
  [[nodiscard]] vidx_t cols() const noexcept { return cols_; }
  [[nodiscard]] offset_t nnz() const noexcept {
    return row_ptr_.empty() ? 0 : row_ptr_.back();
  }

  /// Column indices of row r, sorted ascending.
  [[nodiscard]] std::span<const vidx_t> row(vidx_t r) const {
    assert(r >= 0 && r < rows_);
    const auto lo = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r)]);
    const auto hi =
        static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r) + 1]);
    return {col_idx_.data() + lo, hi - lo};
  }

  [[nodiscard]] offset_t row_degree(vidx_t r) const {
    return row_ptr_[static_cast<std::size_t>(r) + 1] -
           row_ptr_[static_cast<std::size_t>(r)];
  }

  /// Membership test by binary search within the row: O(log deg).
  [[nodiscard]] bool has(vidx_t r, vidx_t c) const;

  [[nodiscard]] const std::vector<offset_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<vidx_t>& col_idx() const noexcept {
    return col_idx_;
  }

  /// Aᵀ in CSR form (i.e. the CSC arrays of A). Counting-sort based, O(nnz).
  [[nodiscard]] CsrPattern transpose() const;

  bool operator==(const CsrPattern& other) const = default;

 private:
  // The counter's snapshots check every row as the counter writes it and
  // copy the rest from an earlier, already checked pattern.
  friend class count::DynamicButterflyCounter;

  /// Takes ownership of arrays the caller has already checked; no
  /// validation.
  static CsrPattern trusted(vidx_t rows, vidx_t cols,
                            std::vector<offset_t> row_ptr,
                            std::vector<vidx_t> col_idx);

  vidx_t rows_ = 0;
  vidx_t cols_ = 0;
  std::vector<offset_t> row_ptr_{0};
  std::vector<vidx_t> col_idx_;
};

/// Sparse matrix with integer values sharing the CSR index structure; the
/// SpGEMM kernels produce these (wedge-count matrices B = AAᵀ).
struct CsrCounts {
  vidx_t rows = 0;
  vidx_t cols = 0;
  std::vector<offset_t> row_ptr{0};
  std::vector<vidx_t> col_idx;
  std::vector<count_t> values;

  [[nodiscard]] offset_t nnz() const noexcept {
    return row_ptr.empty() ? 0 : row_ptr.back();
  }
  [[nodiscard]] dense::DenseMatrix to_dense() const;
};

}  // namespace bfc::sparse
