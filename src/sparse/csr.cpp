#include "sparse/csr.hpp"

#include <algorithm>

#include "chk/validate.hpp"
#include "dense/dense_matrix.hpp"

namespace bfc::sparse {

CsrPattern::CsrPattern(vidx_t rows, vidx_t cols,
                       std::vector<offset_t> row_ptr,
                       std::vector<vidx_t> col_idx)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)) {
  // Construction is an API boundary, so the shape check stays unconditional
  // (chk::CheckError derives from std::invalid_argument); the checked build
  // re-runs the same validator on objects mid-flight via BFC_VALIDATE.
  chk::validate_csr_arrays(rows_, cols_, row_ptr_, col_idx_);
}

CsrPattern CsrPattern::trusted(vidx_t rows, vidx_t cols,
                               std::vector<offset_t> row_ptr,
                               std::vector<vidx_t> col_idx) {
  CsrPattern p;
  p.rows_ = rows;
  p.cols_ = cols;
  p.row_ptr_ = std::move(row_ptr);
  p.col_idx_ = std::move(col_idx);
  return p;
}

CsrPattern CsrPattern::empty(vidx_t rows, vidx_t cols) {
  return CsrPattern(rows, cols,
                    std::vector<offset_t>(static_cast<std::size_t>(rows) + 1, 0),
                    {});
}

CsrPattern CsrPattern::from_dense(const dense::DenseMatrix& d) {
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(d.rows()) + 1, 0);
  std::vector<vidx_t> col_idx;
  for (vidx_t r = 0; r < d.rows(); ++r) {
    for (vidx_t c = 0; c < d.cols(); ++c)
      if (d(r, c) != 0) col_idx.push_back(c);
    row_ptr[static_cast<std::size_t>(r) + 1] =
        static_cast<offset_t>(col_idx.size());
  }
  return CsrPattern(d.rows(), d.cols(), std::move(row_ptr),
                    std::move(col_idx));
}

dense::DenseMatrix CsrPattern::to_dense() const {
  dense::DenseMatrix d(rows_, cols_);
  for (vidx_t r = 0; r < rows_; ++r)
    for (const vidx_t c : row(r)) d(r, c) = 1;
  return d;
}

bool CsrPattern::has(vidx_t r, vidx_t c) const {
  const auto cols = row(r);
  return std::binary_search(cols.begin(), cols.end(), c);
}

CsrPattern CsrPattern::transpose() const {
  std::vector<offset_t> t_ptr(static_cast<std::size_t>(cols_) + 1, 0);
  for (const vidx_t c : col_idx_) ++t_ptr[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < static_cast<std::size_t>(cols_); ++c)
    t_ptr[c + 1] += t_ptr[c];

  std::vector<vidx_t> t_idx(col_idx_.size());
  std::vector<offset_t> cursor(t_ptr.begin(), t_ptr.end() - 1);
  // Rows are visited in ascending order, so each transposed row comes out
  // sorted without a final sort pass.
  for (vidx_t r = 0; r < rows_; ++r)
    for (const vidx_t c : row(r))
      t_idx[static_cast<std::size_t>(cursor[static_cast<std::size_t>(c)]++)] = r;

  return CsrPattern(cols_, rows_, std::move(t_ptr), std::move(t_idx));
}

dense::DenseMatrix CsrCounts::to_dense() const {
  dense::DenseMatrix d(rows, cols);
  for (vidx_t r = 0; r < rows; ++r) {
    for (offset_t k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      d(r, col_idx[static_cast<std::size_t>(k)]) =
          values[static_cast<std::size_t>(k)];
    }
  }
  return d;
}

}  // namespace bfc::sparse
