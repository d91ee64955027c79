#include "chk/checked_math.hpp"
#include "gb/matrix.hpp"

#include <algorithm>

namespace bfc::gb {
namespace {

/// Values of row r as (index span, value span) helpers.
struct RowView {
  const vidx_t* idx;
  const count_t* val;
  std::size_t len;
};

RowView row_view(const sparse::CsrCounts& a, vidx_t r) {
  const auto lo = static_cast<std::size_t>(a.row_ptr[static_cast<std::size_t>(r)]);
  const auto hi =
      static_cast<std::size_t>(a.row_ptr[static_cast<std::size_t>(r) + 1]);
  return {a.col_idx.data() + lo, a.values.data() + lo, hi - lo};
}

}  // namespace

sparse::CsrCounts from_pattern(const sparse::CsrPattern& p) {
  sparse::CsrCounts c;
  c.rows = p.rows();
  c.cols = p.cols();
  c.row_ptr = p.row_ptr();
  c.col_idx = p.col_idx();
  c.values.assign(c.col_idx.size(), 1);
  return c;
}

sparse::CsrCounts mxm(const sparse::CsrCounts& a, const sparse::CsrCounts& b) {
  require(a.cols == b.rows, "gb::mxm: inner dimension mismatch");
  sparse::CsrCounts c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.row_ptr.assign(static_cast<std::size_t>(a.rows) + 1, 0);

  std::vector<count_t> acc(static_cast<std::size_t>(b.cols), 0);
  std::vector<vidx_t> touched;
  for (vidx_t i = 0; i < a.rows; ++i) {
    touched.clear();
    const RowView ra = row_view(a, i);
    for (std::size_t ka = 0; ka < ra.len; ++ka) {
      const vidx_t k = ra.idx[ka];
      const count_t aik = ra.val[ka];
      const RowView rb = row_view(b, k);
      for (std::size_t kb = 0; kb < rb.len; ++kb) {
        const vidx_t j = rb.idx[kb];
        // bfc-analyze: wedge-loop-ok paper-faithful GraphBLAS mxm over values
        if (acc[static_cast<std::size_t>(j)] == 0) touched.push_back(j);
        acc[static_cast<std::size_t>(j)] = chk::checked_add(
            acc[static_cast<std::size_t>(j)],
            chk::checked_mul(aik, rb.val[kb]));
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const vidx_t j : touched) {
      // Cancellation can produce explicit zeros; drop them.
      if (acc[static_cast<std::size_t>(j)] != 0) {
        c.col_idx.push_back(j);
        c.values.push_back(acc[static_cast<std::size_t>(j)]);
      }
      acc[static_cast<std::size_t>(j)] = 0;
    }
    c.row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<offset_t>(c.col_idx.size());
  }
  return c;
}

sparse::CsrCounts transpose(const sparse::CsrCounts& a) {
  sparse::CsrCounts t;
  t.rows = a.cols;
  t.cols = a.rows;
  t.row_ptr.assign(static_cast<std::size_t>(a.cols) + 1, 0);
  for (const vidx_t c : a.col_idx)
    ++t.row_ptr[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < static_cast<std::size_t>(a.cols); ++c)
    t.row_ptr[c + 1] += t.row_ptr[c];
  t.col_idx.resize(a.col_idx.size());
  t.values.resize(a.values.size());
  std::vector<offset_t> cursor(t.row_ptr.begin(), t.row_ptr.end() - 1);
  for (vidx_t r = 0; r < a.rows; ++r) {
    const RowView ra = row_view(a, r);
    for (std::size_t k = 0; k < ra.len; ++k) {
      const auto pos = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(ra.idx[k])]++);
      t.col_idx[pos] = r;
      t.values[pos] = ra.val[k];
    }
  }
  return t;
}

namespace {

template <bool Multiply>
sparse::CsrCounts ewise(const sparse::CsrCounts& a, const sparse::CsrCounts& b) {
  require(a.rows == b.rows && a.cols == b.cols,
          "gb::ewise: dimension mismatch");
  sparse::CsrCounts c;
  c.rows = a.rows;
  c.cols = a.cols;
  c.row_ptr.assign(static_cast<std::size_t>(a.rows) + 1, 0);
  for (vidx_t r = 0; r < a.rows; ++r) {
    const RowView ra = row_view(a, r);
    const RowView rb = row_view(b, r);
    std::size_t i = 0, j = 0;
    auto push = [&](vidx_t col, count_t v) {
      if (v != 0) {
        c.col_idx.push_back(col);
        c.values.push_back(v);
      }
    };
    while (i < ra.len || j < rb.len) {
      if (j >= rb.len || (i < ra.len && ra.idx[i] < rb.idx[j])) {
        if constexpr (!Multiply) push(ra.idx[i], ra.val[i]);
        ++i;
      } else if (i >= ra.len || rb.idx[j] < ra.idx[i]) {
        if constexpr (!Multiply) push(rb.idx[j], rb.val[j]);
        ++j;
      } else {
        push(ra.idx[i],
             Multiply ? ra.val[i] * rb.val[j] : ra.val[i] + rb.val[j]);
        ++i;
        ++j;
      }
    }
    c.row_ptr[static_cast<std::size_t>(r) + 1] =
        static_cast<offset_t>(c.col_idx.size());
  }
  return c;
}

}  // namespace

sparse::CsrCounts ewise_mult(const sparse::CsrCounts& a,
                             const sparse::CsrCounts& b) {
  return ewise<true>(a, b);
}

sparse::CsrCounts ewise_add(const sparse::CsrCounts& a,
                            const sparse::CsrCounts& b) {
  return ewise<false>(a, b);
}

count_t reduce(const sparse::CsrCounts& a) {
  count_t total = 0;
  for (const count_t v : a.values) total = chk::checked_add(total, v);
  return total;
}

count_t trace(const sparse::CsrCounts& a) {
  require(a.rows == a.cols, "gb::trace: matrix not square");
  count_t total = 0;
  for (vidx_t r = 0; r < a.rows; ++r) {
    const RowView row = row_view(a, r);
    const auto* it = std::lower_bound(row.idx, row.idx + row.len, r);
    if (it != row.idx + row.len && *it == r)
      total = chk::checked_add(total, row.val[it - row.idx]);
  }
  return total;
}

Vector diag(const sparse::CsrCounts& a) {
  require(a.rows == a.cols, "gb::diag: matrix not square");
  std::vector<vidx_t> idx;
  std::vector<count_t> val;
  for (vidx_t r = 0; r < a.rows; ++r) {
    const RowView row = row_view(a, r);
    const auto* it = std::lower_bound(row.idx, row.idx + row.len, r);
    if (it != row.idx + row.len && *it == r) {
      idx.push_back(r);
      val.push_back(row.val[it - row.idx]);
    }
  }
  return Vector(a.rows, std::move(idx), std::move(val));
}

Vector extract_row(const sparse::CsrCounts& a, vidx_t i) {
  require(i >= 0 && i < a.rows, "gb::extract_row: row out of range");
  const RowView row = row_view(a, i);
  return Vector(a.cols, std::vector<vidx_t>(row.idx, row.idx + row.len),
                std::vector<count_t>(row.val, row.val + row.len));
}

Vector mxv(const sparse::CsrCounts& a, const Vector& x) {
  return mxv_row_range(a, 0, a.rows, x);
}

Vector mxv_row_range(const sparse::CsrCounts& a, vidx_t lo, vidx_t hi,
                     const Vector& x) {
  require(0 <= lo && lo <= hi && hi <= a.rows, "gb::mxv_row_range: bad range");
  require(x.size() == a.cols, "gb::mxv: dimension mismatch");
  const std::vector<count_t> xd = x.to_dense();
  std::vector<vidx_t> idx;
  std::vector<count_t> val;
  for (vidx_t r = lo; r < hi; ++r) {
    const RowView row = row_view(a, r);
    count_t acc = 0;
    for (std::size_t k = 0; k < row.len; ++k)
      acc = chk::checked_add(
          acc, chk::checked_mul(row.val[k],
                                xd[static_cast<std::size_t>(row.idx[k])]));
    if (acc != 0) {
      idx.push_back(r);
      val.push_back(acc);
    }
  }
  return Vector(a.rows, std::move(idx), std::move(val));
}

Vector vxm(const Vector& x, const sparse::CsrCounts& a) {
  require(x.size() == a.rows, "gb::vxm: dimension mismatch");
  std::vector<count_t> acc(static_cast<std::size_t>(a.cols), 0);
  for (std::size_t k = 0; k < x.nnz(); ++k) {
    const vidx_t r = x.indices()[k];
    const count_t xv = x.values()[k];
    const RowView row = row_view(a, r);
    for (std::size_t j = 0; j < row.len; ++j)
      acc[static_cast<std::size_t>(row.idx[j])] = chk::checked_add(
          acc[static_cast<std::size_t>(row.idx[j])],
          chk::checked_mul(xv, row.val[j]));
  }
  return Vector::from_dense(acc);
}

sparse::CsrPattern pattern(const sparse::CsrCounts& a) {
  return sparse::CsrPattern(a.rows, a.cols, a.row_ptr, a.col_idx);
}

}  // namespace bfc::gb
