#include "support/linalg.h"

#include <algorithm>

namespace pf {

namespace {

// Forward elimination to row echelon form. Returns the pivot column for
// each pivot row (in order).
std::vector<std::size_t> echelonize(RatMatrix& m) {
  std::vector<std::size_t> pivot_cols;
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < m.cols() && pivot_row < m.rows(); ++col) {
    // Find a row with a nonzero entry in this column.
    std::size_t sel = pivot_row;
    while (sel < m.rows() && m(sel, col).is_zero()) ++sel;
    if (sel == m.rows()) continue;
    m.swap_rows(pivot_row, sel);
    const Rational inv = m(pivot_row, col).reciprocal();
    for (std::size_t c = col; c < m.cols(); ++c) m(pivot_row, c) *= inv;
    for (std::size_t r = pivot_row + 1; r < m.rows(); ++r) {
      if (m(r, col).is_zero()) continue;
      const Rational factor = m(r, col);
      for (std::size_t c = col; c < m.cols(); ++c)
        m(r, c) -= factor * m(pivot_row, c);
    }
    pivot_cols.push_back(col);
    ++pivot_row;
  }
  return pivot_cols;
}

// Back substitution: given echelon form with unit pivots, clear entries
// above each pivot.
void back_substitute(RatMatrix& m, const std::vector<std::size_t>& pivot_cols) {
  for (std::size_t p = pivot_cols.size(); p-- > 0;) {
    const std::size_t col = pivot_cols[p];
    for (std::size_t r = 0; r < p; ++r) {
      if (m(r, col).is_zero()) continue;
      const Rational factor = m(r, col);
      for (std::size_t c = 0; c < m.cols(); ++c)
        m(r, c) -= factor * m(p, c);
    }
  }
}

// Convert an integer matrix to rationals.
RatMatrix to_rational(const IntMatrix& m) {
  RatMatrix r(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) r(i, j) = Rational(m(i, j));
  return r;
}

// Scale a rational vector to primitive integers: clear denominators,
// divide by the gcd. A zero vector stays zero.
IntVector to_integer_row(const RatVector& v) {
  i64 l = 1;
  for (const Rational& x : v) l = lcm(l, x.den());
  IntVector out(v.size());
  i64 g = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = checked_mul(v[i].num(), l / v[i].den());
    g = gcd(g, out[i]);
  }
  if (g > 1)
    for (i64& x : out) x /= g;
  return out;
}

// to_integer_row on each row.
IntMatrix to_integer_rows(const RatMatrix& m) {
  IntMatrix out;
  for (std::size_t r = 0; r < m.rows(); ++r)
    out.append_row(to_integer_row(m.row(r)));
  return out;
}

}  // namespace

std::size_t rank(const RatMatrix& m) {
  RatMatrix work = m;
  return echelonize(work).size();
}

RatMatrix null_space(const RatMatrix& m) {
  if (m.cols() == 0) return RatMatrix();
  if (m.rows() == 0) return RatMatrix::identity(m.cols());
  RatMatrix work = m;
  const auto pivots = echelonize(work);
  back_substitute(work, pivots);

  std::vector<bool> is_pivot(m.cols(), false);
  for (std::size_t c : pivots) is_pivot[c] = true;

  RatMatrix basis;
  for (std::size_t free_col = 0; free_col < m.cols(); ++free_col) {
    if (is_pivot[free_col]) continue;
    RatVector v(m.cols(), Rational(0));
    v[free_col] = Rational(1);
    // Each pivot variable is determined by the free variable's column.
    for (std::size_t p = 0; p < pivots.size(); ++p)
      v[pivots[p]] = -work(p, free_col);
    basis.append_row(v);
  }
  return basis;
}

std::optional<RatMatrix> invert(const RatMatrix& m) {
  PF_CHECK_MSG(m.rows() == m.cols(), "invert on non-square matrix");
  const std::size_t n = m.rows();
  // Augment [m | I] and reduce.
  RatMatrix aug(n, 2 * n, Rational(0));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) aug(r, c) = m(r, c);
    aug(r, n + r) = Rational(1);
  }
  const auto pivots = echelonize(aug);
  if (pivots.size() != n || pivots.back() >= n) return std::nullopt;
  back_substitute(aug, pivots);
  RatMatrix inv(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) inv(r, c) = aug(r, n + c);
  return inv;
}

IntMatrix orthogonal_complement_rows(const IntMatrix& h) {
  if (h.rows() == 0) {
    // Nothing found yet: the complement is all of Z^n.
    return IntMatrix::identity(h.cols());
  }
  // Row space of h equals the orthogonal complement of null(h), so the
  // complement of h's row space is exactly null(h).
  const RatMatrix basis = null_space(to_rational(h));
  if (basis.rows() == 0) return IntMatrix();
  return to_integer_rows(basis);
}

}  // namespace pf
