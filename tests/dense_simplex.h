// Test-only reference: the dense two-phase simplex tableau that
// lp/simplex.cpp used before its compact (nonbasic-columns-only) layout.
//
// Every row stores every column -- structurals, one slack per
// inequality, every artificial, and the right-hand side -- and a pivot
// sweeps all of them. Bland's rule picks the smallest column index, which
// is the variable index. Both lanes are kept: the int64 lane (per-row
// numerators over one positive denominator, every row in lowest terms,
// any value past 2^62 reported as overflow) and the exact Rational lane.
// The compact tableau must take the same pivots and return the same
// Result as this reference (Simplex.CompactTableauMatchesDenseReference).
// It charges no fuel and bumps no counter; it counts its own pivots, and
// the int64 lane tallies how its pivots updated rows (RowUpdates).
#pragma once

#include <cstdint>
#include <vector>

#include "lp/simplex.h"
#include "support/intmath.h"
#include "support/linalg.h"
#include "support/rational.h"

namespace pf::test {

struct DenseRow {
  RatVector coeffs;
  Rational constant;
  bool is_equality = false;
};

// The int64 lane's row updates by case: dp is the pivot row's
// denominator (after its reduction), dr the updated row's. The compact
// lane holds the same rows in the same lowest terms, so it meets the same
// cases at the same pivots.
struct RowUpdates {
  i64 unit_pivot_unit_row = 0;  // dp == 1, dr == 1
  i64 unit_pivot_den_row = 0;   // dp == 1, dr > 1
  i64 unit_pivot_reduced = 0;   // of those, rows whose gcd exceeded 1
  i64 den_pivot = 0;            // dp > 1
  i64 reduced_stores = 0;       // stored rows whose gcd exceeded 1
};

struct DenseOutcome {
  lp::SimplexSolver::Result result;
  i64 pivots = 0;
  bool overflow = false;  // int64 lane only: an intermediate left 2^62
  RowUpdates updates{};   // int64 lane only
};

namespace dense_detail {

struct Overflow {};

constexpr i64 kLimit = i64{1} << 62;

inline i64 narrow(i128 v) {
  if (v >= static_cast<i128>(kLimit) || v <= -static_cast<i128>(kLimit))
    throw Overflow{};
  return static_cast<i64>(v);
}

inline i128 gcd128(i128 a, i128 b) {
  a = a < 0 ? -a : a;
  b = b < 0 ? -b : b;
  while (b != 0) {
    const i128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

inline i64 lcm(i64 a, i64 b) {
  return narrow(static_cast<i128>(a / gcd(a, b)) * b);
}

inline i64 scaled(const Rational& v, i64 den) {
  return narrow(static_cast<i128>(v.num()) * (den / v.den()));
}

struct Layout {
  std::vector<std::size_t> col_pos, col_neg;
  std::size_t first_slack = 0, num_slacks = 0;
  std::size_t first_artificial = 0, num_artificials = 0;
  std::size_t nc = 0;
};

inline Layout make_layout(const std::vector<bool>& nonneg,
                          const std::vector<DenseRow>& rows) {
  Layout lay;
  const std::size_t n = nonneg.size();
  lay.col_pos.resize(n);
  lay.col_neg.assign(n, SIZE_MAX);
  std::size_t nc = 0;
  for (std::size_t j = 0; j < n; ++j) {
    lay.col_pos[j] = nc++;
    if (!nonneg[j]) lay.col_neg[j] = nc++;
  }
  lay.first_slack = nc;
  for (const auto& r : rows)
    if (!r.is_equality) ++lay.num_slacks;
  nc += lay.num_slacks;
  lay.first_artificial = nc;
  for (const auto& r : rows)
    if (r.is_equality || r.constant < 0) ++lay.num_artificials;
  nc += lay.num_artificials;
  lay.nc = nc;
  return lay;
}

struct RatTableau {
  std::size_t m = 0, ncols = 0;
  std::vector<RatVector> t;
  std::vector<std::size_t> basis;
  i64* pivots = nullptr;

  Rational& at(std::size_t r, std::size_t c) { return t[r][c]; }
  Rational& rhs(std::size_t r) { return t[r][ncols]; }

  void pivot(std::size_t pr, std::size_t pc) {
    ++*pivots;
    const Rational inv = at(pr, pc).reciprocal();
    for (auto& v : t[pr]) v *= inv;
    for (std::size_t r = 0; r <= m; ++r) {
      if (r == pr || at(r, pc).is_zero()) continue;
      const Rational factor = at(r, pc);
      for (std::size_t c = 0; c <= ncols; ++c) t[r][c] -= factor * t[pr][c];
    }
    basis[pr] = pc;
  }

  bool optimize(std::size_t limit) {
    for (;;) {
      std::size_t enter = ncols;
      for (std::size_t c = 0; c < limit; ++c) {
        if (at(m, c).sign() < 0) {
          enter = c;
          break;
        }
      }
      if (enter == ncols) return true;
      std::size_t leave = m;
      Rational best_ratio(0);
      for (std::size_t r = 0; r < m; ++r) {
        if (at(r, enter).sign() <= 0) continue;
        const Rational ratio = rhs(r) / at(r, enter);
        if (leave == m || ratio < best_ratio ||
            (ratio == best_ratio && basis[r] < basis[leave])) {
          leave = r;
          best_ratio = ratio;
        }
      }
      if (leave == m) return false;
      pivot(leave, enter);
    }
  }

  void set_costs(const RatVector& costs) {
    for (std::size_t c = 0; c < ncols; ++c) at(m, c) = costs[c];
    rhs(m) = Rational(0);
    for (std::size_t r = 0; r < m; ++r) {
      const Rational cb = costs[basis[r]];
      if (cb.is_zero()) continue;
      for (std::size_t c = 0; c <= ncols; ++c) t[m][c] -= cb * t[r][c];
    }
  }
};

struct IntTableau {
  std::size_t m = 0, ncols = 0, stride = 0;
  std::vector<i64> nums, dens;
  std::vector<i128> scratch;
  std::vector<std::size_t> basis;
  i64* pivots = nullptr;
  RowUpdates* updates = nullptr;

  i64* row(std::size_t r) { return nums.data() + r * stride; }
  i64 num_at(std::size_t r, std::size_t c) { return row(r)[c]; }

  void reduce_row(std::size_t r) {
    i64* q = row(r);
    i64 g = dens[r];
    for (std::size_t c = 0; c <= ncols && g != 1; ++c) g = gcd(g, q[c]);
    if (g <= 1) return;
    for (std::size_t c = 0; c <= ncols; ++c) q[c] /= g;
    dens[r] /= g;
  }

  void store_reduced(std::size_t r, i128 den128) {
    i128 g = den128;
    for (std::size_t c = 0; c <= ncols && g != 1; ++c)
      if (scratch[c] != 0) g = gcd128(g, scratch[c]);
    if (g > 1) ++updates->reduced_stores;
    i64* q = row(r);
    for (std::size_t c = 0; c <= ncols; ++c) q[c] = narrow(scratch[c] / g);
    dens[r] = narrow(den128 / g);
  }

  void pivot(std::size_t pr, std::size_t pc) {
    ++*pivots;
    i64* p = row(pr);
    if (p[pc] < 0)
      for (std::size_t c = 0; c <= ncols; ++c) p[c] = -p[c];
    dens[pr] = p[pc];
    reduce_row(pr);
    const i64 dp = dens[pr];
    for (std::size_t r = 0; r <= m; ++r) {
      if (r == pr) continue;
      i64* q = row(r);
      const i64 f = q[pc];
      if (f == 0) continue;
      const i64 dr = dens[r];
      if (dp > 1)
        ++updates->den_pivot;
      else if (dr > 1)
        ++updates->unit_pivot_den_row;
      else
        ++updates->unit_pivot_unit_row;
      for (std::size_t c = 0; c <= ncols; ++c)
        scratch[c] = static_cast<i128>(q[c]) * dp - static_cast<i128>(f) * p[c];
      const i64 reduced = updates->reduced_stores;
      store_reduced(r, static_cast<i128>(dr) * dp);
      if (dp == 1 && dr > 1 && updates->reduced_stores > reduced)
        ++updates->unit_pivot_reduced;
    }
    basis[pr] = pc;
  }

  bool optimize(std::size_t limit) {
    for (;;) {
      const i64* cost = row(m);
      std::size_t enter = ncols;
      for (std::size_t c = 0; c < limit; ++c) {
        if (cost[c] < 0) {
          enter = c;
          break;
        }
      }
      if (enter == ncols) return true;
      std::size_t leave = m;
      i64 best_rhs = 0, best_a = 1;
      for (std::size_t r = 0; r < m; ++r) {
        const i64 a = num_at(r, enter);
        if (a <= 0) continue;
        const i64 rh = num_at(r, ncols);
        if (leave != m) {
          const i128 lhs = static_cast<i128>(rh) * best_a;
          const i128 rhs = static_cast<i128>(best_rhs) * a;
          if (lhs > rhs) continue;
          if (lhs == rhs && basis[leave] < basis[r]) continue;
        }
        leave = r;
        best_rhs = rh;
        best_a = a;
      }
      if (leave == m) return false;
      pivot(leave, enter);
    }
  }

  void set_costs(const std::vector<i64>& costs) {
    i64* cost = row(m);
    for (std::size_t c = 0; c < ncols; ++c) cost[c] = costs[c];
    cost[ncols] = 0;
    dens[m] = 1;
    for (std::size_t r = 0; r < m; ++r) {
      const i64 cb = costs[basis[r]];
      if (cb == 0) continue;
      const i64* q = row(r);
      const i64 dr = dens[r];
      const i64 dm = dens[m];
      const i64 cbdm = narrow(static_cast<i128>(cb) * dm);
      for (std::size_t c = 0; c <= ncols; ++c)
        scratch[c] = static_cast<i128>(cost[c]) * dr -
                     static_cast<i128>(cbdm) * q[c];
      store_reduced(m, static_cast<i128>(dm) * dr);
    }
  }
};

inline lp::SimplexSolver::Result point_of(
    const Layout& lay, std::size_t num_vars, const RatVector& values) {
  lp::SimplexSolver::Result res;
  res.status = lp::Status::kOptimal;
  res.point.resize(num_vars);
  for (std::size_t j = 0; j < num_vars; ++j) {
    res.point[j] = values[lay.col_pos[j]];
    if (lay.col_neg[j] != SIZE_MAX) res.point[j] -= values[lay.col_neg[j]];
  }
  return res;
}

}  // namespace dense_detail

/// The dense int64 lane. Where an intermediate leaves the 62-bit range
/// (the point where the library falls back to Rationals) the outcome is
/// `overflow`, with the pivots taken up to there.
inline DenseOutcome dense_minimize_int(const std::vector<bool>& nonneg,
                                       const std::vector<DenseRow>& rows,
                                       const RatVector& objective) {
  using namespace dense_detail;
  i64 pivots = 0;
  RowUpdates updates;
  try {
    const Layout lay = make_layout(nonneg, rows);
    const std::size_t nc = lay.nc, n = nonneg.size();
    IntTableau tab;
    tab.m = rows.size();
    tab.ncols = nc;
    tab.stride = nc + 1;
    tab.nums.assign((tab.m + 1) * tab.stride, 0);
    tab.dens.assign(tab.m + 1, 1);
    tab.scratch.assign(tab.stride, 0);
    tab.basis.assign(tab.m, 0);
    tab.pivots = &pivots;
    tab.updates = &updates;
    std::size_t slack_idx = 0, artificial_idx = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const DenseRow& r = rows[i];
      i64 den = 1;
      for (const Rational& v : r.coeffs) den = lcm(den, v.den());
      den = lcm(den, r.constant.den());
      i64* row = tab.row(i);
      for (std::size_t j = 0; j < n; ++j) {
        const i64 v = scaled(r.coeffs[j], den);
        row[lay.col_pos[j]] = v;
        if (lay.col_neg[j] != SIZE_MAX) row[lay.col_neg[j]] = -v;
      }
      if (!r.is_equality) row[lay.first_slack + slack_idx++] = -den;
      row[nc] = -scaled(r.constant, den);
      tab.dens[i] = den;
      if (!r.is_equality && r.constant >= 0) {
        for (std::size_t c = 0; c <= nc; ++c) row[c] = -row[c];
        tab.basis[i] = lay.first_slack + slack_idx - 1;
        tab.reduce_row(i);
        continue;
      }
      if (row[nc] < 0)
        for (std::size_t c = 0; c <= nc; ++c) row[c] = -row[c];
      row[lay.first_artificial + artificial_idx] = den;
      tab.basis[i] = lay.first_artificial + artificial_idx++;
      tab.reduce_row(i);
    }
    if (lay.num_artificials > 0) {
      std::vector<i64> costs(nc, 0);
      for (std::size_t a = 0; a < lay.num_artificials; ++a)
        costs[lay.first_artificial + a] = 1;
      tab.set_costs(costs);
      tab.optimize(nc);
      if (tab.num_at(tab.m, nc) < 0)
        return DenseOutcome{
            {lp::Status::kInfeasible, {}, Rational(0)}, pivots, false, updates};
      for (std::size_t r = 0; r < tab.m; ++r) {
        if (tab.basis[r] < lay.first_artificial) continue;
        std::size_t c = 0;
        while (c < lay.first_artificial && tab.num_at(r, c) == 0) ++c;
        if (c < lay.first_artificial) tab.pivot(r, c);
      }
    }
    i64 obj_scale = 1;
    for (const Rational& v : objective) obj_scale = lcm(obj_scale, v.den());
    std::vector<i64> costs(nc, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const i64 v = scaled(objective[j], obj_scale);
      costs[lay.col_pos[j]] = v;
      if (lay.col_neg[j] != SIZE_MAX) costs[lay.col_neg[j]] = -v;
    }
    tab.set_costs(costs);
    if (!tab.optimize(lay.first_artificial))
      return DenseOutcome{
          {lp::Status::kUnbounded, {}, Rational(0)}, pivots, false, updates};
    RatVector values(nc, Rational(0));
    for (std::size_t r = 0; r < tab.m; ++r)
      values[tab.basis[r]] = Rational(tab.num_at(r, nc), tab.dens[r]);
    DenseOutcome out{point_of(lay, n, values), pivots, false, updates};
    const i128 onum = -static_cast<i128>(tab.num_at(tab.m, nc));
    const i128 oden = static_cast<i128>(tab.dens[tab.m]) * obj_scale;
    const i128 g = onum == 0 ? oden : gcd128(onum, oden);
    out.result.objective = Rational(narrow(onum / g), narrow(oden / g));
    return out;
  } catch (const Overflow&) {
    return DenseOutcome{{}, pivots, /*overflow=*/true, updates};
  }
}

/// The dense exact Rational lane.
inline DenseOutcome dense_minimize_exact(const std::vector<bool>& nonneg,
                                         const std::vector<DenseRow>& rows,
                                         const RatVector& objective) {
  using namespace dense_detail;
  i64 pivots = 0;
  const Layout lay = make_layout(nonneg, rows);
  const std::size_t nc = lay.nc, n = nonneg.size();
  RatTableau tab;
  tab.m = rows.size();
  tab.ncols = nc;
  tab.t.assign(tab.m + 1, RatVector(nc + 1, Rational(0)));
  tab.basis.assign(tab.m, 0);
  tab.pivots = &pivots;
  std::size_t slack_idx = 0, artificial_idx = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DenseRow& r = rows[i];
    for (std::size_t j = 0; j < n; ++j) {
      tab.at(i, lay.col_pos[j]) = r.coeffs[j];
      if (lay.col_neg[j] != SIZE_MAX) tab.at(i, lay.col_neg[j]) = -r.coeffs[j];
    }
    if (!r.is_equality) tab.at(i, lay.first_slack + slack_idx++) = Rational(-1);
    tab.rhs(i) = -r.constant;
    if (!r.is_equality && r.constant >= 0) {
      for (std::size_t c = 0; c <= nc; ++c) tab.t[i][c] = -tab.t[i][c];
      tab.basis[i] = lay.first_slack + slack_idx - 1;
      continue;
    }
    if (tab.rhs(i).sign() < 0)
      for (std::size_t c = 0; c <= nc; ++c) tab.t[i][c] = -tab.t[i][c];
    tab.at(i, lay.first_artificial + artificial_idx) = Rational(1);
    tab.basis[i] = lay.first_artificial + artificial_idx++;
  }
  if (lay.num_artificials > 0) {
    RatVector costs(nc, Rational(0));
    for (std::size_t a = 0; a < lay.num_artificials; ++a)
      costs[lay.first_artificial + a] = Rational(1);
    tab.set_costs(costs);
    tab.optimize(nc);
    if ((-tab.rhs(tab.m)).sign() > 0)
      return DenseOutcome{{lp::Status::kInfeasible, {}, Rational(0)}, pivots};
    for (std::size_t r = 0; r < tab.m; ++r) {
      if (tab.basis[r] < lay.first_artificial) continue;
      std::size_t c = 0;
      while (c < lay.first_artificial && tab.at(r, c).is_zero()) ++c;
      if (c < lay.first_artificial) tab.pivot(r, c);
    }
  }
  RatVector costs(nc, Rational(0));
  for (std::size_t j = 0; j < n; ++j) {
    costs[lay.col_pos[j]] = objective[j];
    if (lay.col_neg[j] != SIZE_MAX) costs[lay.col_neg[j]] = -objective[j];
  }
  tab.set_costs(costs);
  if (!tab.optimize(lay.first_artificial))
    return DenseOutcome{{lp::Status::kUnbounded, {}, Rational(0)}, pivots};
  RatVector values(nc, Rational(0));
  for (std::size_t r = 0; r < tab.m; ++r) values[tab.basis[r]] = tab.rhs(r);
  DenseOutcome out{point_of(lay, n, values), pivots};
  out.result.objective = -tab.rhs(tab.m);
  return out;
}

}  // namespace pf::test
