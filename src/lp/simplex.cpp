#include "lp/simplex.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "lp/bigint.h"
#include "support/arena.h"
#include "support/budget.h"
#include "support/metrics.h"

namespace pf::lp {

namespace {

// Per-thread running pivot total (both kernel instances bump it);
// minimize() snapshots it around a solve to feed the pivots-per-solve
// histogram.
thread_local i64 tl_pivots = 0;
// Per-thread running total of the cells completed pivots wrote, counted
// into simplex_cells_written once per solve: a shared counter bumped per
// pivot would bounce its cache line between dependence workers.
thread_local i64 tl_cells_written = 0;

// Live testing::ExactPathScope objects, process-wide: a test's scope must
// reach the dependence workers' threads too.
std::atomic<int> g_exact_path_scopes{0};

// Distribution probe for one top-level SimplexSolver::minimize: pivot
// delta + wall time, observed on every return path via RAII.
struct SolveProbe {
  i64 pivots0 = tl_pivots;
  i64 written0 = tl_cells_written;
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  ~SolveProbe() {
    support::count(support::Counter::kSimplexCellsWritten,
                   tl_cells_written - written0);
    support::observe(support::Hist::kSimplexPivotsPerSolve,
                     tl_pivots - pivots0);
    support::observe(
        support::Hist::kSimplexSolveMicros,
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
};

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOptimal:
      return "optimal";
    case Status::kInfeasible:
      return "infeasible";
    case Status::kUnbounded:
      return "unbounded";
  }
  return "?";
}

SimplexSolver::SimplexSolver(std::size_t num_vars, std::vector<bool> nonneg)
    : num_vars_(num_vars), nonneg_(std::move(nonneg)) {
  PF_CHECK(nonneg_.size() == num_vars_);
}

SimplexSolver SimplexSolver::all_nonneg(std::size_t num_vars) {
  return SimplexSolver(num_vars, std::vector<bool>(num_vars, true));
}

SimplexSolver SimplexSolver::all_free(std::size_t num_vars) {
  return SimplexSolver(num_vars, std::vector<bool>(num_vars, false));
}

void SimplexSolver::add_inequality(RatVector coeffs, Rational constant) {
  PF_CHECK(coeffs.size() == num_vars_);
  rows_.push_back(Row{std::move(coeffs), constant, /*is_equality=*/false});
}

void SimplexSolver::add_equality(RatVector coeffs, Rational constant) {
  PF_CHECK(coeffs.size() == num_vars_);
  rows_.push_back(Row{std::move(coeffs), constant, /*is_equality=*/true});
}

namespace {

// The tableau's variable layout: for each variable j, col_pos[j]; for
// free vars also col_neg[j] (x_j = pos - neg). Then one slack per
// inequality, then one artificial per row that needs one (equalities,
// and inequalities infeasible at x = 0).
//
// The tableau is compact: a row stores only the columns of the
// k = nv - m nonbasic variables, plus the right-hand side. A basic
// variable's column is the unit vector of its row, so it is never stored.
// Row r starts with its slack basic (when the row holds at x = 0) or its
// artificial; every other variable starts nonbasic, in index order.
struct Layout {
  std::vector<std::size_t> col_pos, col_neg;
  std::size_t first_slack = 0;
  std::size_t num_slacks = 0;
  std::size_t first_artificial = 0;
  std::size_t num_artificials = 0;
  std::size_t nv = 0;               // variables: structural, slack, artificial
  std::vector<std::size_t> basis;   // row r's starting basic variable
  std::vector<std::size_t> colvar;  // the starting nonbasic variables
  std::vector<std::size_t> slot;    // slot[v]: v's column, SIZE_MAX if basic
};

template <typename RowVec>
Layout make_layout(std::size_t num_vars, const std::vector<bool>& nonneg,
                   const RowVec& rows) {
  Layout lay;
  lay.col_pos.resize(num_vars);
  lay.col_neg.assign(num_vars, SIZE_MAX);
  std::size_t nv = 0;
  for (std::size_t j = 0; j < num_vars; ++j) {
    lay.col_pos[j] = nv++;
    if (!nonneg[j]) lay.col_neg[j] = nv++;
  }
  lay.first_slack = nv;
  for (const auto& r : rows)
    if (!r.is_equality) ++lay.num_slacks;
  nv += lay.num_slacks;
  lay.first_artificial = nv;
  for (const auto& r : rows)
    if (r.is_equality || r.constant < 0) ++lay.num_artificials;
  nv += lay.num_artificials;
  lay.nv = nv;
  lay.slot.assign(nv, 0);
  std::size_t slack = lay.first_slack, artificial = lay.first_artificial;
  for (const auto& r : rows) {
    const bool slack_basic = !r.is_equality && r.constant >= 0;
    lay.basis.push_back(slack_basic ? slack : artificial++);
    lay.slot[lay.basis.back()] = SIZE_MAX;
    if (!r.is_equality) ++slack;
  }
  for (std::size_t v = 0; v < nv; ++v) {
    if (lay.slot[v] == SIZE_MAX) continue;
    lay.slot[v] = lay.colvar.size();
    lay.colvar.push_back(v);
  }
  return lay;
}

// Bland's rule reads variable indices, not column slots: the column
// whose variable is smallest among those below `limit` that satisfy
// `pred`; k when there is none. It picks the entering column (pred:
// negative reduced cost) and phase 1's artificial drive-out (pred:
// nonzero entry in the artificial's row).
template <typename Pred>
std::size_t smallest_var_column(const std::size_t* colvar, std::size_t k,
                                std::size_t limit, Pred pred) {
  std::size_t best = k;
  for (std::size_t j = 0; j < k; ++j)
    if (colvar[j] < limit && (best == k || colvar[j] < colvar[best]) &&
        pred(j))
      best = j;
  return best;
}

// Bookkeeping of one pivot of an (m + 1) x (k + 1) tableau, either cell
// type. The cells it writes are counted when it completes, so a pivot
// the i64 instance abandons on overflow counts none.
void account_pivot(std::size_t m, std::size_t k) {
  support::count(support::Counter::kSimplexPivots);
  support::count(support::Counter::kSimplexCells,
                 static_cast<i64>((m + 1) * (k + 1)));
  ++tl_pivots;
  // A pivot's real cost is the row sweep, so it charges one LP fuel unit
  // per tableau row (cf. ISL counting low-level operations, not pivots);
  // exhaustion unwinds out of the whole solve to the caller's recovery
  // boundary.
  support::budget_charge(support::BudgetSite::kLpSolve,
                         static_cast<i64>(m) + 1);
}

// ---------------------------------------------------------------------------
// The simplex kernel: one compact tableau and one Bland-rule pivot loop,
// instantiated for two cell types.
//
// Each row is stored as integer numerators over one positive per-row
// denominator, in lowest terms, so a pivot is a fused integer row
// operation.
//
// - i64 cells (the fast instance). Every stored value is kept below 2^62
//   (kFastLimit), which makes all the 128-bit intermediates provably
//   exact: products of two in-range values stay below 2^124 and their
//   sums below 2^125, well inside __int128. A value that would leave the
//   range throws FastlaneOverflow, and minimize() reruns the solve from
//   scratch on the BigInt instance -- the fast instance is
//   correct-or-absent, never wrong.
// - BigInt cells (lp/bigint.h), whose intermediates are BigInts too:
//   nothing overflows. This instance serves every fallback and
//   testing::ExactPathScope.
//
// Both instances compute the same exact values and keep them in the same
// lowest terms, so every branch on a value (a sign, a zero, a gcd of 1, a
// ratio comparison) goes the same way: the same pivots, the same cells
// written and the same Result. The entering test reads only reduced-cost
// signs (per-row denominators are positive, so signs live in the
// numerators), and the leaving test compares ratios rhs(r)/a(r) in which
// the row denominator cancels, cross-multiplied exactly. Scaling the cost
// row by the positive lcm of the objective's denominators preserves every
// sign.

struct FastlaneOverflow {};

constexpr i64 kFastLimit = i64{1} << 62;

inline i64 fl_narrow(i128 v) {
  if (v >= static_cast<i128>(kFastLimit) || v <= -static_cast<i128>(kFastLimit))
    throw FastlaneOverflow{};
  return static_cast<i64>(v);
}

inline i128 abs128(i128 v) { return v < 0 ? -v : v; }

i128 gcd128(i128 a, i128 b) {
  a = abs128(a);
  b = abs128(b);
  while (b != 0) {
    const i128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

inline bool fits64(i128 v) { return v == static_cast<i64>(v); }

using u64 = std::uint64_t;

inline u64 abs64(i64 v) {
  return v < 0 ? u64{0} - static_cast<u64>(v) : static_cast<u64>(v);
}

// gcd(g, x) for g > 0: one 64-bit gcd when g fits in 64 bits (x is first
// reduced mod g when it does not), the 128-bit one otherwise.
inline i128 gcd_step(i128 g, i128 x) {
  if (!fits64(g)) return gcd128(g, x);
  if (!fits64(x)) x %= g;
  return static_cast<i128>(
      std::gcd(static_cast<u64>(g), abs64(static_cast<i64>(x))));
}

// x / g for g > 0 dividing x, in 64 bits when both fit.
inline i128 div_exact(i128 x, i128 g) {
  if (fits64(x) && fits64(g))
    return static_cast<i64>(x) / static_cast<i64>(g);
  return x / g;
}

// What the kernel needs of a cell type besides its arithmetic operators
// and gcd(): the type of its intermediates (Wide), the narrowing of an
// intermediate back to a cell, the gcd and exact quotient of
// intermediates, and the conversion of a value num/den (den > 0) into a
// Rational.
template <typename Cell>
struct CellOps;

template <>
struct CellOps<i64> {
  using Wide = i128;
  static i64 narrow(i128 v) { return fl_narrow(v); }
  static i128 wide_gcd(i128 g, i128 x) { return gcd_step(g, x); }  // g > 0
  static i128 wide_div(i128 x, i128 g) { return div_exact(x, g); }
  static Rational cell_value(i64 num, i64 den) { return Rational(num, den); }
  // Past the fast range the solve is redone on BigInt cells, which then
  // either fits or raises the error.
  static Rational wide_value(i128 num, i128 den) {
    const i128 g = num == 0 ? den : gcd128(num, den);
    return Rational(fl_narrow(num / g), fl_narrow(den / g));
  }
};

template <>
struct CellOps<BigInt> {
  using Wide = BigInt;
  static BigInt narrow(BigInt v) { return v; }
  static BigInt wide_gcd(const BigInt& g, const BigInt& x) {
    return gcd(g, x);
  }
  static BigInt wide_div(const BigInt& x, const BigInt& g) { return x / g; }
  static Rational cell_value(const BigInt& num, const BigInt& den) {
    return wide_value(num, den);
  }
  // The one place the BigInt instance can fail: a Result is 64-bit
  // Rationals.
  static Rational wide_value(const BigInt& num, const BigInt& den) {
    const BigInt g = gcd(num, den);
    const std::optional<i64> n = (num / g).to_i64(), d = (den / g).to_i64();
    if (!n || !d) PF_FAIL("the LP optimum exceeds 64-bit rationals");
    return Rational(*n, *d);
  }
};

// The tableau: value(r, c) = nums[r * stride + c] / dens[r], with
// dens[r] > 0 and every row in lowest terms (the gcd of its denominator
// and numerators is 1); row r's basic variable has the implicit numerator
// dens[r]. Column j < k holds nonbasic variable colvar[j]; column k is the
// right-hand side. Row m (the last) is the reduced-cost row; its RHS cell
// holds the negated objective value.
template <typename Cell>
struct Tableau {
  using Ops = CellOps<Cell>;
  using Wide = typename Ops::Wide;

  std::size_t m = 0;
  std::size_t k = 0;       // stored (nonbasic) columns, excl. rhs
  std::size_t stride = 0;  // k + 1 (rhs in the last cell)
  Cell* nums = nullptr;    // (m + 1) * stride
  Cell* dens = nullptr;    // m + 1
  Wide* scratch = nullptr;  // stride; the in-flight combined row (in
                            // update_unit, its cells listed in nz)
  std::size_t* nz = nullptr;  // stride; the pivot row's nonzero columns
  std::size_t* basis = nullptr;   // m
  std::size_t* colvar = nullptr;  // k

  Cell* row(std::size_t r) { return nums + r * stride; }
  const Cell* row(std::size_t r) const { return nums + r * stride; }
  const Cell& num_at(std::size_t r, std::size_t c) const { return row(r)[c]; }

  // Divide row r (and its denominator) by their common gcd, keeping the
  // representation small across pivots.
  void reduce_row(std::size_t r) {
    Cell* q = row(r);
    Cell g = dens[r];
    for (std::size_t c = 0; c <= k && g != 1; ++c) g = gcd(g, q[c]);
    if (g <= 1) return;
    for (std::size_t c = 0; c <= k; ++c) q[c] /= g;
    dens[r] /= g;
  }

  // Store scratch / den into row r in lowest terms (narrowed: i64 cells
  // throw FastlaneOverflow when the reduced row leaves the safe range). A
  // row whose gcd is 1 is stored without dividing.
  void store_reduced(std::size_t r, const Wide& den) {
    Wide g = den;
    for (std::size_t c = 0; c <= k && g != 1; ++c)
      if (scratch[c] != 0) g = Ops::wide_gcd(g, scratch[c]);
    Cell* q = row(r);
    if (g == 1) {
      for (std::size_t c = 0; c <= k; ++c) q[c] = Ops::narrow(scratch[c]);
      dens[r] = Ops::narrow(den);
      return;
    }
    for (std::size_t c = 0; c <= k; ++c)
      q[c] = Ops::narrow(Ops::wide_div(scratch[c], g));
    dens[r] = Ops::narrow(den / g);
  }

  // Row r's update under a pivot row p of denominator 1, f being row r's
  // entry in the pivot column: value'(c) = q[c]/dr - (f/dr) * p[c] =
  // (q[c] - f*p[c]) / dr, so only the pivot row's nnz nonzero columns
  // change. With dr == 1 the row stays in lowest terms; otherwise it is
  // divided by the gcd of dr and its new numerators when that exceeds 1,
  // exactly as store_reduced would. Returns the cells written: the nnz
  // listed ones, or the whole row when it is divided.
  // f is taken by value: a reference could alias q's cells.
  std::size_t update_unit(std::size_t r, Cell f, const Cell* p,
                          std::size_t nnz) {
    Cell* q = row(r);
    const Cell dr = dens[r];
    if (dr == 1) {
      for (std::size_t i = 0; i < nnz; ++i) {
        const std::size_t c = nz[i];
        q[c] = Ops::narrow(Wide(q[c]) - Wide(f) * p[c]);
      }
      return nnz;
    }
    for (std::size_t i = 0; i < nnz; ++i) {
      const std::size_t c = nz[i];
      scratch[i] = Wide(q[c]) - Wide(f) * p[c];
    }
    // The gcd walks the whole new row: unchanged cells from q, changed
    // ones (the ascending nz list) from scratch.
    Wide g = dr;
    for (std::size_t c = 0, i = 0; c <= k && g != 1; ++c) {
      if (i < nnz && nz[i] == c)
        g = Ops::wide_gcd(g, scratch[i++]);
      else if (q[c] != 0)
        g = Ops::wide_gcd(g, q[c]);
    }
    if (g == 1) {
      for (std::size_t i = 0; i < nnz; ++i) q[nz[i]] = Ops::narrow(scratch[i]);
      return nnz;
    }
    const Cell gc = Ops::narrow(g);  // divides dr
    for (std::size_t c = 0; c <= k; ++c) q[c] /= gc;
    for (std::size_t i = 0; i < nnz; ++i)
      q[nz[i]] = Ops::narrow(Ops::wide_div(scratch[i], g));
    dens[r] = dr / gc;
    return k + 1;
  }

  // colvar[pc] enters the basis in row pr; the leaving variable takes
  // over column pc. Its column was the unit vector e_pr, so the ordinary
  // row operations run on that column in place of the entering one.
  void pivot(std::size_t pr, std::size_t pc) {
    account_pivot(m, k);
    // Scale the pivot row so its pivot cell becomes 1: dividing every
    // value p[c]/dp by the pivot value a/dp leaves p[c]/a, so the
    // numerators stay put and a becomes the denominator (row negated
    // first when a is negative, keeping dens > 0). The leaving variable's
    // unit cell, numerator dens[pr], moves into the pivot cell's slot.
    Cell* p = row(pr);
    const Cell a = p[pc];
    p[pc] = dens[pr];
    dens[pr] = a < 0 ? -a : a;
    // Only the pivot row's nonzero columns take part in the row
    // operations: a zero cell adds nothing to any other row.
    std::size_t nnz = 0;
    for (std::size_t c = 0; c <= k; ++c)
      if (p[c] != 0) nz[nnz++] = c;
    Cell g = dens[pr];
    for (std::size_t i = 0; i < nnz; ++i) {
      if (a < 0) p[nz[i]] = -p[nz[i]];
      if (g != 1) g = gcd(g, p[nz[i]]);
    }
    if (g > 1) {
      for (std::size_t i = 0; i < nnz; ++i) p[nz[i]] /= g;
      dens[pr] /= g;
    }
    // The pivot row rewrites its nonzero cells when it is negated or
    // divided, else only the pivot cell. The pivot column is in nz, so a
    // sparse row update writes no cell outside the list.
    std::size_t written = a < 0 || g > 1 ? nnz : 1;
    const Cell dp = dens[pr];
    for (std::size_t r = 0; r <= m; ++r) {
      if (r == pr) continue;
      Cell* q = row(r);
      const Cell f = q[pc];
      if (f == 0) continue;
      q[pc] = 0;  // the leaving variable was basic in row pr only
      if (dp == 1) {
        written += update_unit(r, f, p, nnz);
        continue;
      }
      // value'(c) = q[c]/dr - (f/dr) * (p[c]/dp)
      //          = (q[c]*dp - f*p[c]) / (dr*dp)
      for (std::size_t c = 0; c <= k; ++c) scratch[c] = Wide(q[c]) * dp;
      for (std::size_t i = 0; i < nnz; ++i)
        scratch[nz[i]] -= Wide(f) * p[nz[i]];
      store_reduced(r, Wide(dens[r]) * dp);
      written += k + 1;
    }
    tl_cells_written += static_cast<i64>(written);
    std::swap(basis[pr], colvar[pc]);
  }

  // One phase of Bland-rule simplex on the current cost row. Variables
  // < limit are eligible to enter the basis (phase 2 bars artificials,
  // which always form a suffix). Returns false if unbounded.
  bool optimize(std::size_t limit) {
    for (;;) {
      const Cell* cost = row(m);
      const std::size_t enter = smallest_var_column(
          colvar, k, limit, [&](std::size_t j) { return cost[j] < 0; });
      if (enter == k) return true;  // optimal
      // Leaving: min rhs(r)/a(r, enter) over positive entries, Bland
      // tie-break on the smallest basic variable. The row denominator
      // cancels inside the ratio, so it is rhs_num/a_num; rows compare by
      // cross-multiplication (both divisors positive, so the inequality
      // direction is preserved).
      std::size_t leave = m;
      Cell best_rhs = 0, best_a = 1;
      for (std::size_t r = 0; r < m; ++r) {
        const Cell& a = num_at(r, enter);
        if (a <= 0) continue;
        const Cell& rh = num_at(r, k);
        if (leave != m) {
          const Wide lhs = Wide(rh) * best_a;
          const Wide rhs = Wide(best_rhs) * a;
          if (lhs > rhs) continue;
          if (lhs == rhs && basis[leave] < basis[r]) continue;
        }
        leave = r;
        best_rhs = rh;
        best_a = a;
      }
      if (leave == m) return false;  // unbounded
      pivot(leave, enter);
    }
  }

  // Installs the per-variable cost vector `costs` into the cost row,
  // pricing out the current basis (the caller pre-scales rational
  // objectives by a positive constant, which preserves every reduced-cost
  // sign).
  void set_costs(const Cell* costs) {
    Cell* cost = row(m);
    for (std::size_t j = 0; j < k; ++j) cost[j] = costs[colvar[j]];
    cost[k] = 0;
    dens[m] = 1;
    for (std::size_t r = 0; r < m; ++r) {
      const Cell& cb = costs[basis[r]];
      if (cb == 0) continue;
      const Cell* q = row(r);
      const Cell dr = dens[r];
      const Cell dm = dens[m];
      // cost'(c) = cost[c]/dm - cb * q[c]/dr
      //          = (cost[c]*dr - (cb*dm)*q[c]) / (dm*dr)
      // cb*dm is narrowed first so the per-cell product stays two-term.
      const Cell cbdm = Ops::narrow(Wide(cb) * dm);
      for (std::size_t c = 0; c <= k; ++c)
        scratch[c] = Wide(cost[c]) * dr - Wide(cbdm) * q[c];
      store_reduced(m, Wide(dm) * dr);
    }
  }
};

// An array of n copies of `fill` for one solve. Trivially destructible
// cells (i64, i128) come from the thread's arena, released wholesale by
// the solve's ArenaScope; BigInt cells own heap limbs, so they live in
// `own`.
template <typename T>
T* alloc_filled(support::Arena& arena, std::vector<T>& own, std::size_t n,
                const T& fill) {
  if constexpr (std::is_trivially_destructible_v<T>) {
    T* p = arena.alloc_array<T>(n);
    std::fill_n(p, n, fill);
    return p;
  } else {
    own.assign(n, fill);
    return own.data();
  }
}

// The lcm of a positive cell and a positive denominator, narrowed (an i64
// lcm past the fast range redoes the solve on BigInt cells).
template <typename Cell>
Cell lcm_with(const Cell& a, i64 b) {
  using Ops = CellOps<Cell>;
  return Ops::narrow(typename Ops::Wide(a / gcd(a, Cell(b))) * b);
}

// v scaled to the common denominator `den` (a multiple of v.den()).
template <typename Cell>
Cell scaled(const Rational& v, const Cell& den) {
  using Ops = CellOps<Cell>;
  return Ops::narrow(typename Ops::Wide(v.num()) * (den / v.den()));
}

// The optimal point from the per-variable values (basic variables at
// their row's rhs, nonbasic ones at 0).
SimplexSolver::Result optimal_at(const Layout& lay, std::size_t num_vars,
                                 const RatVector& values) {
  SimplexSolver::Result res;
  res.status = Status::kOptimal;
  res.point.resize(num_vars);
  for (std::size_t j = 0; j < num_vars; ++j) {
    res.point[j] = values[lay.col_pos[j]];
    if (lay.col_neg[j] != SIZE_MAX) res.point[j] -= values[lay.col_neg[j]];
  }
  return res;
}

}  // namespace

SimplexSolver::Result SimplexSolver::minimize(
    const RatVector& objective) const {
  PF_CHECK(objective.size() == num_vars_);
  SolveProbe probe;
  if (!testing::exact_path_forced()) {
    try {
      Result res = solve<i64>(objective);
      support::count(support::Counter::kFastlaneSolves);
      return res;
    } catch (const FastlaneOverflow&) {
      support::count(support::Counter::kFastlaneFallbacks);
    }
  }
  return solve<BigInt>(objective);
}

template <typename Cell>
SimplexSolver::Result SimplexSolver::solve(const RatVector& objective) const {
  using Wide = typename CellOps<Cell>::Wide;
  support::Arena& arena = support::Arena::thread_local_instance();
  support::ArenaScope scope(arena);
  std::vector<Cell> own_nums, own_dens, own_costs;
  std::vector<Wide> own_scratch;

  const Layout lay = make_layout(num_vars_, nonneg_, rows_);
  const std::size_t nv = lay.nv;

  Tableau<Cell> tab;
  tab.m = rows_.size();
  tab.k = lay.colvar.size();
  tab.stride = tab.k + 1;
  tab.nums = alloc_filled(arena, own_nums, (tab.m + 1) * tab.stride, Cell(0));
  tab.dens = alloc_filled(arena, own_dens, tab.m + 1, Cell(1));
  tab.scratch = alloc_filled(arena, own_scratch, tab.stride, Wide(0));
  tab.nz = arena.alloc_array<std::size_t>(tab.stride);
  tab.basis = arena.alloc_array<std::size_t>(std::max<std::size_t>(tab.m, 1));
  tab.colvar = arena.alloc_array<std::size_t>(std::max<std::size_t>(tab.k, 1));
  std::copy(lay.basis.begin(), lay.basis.end(), tab.basis);
  std::copy(lay.colvar.begin(), lay.colvar.end(), tab.colvar);

  // Build the constraint rows. Each row is brought to one common
  // denominator (the lcm of its cells' denominators); scaling a row by a
  // positive constant changes no represented value.
  const std::size_t k = tab.k;
  std::size_t slack = lay.first_slack;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    Cell den = 1;
    for (const Rational& v : r.coeffs) den = lcm_with(den, v.den());
    den = lcm_with(den, r.constant.den());
    Cell* row = tab.row(i);
    // coeffs . x + constant >= 0  becomes  coeffs . x - s = -constant.
    for (std::size_t j = 0; j < num_vars_; ++j) {
      const Cell n = scaled(r.coeffs[j], den);
      row[lay.slot[lay.col_pos[j]]] = n;
      if (lay.col_neg[j] != SIZE_MAX) row[lay.slot[lay.col_neg[j]]] = -n;
    }
    row[k] = -scaled(r.constant, den);
    tab.dens[i] = den;
    if (!r.is_equality && lay.slot[slack++] == SIZE_MAX) {
      // Slack value at x = 0 is `constant` >= 0: negate the row so the
      // basic slack's implicit cell is +den with a non-negative RHS.
      for (std::size_t c = 0; c <= k; ++c) row[c] = -row[c];
      tab.reduce_row(i);
      continue;
    }
    if (!r.is_equality) row[lay.slot[slack - 1]] = -den;
    // Normalize RHS >= 0; the row's basic artificial has coefficient 1,
    // the implicit cell +den.
    if (row[k] < 0)
      for (std::size_t c = 0; c <= k; ++c) row[c] = -row[c];
    tab.reduce_row(i);
  }

  // Phase 1: minimize the sum of artificials (skipped when none exist).
  if (lay.num_artificials > 0) {
    Cell* costs = alloc_filled(arena, own_costs, nv, Cell(0));
    for (std::size_t a = 0; a < lay.num_artificials; ++a)
      costs[lay.first_artificial + a] = 1;
    tab.set_costs(costs);
    const bool bounded = tab.optimize(nv);
    PF_CHECK_MSG(bounded, "phase-1 objective cannot be unbounded");
    // Objective value is -rhs of the cost row; infeasible when positive.
    if (tab.num_at(tab.m, k) < 0)
      return Result{Status::kInfeasible, {}, Rational(0)};
    // Pivot remaining artificials (at value 0) out of the basis where
    // possible; rows with no non-artificial entry are redundant and stay
    // (they are all-zero, harmless).
    for (std::size_t r = 0; r < tab.m; ++r) {
      if (tab.basis[r] < lay.first_artificial) continue;
      const std::size_t c = smallest_var_column(
          tab.colvar, k, lay.first_artificial,
          [&](std::size_t j) { return tab.num_at(r, j) != 0; });
      if (c < k) tab.pivot(r, c);
    }
  }

  // Phase 2: the original objective, scaled integral by the positive lcm
  // of its denominators (undone when the objective value is read back);
  // artificial variables are barred from entering. Their nonbasic
  // columns stay stored, so every row keeps the representation (and the
  // gcds) it would have with every column stored.
  Cell obj_scale = 1;
  {
    for (const Rational& v : objective)
      obj_scale = lcm_with(obj_scale, v.den());
    Cell* costs = alloc_filled(arena, own_costs, nv, Cell(0));
    for (std::size_t j = 0; j < num_vars_; ++j) {
      const Cell n = scaled(objective[j], obj_scale);
      costs[lay.col_pos[j]] = n;
      if (lay.col_neg[j] != SIZE_MAX) costs[lay.col_neg[j]] = -n;
    }
    tab.set_costs(costs);
    if (!tab.optimize(lay.first_artificial))
      return Result{Status::kUnbounded, {}, Rational(0)};
  }

  // Extract the solution; objective = -rhs(m) / obj_scale.
  RatVector values(nv, Rational(0));
  for (std::size_t r = 0; r < tab.m; ++r)
    values[tab.basis[r]] =
        CellOps<Cell>::cell_value(tab.num_at(r, k), tab.dens[r]);
  Result res = optimal_at(lay, num_vars_, values);
  res.objective = CellOps<Cell>::wide_value(-Wide(tab.num_at(tab.m, k)),
                                            Wide(tab.dens[tab.m]) * obj_scale);
  return res;
}

SimplexSolver::Result SimplexSolver::maximize(const RatVector& objective) const {
  RatVector neg(objective.size());
  for (std::size_t i = 0; i < objective.size(); ++i) neg[i] = -objective[i];
  Result r = minimize(neg);
  if (r.status == Status::kOptimal) r.objective = -r.objective;
  return r;
}

SimplexSolver::Result SimplexSolver::feasible_point() const {
  return minimize(RatVector(num_vars_, Rational(0)));
}

namespace testing {

ExactPathScope::ExactPathScope() {
  ++g_exact_path_scopes;
}

ExactPathScope::~ExactPathScope() {
  --g_exact_path_scopes;
}

bool exact_path_forced() {
  return g_exact_path_scopes.load() != 0;
}

}  // namespace testing

}  // namespace pf::lp
