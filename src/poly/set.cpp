#include "poly/set.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "lp/simplex.h"
#include "poly/memo.h"
#include "support/budget.h"
#include "support/context.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace pf::poly {

namespace {

enum class SolveOp : i64 { kIsEmpty = 1, kMin = 2 };

// Memo-table and persistent-store domain of solve results. Value layouts:
// kIsEmpty {empty, 0}; kMin {kind, value}.
constexpr const char* kSolveDomain = "solve";

MemoTable::Key solve_key(SolveOp op, std::size_t dims,
                         const std::vector<Constraint>& constraints,
                         const AffineExpr* objective) {
  std::vector<i64> blob =
      canonical_key(static_cast<i64>(op), dims, constraints);
  if (objective) {
    blob.push_back(objective->const_term());
    for (std::size_t k = 0; k < dims; ++k) blob.push_back(objective->coeff(k));
  }
  return {kSolveDomain, std::move(blob)};
}

}  // namespace

void clear_solve_cache() {
  if (MemoTable* memo = support::current_context().memo) memo->clear();
}

SolveCacheScope::SolveCacheScope() : table_(std::make_unique<MemoTable>()) {
  previous_ = std::exchange(support::current_context().memo, table_.get());
}

SolveCacheScope::~SolveCacheScope() {
  support::current_context().memo = previous_;
}

bool IntegerSet::normalize(Constraint& c) const {
  PF_CHECK_MSG(c.expr.dims() == dims_, "constraint space mismatch: "
                                           << c.expr.dims() << " vs " << dims_);
  i64 g = 0;
  for (i64 v : c.expr.coeffs()) g = gcd(g, v);
  if (g == 0) {
    // Constant constraint.
    if (c.is_equality) return c.expr.const_term() == 0;
    return c.expr.const_term() >= 0;
  }
  if (g > 1) {
    AffineExpr e(dims_);
    for (std::size_t i = 0; i < dims_; ++i) e.set_coeff(i, c.expr.coeff(i) / g);
    if (c.is_equality) {
      if (c.expr.const_term() % g != 0) return false;
      e.set_const_term(c.expr.const_term() / g);
    } else {
      e.set_const_term(floor_div(c.expr.const_term(), g));
    }
    c.expr = e;
  }
  return true;
}

void IntegerSet::add_constraint(Constraint c) {
  if (trivially_empty_) return;
  i64 g = 0;
  for (i64 v : c.expr.coeffs()) g = gcd(g, v);
  if (g == 0) {
    // Constant: either trivially true (drop) or proves emptiness.
    const bool ok = c.is_equality ? c.expr.const_term() == 0
                                  : c.expr.const_term() >= 0;
    if (!ok) mark_trivially_empty();
    return;
  }
  if (!normalize(c)) {
    mark_trivially_empty();
    return;
  }
  for (const Constraint& existing : constraints_)
    if (existing == c) return;
  constraints_.push_back(std::move(c));
}

void IntegerSet::intersect(const IntegerSet& other) {
  PF_CHECK(other.dims_ == dims_);
  if (other.trivially_empty_) {
    mark_trivially_empty();
    return;
  }
  for (const Constraint& c : other.constraints_) add_constraint(c);
}

lp::IlpProblem IntegerSet::to_ilp() const {
  lp::IlpProblem p = lp::IlpProblem::all_free(dims_);
  // Canonical row order: structurally equal sets share one memo entry, so
  // they must also solve identically, whichever was built first.
  for (const Constraint* c : canonical_order(constraints_)) {
    if (c->is_equality)
      p.add_equality(c->expr.coeffs(), c->expr.const_term());
    else
      p.add_inequality(c->expr.coeffs(), c->expr.const_term());
  }
  return p;
}

bool IntegerSet::is_empty() const {
  if (trivially_empty_) return true;
  // A constraint-free set is the universe (even zero-dimensional, where
  // the single point is the empty tuple) -- never empty, no ILP needed.
  if (constraints_.empty()) return false;
  MemoTable* memo = active_memo();
  if (memo == nullptr) {
    try {
      return to_ilp().proven_empty();
    } catch (const support::BudgetExceeded&) {
      // Budgeted solves are never memoized (a degraded answer must not be
      // kept as exact). Conservative recovery: not *proven* empty, so
      // report non-empty. Callers treat the set as holding a dependence,
      // which can only constrain schedules further (sound
      // over-approximation).
      return false;
    }
  }
  const MemoTable::Value v = memoize(
      *memo,
      solve_key(SolveOp::kIsEmpty, dims_, constraints_, nullptr),
      support::Counter::kSolveCacheHits, support::Counter::kSolveCacheMisses,
      [&] { return MemoTable::Value{to_ilp().proven_empty(), 0}; });
  return v[0] == 1;
}

bool IntegerSet::contains(const IntVector& point) const {
  PF_CHECK_MSG(point.size() == dims_, "contains: point has "
                                          << point.size() << " coords, set has "
                                          << dims_ << " dims");
  if (trivially_empty_) return false;
  for (const Constraint& c : constraints_) {
    const i64 v = c.expr.eval(point);
    if (c.is_equality ? v != 0 : v < 0) return false;
  }
  return true;
}

std::optional<IntVector> IntegerSet::sample_point() const {
  if (trivially_empty_) return std::nullopt;
  // Universe (any dimension, including zero): the origin is a point.
  if (constraints_.empty()) return IntVector(dims_, 0);
  const lp::IlpResult r = to_ilp().find_point();
  if (r.status == lp::IlpStatus::kOptimal) return r.point;
  return std::nullopt;
}

IntegerSet::Opt IntegerSet::integer_min(const AffineExpr& e) const {
  PF_CHECK(e.dims() == dims_);
  if (trivially_empty_) return Opt{Opt::kEmpty, 0};
  MemoTable* memo = active_memo();
  if (memo == nullptr) {
    // Same conservative recovery as is_empty: an inconclusive minimum
    // degrades to kUnknown, which every caller treats pessimistically.
    try {
      return integer_min_uncached(e);
    } catch (const support::BudgetExceeded&) {
      return Opt{Opt::kUnknown, 0};
    }
  }
  const MemoTable::Value v = memoize(
      *memo,
      solve_key(SolveOp::kMin, dims_, constraints_, &e),
      support::Counter::kSolveCacheHits, support::Counter::kSolveCacheMisses,
      [&] {
        const Opt r = integer_min_uncached(e);
        return MemoTable::Value{r.kind, r.value};
      });
  return Opt{static_cast<Opt::Kind>(v[0]), v[1]};
}

IntegerSet::Opt IntegerSet::integer_min_uncached(const AffineExpr& e) const {
  const lp::IlpResult r = to_ilp().minimize(e.coeffs());
  switch (r.status) {
    case lp::IlpStatus::kOptimal:
      return Opt{Opt::kOk, checked_add(r.objective, e.const_term())};
    case lp::IlpStatus::kInfeasible:
      return Opt{Opt::kEmpty, 0};
    case lp::IlpStatus::kUnbounded:
      return Opt{Opt::kUnbounded, 0};
    case lp::IlpStatus::kCapExceeded:
      return Opt{Opt::kUnknown, 0};
  }
  return Opt{Opt::kUnknown, 0};
}

IntegerSet::Opt IntegerSet::integer_max(const AffineExpr& e) const {
  Opt r = integer_min(-e);
  if (r.kind == Opt::kOk) r.value = checked_neg(r.value);
  return r;
}

void IntegerSet::dedupe(std::vector<Constraint>& cs) {
  // Hash-bucketed: near-linear instead of the quadratic all-pairs scan,
  // which matters after an FM step multiplies the row count.
  std::vector<Constraint> out;
  out.reserve(cs.size());
  std::unordered_map<std::size_t, std::vector<std::size_t>> buckets;
  buckets.reserve(cs.size());
  for (Constraint& c : cs) {
    auto& bucket = buckets[poly::hash_value(c)];
    bool seen = false;
    for (const std::size_t i : bucket)
      if (out[i] == c) {
        seen = true;
        break;
      }
    if (seen) {
      support::count(support::Counter::kFmeRowsDropped);
      continue;
    }
    bucket.push_back(out.size());
    out.push_back(std::move(c));
  }
  cs = std::move(out);
}

void IntegerSet::fm_eliminate_column(std::vector<Constraint>& cs,
                                     std::size_t k, bool* trivially_empty) {
  support::budget_charge(support::BudgetSite::kFmeProject);
  // Prefer exact substitution through an equality with a +-1 coefficient
  // on x_k: x_k = -(rest) keeps the projection integer-exact.
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (!cs[i].is_equality) continue;
    const i64 a = cs[i].expr.coeff(k);
    if (a != 1 && a != -1) continue;
    // e: a*x_k + rest == 0  =>  x_k == -a*rest (since a^2 == 1).
    const AffineExpr e = cs[i].expr;
    std::vector<Constraint> out;
    out.reserve(cs.size() - 1);
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if (j == i) continue;
      Constraint c = cs[j];
      const i64 b = c.expr.coeff(k);
      if (b != 0)
        c.expr = linear_combination(c.expr, 1, e, -static_cast<i128>(b) * a);
      PF_CHECK(c.expr.coeff(k) == 0);
      out.push_back(std::move(c));
    }
    cs = std::move(out);
    return;
  }

  // Expand remaining equalities involving x_k into inequality pairs, then
  // run classic Fourier-Motzkin (rational projection).
  std::vector<Constraint> work;
  work.reserve(cs.size() + cs.size() / 2);
  for (Constraint& c : cs) {
    if (c.is_equality && c.expr.coeff(k) != 0) {
      work.push_back(Constraint::ge0(c.expr));
      work.push_back(Constraint::ge0(-c.expr));
    } else {
      work.push_back(std::move(c));
    }
  }
  // Dedupe before the pairwise combination: duplicate lower or upper rows
  // would multiply straight into the quadratic blowup.
  dedupe(work);

  std::vector<Constraint> lowers, uppers, rest;
  lowers.reserve(work.size());
  uppers.reserve(work.size());
  rest.reserve(work.size());
  for (Constraint& c : work) {
    const i64 a = c.expr.coeff(k);
    if (a > 0)
      lowers.push_back(std::move(c));  // a*x_k >= -(rest)
    else if (a < 0)
      uppers.push_back(std::move(c));  // (-a)*x_k <= rest
    else
      rest.push_back(std::move(c));
  }

  rest.reserve(rest.size() + lowers.size() * uppers.size());
  i64 rows_generated = 0;
  for (const Constraint& lo : lowers) {
    for (const Constraint& up : uppers) {
      const i64 a = lo.expr.coeff(k);        // > 0
      const i64 b = checked_neg(up.expr.coeff(k));  // > 0
      // b*lo + a*up eliminates x_k.
      AffineExpr combined = linear_combination(lo.expr, b, up.expr, a);
      PF_CHECK(combined.coeff(k) == 0);
      support::count(support::Counter::kFmeRowsGenerated);
      ++rows_generated;
      support::budget_charge(support::BudgetSite::kFmeProject);
      if (combined.is_constant()) {
        if (combined.const_term() < 0) *trivially_empty = true;
        support::count(support::Counter::kFmeRowsDropped);
        continue;
      }
      rest.push_back(Constraint::ge0(std::move(combined)));
    }
  }
  support::observe(support::Hist::kFmeRowsPerElimination, rows_generated);
  cs = std::move(rest);
}

bool IntegerSet::eliminate_columns(std::vector<Constraint>& cs,
                                   std::vector<std::size_t> pending,
                                   bool exact_only, bool* empty) {
  while (!pending.empty() && !*empty) {
    // Cheapest column first (fewest lower*upper combinations; a +-1
    // equality substitutes for free). Under exact_only a column is a
    // candidate only when its rational shadow is its integer projection:
    // a +-1 equality, or unit coefficients on every lower or on every
    // upper bound (Pugh's exact shadow). An equality with a larger
    // coefficient expands into a non-unit lower *and* upper bound.
    std::size_t best_idx = 0;
    long best_cost = -1;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const std::size_t d = pending[i];
      long lo = 0, up = 0;
      bool has_unit_eq = false;
      bool unit_lowers = true;
      bool unit_uppers = true;
      for (const Constraint& c : cs) {
        const i64 a = c.expr.coeff(d);
        if (a == 0) continue;
        if (c.is_equality && (a == 1 || a == -1)) has_unit_eq = true;
        if (c.is_equality || a > 1) unit_lowers = false;
        if (c.is_equality || a < -1) unit_uppers = false;
        if (a > 0)
          ++lo;
        else
          ++up;
      }
      if (exact_only && !has_unit_eq && !unit_lowers && !unit_uppers)
        continue;
      const long cost = has_unit_eq ? 0 : lo * up;
      if (best_cost < 0 || cost < best_cost) {
        best_cost = cost;
        best_idx = i;
      }
    }
    if (best_cost < 0) return false;
    const std::size_t d = pending[best_idx];
    pending.erase(pending.begin() + static_cast<long>(best_idx));
    fm_eliminate_column(cs, d, empty);
    dedupe(cs);
  }
  return true;
}

IntegerSet IntegerSet::shrunk(const std::vector<Constraint>& cs, bool empty,
                              const std::vector<bool>& remove) {
  std::size_t new_dims = 0;
  for (const bool r : remove)
    if (!r) ++new_dims;
  IntegerSet out(new_dims);
  if (empty) {
    out.mark_trivially_empty();
    return out;
  }
  for (const Constraint& c : cs)
    out.add_constraint(Constraint{c.expr.drop_dims(remove), c.is_equality});
  return out;
}

IntegerSet IntegerSet::eliminate_dims(const std::vector<bool>& remove) const {
  PF_CHECK(remove.size() == dims_);
  std::vector<Constraint> cs = constraints_;
  bool empty = trivially_empty_;
  std::vector<std::size_t> pending;
  for (std::size_t d = 0; d < dims_; ++d)
    if (remove[d]) pending.push_back(d);
  // One fme_project "operation" per projection that actually eliminates
  // something (the --inject unit).
  if (!pending.empty()) support::budget_op(support::BudgetSite::kFmeProject);
  eliminate_columns(cs, std::move(pending), /*exact_only=*/false, &empty);
  return shrunk(cs, empty, remove);
}

std::optional<IntegerSet> IntegerSet::exact_projection_onto_prefix(
    std::size_t n) const {
  PF_CHECK(n <= dims_);
  std::vector<Constraint> cs = constraints_;
  bool empty = trivially_empty_;
  std::vector<std::size_t> pending;
  for (std::size_t d = n; d < dims_; ++d) pending.push_back(d);
  if (!eliminate_columns(cs, std::move(pending), /*exact_only=*/true, &empty))
    return std::nullopt;
  std::vector<bool> remove(dims_, false);
  for (std::size_t d = n; d < dims_; ++d) remove[d] = true;
  return shrunk(cs, empty, remove);
}

IntegerSet IntegerSet::eliminate_dim(std::size_t k) const {
  std::vector<bool> remove(dims_, false);
  remove[k] = true;
  return eliminate_dims(remove);
}

IntegerSet IntegerSet::project_onto_prefix(std::size_t n) const {
  PF_CHECK(n <= dims_);
  std::vector<bool> remove(dims_, false);
  for (std::size_t d = n; d < dims_; ++d) remove[d] = true;
  return eliminate_dims(remove);
}

IntegerSet IntegerSet::insert_dims(std::size_t pos, std::size_t count) const {
  IntegerSet out(dims_ + count);
  if (trivially_empty_) {
    out.mark_trivially_empty();
    return out;
  }
  for (const Constraint& c : constraints_)
    out.constraints_.push_back(
        Constraint{c.expr.insert_dims(pos, count), c.is_equality});
  return out;
}

namespace {

// Value of `c`'s expression at the rational point x, given over `cols`.
Rational value_at(const Constraint& c, const std::vector<std::size_t>& cols,
                  const RatVector& x) {
  Rational v(c.expr.const_term());
  for (std::size_t k = 0; k < cols.size(); ++k)
    if (c.expr.coeff(cols[k]) != 0 && !x[k].is_zero())
      v += x[k] * c.expr.coeff(cols[k]);
  return v;
}

}  // namespace

// Decides each row exactly as the sequential rule "drop row i iff the LP
// min of its expression over R_i (the kept rows before i, every row
// after i) is finite and >= 0", but over a small working set S of R_i
// (constraint generation; DESIGN.md "Redundancy removal"):
//  * minimize expr_i over S plus the helper row expr_i + 1 >= 0. The
//    helper bounds the LP; given a point of the whole set it does not
//    change whether the minimum is >= 0;
//  * min >= 0: S implies row i, so R_i does; drop it;
//  * else the LP point x has expr_i(x) < 0. If x satisfies R_i, row i is
//    needed; keep it. Otherwise add R_i's first row x violates to S and
//    solve again.
// S starts as the equalities and carries over from row to row, minus
// dropped rows. A set with no rational point keeps every row under the
// sequential rule (each LP is infeasible or needs its row for the
// infeasibility), so it is returned unchanged.
void IntegerSet::remove_redundant() {
  if (trivially_empty_) return;
  support::TraceSpan span("poly", "remove_redundant");
  const std::size_t n = constraints_.size();
  // The LPs run over the columns some row uses; the others change no
  // answer (Farkas systems leave most statements' columns empty).
  std::vector<std::size_t> cols;
  for (std::size_t d = 0; d < dims_; ++d)
    if (std::any_of(constraints_.begin(), constraints_.end(),
                    [d](const Constraint& c) { return c.expr.coeff(d) != 0; }))
      cols.push_back(d);
  auto coeffs_of = [&cols](const Constraint& c) {
    RatVector v(cols.size());
    for (std::size_t k = 0; k < cols.size(); ++k)
      v[k] = Rational(c.expr.coeff(cols[k]));
    return v;
  };
  i64 lps = 0;
  auto solve = [&](const lp::SimplexSolver& lp, const RatVector& objective) {
    ++lps;
    support::count(support::Counter::kRedundancyLps);
    return lp.minimize(objective);
  };
  auto add_row = [&](lp::SimplexSolver& lp, const Constraint& c,
                     i64 const_shift = 0) {
    if (c.is_equality)
      lp.add_equality(coeffs_of(c), Rational(c.expr.const_term()));
    else
      lp.add_inequality(coeffs_of(c),
                        Rational(c.expr.const_term()) + const_shift);
  };

  // The helper row's argument needs one rational point of the whole set.
  // x = 0 is one for every Farkas system; otherwise ask phase 1.
  bool feasible = std::all_of(
      constraints_.begin(), constraints_.end(), [](const Constraint& c) {
        return c.is_equality ? c.expr.const_term() == 0
                             : c.expr.const_term() >= 0;
      });
  if (!feasible) {
    lp::SimplexSolver lp = lp::SimplexSolver::all_free(cols.size());
    for (const Constraint& c : constraints_) add_row(lp, c);
    feasible =
        solve(lp, RatVector(cols.size())).status == lp::Status::kOptimal;
  }

  std::vector<bool> dropped(n, false);
  std::vector<bool> in_s(n, false);
  for (std::size_t j = 0; j < n; ++j) in_s[j] = constraints_[j].is_equality;
  for (std::size_t i = 0; feasible && i < n; ++i) {
    const Constraint& row = constraints_[i];
    if (row.is_equality) continue;
    const RatVector objective = coeffs_of(row);
    for (;;) {
      lp::SimplexSolver lp = lp::SimplexSolver::all_free(cols.size());
      for (std::size_t j = 0; j < n; ++j)
        if (in_s[j] && j != i) add_row(lp, constraints_[j]);
      add_row(lp, row, /*const_shift=*/1);
      const auto r = solve(lp, objective);
      PF_CHECK_MSG(r.status == lp::Status::kOptimal,
                   "redundancy LP must be feasible and bounded");
      if (r.objective + Rational(row.expr.const_term()) >= 0) {
        dropped[i] = true;
        in_s[i] = false;
        break;
      }
      std::size_t violated = n;
      for (std::size_t j = 0; j < n && violated == n; ++j)
        if (j != i && !dropped[j] && !in_s[j] &&
            value_at(constraints_[j], cols, r.point) < 0)
          violated = j;
      if (violated == n) break;  // x witnesses that row i is needed
      in_s[violated] = true;
    }
  }

  std::vector<Constraint> kept;
  for (std::size_t j = 0; j < n; ++j)
    if (!dropped[j]) kept.push_back(std::move(constraints_[j]));
  constraints_ = std::move(kept);
  if (span.active()) {
    span.attr("rows_in", static_cast<i64>(n));
    span.attr("rows_kept", static_cast<i64>(constraints_.size()));
    span.attr("lps", lps);
  }
}

std::size_t IntegerSet::hash_value() const {
  // Commutative accumulation over per-constraint hashes makes the result
  // insertion-order independent; constraints are already gcd-normalized
  // and deduplicated by add_constraint, so equal sets hash equal.
  std::size_t acc = 0;
  for (const Constraint& c : constraints_)
    acc += poly::hash_value(c);  // + is commutative: order-independent
  std::size_t seed = std::hash<std::size_t>{}(dims_);
  hash_combine(seed, acc);
  hash_combine(seed, std::hash<bool>{}(trivially_empty_));
  return seed;
}

std::string IntegerSet::to_string(
    const std::vector<std::string>& names) const {
  if (trivially_empty_) return "{ false }";
  std::ostringstream os;
  os << "{ ";
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (i != 0) os << " and ";
    os << constraints_[i].to_string(names);
  }
  if (constraints_.empty()) os << "true";
  os << " }";
  return os.str();
}

}  // namespace pf::poly
