#include "lp/ilp.h"

#include <algorithm>
#include <chrono>

#include "support/budget.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace pf::lp {

namespace {

// Per-solve histogram probe: observes the node count and wall time of one
// top-level B&B minimize on every return path (including early exits).
struct IlpSolveProbe {
  long nodes = 0;
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  ~IlpSolveProbe() {
    support::observe(support::Hist::kIlpNodesPerSolve, nodes);
    support::observe(
        support::Hist::kIlpSolveMicros,
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
};

}  // namespace

const char* to_string(IlpStatus s) {
  switch (s) {
    case IlpStatus::kOptimal:
      return "optimal";
    case IlpStatus::kInfeasible:
      return "infeasible";
    case IlpStatus::kUnbounded:
      return "unbounded";
    case IlpStatus::kCapExceeded:
      return "cap-exceeded";
  }
  return "?";
}

IlpProblem::IlpProblem(std::size_t num_vars, std::vector<bool> nonneg)
    : num_vars_(num_vars), nonneg_(std::move(nonneg)) {
  PF_CHECK(nonneg_.size() == num_vars_);
}

IlpProblem IlpProblem::all_nonneg(std::size_t num_vars) {
  return IlpProblem(num_vars, std::vector<bool>(num_vars, true));
}

IlpProblem IlpProblem::all_free(std::size_t num_vars) {
  return IlpProblem(num_vars, std::vector<bool>(num_vars, false));
}

bool IlpProblem::normalize(Row& row) {
  i64 g = 0;
  for (i64 c : row.coeffs) g = gcd(g, c);
  if (g == 0) {
    // 0 . x + constant (>= | ==) 0: constant row, keep as-is; the simplex
    // handles it (constant rows become trivially (in)feasible).
    return !(row.is_equality ? row.constant != 0 : row.constant < 0);
  }
  if (g == 1) return true;
  for (i64& c : row.coeffs) c /= g;
  if (row.is_equality) {
    if (row.constant % g != 0) return false;  // no integer solution
    row.constant /= g;
  } else {
    // coeffs.x >= -constant  ->  (coeffs/g).x >= ceil(-constant / g),
    // i.e. constant' = floor(constant / g) (valid tightening for integers).
    row.constant = floor_div(row.constant, g);
  }
  return true;
}

void IlpProblem::add_inequality(IntVector coeffs, i64 constant) {
  PF_CHECK(coeffs.size() == num_vars_);
  Row row{std::move(coeffs), constant, /*is_equality=*/false};
  if (!normalize(row)) trivially_infeasible_ = true;
  rows_.push_back(std::move(row));
}

void IlpProblem::add_equality(IntVector coeffs, i64 constant) {
  PF_CHECK(coeffs.size() == num_vars_);
  Row row{std::move(coeffs), constant, /*is_equality=*/true};
  if (!normalize(row)) trivially_infeasible_ = true;
  rows_.push_back(std::move(row));
}

void IlpProblem::add_lower_bound(std::size_t v, i64 bound) {
  IntVector c(num_vars_, 0);
  c[v] = 1;
  add_inequality(std::move(c), checked_neg(bound));
}

void IlpProblem::add_upper_bound(std::size_t v, i64 bound) {
  IntVector c(num_vars_, 0);
  c[v] = -1;
  add_inequality(std::move(c), bound);
}

namespace {

struct BranchBound {
  std::size_t var;
  bool is_upper;  // x_var <= value (else x_var >= value)
  i64 value;
};

RatVector to_rat(const IntVector& v) {
  RatVector r(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) r[i] = Rational(v[i]);
  return r;
}

// objective . point in 128 bits; nullopt when the value leaves int64
// (an unusable warm bound, not an error).
std::optional<i64> dot_objective(const IntVector& objective,
                                 const IntVector& point) {
  i128 acc = 0;
  for (std::size_t i = 0; i < objective.size(); ++i)
    acc += static_cast<i128>(objective[i]) * point[i];
  if (acc < static_cast<i128>(INT64_MIN) || acc > static_cast<i128>(INT64_MAX))
    return std::nullopt;
  return static_cast<i64>(acc);
}

}  // namespace

IlpResult IlpProblem::minimize(const IntVector& objective,
                               std::optional<i64> warm_bound) const {
  return search(objective, warm_bound, kNodeCap);
}

IlpResult IlpProblem::search(const IntVector& objective,
                             std::optional<i64> warm_bound,
                             long node_cap) const {
  PF_CHECK(objective.size() == num_vars_);
  support::count(support::Counter::kIlpSolves);
  // One lp_solve "operation" per top-level minimize: the unit --inject
  // counts. Nodes and pivots below only burn fuel.
  support::budget_op(support::BudgetSite::kLpSolve);
  IlpSolveProbe probe;
  long& nodes = probe.nodes;
  support::TraceSpan span("lp", "ilp_minimize");
  if (span.active()) {
    span.attr("vars", static_cast<i64>(num_vars_));
    span.attr("rows", static_cast<i64>(rows_.size()));
  }
  if (trivially_infeasible_) {
    span.attr("status", "trivially-infeasible");
    return IlpResult{IlpStatus::kInfeasible, {}, 0};
  }

  const bool pure_feasibility =
      std::all_of(objective.begin(), objective.end(),
                  [](i64 c) { return c == 0; });
  const RatVector rat_objective = to_rat(objective);

  // The base LP relaxation is identical for every node; build it once and
  // copy per node (a flat copy of canonical Rationals), adding only the
  // node's branch bounds on top.
  const SimplexSolver base = relaxation();

  std::optional<IntVector> incumbent;
  Rational incumbent_obj(0);
  bool cap_hit = false;

  std::vector<std::vector<BranchBound>> stack;
  stack.push_back({});

  while (!stack.empty()) {
    if (++nodes > node_cap) {
      cap_hit = true;
      break;
    }
    support::count(support::Counter::kIlpNodes);
    support::budget_charge(support::BudgetSite::kLpSolve);
    const std::vector<BranchBound> bounds = std::move(stack.back());
    stack.pop_back();

    // The node's LP relaxation: base rows + branch bounds.
    SimplexSolver lp = base;
    for (const BranchBound& b : bounds) {
      RatVector c(num_vars_, Rational(0));
      c[b.var] = b.is_upper ? Rational(-1) : Rational(1);
      lp.add_inequality(std::move(c),
                        b.is_upper ? Rational(b.value) : Rational(-b.value));
    }

    const SimplexSolver::Result rel = lp.minimize(rat_objective);
    if (rel.status == Status::kInfeasible) continue;
    if (rel.status == Status::kUnbounded) {
      // Integer unboundedness follows for rational polyhedra that contain
      // an integer point along the ray; polyfuse callers only minimize
      // objectives they know to be bounded, so surface it directly.
      span.attr("status", pf::lp::to_string(IlpStatus::kUnbounded));
      return IlpResult{IlpStatus::kUnbounded, {}, 0};
    }
    // A warm bound is the objective of a known feasible point. The prune
    // is strict (>): nodes that merely tie the bound are still explored,
    // so the first optimal point the cold search finds is also the one
    // found here.
    if (warm_bound && rel.objective > *warm_bound) continue;
    if (incumbent && rel.objective >= incumbent_obj) continue;  // pruned

    // Find a fractional coordinate.
    std::size_t frac = num_vars_;
    for (std::size_t j = 0; j < num_vars_; ++j) {
      if (!rel.point[j].is_integer()) {
        frac = j;
        break;
      }
    }
    if (frac == num_vars_) {
      IntVector point(num_vars_);
      for (std::size_t j = 0; j < num_vars_; ++j)
        point[j] = rel.point[j].as_integer();
      if (!incumbent || rel.objective < incumbent_obj) {
        incumbent = std::move(point);
        incumbent_obj = rel.objective;
      }
      if (pure_feasibility) break;  // any point will do
      continue;
    }

    // Branch: x_frac <= floor(v)  |  x_frac >= floor(v) + 1.
    const i64 fl = rel.point[frac].floor();
    auto down = bounds;
    down.push_back(BranchBound{frac, /*is_upper=*/true, fl});
    auto up = bounds;
    up.push_back(BranchBound{frac, /*is_upper=*/false, checked_add(fl, 1)});
    stack.push_back(std::move(up));
    stack.push_back(std::move(down));
  }

  if (span.active()) span.attr("nodes", static_cast<i64>(nodes));
  if (incumbent) {
    // A cap hit with an incumbent in hand still yields the incumbent, but
    // optimality is not proven; report kCapExceeded so callers can be
    // conservative, unless the search completed.
    IlpResult res;
    res.status = cap_hit ? IlpStatus::kCapExceeded : IlpStatus::kOptimal;
    res.point = *incumbent;
    res.objective = incumbent_obj.as_integer();
    span.attr("status", pf::lp::to_string(res.status));
    return res;
  }
  const IlpStatus status =
      cap_hit ? IlpStatus::kCapExceeded : IlpStatus::kInfeasible;
  span.attr("status", pf::lp::to_string(status));
  return IlpResult{status, {}, 0};
}

IlpResult IlpProblem::maximize(const IntVector& objective) const {
  IntVector neg(objective.size());
  for (std::size_t i = 0; i < objective.size(); ++i)
    neg[i] = checked_neg(objective[i]);
  IlpResult r = minimize(neg);
  if (r.status == IlpStatus::kOptimal) r.objective = checked_neg(r.objective);
  return r;
}

IlpResult IlpProblem::find_point(long node_cap) const {
  return search(IntVector(num_vars_, 0), std::nullopt, node_cap);
}

IlpResult IlpProblem::lexmin(const std::vector<IntVector>& objectives,
                             const IntVector* warm_start) const {
  // Warm point: feasible for the current `work` problem, so its objective
  // value strictly bounds each stage's branch-and-bound. The external
  // point (from the scheduler's previous level) is validated first --
  // structural changes make it stale, never wrong. Stage k's own optimum
  // then becomes the warm point of stage k+1 (it satisfies the pinning
  // equality by construction). testing::ExactPathScope bypasses all of
  // this, so a differential test can compare against a cold run.
  const bool use_warm = !testing::exact_path_forced();
  std::optional<IntVector> warm;
  if (warm_start != nullptr && use_warm) {
    if (is_feasible_point(*warm_start)) {
      warm = *warm_start;
      support::count(support::Counter::kFastlaneWarmHits);
    } else {
      support::count(support::Counter::kFastlaneWarmMisses);
    }
  }
  IlpProblem work = *this;
  IlpResult last;
  last.status = IlpStatus::kInfeasible;
  for (std::size_t k = 0; k < objectives.size(); ++k) {
    std::optional<i64> bound;
    if (warm) bound = dot_objective(objectives[k], *warm);
    last = work.minimize(objectives[k], bound);
    if (last.status != IlpStatus::kOptimal) return last;
    if (k + 1 < objectives.size())
      work.add_equality(objectives[k], checked_neg(last.objective));
    if (use_warm) warm = last.point;
  }
  if (objectives.empty()) last = find_point();
  return last;
}

SimplexSolver IlpProblem::relaxation() const {
  SimplexSolver lp(num_vars_, nonneg_);
  for (const Row& row : rows_) {
    if (row.is_equality)
      lp.add_equality(to_rat(row.coeffs), Rational(row.constant));
    else
      lp.add_inequality(to_rat(row.coeffs), Rational(row.constant));
  }
  return lp;
}

std::optional<Rational> IlpProblem::relaxation_max(
    const IntVector& objective) const {
  PF_CHECK(objective.size() == num_vars_);
  if (trivially_infeasible_) return std::nullopt;
  // Charged like one B&B node; the pivots charge their own fuel.
  support::budget_charge(support::BudgetSite::kLpSolve);
  const SimplexSolver::Result r = relaxation().maximize(to_rat(objective));
  if (r.status != Status::kOptimal) return std::nullopt;
  return r.objective;
}

bool IlpProblem::is_feasible_point(const IntVector& point) const {
  if (point.size() != num_vars_ || trivially_infeasible_) return false;
  for (std::size_t j = 0; j < num_vars_; ++j)
    if (nonneg_[j] && point[j] < 0) return false;
  for (const Row& row : rows_) {
    i128 acc = row.constant;
    for (std::size_t j = 0; j < num_vars_; ++j)
      acc += static_cast<i128>(row.coeffs[j]) * point[j];
    if (row.is_equality ? acc != 0 : acc < 0) return false;
  }
  return true;
}

bool IlpProblem::proven_empty() const {
  return find_point().status == IlpStatus::kInfeasible;
}

}  // namespace pf::lp
