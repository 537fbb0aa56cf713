// Integer linear programming by branch-and-bound over the exact rational
// simplex.
//
// This plays the role PIP/ISL's ILP plays in Pluto: integer emptiness of
// dependence polyhedra, integer min/max of affine forms over polyhedra
// (dependence-satisfaction and parallelism tests), and the per-level
// scheduler ILP with its lexicographic objective.
//
// Termination notes. Equality rows are GCD-normalized up front (an
// equality with gcd(coeffs) not dividing the constant is reported
// infeasible immediately) and inequality rows are GCD-tightened, which
// eliminates the classic non-terminating branch patterns. A node cap
// bounds the search regardless; hitting it yields kCapExceeded, which all
// polyfuse callers treat conservatively (e.g. "dependence may exist").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "lp/simplex.h"
#include "support/intmath.h"

namespace pf::lp {

enum class IlpStatus { kOptimal, kInfeasible, kUnbounded, kCapExceeded };

const char* to_string(IlpStatus s);

/// Branch-and-bound nodes one search may visit before it gives up with
/// kCapExceeded.
inline constexpr long kNodeCap = 200000;

struct IlpResult {
  IlpStatus status = IlpStatus::kInfeasible;
  IntVector point;     // valid iff status == kOptimal
  i64 objective = 0;   // valid iff status == kOptimal
};

/// An ILP/feasibility problem over integer variables. Constraints use
/// integer coefficients: coeffs . x + constant >= 0 (or == 0).
class IlpProblem {
 public:
  IlpProblem(std::size_t num_vars, std::vector<bool> nonneg);

  static IlpProblem all_nonneg(std::size_t num_vars);
  static IlpProblem all_free(std::size_t num_vars);

  std::size_t num_vars() const { return num_vars_; }

  void add_inequality(IntVector coeffs, i64 constant);
  void add_equality(IntVector coeffs, i64 constant);
  /// x_v >= bound.
  void add_lower_bound(std::size_t v, i64 bound);
  /// x_v <= bound.
  void add_upper_bound(std::size_t v, i64 bound);

  /// min objective . x over integer points. `warm_bound`, when given,
  /// must be the objective value of some feasible integer point (e.g. a
  /// warm-start solution); branch-and-bound prunes every node whose LP
  /// relaxation exceeds it *strictly*, so the search returns the same
  /// point it would have found without the bound -- just faster.
  IlpResult minimize(const IntVector& objective,
                     std::optional<i64> warm_bound = std::nullopt) const;

  /// max objective . x over integer points.
  IlpResult maximize(const IntVector& objective) const;

  /// Any integer point. status is kOptimal (point), kInfeasible, or
  /// kCapExceeded. `node_cap` is a test seam; every caller keeps kNodeCap.
  IlpResult find_point(long node_cap = kNodeCap) const;

  /// Lexicographic minimization: minimize objectives[0], fix its value,
  /// minimize objectives[1], ... Returns the final point.
  ///
  /// `warm_start`, when non-null, is a candidate feasible point from an
  /// earlier, similar solve (the scheduler reuses the previous level's
  /// hyperplane). It is validated against this problem's constraints
  /// before use -- a stale point is simply ignored -- and only ever
  /// tightens the strict pruning bound, so the returned point is the one
  /// the cold search finds. testing::ExactPathScope (lp/simplex.h) turns
  /// warm starts off.
  IlpResult lexmin(const std::vector<IntVector>& objectives,
                   const IntVector* warm_start = nullptr) const;

  /// max objective . x over the LP relaxation (rational points of the
  /// GCD-tightened rows); nullopt when the relaxation is infeasible or
  /// unbounded. An upper bound on maximize()'s integer optimum, at the
  /// cost of one B&B node: same fuel, same pivot counters.
  std::optional<Rational> relaxation_max(const IntVector& objective) const;

  /// True if the constraint set has no integer point (kInfeasible). A
  /// kCapExceeded search counts as "not proven empty" -> false.
  bool proven_empty() const;

 private:
  struct Row {
    IntVector coeffs;
    i64 constant;
    bool is_equality;
  };

  // The branch-and-bound search behind minimize() and find_point().
  IlpResult search(const IntVector& objective, std::optional<i64> warm_bound,
                   long node_cap) const;

  // Normalize a row by the gcd of its coefficients; returns false if an
  // equality is thereby proven unsatisfiable over the integers.
  static bool normalize(Row& row);

  // The rows as an LP (the root of every branch-and-bound search).
  SimplexSolver relaxation() const;

  // Exact membership test (128-bit row evaluation, no solver) -- the
  // warm-start validator.
  bool is_feasible_point(const IntVector& point) const;

  std::size_t num_vars_;
  std::vector<bool> nonneg_;
  std::vector<Row> rows_;
  bool trivially_infeasible_ = false;
};

}  // namespace pf::lp
