// Exact two-phase primal simplex over rationals.
//
// This is the LP core under all of polyfuse: dependence-polyhedron
// emptiness tests, min/max of affine forms over polyhedra, and the LP
// relaxations inside the branch-and-bound ILP used by the Pluto-style
// scheduler. Bland's rule guarantees termination; all arithmetic is exact,
// so answers are never victims of floating-point noise.
//
// One tableau kernel runs on two cell types: int64 cells first, and
// arbitrary-precision BigInt cells (lp/bigint.h) when the int64 instance
// would overflow (or under lp::testing::ExactPathScope). Both take the same
// pivots and return the same Result; the only error left is an optimum
// whose values do not fit in 64-bit Rationals.
//
// Problem form. Variables x_0..x_{n-1}; each is either free or constrained
// non-negative. Constraints are affine: coeffs . x + constant >= 0 (or
// == 0). minimize() solves min objective . x.
#pragma once

#include <vector>

#include "support/linalg.h"
#include "support/rational.h"

namespace pf::lp {

enum class Status { kOptimal, kInfeasible, kUnbounded };

const char* to_string(Status s);

class SimplexSolver {
 public:
  /// `nonneg[j]` marks variable j as >= 0; free variables are internally
  /// split into a difference of two non-negative columns.
  SimplexSolver(std::size_t num_vars, std::vector<bool> nonneg);

  /// Convenience: all variables non-negative (the scheduler's case).
  static SimplexSolver all_nonneg(std::size_t num_vars);
  /// Convenience: all variables free (the dependence-polyhedron case).
  static SimplexSolver all_free(std::size_t num_vars);

  std::size_t num_vars() const { return num_vars_; }

  /// Adds coeffs . x + constant >= 0.
  void add_inequality(RatVector coeffs, Rational constant);
  /// Adds coeffs . x + constant == 0.
  void add_equality(RatVector coeffs, Rational constant);

  struct Result {
    Status status = Status::kInfeasible;
    RatVector point;      // valid iff status == kOptimal
    Rational objective;   // valid iff status == kOptimal
  };

  /// min objective . x over the current constraint set.
  Result minimize(const RatVector& objective) const;

  /// max objective . x (negated minimize).
  Result maximize(const RatVector& objective) const;

  /// Any feasible point (phase-1 only).
  Result feasible_point() const;

 private:
  struct Row {
    RatVector coeffs;
    Rational constant;
    bool is_equality;
  };

  /// One solve on the kernel instance with `Cell` cells (i64 or BigInt).
  /// The i64 instance throws (internally) when a value leaves the 62-bit
  /// safe range, and minimize() reruns the solve on BigInt cells.
  template <typename Cell>
  Result solve(const RatVector& objective) const;

  std::size_t num_vars_;
  std::vector<bool> nonneg_;
  std::vector<Row> rows_;
};

namespace testing {

/// Test seam for differential tests: the pipeline with no shortcut. While
/// any ExactPathScope is alive, on any thread, every simplex solve runs on
/// BigInt cells, every IlpProblem::lexmin ignores its warm start and
/// nothing is memoized (poly::active_memo() is nullptr) -- the reference
/// whose answers the default path must reproduce bit for bit. Nothing
/// outside tests creates one.
class ExactPathScope {
 public:
  ExactPathScope();
  ~ExactPathScope();
  ExactPathScope(const ExactPathScope&) = delete;
  ExactPathScope& operator=(const ExactPathScope&) = delete;
};

/// True while an ExactPathScope is alive.
bool exact_path_forced();

}  // namespace testing

}  // namespace pf::lp
