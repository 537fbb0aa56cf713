// Differential tests for the int64 fast lane (lp/fastlane.h): the
// integer simplex tableau, the integer FM row combination, and the
// warm-started lexmin must all return bit-identical results with the
// lane on or off -- on random inputs, on inputs engineered to overflow
// the lane mid-solve, and with fallbacks forced through the
// `lp.fastlane` injection site.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "ddg/dependences.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "lp/fastlane.h"
#include "lp/ilp.h"
#include "lp/simplex.h"
#include "poly/set.h"
#include "sched/pluto.h"
#include "suite/synthetic.h"
#include "support/budget.h"
#include "support/metrics.h"

namespace pf {
namespace {

// Force the lane on/off for one scope; restore the suite default (on --
// the env override only matters for the CLI binary) on exit.
class LaneGuard {
 public:
  explicit LaneGuard(bool enabled) { lp::set_fastlane_enabled(enabled); }
  ~LaneGuard() { lp::set_fastlane_enabled(true); }
};

i64 counter(support::Counter c) { return support::current_metrics().get(c); }

void expect_same_result(const lp::SimplexSolver::Result& fast,
                        const lp::SimplexSolver::Result& exact,
                        const std::string& context) {
  ASSERT_EQ(fast.status, exact.status) << context;
  if (fast.status != lp::Status::kOptimal) return;
  EXPECT_EQ(fast.objective, exact.objective) << context;
  ASSERT_EQ(fast.point.size(), exact.point.size()) << context;
  for (std::size_t i = 0; i < fast.point.size(); ++i)
    EXPECT_EQ(fast.point[i], exact.point[i]) << context << " x" << i;
}

TEST(Fastlane, RandomizedSimplexMatchesExactLane) {
  std::mt19937 rng(20240);
  std::uniform_int_distribution<i64> coef(-9, 9);
  std::uniform_int_distribution<i64> den(1, 4);
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t nvars = 1 + rng() % 4;
    const bool nonneg = rng() % 2 == 0;
    auto s = nonneg ? lp::SimplexSolver::all_nonneg(nvars)
                    : lp::SimplexSolver::all_free(nvars);
    const std::size_t nrows = 1 + rng() % (2 * nvars + 1);
    for (std::size_t r = 0; r < nrows; ++r) {
      RatVector row;
      for (std::size_t v = 0; v < nvars; ++v)
        row.push_back(Rational(coef(rng), den(rng)));
      const Rational c(coef(rng), den(rng));
      if (rng() % 4 == 0)
        s.add_equality(row, c);
      else
        s.add_inequality(row, c);
    }
    RatVector obj;
    for (std::size_t v = 0; v < nvars; ++v)
      obj.push_back(Rational(coef(rng), den(rng)));

    lp::SimplexSolver::Result fast, exact;
    {
      LaneGuard g(true);
      fast = s.minimize(obj);
    }
    {
      LaneGuard g(false);
      exact = s.minimize(obj);
    }
    expect_same_result(fast, exact, "iter " + std::to_string(iter));
  }
}

TEST(Fastlane, OverflowFallsBackToExactLaneMidPipeline) {
  // Row denominators whose LCM exceeds the 2^62 tableau bound: the fast
  // lane must bail while building the row and the kernel's bignum
  // instance must transparently take over, with the fallback counted.
  const i64 primes[4] = {99991, 99989, 99971, 99961};
  auto s = lp::SimplexSolver::all_nonneg(4);
  RatVector row;
  for (const i64 p : primes) row.push_back(Rational(1, p));
  s.add_inequality(row, Rational(-1));  // sum x_i/p_i >= 1
  const RatVector obj(4, Rational(1));

  support::current_metrics().reset();
  lp::SimplexSolver::Result fast, exact;
  {
    LaneGuard g(true);
    fast = s.minimize(obj);
  }
  EXPECT_EQ(counter(support::Counter::kFastlaneSolves), 0);
  EXPECT_EQ(counter(support::Counter::kFastlaneFallbacks), 1);
  {
    LaneGuard g(false);
    exact = s.minimize(obj);
  }
  expect_same_result(fast, exact, "lcm overflow");
  ASSERT_EQ(fast.status, lp::Status::kOptimal);
  // Cheapest way to reach sum x_i/p_i = 1 is the smallest prime.
  EXPECT_EQ(fast.objective, Rational(99961));
}

TEST(Fastlane, InjectionForcesSimplexFallbackWithoutFault) {
  support::BudgetSpec spec;
  spec.injections.push_back({support::BudgetSite::kLpFastlane, 1});
  support::Budget b(spec);
  support::BudgetScope scope(&b);
  support::current_metrics().reset();

  auto s = lp::SimplexSolver::all_nonneg(2);
  s.add_inequality(RatVector{Rational(1), Rational(0)}, Rational(-2));
  s.add_inequality(RatVector{Rational(0), Rational(1)}, Rational(-3));
  const RatVector obj{Rational(1), Rational(1)};

  LaneGuard g(true);
  const auto r0 = s.minimize(obj);  // ordinal 0: fast lane
  const auto r1 = s.minimize(obj);  // ordinal 1: injected -> exact lane
  const auto r2 = s.minimize(obj);  // ordinal 2: single-shot, fast again
  expect_same_result(r0, r1, "injected solve");
  expect_same_result(r0, r2, "post-injection solve");
  EXPECT_EQ(r0.objective, Rational(5));

  EXPECT_EQ(counter(support::Counter::kFastlaneSolves), 2);
  EXPECT_EQ(counter(support::Counter::kFastlaneFallbacks), 1);
  EXPECT_EQ(counter(support::Counter::kBudgetInjectedFaults), 1);
  // A forced fallback is not a fault: nothing throws, nothing degrades.
  EXPECT_EQ(b.faults(), 0);
}

poly::IntegerSet random_set(std::mt19937& rng, std::size_t dims) {
  std::uniform_int_distribution<i64> coef(-6, 6);
  poly::IntegerSet set(dims);
  const std::size_t nrows = 2 + rng() % (2 * dims);
  for (std::size_t r = 0; r < nrows; ++r) {
    IntVector coeffs;
    for (std::size_t d = 0; d < dims; ++d) coeffs.push_back(coef(rng));
    poly::AffineExpr e(std::move(coeffs), coef(rng));
    if (rng() % 5 == 0)
      set.add_constraint(poly::Constraint::eq0(std::move(e)));
    else
      set.add_constraint(poly::Constraint::ge0(std::move(e)));
  }
  return set;
}

TEST(Fastlane, RandomizedFmEliminationMatchesExactLane) {
  std::mt19937 rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t dims = 3 + rng() % 3;
    const poly::IntegerSet set = random_set(rng, dims);
    std::vector<bool> remove(dims, false);
    const std::size_t nremove = 1 + rng() % 2;
    for (std::size_t i = 0; i < nremove; ++i) remove[rng() % dims] = true;

    std::string fast, exact;
    {
      LaneGuard g(true);
      fast = set.eliminate_dims(remove).to_string();
    }
    {
      LaneGuard g(false);
      exact = set.eliminate_dims(remove).to_string();
    }
    EXPECT_EQ(fast, exact) << "iter " << iter;
  }
}

TEST(Fastlane, InjectionForcesFmeFallback) {
  support::BudgetSpec spec;
  spec.injections.push_back({support::BudgetSite::kLpFastlane, 0});
  support::Budget b(spec);
  support::BudgetScope scope(&b);
  support::current_metrics().reset();

  std::mt19937 rng(5);
  const poly::IntegerSet set = random_set(rng, 4);
  std::vector<bool> remove{false, true, false, true};
  std::string forced;
  {
    LaneGuard g(true);
    forced = set.eliminate_dims(remove).to_string();
  }
  EXPECT_GE(counter(support::Counter::kFastlaneFmeFallbacks), 1);
  EXPECT_EQ(counter(support::Counter::kBudgetInjectedFaults), 1);
  EXPECT_EQ(b.faults(), 0);

  std::string exact;
  {
    LaneGuard g(false);
    exact = set.eliminate_dims(remove).to_string();
  }
  EXPECT_EQ(forced, exact);
}

TEST(Fastlane, LexminWarmStartReturnsTheColdAnswer) {
  // min lex (x0, x1) over x0 + x1 >= 4, x0 <= 3, nonneg integers.
  auto p = lp::IlpProblem::all_nonneg(2);
  p.add_inequality(IntVector{1, 1}, -4);
  p.add_upper_bound(0, 3);
  const std::vector<IntVector> objectives{IntVector{1, 0}, IntVector{0, 1}};

  LaneGuard g(true);
  const auto cold = p.lexmin(objectives);
  ASSERT_EQ(cold.status, lp::IlpStatus::kOptimal);

  support::current_metrics().reset();
  // A feasible warm point (not the optimum): accepted, same answer.
  const IntVector feasible{3, 1};
  const auto warm = p.lexmin(objectives, {}, &feasible);
  EXPECT_EQ(counter(support::Counter::kFastlaneWarmHits), 1);
  ASSERT_EQ(warm.status, lp::IlpStatus::kOptimal);
  EXPECT_EQ(warm.point, cold.point);

  // A stale point (violates x0 + x1 >= 4): rejected, same answer.
  const IntVector stale{0, 0};
  const auto rejected = p.lexmin(objectives, {}, &stale);
  EXPECT_EQ(counter(support::Counter::kFastlaneWarmMisses), 1);
  ASSERT_EQ(rejected.status, lp::IlpStatus::kOptimal);
  EXPECT_EQ(rejected.point, cold.point);

  // A wrong-arity point: rejected, same answer.
  const IntVector wrong_size{1};
  const auto sized = p.lexmin(objectives, {}, &wrong_size);
  EXPECT_EQ(counter(support::Counter::kFastlaneWarmMisses), 2);
  ASSERT_EQ(sized.status, lp::IlpStatus::kOptimal);
  EXPECT_EQ(sized.point, cold.point);
}

TEST(Fastlane, EndToEndSchedulesIdenticalLaneOnOff) {
  // Full pipeline (parse -> analyze -> Pluto with warm starts) on
  // synthetic programs: the schedule must be identical lane on/off.
  for (const unsigned seed : {3u, 11u, 42u}) {
    const ir::Scop scop =
        frontend::parse_scop(suite::synthetic_program(seed));
    const auto run = [&scop] {
      poly::clear_solve_cache();
      const auto dg = ddg::DependenceGraph::analyze(scop);
      const auto policy =
          fusion::make_policy(fusion::FusionModel::kWisefuse);
      return sched::compute_schedule(scop, dg, *policy).to_string();
    };
    std::string fast, exact;
    {
      LaneGuard g(true);
      fast = run();
    }
    {
      LaneGuard g(false);
      exact = run();
    }
    EXPECT_EQ(fast, exact) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pf
