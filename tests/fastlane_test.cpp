// Differential tests for the solver's int64 instance: the simplex
// kernel on int64 cells and the warm-started lexmin must return exactly
// what lp::testing::ExactPathScope's path returns (every solve on BigInt
// cells, no warm start) -- on random inputs and on inputs engineered to
// overflow int64 mid-solve.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "ddg/dependences.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "lp/ilp.h"
#include "lp/simplex.h"
#include "poly/set.h"
#include "sched/pluto.h"
#include "suite/synthetic.h"
#include "support/metrics.h"

namespace pf {
namespace {

using lp::testing::ExactPathScope;

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

    const lp::SimplexSolver::Result fast = s.minimize(obj);
    lp::SimplexSolver::Result exact;
    {
      ExactPathScope scope;
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
  const lp::SimplexSolver::Result fast = s.minimize(obj);
  EXPECT_EQ(counter(support::Counter::kFastlaneSolves), 0);
  EXPECT_EQ(counter(support::Counter::kFastlaneFallbacks), 1);
  lp::SimplexSolver::Result exact;
  {
    ExactPathScope scope;
    exact = s.minimize(obj);
  }
  expect_same_result(fast, exact, "lcm overflow");
  ASSERT_EQ(fast.status, lp::Status::kOptimal);
  // Cheapest way to reach sum x_i/p_i = 1 is the smallest prime.
  EXPECT_EQ(fast.objective, Rational(99961));
}

TEST(Fastlane, LexminWarmStartReturnsTheColdAnswer) {
  // min lex (x0, x1) over x0 + x1 >= 4, x0 <= 3, nonneg integers.
  auto p = lp::IlpProblem::all_nonneg(2);
  p.add_inequality(IntVector{1, 1}, -4);
  p.add_upper_bound(0, 3);
  const std::vector<IntVector> objectives{IntVector{1, 0}, IntVector{0, 1}};

  lp::IlpResult cold;
  {
    // No warm start at all, not even from one stage to the next; a given
    // warm point is ignored, not validated.
    ExactPathScope scope;
    cold = p.lexmin(objectives);
    support::current_metrics().reset();
    const IntVector feasible{3, 1};
    EXPECT_EQ(p.lexmin(objectives, &feasible).point, cold.point);
    EXPECT_EQ(counter(support::Counter::kFastlaneWarmHits), 0);
  }
  ASSERT_EQ(cold.status, lp::IlpStatus::kOptimal);

  support::current_metrics().reset();
  // A feasible warm point (not the optimum): accepted, same answer.
  const IntVector feasible{3, 1};
  const auto warm = p.lexmin(objectives, &feasible);
  EXPECT_EQ(counter(support::Counter::kFastlaneWarmHits), 1);
  ASSERT_EQ(warm.status, lp::IlpStatus::kOptimal);
  EXPECT_EQ(warm.point, cold.point);

  // A stale point (violates x0 + x1 >= 4): rejected, same answer.
  const IntVector stale{0, 0};
  const auto rejected = p.lexmin(objectives, &stale);
  EXPECT_EQ(counter(support::Counter::kFastlaneWarmMisses), 1);
  ASSERT_EQ(rejected.status, lp::IlpStatus::kOptimal);
  EXPECT_EQ(rejected.point, cold.point);

  // A wrong-arity point: rejected, same answer.
  const IntVector wrong_size{1};
  const auto sized = p.lexmin(objectives, &wrong_size);
  EXPECT_EQ(counter(support::Counter::kFastlaneWarmMisses), 2);
  ASSERT_EQ(sized.status, lp::IlpStatus::kOptimal);
  EXPECT_EQ(sized.point, cold.point);
}

TEST(Fastlane, EndToEndSchedulesIdenticalLaneOnOff) {
  // Full pipeline (parse -> analyze -> Pluto with warm starts) on
  // synthetic programs: the schedule must be identical on the exact path.
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
    const std::string fast = run();
    std::string exact;
    {
      ExactPathScope scope;
      exact = run();
    }
    EXPECT_EQ(fast, exact) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pf
