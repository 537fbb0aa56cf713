// Tests for the poly module: affine expressions and IntegerSet operations
// (emptiness, optimization, Fourier-Motzkin projection), including a
// property test checking FM projections against point enumeration.
#include <gtest/gtest.h>

#include <optional>
#include <random>

#include "ddg/dependences.h"
#include "lp/bigint.h"
#include "lp/simplex.h"
#include "poly/affine.h"
#include "poly/count.h"
#include "poly/memo.h"
#include "poly/set.h"
#include "suite/suite.h"
#include "support/budget.h"
#include "support/context.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace pf::poly {
namespace {

TEST(AffineExpr, Construction) {
  const auto x = AffineExpr::var(3, 1);
  EXPECT_EQ(x.coeff(0), 0);
  EXPECT_EQ(x.coeff(1), 1);
  EXPECT_EQ(x.const_term(), 0);
  const auto c = AffineExpr::constant(3, 5);
  EXPECT_TRUE(c.is_constant());
  EXPECT_FALSE(c.is_zero());
  EXPECT_TRUE(AffineExpr(3).is_zero());
}

TEST(AffineExpr, Arithmetic) {
  const auto x = AffineExpr::var(2, 0);
  const auto y = AffineExpr::var(2, 1);
  const auto e = x * 2 + y - AffineExpr::constant(2, 3);
  EXPECT_EQ(e.coeff(0), 2);
  EXPECT_EQ(e.coeff(1), 1);
  EXPECT_EQ(e.const_term(), -3);
  EXPECT_EQ(e.eval(IntVector{4, 1}), 6);
  EXPECT_EQ((-e).eval(IntVector{4, 1}), -6);
}

// linear_combination against the staged operators that Fourier-Motzkin
// used to build its rows with: `x*p + y*q` (a lower/upper pair) and
// `c - e*(b*a)` with a = +-1 (an equality substitution), on seeded rows
// mixing small cells with cells near 2^31, 2^62 and the i64 extremes.
// BigInt cells give the exact row. The fused combination must return it
// whenever it fits in i64 (agreeing with the staged form wherever that
// returns) and throw pf::Error otherwise -- also where only a staged
// product passed i64 and the staged form threw.
TEST(AffineExpr, LinearCombinationMatchesStagedOperators) {
  std::mt19937_64 rng(29);
  const auto pick = [&rng](i64 lo, i64 hi) {
    return std::uniform_int_distribution<i64>(lo, hi)(rng);
  };
  const auto value = [&]() -> i64 {
    const i64 sign = pick(0, 1) != 0 ? 1 : -1;
    switch (pick(0, 9)) {
      case 0:
        return pick(0, 1) != 0 ? INT64_MIN : INT64_MAX;
      case 1:
      case 2:
        return sign * ((i64{1} << 62) + pick(-9, 9));
      case 3:
      case 4:
        return sign * ((i64{1} << 31) + pick(-9, 9));
      default:
        return pick(-9, 9);
    }
  };
  // The exact row x*p + y*q, or nullopt when a cell leaves i64.
  const auto exact = [](const AffineExpr& x, const lp::BigInt& p,
                        const AffineExpr& y,
                        const lp::BigInt& q) -> std::optional<AffineExpr> {
    const auto cell = [&](i64 a, i64 b) {
      return (lp::BigInt(a) * p + lp::BigInt(b) * q).to_i64();
    };
    AffineExpr r(x.dims());
    for (std::size_t j = 0; j <= x.dims(); ++j) {
      const bool constant = j == x.dims();
      const std::optional<i64> v =
          constant ? cell(x.const_term(), y.const_term())
                   : cell(x.coeff(j), y.coeff(j));
      if (!v) return std::nullopt;
      if (constant)
        r.set_const_term(*v);
      else
        r.set_coeff(j, *v);
    }
    return r;
  };
  int returned[2] = {0, 0}, thrown[2] = {0, 0}, rescued[2] = {0, 0};
  for (int iter = 0; iter < 4000; ++iter) {
    const std::size_t dims = 1 + static_cast<std::size_t>(pick(0, 2));
    AffineExpr x(dims), y(dims);
    for (std::size_t j = 0; j <= dims; ++j) {
      const i64 xv = value();
      // A third of the rows nearly cancel, so big products can still sum
      // to a small result.
      const bool cancel =
          pick(0, 2) == 0 && xv != INT64_MIN && xv != INT64_MAX;
      const i64 yv = cancel ? -xv + pick(-3, 3) : value();
      if (j == dims) {
        x.set_const_term(xv);
        y.set_const_term(yv);
      } else {
        x.set_coeff(j, xv);
        y.set_coeff(j, yv);
      }
    }
    const int shape = iter % 2;  // 0: x*p + y*q, 1: x - y*(b*a)
    const i64 b = value();
    i64 a = pick(0, 1) != 0 ? 1 : -1;  // an equality's unit coefficient
    if (shape == 0) a = pick(0, 2) == 0 ? b : value();
    std::optional<AffineExpr> staged;
    try {
      staged = shape == 0 ? x * b + y * a : x - y * checked_mul(b, a);
    } catch (const Error&) {
    }
    const std::optional<AffineExpr> want =
        shape == 0 ? exact(x, b, y, a)
                   : exact(x, 1, y, -(lp::BigInt(b) * lp::BigInt(a)));
    const std::string where = "iter " + std::to_string(iter);
    if (staged) {
      ASSERT_TRUE(want) << where;
      EXPECT_EQ(*staged, *want) << where;
    }
    try {
      const AffineExpr got =
          shape == 0 ? linear_combination(x, b, y, a)
                     : linear_combination(x, 1, y, -static_cast<i128>(b) * a);
      ASSERT_TRUE(want) << where << ": no throw for " << x.to_string();
      EXPECT_EQ(got, *want) << where;
      ++(staged ? returned : rescued)[shape];
    } catch (const Error&) {
      EXPECT_FALSE(want) << where << ": threw on a row that fits";
      ++thrown[shape];
    }
  }
  for (int shape = 0; shape < 2; ++shape) {
    EXPECT_GT(returned[shape], 0) << "shape " << shape;
    EXPECT_GT(thrown[shape], 0) << "shape " << shape;
    EXPECT_GT(rescued[shape], 0) << "shape " << shape;
  }
}

TEST(AffineExpr, RemapAndInsertDims) {
  const auto x = AffineExpr::var(2, 0) + AffineExpr::var(2, 1) * 3;
  const auto r = x.remap(4, {2, 0});
  EXPECT_EQ(r.coeff(0), 3);
  EXPECT_EQ(r.coeff(2), 1);
  const auto ins = x.insert_dims(1, 2);
  EXPECT_EQ(ins.dims(), 4u);
  EXPECT_EQ(ins.coeff(0), 1);
  EXPECT_EQ(ins.coeff(3), 3);
}

TEST(AffineExpr, DropDims) {
  auto e = AffineExpr::var(3, 0) * 2 + AffineExpr::constant(3, 1);
  const auto d = e.drop_dims({false, true, false});
  EXPECT_EQ(d.dims(), 2u);
  EXPECT_EQ(d.coeff(0), 2);
  // Dropping a dim with nonzero coefficient is a hard error.
  EXPECT_THROW(e.drop_dims({true, false, false}), Error);
}

TEST(AffineExpr, ToString) {
  const auto e =
      AffineExpr::var(2, 0) * 2 - AffineExpr::var(2, 1) + AffineExpr::constant(2, -5);
  EXPECT_EQ(e.to_string({"i", "j"}), "2*i - j - 5");
  EXPECT_EQ(AffineExpr::constant(2, 0).to_string(), "0");
}

TEST(Constraint, Builders) {
  const auto x = AffineExpr::var(1, 0);
  const auto ge = Constraint::ge(x, AffineExpr::constant(1, 2));
  EXPECT_FALSE(ge.is_equality);
  EXPECT_EQ(ge.expr.const_term(), -2);
  const auto eq = Constraint::eq(x, AffineExpr::constant(1, 2));
  EXPECT_TRUE(eq.is_equality);
}

IntegerSet box2(i64 lo0, i64 hi0, i64 lo1, i64 hi1) {
  IntegerSet s(2);
  const auto x = AffineExpr::var(2, 0);
  const auto y = AffineExpr::var(2, 1);
  s.add_constraint(Constraint::ge(x, AffineExpr::constant(2, lo0)));
  s.add_constraint(Constraint::le(x, AffineExpr::constant(2, hi0)));
  s.add_constraint(Constraint::ge(y, AffineExpr::constant(2, lo1)));
  s.add_constraint(Constraint::le(y, AffineExpr::constant(2, hi1)));
  return s;
}

TEST(IntegerSet, ContainsAndEmptiness) {
  auto s = box2(0, 3, 1, 2);
  EXPECT_TRUE(s.contains({0, 1}));
  EXPECT_TRUE(s.contains({3, 2}));
  EXPECT_FALSE(s.contains({4, 1}));
  EXPECT_FALSE(s.is_empty());

  IntegerSet e(1);
  e.add_constraint(Constraint::ge(AffineExpr::var(1, 0), AffineExpr::constant(1, 3)));
  e.add_constraint(Constraint::le(AffineExpr::var(1, 0), AffineExpr::constant(1, 1)));
  EXPECT_TRUE(e.is_empty());
}

TEST(IntegerSet, TriviallyEmptyByGcd) {
  IntegerSet s(1);
  auto e = AffineExpr::var(1, 0) * 2 + AffineExpr::constant(1, -1);
  s.add_constraint(Constraint::eq0(e));  // 2x == 1
  EXPECT_TRUE(s.trivially_empty());
  EXPECT_TRUE(s.is_empty());
}

TEST(IntegerSet, ConstantConstraints) {
  IntegerSet s(1);
  s.add_constraint(Constraint::ge0(AffineExpr::constant(1, 5)));  // true, dropped
  EXPECT_EQ(s.num_constraints(), 0u);
  s.add_constraint(Constraint::ge0(AffineExpr::constant(1, -5)));  // false
  EXPECT_TRUE(s.trivially_empty());
}

TEST(IntegerSet, IntegerMinMax) {
  auto s = box2(-2, 5, 0, 3);
  const auto x = AffineExpr::var(2, 0);
  const auto y = AffineExpr::var(2, 1);
  auto mn = s.integer_min(x + y);
  ASSERT_EQ(mn.kind, IntegerSet::Opt::kOk);
  EXPECT_EQ(mn.value, -2);
  auto mx = s.integer_max(x * 2 - y);
  ASSERT_EQ(mx.kind, IntegerSet::Opt::kOk);
  EXPECT_EQ(mx.value, 10);
}

TEST(IntegerSet, IntegerMinTighterThanRational) {
  // 2x >= 1, x <= 10: integer min of x is 1, not 1/2.
  IntegerSet s(1);
  s.add_constraint(Constraint::ge0(AffineExpr::var(1, 0) * 2 +
                                   AffineExpr::constant(1, -1)));
  s.add_constraint(Constraint::le(AffineExpr::var(1, 0), AffineExpr::constant(1, 10)));
  const auto mn = s.integer_min(AffineExpr::var(1, 0));
  ASSERT_EQ(mn.kind, IntegerSet::Opt::kOk);
  EXPECT_EQ(mn.value, 1);
}

TEST(IntegerSet, UnboundedOptimization) {
  IntegerSet s(1);
  s.add_constraint(Constraint::ge(AffineExpr::var(1, 0), AffineExpr::constant(1, 0)));
  EXPECT_EQ(s.integer_max(AffineExpr::var(1, 0)).kind, IntegerSet::Opt::kUnbounded);
  EXPECT_EQ(s.integer_min(AffineExpr::var(1, 0)).value, 0);
}

TEST(IntegerSet, EmptyOptimization) {
  IntegerSet s(1);
  s.add_constraint(Constraint::ge(AffineExpr::var(1, 0), AffineExpr::constant(1, 2)));
  s.add_constraint(Constraint::le(AffineExpr::var(1, 0), AffineExpr::constant(1, 1)));
  EXPECT_EQ(s.integer_min(AffineExpr::var(1, 0)).kind, IntegerSet::Opt::kEmpty);
}

TEST(IntegerSet, SamplePoint) {
  auto s = box2(2, 4, -1, 1);
  const auto p = s.sample_point();
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(s.contains(*p));
}

TEST(IntegerSet, ProjectTriangle) {
  // { (i,j) : 0 <= i <= 9, i <= j <= 9 } projected onto i: 0 <= i <= 9.
  IntegerSet s(2);
  const auto i = AffineExpr::var(2, 0);
  const auto j = AffineExpr::var(2, 1);
  s.add_constraint(Constraint::ge(i, AffineExpr::constant(2, 0)));
  s.add_constraint(Constraint::le(i, AffineExpr::constant(2, 9)));
  s.add_constraint(Constraint::ge(j, i));
  s.add_constraint(Constraint::le(j, AffineExpr::constant(2, 9)));
  const auto proj = s.project_onto_prefix(1);
  EXPECT_EQ(proj.dims(), 1u);
  for (i64 v = 0; v <= 9; ++v) EXPECT_TRUE(proj.contains({v}));
  EXPECT_FALSE(proj.contains({10}));
  EXPECT_FALSE(proj.contains({-1}));
}

TEST(IntegerSet, EliminationViaUnitEqualityIsExact) {
  // { (i,k) : k == 2i, 0 <= k <= 10 } eliminate k -> 0 <= 2i <= 10.
  IntegerSet s(2);
  const auto i = AffineExpr::var(2, 0);
  const auto k = AffineExpr::var(2, 1);
  s.add_constraint(Constraint::eq(k, i * 2));
  s.add_constraint(Constraint::ge(k, AffineExpr::constant(2, 0)));
  s.add_constraint(Constraint::le(k, AffineExpr::constant(2, 10)));
  const auto proj = s.eliminate_dim(1);
  EXPECT_TRUE(proj.contains({0}));
  EXPECT_TRUE(proj.contains({5}));
  EXPECT_FALSE(proj.contains({6}));
}

TEST(IntegerSet, EliminateMiddleDimKeepsOrder) {
  // { (a,b,c) : a <= b <= c } eliminate b -> a <= c.
  IntegerSet s(3);
  const auto a = AffineExpr::var(3, 0);
  const auto b = AffineExpr::var(3, 1);
  const auto c = AffineExpr::var(3, 2);
  s.add_constraint(Constraint::ge(b, a));
  s.add_constraint(Constraint::ge(c, b));
  const auto proj = s.eliminate_dim(1);
  EXPECT_EQ(proj.dims(), 2u);
  EXPECT_TRUE(proj.contains({1, 5}));
  EXPECT_FALSE(proj.contains({5, 1}));
}

TEST(IntegerSet, InsertDims) {
  IntegerSet s(1);
  s.add_constraint(Constraint::ge(AffineExpr::var(1, 0), AffineExpr::constant(1, 3)));
  const auto e = s.insert_dims(0, 2);
  EXPECT_EQ(e.dims(), 3u);
  EXPECT_TRUE(e.contains({-100, 100, 3}));
  EXPECT_FALSE(e.contains({0, 0, 2}));
}

TEST(IntegerSet, IntersectPropagatesEmptiness) {
  auto a = box2(0, 5, 0, 5);
  IntegerSet b(2);
  b.add_constraint(Constraint::ge0(AffineExpr::constant(2, -1)));
  EXPECT_TRUE(b.trivially_empty());
  a.intersect(b);
  EXPECT_TRUE(a.trivially_empty());
}

TEST(IntegerSet, RemoveRedundantKeepsSemantics) {
  auto s = box2(0, 10, 0, 10);
  // Redundant: x <= 50, x + y <= 100.
  const auto x = AffineExpr::var(2, 0);
  const auto y = AffineExpr::var(2, 1);
  s.add_constraint(Constraint::le(x, AffineExpr::constant(2, 50)));
  s.add_constraint(Constraint::le(x + y, AffineExpr::constant(2, 100)));
  const std::size_t before = s.num_constraints();
  s.remove_redundant();
  EXPECT_LT(s.num_constraints(), before);
  EXPECT_TRUE(s.contains({10, 10}));
  EXPECT_FALSE(s.contains({11, 0}));
  EXPECT_FALSE(s.contains({0, 11}));
}

// Each call opens one poly/remove_redundant span saying what it did, and
// its LPs land in the request's redundancy_lps counter.
TEST(IntegerSet, RemoveRedundantReportsSpanAndCounter) {
  auto s = box2(0, 10, 0, 10);
  const auto x = AffineExpr::var(2, 0);
  const auto y = AffineExpr::var(2, 1);
  s.add_constraint(Constraint::le(x, AffineExpr::constant(2, 50)));
  s.add_constraint(Constraint::le(x + y, AffineExpr::constant(2, 100)));
  support::Tracer tracer(/*spans=*/true, /*remarks=*/false);
  support::TracerScope tracer_scope(&tracer);
  support::MetricsScope metrics;
  s.remove_redundant();
  std::vector<support::TraceEvent> spans;
  for (const support::TraceEvent& e : tracer.events())
    if (e.name == "remove_redundant") spans.push_back(e);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].category, "poly");
  const i64 lps = metrics.registry().get(support::Counter::kRedundancyLps);
  EXPECT_GE(lps, 6);  // at least one LP per inequality
  EXPECT_EQ(spans[0].attrs,
            (std::vector<support::TraceAttr>{{"rows_in", "6"},
                                             {"rows_kept", "4"},
                                             {"lps", std::to_string(lps)}}));
}

TEST(IntegerSet, DuplicateConstraintsDropped) {
  IntegerSet s(1);
  const auto c =
      Constraint::ge(AffineExpr::var(1, 0), AffineExpr::constant(1, 1));
  s.add_constraint(c);
  s.add_constraint(c);
  EXPECT_EQ(s.num_constraints(), 1u);
}

TEST(IntegerSet, HashIsOrderIndependent) {
  const auto c1 =
      Constraint::ge(AffineExpr::var(2, 0), AffineExpr::constant(2, 1));
  const auto c2 =
      Constraint::le(AffineExpr::var(2, 1), AffineExpr::constant(2, 9));
  const auto c3 = Constraint::ge(AffineExpr::var(2, 0), AffineExpr::var(2, 1));
  IntegerSet a(2), b(2);
  a.add_constraint(c1);
  a.add_constraint(c2);
  a.add_constraint(c3);
  b.add_constraint(c3);
  b.add_constraint(c1);
  b.add_constraint(c2);
  EXPECT_EQ(a.hash_value(), b.hash_value());

  IntegerSet c(2);
  c.add_constraint(c1);
  c.add_constraint(c2);
  EXPECT_NE(a.hash_value(), c.hash_value());
}

TEST(IntegerSet, SolveCacheHitsRepeatedQueries) {
  SolveCacheScope cache;  // the memo is on inside a request scope only
  auto& stats = support::current_metrics();
  stats.reset();

  // Two structurally identical but distinct sets: the second emptiness
  // test must be served from the cache.
  auto make = [] {
    IntegerSet s(2);
    s.add_constraint(
        Constraint::ge(AffineExpr::var(2, 0), AffineExpr::constant(2, 2)));
    s.add_constraint(
        Constraint::le(AffineExpr::var(2, 0), AffineExpr::constant(2, 1)));
    s.add_constraint(
        Constraint::ge(AffineExpr::var(2, 1), AffineExpr::constant(2, 0)));
    return s;
  };
  EXPECT_TRUE(make().is_empty());
  const auto hits0 = stats.get(support::Counter::kSolveCacheHits);
  EXPECT_TRUE(make().is_empty());
  EXPECT_GT(stats.get(support::Counter::kSolveCacheHits), hits0);

  // integer_min memoizes per objective: same set + same objective hits,
  // a different objective misses.
  clear_solve_cache();
  stats.reset();
  auto box = box2(0, 5, 0, 3);
  const auto x = AffineExpr::var(2, 0);
  const auto y = AffineExpr::var(2, 1);
  EXPECT_EQ(box.integer_min(x).value, 0);
  const auto misses0 = stats.get(support::Counter::kSolveCacheMisses);
  auto box_again = box2(0, 5, 0, 3);
  EXPECT_EQ(box_again.integer_min(x).value, 0);
  EXPECT_EQ(stats.get(support::Counter::kSolveCacheMisses), misses0);
  EXPECT_EQ(box_again.integer_min(y + x).value, 0);
  EXPECT_GT(stats.get(support::Counter::kSolveCacheMisses), misses0);
  stats.reset();
}

// The one memo gate (active_memo) turns the memo away outside a request
// scope, under a limiting budget and on the exact reference path.
TEST(IntegerSet, SolveCacheCanBeDisabled) {
  auto& stats = support::current_metrics();
  stats.reset();
  IntegerSet s(1);
  s.add_constraint(
      Constraint::ge(AffineExpr::var(1, 0), AffineExpr::constant(1, 2)));
  s.add_constraint(
      Constraint::le(AffineExpr::var(1, 0), AffineExpr::constant(1, 1)));
  auto solve_twice = [&] {
    EXPECT_TRUE(s.is_empty());
    EXPECT_TRUE(s.is_empty());
    EXPECT_EQ(stats.get(support::Counter::kSolveCacheHits), 0);
    EXPECT_EQ(stats.get(support::Counter::kSolveCacheMisses), 0);
  };
  EXPECT_EQ(active_memo(), nullptr);
  solve_twice();
  {
    SolveCacheScope cache;
    ASSERT_NE(active_memo(), nullptr);
    {
      support::BudgetSpec spec;
      spec.fuel = i64{1} << 40;
      support::Budget budget(spec);
      support::BudgetScope budget_scope(&budget);
      EXPECT_EQ(active_memo(), nullptr);
      solve_twice();
    }
    {
      lp::testing::ExactPathScope exact_path;
      EXPECT_EQ(active_memo(), nullptr);
      solve_twice();
    }
  }
  EXPECT_EQ(active_memo(), nullptr);
  stats.reset();
}

// Request isolation reaches the dependence workers: two identical
// requests, each under a fresh MetricsScope + SolveCacheScope, do the
// same solver work at jobs=4 -- the same as at jobs=1, down to every
// deterministic counter and histogram -- and no table outlives them.
TEST(RequestContext, ScopeIsolationCoversDependenceWorkers) {
  for (const char* name : {"swim", "gemver", "applu"}) {
    const ir::Scop scop = suite::parse(suite::benchmark(name));
    i64 ilp_solves = 0;
    auto request = [&scop, &ilp_solves](std::size_t jobs) {
      support::MetricsScope metrics;
      SolveCacheScope cache;
      ddg::AnalysisOptions options;
      options.jobs = jobs;
      ddg::DependenceGraph::analyze(scop, options);
      ilp_solves = metrics.registry().get(support::Counter::kIlpSolves);
      const std::string json = metrics.registry().to_json();
      return json.substr(0, json.find("\"runtime\""));
    };
    const std::string first = request(4);
    const i64 first_solves = ilp_solves;
    EXPECT_GT(first_solves, 0) << name;
    EXPECT_EQ(request(4), first) << name;
    EXPECT_EQ(ilp_solves, first_solves) << name;
    EXPECT_EQ(request(1), first) << name;
    EXPECT_EQ(support::current_context().memo, nullptr) << name;
  }
}

TEST(IntegerSet, ToStringReadable) {
  IntegerSet s(2);
  s.add_constraint(Constraint::ge(AffineExpr::var(2, 0), AffineExpr::var(2, 1)));
  const auto str = s.to_string({"i", "j"});
  EXPECT_NE(str.find("i - j >= 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property test: FM projection must contain exactly the points whose fiber
// is non-empty (it may overapproximate only at non-integral fibers; for the
// constraint families generated here we verify both directions against
// enumeration on a box, accepting overapproximation points only if the
// rational fiber is non-empty).
// ---------------------------------------------------------------------------

class FmVsEnumeration : public ::testing::TestWithParam<unsigned> {};

TEST_P(FmVsEnumeration, ProjectionSound) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<i64> coef(-3, 3);
  std::uniform_int_distribution<i64> cst(-5, 5);
  std::uniform_int_distribution<int> nc(1, 4);

  const i64 kLo = -5, kHi = 5;
  IntegerSet s(3);
  // Box the space so enumeration is finite.
  for (std::size_t d = 0; d < 3; ++d) {
    s.add_constraint(Constraint::ge(AffineExpr::var(3, d),
                                    AffineExpr::constant(3, kLo)));
    s.add_constraint(Constraint::le(AffineExpr::var(3, d),
                                    AffineExpr::constant(3, kHi)));
  }
  const int n = nc(rng);
  for (int i = 0; i < n; ++i) {
    AffineExpr e(3, cst(rng));
    for (std::size_t d = 0; d < 3; ++d) e.set_coeff(d, coef(rng));
    s.add_constraint(Constraint::ge0(e));
  }

  const auto proj = s.project_onto_prefix(2);

  for (i64 x = kLo; x <= kHi; ++x) {
    for (i64 y = kLo; y <= kHi; ++y) {
      bool fiber_nonempty = false;
      for (i64 z = kLo; z <= kHi && !fiber_nonempty; ++z)
        fiber_nonempty = s.contains({x, y, z});
      if (fiber_nonempty) {
        // Soundness: every point with a non-empty fiber must be in the
        // projection.
        EXPECT_TRUE(proj.contains({x, y}))
            << "seed " << GetParam() << " point (" << x << "," << y << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, FmVsEnumeration,
                         ::testing::Range(0u, 30u));

// ---------------------------------------------------------------------------
// Degenerate-set consistency: zero-dimensional and trivially-empty sets
// behave identically across contains / emptiness / projection /
// insert_dims, and every way of producing an empty set canonicalizes to
// the same (hash-equal) state.
// ---------------------------------------------------------------------------

TEST(IntegerSet, ZeroDimUniverse) {
  const IntegerSet u = IntegerSet::universe(0);
  EXPECT_FALSE(u.trivially_empty());
  EXPECT_FALSE(u.is_empty());
  EXPECT_TRUE(u.contains({}));  // the unique 0-dim point
  const auto p = u.sample_point();
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(IntegerSet, ZeroDimEmpty) {
  IntegerSet e(0);
  e.add_constraint(Constraint::ge0(AffineExpr::constant(0, -1)));  // -1 >= 0
  EXPECT_TRUE(e.trivially_empty());
  EXPECT_TRUE(e.is_empty());
  EXPECT_FALSE(e.contains({}));
  EXPECT_FALSE(e.sample_point().has_value());
}

TEST(IntegerSet, ContainsChecksDimension) {
  const auto s = box2(0, 1, 0, 1);
  EXPECT_THROW(s.contains({0}), Error);
  EXPECT_THROW(s.contains({0, 0, 0}), Error);
}

TEST(IntegerSet, TriviallyEmptyCanonicalizes) {
  // Three different routes to a *syntactically* empty set must land in
  // the same canonical state: flagged, zero constraints, equal hashes.
  // (`x >= 3 /\ x <= 1` is ILP-empty but not trivially empty -- the
  // flag is the syntactic notion.)
  IntegerSet by_constant(2);
  by_constant.add_constraint(Constraint::ge0(AffineExpr::constant(2, -7)));

  IntegerSet by_parity(2);  // 2x == 1 has no integer solution
  by_parity.add_constraint(Constraint::eq0(AffineExpr::var(2, 0) * 2 -
                                           AffineExpr::constant(2, 1)));

  IntegerSet by_intersect = box2(0, 5, 0, 5);
  by_intersect.intersect(by_constant);

  for (const IntegerSet* s : {&by_constant, &by_parity, &by_intersect}) {
    EXPECT_TRUE(s->trivially_empty());
    EXPECT_EQ(s->num_constraints(), 0u);
    EXPECT_TRUE(s->is_empty());
    EXPECT_FALSE(s->contains({0, 0}));
    EXPECT_FALSE(s->sample_point().has_value());
    EXPECT_EQ(s->hash_value(), by_constant.hash_value());
  }
}

TEST(IntegerSet, TriviallyEmptySurvivesShapeOps) {
  IntegerSet e(2);
  e.add_constraint(Constraint::ge0(AffineExpr::constant(2, -1)));
  ASSERT_TRUE(e.trivially_empty());

  const auto proj = e.project_onto_prefix(1);
  EXPECT_TRUE(proj.trivially_empty());
  EXPECT_FALSE(proj.contains({0}));

  const auto elim = e.eliminate_dims({true, false});
  EXPECT_TRUE(elim.trivially_empty());

  const auto ins = e.insert_dims(1, 2);
  EXPECT_EQ(ins.dims(), 4u);
  EXPECT_TRUE(ins.trivially_empty());
  EXPECT_FALSE(ins.contains({0, 0, 0, 0}));
}

// ---------------------------------------------------------------------------
// Exact point counting (poly/count.h): degenerate shapes, exact shapes,
// the structured unbounded/unknown outcomes, and projection counting.
// ---------------------------------------------------------------------------

IntegerSet interval1(i64 lo, i64 hi) {
  IntegerSet s(1);
  const auto x = AffineExpr::var(1, 0);
  s.add_constraint(Constraint::ge(x, AffineExpr::constant(1, lo)));
  s.add_constraint(Constraint::le(x, AffineExpr::constant(1, hi)));
  return s;
}

TEST(Count, DegenerateSets) {
  // Zero-dim universe: exactly one (empty-tuple) point.
  const Count zero_dim = count_points(IntegerSet::universe(0));
  EXPECT_TRUE(zero_dim.is_exact());
  EXPECT_EQ(zero_dim.value, 1);

  // Zero-dim contradiction: constant-only constraints fold at add time.
  IntegerSet contra(0);
  contra.add_constraint(Constraint::ge0(AffineExpr::constant(0, -1)));
  EXPECT_TRUE(contra.trivially_empty());
  const Count zero = count_points(contra);
  EXPECT_TRUE(zero.is_exact());
  EXPECT_EQ(zero.value, 0);

  // Trivially-empty 1-D set, and an ILP-empty (lo > hi) interval.
  IntegerSet contra1(1);
  contra1.add_constraint(Constraint::ge0(AffineExpr::constant(1, -1)));
  EXPECT_EQ(count_points(contra1).to_string(), "0");
  EXPECT_EQ(count_points(interval1(5, 4)).to_string(), "0");

  // Integer-empty via gcd gaps: 2x == 1 has rational but no int points.
  IntegerSet gap(1);
  gap.add_constraint(
      Constraint::eq(AffineExpr::var(1, 0) * 2, AffineExpr::constant(1, 1)));
  EXPECT_EQ(count_points(gap).to_string(), "0");

  // Empty union, and a union of only trivially-empty disjuncts.
  EXPECT_EQ(count_points(SetUnion::empty(2)).to_string(), "0");
  EXPECT_EQ(count_points(SetUnion::wrap(contra1)).to_string(), "0");
}

TEST(Count, ExactShapes) {
  // Interval, rectangle (separable fast path), triangle, diagonal.
  EXPECT_EQ(count_points(interval1(3, 7)).value, 5);
  EXPECT_EQ(count_points(interval1(-2, 2)).value, 5);

  IntegerSet rect(2);
  rect.intersect(interval1(0, 9).insert_dims(1, 1));
  {
    const auto y = AffineExpr::var(2, 1);
    rect.add_constraint(Constraint::ge(y, AffineExpr::constant(2, 0)));
    rect.add_constraint(Constraint::le(y, AffineExpr::constant(2, 3)));
  }
  EXPECT_EQ(count_points(rect).value, 40);

  // 0 <= x <= y <= 9: 55 points (coupled, exercises the enumeration).
  IntegerSet tri(2);
  const auto x = AffineExpr::var(2, 0);
  const auto y = AffineExpr::var(2, 1);
  tri.add_constraint(Constraint::ge(x, AffineExpr::constant(2, 0)));
  tri.add_constraint(Constraint::le(x, y));
  tri.add_constraint(Constraint::le(y, AffineExpr::constant(2, 9)));
  EXPECT_EQ(count_points(tri).value, 55);

  // Diagonal of a 10x10 box: equality collapses one dim.
  IntegerSet diag(2);
  diag.add_constraint(Constraint::ge(x, AffineExpr::constant(2, 0)));
  diag.add_constraint(Constraint::le(x, AffineExpr::constant(2, 9)));
  diag.add_constraint(Constraint::eq(x, y));
  EXPECT_EQ(count_points(diag).value, 10);

  // Even points of [0, 9]: x == 2t has no explicit t here, but 2y == x
  // inside a box counts the stride-2 sublattice exactly.
  IntegerSet even(2);
  even.add_constraint(Constraint::ge(x, AffineExpr::constant(2, 0)));
  even.add_constraint(Constraint::le(x, AffineExpr::constant(2, 9)));
  even.add_constraint(Constraint::eq(x, y * 2));
  EXPECT_EQ(count_points(even).value, 5);
}

TEST(Count, UnboundedAndUnknown) {
  // Universe and half-line are genuinely infinite, not unknown.
  EXPECT_EQ(count_points(IntegerSet::universe(1)).kind, Count::kUnbounded);
  IntegerSet half(1);
  half.add_constraint(
      Constraint::ge(AffineExpr::var(1, 0), AffineExpr::constant(1, 3)));
  EXPECT_EQ(count_points(half).kind, Count::kUnbounded);
  EXPECT_EQ(count_points(half).to_string(), "unbounded");

  // A separable product that overflows int64 degrades to unknown.
  const i64 kHuge = i64{1} << 40;
  IntegerSet big(2);
  big.intersect(interval1(0, kHuge).insert_dims(1, 1));
  big.add_constraint(
      Constraint::ge(AffineExpr::var(2, 1), AffineExpr::constant(2, 0)));
  big.add_constraint(Constraint::le(AffineExpr::var(2, 1),
                                    AffineExpr::constant(2, kHuge)));
  EXPECT_EQ(count_points(big).kind, Count::kUnknown);
  EXPECT_EQ(count_points(big).to_string(), "unknown");

  // A coupled set whose leading range exceeds the step guard: unknown,
  // never a wrong number.
  IntegerSet tri(2);
  const auto x = AffineExpr::var(2, 0);
  const auto y = AffineExpr::var(2, 1);
  tri.add_constraint(Constraint::ge(x, AffineExpr::constant(2, 0)));
  tri.add_constraint(Constraint::le(x, y));
  tri.add_constraint(Constraint::le(y, AffineExpr::constant(2, 99)));
  CountOptions tight;
  tight.max_steps = 4;
  EXPECT_EQ(count_points(tri, tight).kind, Count::kUnknown);
}

TEST(Count, FuelBudgetDegradesToUnknown) {
  // With zero count_set fuel every count degrades to the structured
  // unknown -- the BudgetExceeded never escapes count_points.
  support::BudgetSpec spec;
  spec.fuel = 0;
  support::Budget budget(spec);
  support::BudgetScope scope(&budget);
  EXPECT_EQ(count_points(interval1(0, 9)).kind, Count::kUnknown);
  // Trivial emptiness needs no fuel: still an exact 0.
  IntegerSet contra(1);
  contra.add_constraint(Constraint::ge0(AffineExpr::constant(1, -1)));
  EXPECT_EQ(count_points(contra).to_string(), "0");
}

TEST(Count, ProjectionCountsDistinctPrefixes) {
  // {(c, i) : c == 2i, 0 <= i <= 9}: 10 distinct cells -- the exact
  // projection, where Fourier-Motzkin's rational shadow would admit 19.
  IntegerSet acc(2);
  const auto c = AffineExpr::var(2, 0);
  const auto i = AffineExpr::var(2, 1);
  acc.add_constraint(Constraint::eq(c, i * 2));
  acc.add_constraint(Constraint::ge(i, AffineExpr::constant(2, 0)));
  acc.add_constraint(Constraint::le(i, AffineExpr::constant(2, 9)));
  const Count cells = count_projection(acc, 1);
  EXPECT_TRUE(cells.is_exact());
  EXPECT_EQ(cells.value, 10);

  // Full-prefix projection is just the point count; empty prefix is the
  // 0/1 emptiness probe.
  EXPECT_EQ(count_projection(acc, 2).value, 10);
  EXPECT_EQ(count_projection(acc, 0).value, 1);

  // Union projection: two strided access relations writing interleaved
  // cells; distinct union cells counted without double counting.
  IntegerSet odd(2);
  odd.add_constraint(
      Constraint::eq(c, i * 2 + AffineExpr::constant(2, 1)));
  odd.add_constraint(Constraint::ge(i, AffineExpr::constant(2, 0)));
  odd.add_constraint(Constraint::le(i, AffineExpr::constant(2, 9)));
  auto u = SetUnion::wrap(acc);
  u.unite(SetUnion::wrap(odd));
  EXPECT_EQ(count_projection(u, 1).value, 20);
  // Overlapping disjuncts collapse: the same set twice is counted once.
  auto twice = SetUnion::wrap(acc);
  twice.add_disjunct(acc);
  EXPECT_EQ(count_projection(twice, 1).value, 10);
  EXPECT_EQ(count_points(twice).value, 10);
}

TEST(Count, ImageEliminationUnderBudgetIsUnknown) {
  // Two shifted accesses c = i and c = i + 1 over a 10x10 nest that never
  // reads j: 11 cells, found by eliminating i and j from each disjunct.
  auto access = [](i64 shift) {
    IntegerSet s(3);
    const auto c = AffineExpr::var(3, 0);
    s.add_constraint(Constraint::eq(
        c, AffineExpr::var(3, 1) + AffineExpr::constant(3, shift)));
    for (std::size_t d = 1; d < 3; ++d) {
      const auto x = AffineExpr::var(3, d);
      s.add_constraint(Constraint::ge(x, AffineExpr::constant(3, 0)));
      s.add_constraint(Constraint::le(x, AffineExpr::constant(3, 9)));
    }
    return s;
  };
  auto u = SetUnion::wrap(access(0));
  u.add_disjunct(access(1));

  auto& stats = support::current_metrics();
  struct Run {
    Count cells;
    i64 spent = 0;
    i64 fme_fuel = 0;    // charged at fme_project, the failing charge too
    i64 count_fuel = 0;  // charged at count_set
  };
  auto run = [&](i64 fuel) {
    support::BudgetSpec spec;
    spec.fuel = fuel;
    support::Budget budget(spec);
    support::BudgetScope scope(&budget);
    const i64 fme0 = stats.get(support::Counter::kBudgetFuelFmeProject);
    const i64 count0 = stats.get(support::Counter::kBudgetFuelCountSet);
    Run r;
    r.cells = count_projection(u, 1);  // never throws
    r.spent = budget.spent();
    r.fme_fuel = stats.get(support::Counter::kBudgetFuelFmeProject) - fme0;
    r.count_fuel = stats.get(support::Counter::kBudgetFuelCountSet) - count0;
    return r;
  };
  const Run full = run(1 << 20);
  ASSERT_EQ(full.cells.to_string(), "11");
  ASSERT_GT(full.fme_fuel, 1);
  ASSERT_GT(full.count_fuel, 0);
  // Fuel that runs out during the elimination: the failing charge is an
  // elimination's, no counting step ever ran, and the answer is unknown.
  for (i64 fuel = 0; fuel < full.fme_fuel; ++fuel) {
    const Run r = run(fuel);
    EXPECT_EQ(r.cells.kind, Count::kUnknown) << "fuel " << fuel;
    EXPECT_EQ(r.fme_fuel, fuel + 1) << "fuel " << fuel;
    EXPECT_EQ(r.count_fuel, 0) << "fuel " << fuel;
  }
  // Any larger allowance: unknown or the exact count, never another one.
  for (i64 fuel = full.fme_fuel; fuel < full.spent; ++fuel) {
    const std::string cells = run(fuel).cells.to_string();
    EXPECT_TRUE(cells == "unknown" || cells == "11") << "fuel " << fuel;
  }
  EXPECT_EQ(run(full.spent).cells.to_string(), "11");
}

TEST(Count, UnionOfBoxesCostIndependentOfExtent) {
  // Overlapping boxes (an interior plus boundary strips) are counted a
  // segment at a time, not a cell at a time: the same recursion steps at
  // any extent.
  auto box = [](i64 lo0, i64 hi0, i64 lo1, i64 hi1) {
    IntegerSet s(2);
    const auto x = AffineExpr::var(2, 0);
    const auto y = AffineExpr::var(2, 1);
    s.add_constraint(Constraint::ge(x, AffineExpr::constant(2, lo0)));
    s.add_constraint(Constraint::le(x, AffineExpr::constant(2, hi0)));
    s.add_constraint(Constraint::ge(y, AffineExpr::constant(2, lo1)));
    s.add_constraint(Constraint::le(y, AffineExpr::constant(2, hi1)));
    return s;
  };
  SolveCacheScope cache;
  auto& stats = support::current_metrics();
  auto steps_to_count = [&](i64 n) {
    SetUnion u(2);
    u.add_disjunct(box(1, n, 1, n));
    for (const i64 edge : {i64{0}, n, n + 1}) {
      u.add_disjunct(box(edge, edge, 0, n + 1));
      u.add_disjunct(box(0, n + 1, edge, edge));
    }
    u.add_disjunct(box(2, n - 1, 0, n));
    clear_solve_cache();
    const i64 before = stats.get(support::Counter::kCountSteps);
    CountOptions joint;  // force the joint enumeration, not 2^n - 1 terms
    joint.max_inclusion_exclusion_disjuncts = 1;
    const Count c = count_points(u, joint);
    EXPECT_EQ(c.to_string(), std::to_string((n + 2) * (n + 2))) << n;
    EXPECT_EQ(count_points(u).to_string(), c.to_string()) << n;
    return stats.get(support::Counter::kCountSteps) - before;
  };
  EXPECT_EQ(steps_to_count(1000), steps_to_count(10));
}

TEST(Count, SeparableCostIndependentOfExtent) {
  // Separable dims multiply in as range lengths: an n^3 box costs the same
  // recursion steps at n = 4096 as at n = 16.
  auto box3 = [](i64 n) {
    IntegerSet s(3);
    for (std::size_t d = 0; d < 3; ++d) {
      const auto x = AffineExpr::var(3, d);
      s.add_constraint(Constraint::ge(x, AffineExpr::constant(3, 0)));
      s.add_constraint(Constraint::le(x, AffineExpr::constant(3, n - 1)));
    }
    return s;
  };
  SolveCacheScope cache;
  auto& stats = support::current_metrics();
  auto steps_to_count_box = [&](i64 n) {
    clear_solve_cache();  // also drops the count cache
    const i64 before = stats.get(support::Counter::kCountSteps);
    const Count c = count_points(box3(n));
    EXPECT_TRUE(c.is_exact());
    EXPECT_EQ(c.value, n * n * n);
    return stats.get(support::Counter::kCountSteps) - before;
  };
  const i64 small = steps_to_count_box(16);
  EXPECT_GT(small, 0);
  EXPECT_EQ(steps_to_count_box(4096), small);

  // The footprint of a[2*i] over 0 <= i < n: exactly n cells.
  for (const i64 n : {16, 4096}) {
    IntegerSet acc(2);
    const auto c = AffineExpr::var(2, 0);
    const auto i = AffineExpr::var(2, 1);
    acc.add_constraint(Constraint::eq(c, i * 2));
    acc.add_constraint(Constraint::ge(i, AffineExpr::constant(2, 0)));
    acc.add_constraint(Constraint::le(i, AffineExpr::constant(2, n - 1)));
    const Count cells = count_projection(acc, 1);
    EXPECT_TRUE(cells.is_exact());
    EXPECT_EQ(cells.value, n);
  }
}

}  // namespace
}  // namespace pf::poly
