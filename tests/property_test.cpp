// Cross-cutting randomized property tests for the math foundations:
//  * Farkas linearization is exact: the generated constraint system on the
//    unknowns accepts exactly those coefficient vectors for which the
//    affine form is non-negative over the polyhedron (checked by
//    enumeration on boxed instances).
//  * remove_redundant() preserves set membership and keeps exactly the
//    rows of the sequential one-LP-per-row rule, in order.
//  * lexmin() agrees with brute-force lexicographic search.
//  * count_projection() of random access-relation unions agrees with
//    brute-force enumeration of the distinct cells, on the exact-image
//    path and on the joint-enumeration fallback alike.
//  * permutable_bands() never groups a level that breaks a satisfied
//    dependence's non-negativity.
//  * the independent verifier (src/verify) is consistent with the
//    scheduler's own legality bookkeeping (annotate_dependences) as a
//    differential oracle over random programs and schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>

#include "ddg/dependences.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "lp/simplex.h"
#include "poly/count.h"
#include "poly/set.h"
#include "poly/set_union.h"
#include "sched/analysis.h"
#include "sched/farkas.h"
#include "sched/pluto.h"
#include "suite/synthetic.h"
#include "verify/verify.h"

namespace pf {
namespace {

// ---------------------------------------------------------------------------
// Farkas exactness.
// ---------------------------------------------------------------------------

class FarkasExactness : public ::testing::TestWithParam<unsigned> {};

TEST_P(FarkasExactness, MatchesUniversalCheck) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<i64> coef(-2, 2);
  std::uniform_int_distribution<i64> cst(0, 4);

  // P: a random non-empty subset of the box [0,B]^2.
  const i64 kBox = 4;
  poly::IntegerSet p(2);
  for (std::size_t d = 0; d < 2; ++d) {
    p.add_constraint(poly::Constraint::ge(poly::AffineExpr::var(2, d),
                                          poly::AffineExpr::constant(2, 0)));
    p.add_constraint(poly::Constraint::le(poly::AffineExpr::var(2, d),
                                          poly::AffineExpr::constant(2, kBox)));
  }
  // One random extra constraint that keeps the origin feasible.
  {
    poly::AffineExpr e(2, cst(rng));
    e.set_coeff(0, coef(rng));
    e.set_coeff(1, coef(rng));
    p.add_constraint(poly::Constraint::ge0(e));
  }
  ASSERT_FALSE(p.is_empty());

  // E(x) = (y0) * x0 + (y1) * x1 + y2, unknowns y = (y0, y1, y2).
  std::vector<sched::ParamAffine> coeffs(2, sched::ParamAffine(3));
  coeffs[0].coeffs = {1, 0, 0};
  coeffs[1].coeffs = {0, 1, 0};
  sched::ParamAffine constant(3);
  constant.coeffs = {0, 0, 1};
  const auto system = sched::farkas_constraints(p, coeffs, constant, 3);

  // For every small y: the Farkas system accepts y iff min E(x) >= 0 over
  // the RATIONAL polytope (the affine Farkas lemma is exact over the
  // rationals; fractional vertices make integer enumeration insufficient).
  for (i64 y0 = -2; y0 <= 2; ++y0) {
    for (i64 y1 = -2; y1 <= 2; ++y1) {
      for (i64 y2 = -3; y2 <= 3; ++y2) {
        const IntVector y = {y0, y1, y2};
        bool farkas_ok = true;
        for (const poly::Constraint& c : system) {
          const i64 v = c.expr.eval(y);
          if (c.is_equality ? v != 0 : v < 0) {
            farkas_ok = false;
            break;
          }
        }
        lp::SimplexSolver solver = lp::SimplexSolver::all_free(2);
        for (const poly::Constraint& c : p.constraints()) {
          RatVector coeffs = {Rational(c.expr.coeff(0)),
                              Rational(c.expr.coeff(1))};
          if (c.is_equality)
            solver.add_equality(std::move(coeffs),
                                Rational(c.expr.const_term()));
          else
            solver.add_inequality(std::move(coeffs),
                                  Rational(c.expr.const_term()));
        }
        const auto mn = solver.minimize({Rational(y0), Rational(y1)});
        ASSERT_EQ(mn.status, lp::Status::kOptimal);
        const bool universal = mn.objective + Rational(y2) >= Rational(0);
        EXPECT_EQ(farkas_ok, universal)
            << "seed " << GetParam() << " y=(" << y0 << "," << y1 << ","
            << y2 << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FarkasExactness, ::testing::Range(0u, 15u));

// ---------------------------------------------------------------------------
// Redundancy removal preserves membership.
// ---------------------------------------------------------------------------

class RedundancyRemoval : public ::testing::TestWithParam<unsigned> {};

TEST_P(RedundancyRemoval, MembershipUnchanged) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<i64> coef(-3, 3);
  std::uniform_int_distribution<i64> cst(-4, 8);

  poly::IntegerSet s(2);
  for (std::size_t d = 0; d < 2; ++d) {
    s.add_constraint(poly::Constraint::ge(poly::AffineExpr::var(2, d),
                                          poly::AffineExpr::constant(2, -5)));
    s.add_constraint(poly::Constraint::le(poly::AffineExpr::var(2, d),
                                          poly::AffineExpr::constant(2, 5)));
  }
  for (int k = 0; k < 5; ++k) {
    poly::AffineExpr e(2, cst(rng));
    e.set_coeff(0, coef(rng));
    e.set_coeff(1, coef(rng));
    s.add_constraint(poly::Constraint::ge0(e));
  }
  poly::IntegerSet reduced = s;
  reduced.remove_redundant();
  EXPECT_LE(reduced.num_constraints(), s.num_constraints());
  for (i64 x = -6; x <= 6; ++x)
    for (i64 y = -6; y <= 6; ++y)
      EXPECT_EQ(s.contains({x, y}), reduced.contains({x, y}))
          << "seed " << GetParam() << " point (" << x << "," << y << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedundancyRemoval, ::testing::Range(0u, 20u));

// An LP over `cs` without row `skip`, all variables free.
lp::SimplexSolver lp_over(std::size_t dims,
                          const std::vector<poly::Constraint>& cs,
                          std::size_t skip = SIZE_MAX) {
  lp::SimplexSolver lp = lp::SimplexSolver::all_free(dims);
  for (std::size_t j = 0; j < cs.size(); ++j) {
    if (j == skip) continue;
    RatVector coeffs(dims);
    for (std::size_t d = 0; d < dims; ++d)
      coeffs[d] = Rational(cs[j].expr.coeff(d));
    if (cs[j].is_equality)
      lp.add_equality(std::move(coeffs), Rational(cs[j].expr.const_term()));
    else
      lp.add_inequality(std::move(coeffs), Rational(cs[j].expr.const_term()));
  }
  return lp;
}

// The sequential rule remove_redundant() must reproduce: one LP per
// inequality against every row still present (the kept rows before it,
// every row after it); the row is dropped iff the LP minimum of its
// expression is finite and >= 0.
std::vector<poly::Constraint> sequential_remove_redundant(
    std::size_t dims, std::vector<poly::Constraint> cs) {
  for (std::size_t i = 0; i < cs.size();) {
    if (cs[i].is_equality) {
      ++i;
      continue;
    }
    RatVector objective(dims);
    for (std::size_t d = 0; d < dims; ++d)
      objective[d] = Rational(cs[i].expr.coeff(d));
    const auto r = lp_over(dims, cs, i).minimize(objective);
    if (r.status == lp::Status::kOptimal &&
        r.objective + Rational(cs[i].expr.const_term()) >= 0)
      cs.erase(cs.begin() + static_cast<long>(i));
    else
      ++i;
  }
  return cs;
}

// Seeded random systems over 2-6 dims, mixing implicit equalities (e >= 0
// and -e >= 0), explicit equality rows, rows implied only by a sum of
// later rows, unbounded sets (no box) and rationally infeasible sets.
// remove_redundant() must keep exactly the reference's rows, in order.
TEST(RedundancyRemoval, MatchesSequentialReference) {
  int infeasible = 0, unboxed = 0, implicit_eq = 0, explicit_eq = 0,
      combos_dropped = 0, drops = 0;
  for (unsigned seed = 0; seed < 400; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&rng](i64 lo, i64 hi) {
      return std::uniform_int_distribution<i64>(lo, hi)(rng);
    };
    const std::size_t dims = static_cast<std::size_t>(pick(2, 6));
    auto plus = [](poly::AffineExpr e, i64 c) {
      e.set_const_term(e.const_term() + c);
      return e;
    };
    auto random_expr = [&] {
      poly::AffineExpr e(dims, pick(-2, 6));
      for (std::size_t d = 0; d < dims; ++d) e.set_coeff(d, pick(-3, 3));
      return e;
    };
    std::vector<poly::Constraint> rows;
    auto insert_at_random = [&](poly::Constraint c) {
      rows.insert(rows.begin() + pick(0, static_cast<i64>(rows.size())),
                  std::move(c));
    };
    const bool boxed = pick(0, 3) != 0;
    bool has_implicit_eq = false, has_explicit_eq = false;
    if (boxed) {
      for (std::size_t d = 0; d < dims; ++d) {
        const poly::AffineExpr x = poly::AffineExpr::var(dims, d);
        rows.push_back(poly::Constraint::ge0(plus(x, pick(3, 6))));
        rows.push_back(poly::Constraint::ge0(plus(-x, pick(3, 6))));
      }
    }
    for (i64 k = pick(3, 8); k > 0; --k)
      insert_at_random(poly::Constraint::ge0(random_expr()));
    if (pick(0, 2) == 0) {  // an implicit equality
      const poly::AffineExpr e = random_expr();
      insert_at_random(poly::Constraint::ge0(e));
      insert_at_random(poly::Constraint::ge0(-e));
      has_implicit_eq = true;
    }
    if (pick(0, 3) == 0) {  // an explicit equality through the origin
      poly::AffineExpr e = random_expr();
      e.set_const_term(0);
      insert_at_random(poly::Constraint::eq0(e));
      has_explicit_eq = true;
    }
    // Rows implied by a sum of two or three later inequalities, placed
    // before every row of the sum.
    std::vector<poly::Constraint> combos;
    for (i64 k = pick(1, 3); k > 0; --k) {
      std::vector<std::size_t> ineqs;
      for (std::size_t j = 0; j < rows.size(); ++j)
        if (!rows[j].is_equality) ineqs.push_back(j);
      std::shuffle(ineqs.begin(), ineqs.end(), rng);
      ineqs.resize(std::min<std::size_t>(ineqs.size(),
                                         static_cast<std::size_t>(pick(2, 3))));
      poly::AffineExpr sum(dims, pick(0, 2));
      std::size_t before = rows.size();
      for (std::size_t j : ineqs) {
        sum = sum + rows[j].expr;
        before = std::min(before, j);
      }
      rows.insert(rows.begin() + pick(0, static_cast<i64>(before)),
                  poly::Constraint::ge0(sum));
      poly::IntegerSet normalized(dims);
      normalized.add_constraint(poly::Constraint::ge0(sum));
      if (normalized.num_constraints() == 1)
        combos.push_back(normalized.constraints()[0]);
    }
    if (pick(0, 4) == 0) {  // contradict a sum of two rows: no rational point
      const i64 last = static_cast<i64>(rows.size()) - 1;
      const poly::AffineExpr a = rows[pick(0, last)].expr;
      const poly::AffineExpr b = rows[pick(0, last)].expr;
      insert_at_random(poly::Constraint::ge0(plus(-(a + b), -1)));
    }

    poly::IntegerSet set(dims);
    for (const poly::Constraint& c : rows) set.add_constraint(c);
    if (set.trivially_empty()) continue;
    const std::vector<poly::Constraint> in = set.constraints();
    const std::vector<poly::Constraint> want =
        sequential_remove_redundant(dims, in);
    set.remove_redundant();
    ASSERT_EQ(set.constraints(), want)
        << "seed " << seed << ": " << set.to_string();

    if (lp_over(dims, in).feasible_point().status != lp::Status::kOptimal)
      ++infeasible;
    if (want.size() < in.size()) ++drops;
    unboxed += boxed ? 0 : 1;
    implicit_eq += has_implicit_eq ? 1 : 0;
    explicit_eq += has_explicit_eq ? 1 : 0;
    auto holds = [](const std::vector<poly::Constraint>& cs,
                    const poly::Constraint& c) {
      return std::find(cs.begin(), cs.end(), c) != cs.end();
    };
    for (const poly::Constraint& c : combos)
      if (holds(in, c) && !holds(want, c)) ++combos_dropped;
  }
  // Every shape of system the generator aims at actually occurred.
  EXPECT_GT(infeasible, 20);
  EXPECT_GT(unboxed, 50);
  EXPECT_GT(implicit_eq, 50);
  EXPECT_GT(explicit_eq, 50);
  EXPECT_GT(drops, 100);
  EXPECT_GT(combos_dropped, 50);
}

// ---------------------------------------------------------------------------
// Lexicographic minimization vs brute force.
// ---------------------------------------------------------------------------

class LexminProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(LexminProperty, MatchesBruteForce) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<i64> coef(-3, 3);
  std::uniform_int_distribution<i64> cst(-4, 8);

  const i64 kLo = -3, kHi = 3;
  lp::IlpProblem p = lp::IlpProblem::all_free(2);
  p.add_lower_bound(0, kLo);
  p.add_upper_bound(0, kHi);
  p.add_lower_bound(1, kLo);
  p.add_upper_bound(1, kHi);
  std::vector<IntVector> rows;
  std::vector<i64> consts;
  for (int k = 0; k < 3; ++k) {
    IntVector c = {coef(rng), coef(rng)};
    const i64 b = cst(rng);
    p.add_inequality(c, b);
    rows.push_back(c);
    consts.push_back(b);
  }
  // lexmin of (x, then y).
  const auto r = p.lexmin({{1, 0}, {0, 1}});

  bool found = false;
  IntVector best;
  for (i64 x = kLo; x <= kHi && !found; ++x) {
    for (i64 y = kLo; y <= kHi; ++y) {
      bool ok = true;
      for (std::size_t k = 0; k < rows.size() && ok; ++k)
        ok = rows[k][0] * x + rows[k][1] * y + consts[k] >= 0;
      if (ok) {
        best = {x, y};
        found = true;
        break;  // smallest y for this (smallest feasible) x
      }
    }
  }
  if (!found) {
    EXPECT_EQ(r.status, lp::IlpStatus::kInfeasible) << "seed " << GetParam();
  } else {
    ASSERT_EQ(r.status, lp::IlpStatus::kOptimal) << "seed " << GetParam();
    EXPECT_EQ(r.point, best) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LexminProperty, ::testing::Range(0u, 30u));

// ---------------------------------------------------------------------------
// Projection counts vs brute force.
// ---------------------------------------------------------------------------

// Unions of access-relation disjuncts over [cells, existentials], every
// dim clipped to a small box: cells in [kCellLo, kCellHi], existentials
// (the iteration dims) in [0, kIterHi]. Cells are unit-offset or strided
// images of the iterations, diagonals, windows, or free; pairs of
// accesses to one cell and i - i' >= 1 deltas mimic the self-pair
// graphs of the locality analysis. Strides and non-unit bound pairs
// leave existentials that are not exactly eliminable, so the
// joint-enumeration fallback runs too.
constexpr i64 kCellLo = -2, kCellHi = 6, kIterHi = 2;

poly::IntegerSet random_access_disjunct(std::mt19937& rng, std::size_t cells,
                                        std::size_t iters) {
  auto pick = [&](i64 lo, i64 hi) {
    return std::uniform_int_distribution<i64>(lo, hi)(rng);
  };
  const std::size_t dims = cells + iters;
  auto var = [&](std::size_t d) { return poly::AffineExpr::var(dims, d); };
  auto cst = [&](i64 v) { return poly::AffineExpr::constant(dims, v); };
  auto iter = [&](i64 k) { return cells + static_cast<std::size_t>(k); };
  const i64 last = static_cast<i64>(iters) - 1;
  poly::IntegerSet s(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const bool cell = d < cells;
    s.add_constraint(poly::Constraint::ge(var(d), cst(cell ? kCellLo : 0)));
    s.add_constraint(
        poly::Constraint::le(var(d), cst(cell ? kCellHi : kIterHi)));
  }
  if (pick(0, 2) == 0)  // a narrower loop
    s.add_constraint(poly::Constraint::le(var(iter(pick(0, last))), cst(1)));
  i64 prev = 0;  // the iteration the previous cell indexes
  for (std::size_t r = 0; r < cells; ++r) {
    const i64 k = pick(0, last);
    const poly::AffineExpr off = cst(pick(-1, 1));
    switch (pick(0, 6)) {
      case 0:
      case 1:  // a[i + off]
        s.add_constraint(poly::Constraint::eq(var(r), var(iter(k)) + off));
        prev = k;
        break;
      case 2:  // a[2*i + off]
        s.add_constraint(
            poly::Constraint::eq(var(r), var(iter(k)) * 2 + off));
        prev = k;
        break;
      case 3:  // diagonal a[i][i]: the previous cell's iteration again
        s.add_constraint(poly::Constraint::eq(var(r), var(iter(prev))));
        break;
      case 4:  // a window i <= c <= i + 1
        s.add_constraint(poly::Constraint::ge(var(r), var(iter(k))));
        s.add_constraint(poly::Constraint::le(var(r), var(iter(k)) + cst(1)));
        prev = k;
        break;
      case 5: {  // two accesses to one cell: a[i] and a[i' + off]
        const i64 k2 = pick(0, last);
        s.add_constraint(poly::Constraint::eq(var(r), var(iter(k))));
        s.add_constraint(poly::Constraint::eq(var(r), var(iter(k2)) + off));
        prev = k;
        break;
      }
      default:  // a cell no access pins down
        break;
    }
  }
  if (iters >= 2 && pick(0, 2) == 0) {  // distinct instances: i - i' >= 1
    const i64 a = pick(0, last);
    const i64 b = (a + pick(1, last)) % static_cast<i64>(iters);
    s.add_constraint(
        poly::Constraint::ge(var(iter(a)) - var(iter(b)), cst(1)));
  }
  if (pick(0, 5) == 0) {  // 2*i >= c - 1 and 3*i <= c + 2: no exact shadow
    const i64 k = pick(0, last);
    s.add_constraint(
        poly::Constraint::ge(var(iter(k)) * 2, var(0) - cst(1)));
    s.add_constraint(
        poly::Constraint::le(var(iter(k)) * 3, var(0) + cst(2)));
  }
  if (pick(0, 7) == 0)  // empty, though not trivially so
    s.add_constraint(poly::Constraint::ge(var(iter(0)) + var(iter(last)),
                                          cst(2 * kIterHi + 1)));
  return s;
}

TEST(ProjectionCount, MatchesBruteForce) {
  std::mt19937 rng(7);
  auto pick = [&](i64 lo, i64 hi) {
    return std::uniform_int_distribution<i64>(lo, hi)(rng);
  };
  int exact_unions = 0, fallback_unions = 0, empty_disjuncts = 0;
  int zero_counts = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const auto cells = static_cast<std::size_t>(pick(1, 4));
    const auto iters = static_cast<std::size_t>(pick(1, 3));
    const std::size_t dims = cells + iters;
    poly::SetUnion u(dims);
    for (i64 n = pick(1, 4); n > 0; --n)
      u.add_disjunct(random_access_disjunct(rng, cells, iters));

    // Brute force: every point of the box, its cell prefix kept when some
    // disjunct holds it.
    std::set<IntVector> distinct;
    std::vector<bool> nonempty(u.num_disjuncts(), false);
    IntVector x(dims);
    for (std::size_t d = 0; d < dims; ++d) x[d] = d < cells ? kCellLo : 0;
    for (;;) {
      for (std::size_t k = 0; k < u.num_disjuncts(); ++k) {
        if (!u.disjuncts()[k].contains(x)) continue;
        nonempty[k] = true;
        distinct.insert(IntVector(x.begin(), x.begin() + cells));
      }
      std::size_t d = 0;
      for (; d < dims; ++d) {
        const i64 hi = d < cells ? kCellHi : kIterHi;
        if (x[d] < hi) {
          ++x[d];
          break;
        }
        x[d] = d < cells ? kCellLo : 0;
      }
      if (d == dims) break;
    }
    const std::string want = std::to_string(distinct.size());

    EXPECT_EQ(poly::count_projection(u, cells).to_string(), want)
        << "iter " << iter << ": " << u.to_string();
    poly::CountOptions joint;  // the joint enumeration over the images
    joint.max_inclusion_exclusion_disjuncts = 1;
    EXPECT_EQ(poly::count_projection(u, cells, joint).to_string(), want)
        << "iter " << iter << " (joint): " << u.to_string();

    bool exact = true;
    for (const poly::IntegerSet& d : u.disjuncts())
      exact &= d.exact_projection_onto_prefix(cells).has_value();
    ++(exact ? exact_unions : fallback_unions);
    for (const bool ne : nonempty) empty_disjuncts += ne ? 0 : 1;
    zero_counts += distinct.empty() ? 1 : 0;
  }
  // Both paths ran, on empty disjuncts and empty projections too.
  EXPECT_GT(exact_unions, 30);
  EXPECT_GT(fallback_unions, 20);
  EXPECT_GT(empty_disjuncts, 10);
  EXPECT_GT(zero_counts, 2);
}

// ---------------------------------------------------------------------------
// Permutable bands are sound.
// ---------------------------------------------------------------------------

TEST(PermutableBands, SeidelBreaksMatmulDoesNot) {
  {
    // Matmul: one fully permutable 3-d band.
    const ir::Scop scop = frontend::parse_scop(R"(
      scop mm(N) { context N >= 4;
        array A[N][N]; array B[N][N]; array C[N][N];
        for (i = 0 .. N-1) { for (j = 0 .. N-1) { for (k = 0 .. N-1) {
          S1: C[i][j] = C[i][j] + A[i][k]*B[k][j]; } } } })");
    const auto dg = ddg::DependenceGraph::analyze(scop);
    auto policy = fusion::make_policy(fusion::FusionModel::kSmartfuse);
    const auto sch = sched::compute_schedule(scop, dg, *policy);
    const auto bands = sched::permutable_bands(sch, dg);
    ASSERT_EQ(bands.size(), 3u);
    EXPECT_EQ(bands[0], bands[1]);
    EXPECT_EQ(bands[1], bands[2]);
  }
  {
    // A dependence satisfied at level 0 with a NEGATIVE level-1 component
    // must split the band: a[i][j] = a[i-1][j+1].
    const ir::Scop scop = frontend::parse_scop(R"(
      scop sk(N) { context N >= 4;
        array a[N+2][N+2];
        for (i = 1 .. N) { for (j = 1 .. N) {
          S1: a[i][j] = a[i-1][j+1] * 0.5; } } })");
    const auto dg = ddg::DependenceGraph::analyze(scop);
    auto policy = fusion::make_policy(fusion::FusionModel::kSmartfuse);
    const auto sch = sched::compute_schedule(scop, dg, *policy);
    const auto bands = sched::permutable_bands(sch, dg);
    // However the scheduler chose the rows, grouping both levels into one
    // band is only allowed if the satisfied dep keeps min >= 0 at the
    // inner level -- verify the reported banding against that definition.
    std::vector<std::size_t> linear;
    for (std::size_t l = 0; l < sch.num_levels(); ++l)
      if (sch.level_linear[l]) linear.push_back(l);
    ASSERT_EQ(bands.size(), linear.size());
    for (std::size_t k = 1; k < linear.size(); ++k) {
      if (bands[k] != bands[k - 1]) continue;
      for (std::size_t i = 0; i < dg.deps().size(); ++i) {
        if (sch.satisfied_at[i] != linear[k - 1]) continue;
        const ddg::Dependence& d = dg.deps()[i];
        const auto mn = d.poly.integer_min(
            d.lift_dst(sch.rows[d.dst][linear[k]]) -
            d.lift_src(sch.rows[d.src][linear[k]]));
        EXPECT_TRUE(mn.kind == poly::IntegerSet::Opt::kOk && mn.value >= 0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential legality oracle: verifier vs annotate_dependences.
//
// The scheduler's bookkeeping enforces *constructive* legality: at each
// level the schedule difference must be non-negative over the whole
// dependence polyhedron until the dependence is strongly satisfied. The
// verifier checks exact lexicographic positivity, which is strictly
// weaker (e.g. loop reversal below a satisfied level passes the verifier
// but not the constructive check). So the properties are implications,
// not equivalences:
//   (1) annotate_dependences accepts  =>  verifier reports ok;
//   (2) verifier reports a legality/unsatisfied finding
//                                     =>  annotate_dependences throws.
// ---------------------------------------------------------------------------

class VerifierDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(VerifierDifferential, AcceptedSchedulesVerifyAndCorruptedAgree) {
  const std::string src = suite::synthetic_program(GetParam());
  SCOPED_TRACE(src);
  const ir::Scop scop = frontend::parse_scop(src);
  const auto dg = ddg::DependenceGraph::analyze(scop);

  for (int m = 0; m < 4; ++m) {
    auto policy = fusion::make_policy(static_cast<fusion::FusionModel>(m));
    sched::Schedule sch = sched::compute_schedule(scop, dg, *policy);

    // (1) The scheduler's own output passes its constructive check, so
    // the weaker exact check must pass too.
    const verify::Report good = verify::check_legality(dg, sch);
    EXPECT_TRUE(good.ok()) << "model " << m << ":\n" << good.to_string(&scop);

    // Corrupt one linear row per statement by negation and compare
    // verdicts via implication (2).
    sched::Schedule bad = sch;
    for (std::size_t s = 0; s < bad.num_statements(); ++s)
      for (std::size_t l = 0; l < bad.num_levels(); ++l)
        if (bad.level_linear[l] && !bad.rows[s][l].is_constant()) {
          bad.rows[s][l] = -bad.rows[s][l];
          break;
        }
    const verify::Report r = verify::check_legality(dg, bad);
    bool annotate_throws = false;
    try {
      sched::annotate_dependences(bad, dg);
    } catch (const std::exception&) {
      annotate_throws = true;
    }
    if (!r.ok()) {
      EXPECT_TRUE(annotate_throws)
          << "model " << m
          << ": verifier found violations but annotate accepted:\n"
          << r.to_string(&scop);
    }
    if (!annotate_throws) {
      EXPECT_TRUE(r.ok()) << "model " << m
                          << ": annotate accepted but verifier objected:\n"
                          << r.to_string(&scop);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierDifferential, ::testing::Range(0u, 12u));

}  // namespace
}  // namespace pf
