// Tests for poly::SetUnion: unit tests for union/intersection/
// subtraction/projection/coalescing, plus the property test of the
// subtraction algebra against exhaustive point enumeration -- every
// random case compares `contains` over a 32x32 integer box (1024
// points) between the computed set and the set-theoretic definition.
#include <gtest/gtest.h>

#include <random>

#include "lp/simplex.h"
#include "poly/count.h"
#include "poly/set.h"
#include "poly/set_union.h"

namespace pf::poly {
namespace {

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

TEST(SetUnion, EmptyAndUniverse) {
  const auto e = SetUnion::empty(2);
  EXPECT_TRUE(e.trivially_empty());
  EXPECT_TRUE(e.is_empty());
  EXPECT_FALSE(e.contains({0, 0}));

  const auto u = SetUnion::universe(2);
  EXPECT_FALSE(u.is_empty());
  EXPECT_TRUE(u.contains({-100, 100}));
  EXPECT_EQ(u.dims(), 2u);
}

TEST(SetUnion, WrapDropsTriviallyEmpty) {
  IntegerSet contradiction(1);  // constant-false: syntactically empty
  contradiction.add_constraint(
      Constraint::ge0(AffineExpr::constant(1, -1)));
  const auto w = SetUnion::wrap(contradiction);
  EXPECT_TRUE(w.trivially_empty());
  EXPECT_EQ(SetUnion::wrap(box2(0, 1, 0, 1)).num_disjuncts(), 1u);
}

TEST(SetUnion, UniteAndContains) {
  auto u = SetUnion::wrap(box2(0, 1, 0, 1));
  u.unite(SetUnion::wrap(box2(5, 6, 5, 6)));
  EXPECT_EQ(u.num_disjuncts(), 2u);
  EXPECT_TRUE(u.contains({0, 1}));
  EXPECT_TRUE(u.contains({6, 5}));
  EXPECT_FALSE(u.contains({3, 3}));
}

TEST(SetUnion, SubtractCarvesHole) {
  // [0,9]^2 minus [3,6]^2: the frame. Disjuncts are pairwise disjoint
  // by construction; verify membership over the whole box.
  const auto frame = SetUnion::wrap(box2(0, 9, 0, 9)).subtract(box2(3, 6, 3, 6));
  for (i64 x = -1; x <= 10; ++x)
    for (i64 y = -1; y <= 10; ++y) {
      const bool in_outer = 0 <= x && x <= 9 && 0 <= y && y <= 9;
      const bool in_hole = 3 <= x && x <= 6 && 3 <= y && y <= 6;
      EXPECT_EQ(frame.contains({x, y}), in_outer && !in_hole)
          << "(" << x << "," << y << ")";
      // Pairwise disjoint: no point lies in two disjuncts.
      int hits = 0;
      for (const IntegerSet& d : frame.disjuncts())
        if (d.contains({x, y})) ++hits;
      EXPECT_LE(hits, 1);
    }
  EXPECT_FALSE(frame.is_empty());
  // Subtracting the outer box leaves nothing.
  EXPECT_TRUE(frame.subtract(box2(0, 9, 0, 9)).is_empty());
}

TEST(SetUnion, SubtractWithEquality) {
  // Removing the diagonal x == y splits into x < y and x > y.
  const auto off = SetUnion::wrap(box2(0, 3, 0, 3)).subtract([] {
    IntegerSet diag(2);
    diag.add_constraint(
        Constraint::eq(AffineExpr::var(2, 0), AffineExpr::var(2, 1)));
    return diag;
  }());
  for (i64 x = 0; x <= 3; ++x)
    for (i64 y = 0; y <= 3; ++y)
      EXPECT_EQ(off.contains({x, y}), x != y) << x << "," << y;
}

TEST(SetUnion, IntersectUnion) {
  auto u = SetUnion::wrap(box2(0, 4, 0, 4));
  u.unite(SetUnion::wrap(box2(8, 9, 8, 9)));
  const auto v = u.intersect(SetUnion::wrap(box2(3, 8, 3, 8)));
  EXPECT_TRUE(v.contains({3, 4}));
  EXPECT_TRUE(v.contains({8, 8}));
  EXPECT_FALSE(v.contains({0, 0}));
  EXPECT_FALSE(v.contains({9, 9}));
}

TEST(SetUnion, ProjectionAndInsertDims) {
  const auto u = SetUnion::wrap(box2(2, 5, -1, 1));
  const auto p = u.project_onto_prefix(1);
  EXPECT_EQ(p.dims(), 1u);
  EXPECT_TRUE(p.contains({2}));
  EXPECT_TRUE(p.contains({5}));
  EXPECT_FALSE(p.contains({6}));
  const auto back = p.insert_dims(1, 1);
  EXPECT_EQ(back.dims(), 2u);
  EXPECT_TRUE(back.contains({3, 1000}));  // new dim unconstrained
  EXPECT_FALSE(back.contains({6, 0}));
}

TEST(SetUnion, IsSubset) {
  EXPECT_TRUE(is_subset(box2(1, 2, 1, 2), box2(0, 3, 0, 3)));
  EXPECT_FALSE(is_subset(box2(0, 3, 0, 3), box2(1, 2, 1, 2)));
  EXPECT_TRUE(is_subset(box2(0, 3, 0, 3), box2(0, 3, 0, 3)));
}

TEST(SetUnion, CoalesceDropsEmptyAndSubsumed) {
  auto u = SetUnion::wrap(box2(0, 9, 0, 9));
  u.add_disjunct(box2(2, 3, 2, 3));   // subsumed by the big box
  u.add_disjunct(box2(5, 4, 0, 9));   // ILP-empty (lo > hi)
  ASSERT_EQ(u.num_disjuncts(), 3u);
  u.coalesce();
  EXPECT_EQ(u.num_disjuncts(), 1u);
  EXPECT_TRUE(u.contains({2, 3}));
  // Identical disjuncts: exactly one survives the mutual containment.
  auto v = SetUnion::wrap(box2(0, 1, 0, 1));
  v.add_disjunct(box2(0, 1, 0, 1));
  v.coalesce();
  EXPECT_EQ(v.num_disjuncts(), 1u);
}

TEST(SetUnion, SamplePoint) {
  const auto u = SetUnion::wrap(box2(7, 9, -2, -1));
  const auto p = u.sample_point();
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(u.contains(*p));
  EXPECT_FALSE(SetUnion::empty(2).sample_point().has_value());
}

// ---------------------------------------------------------------------------
// Property test: the subtraction / union / intersection algebra agrees
// with point enumeration. Random conjunctions over a 32x32 box (1024
// points per case); `contains` must match the set-theoretic definition
// at every point, and subtraction disjuncts must stay pairwise disjoint.
// ---------------------------------------------------------------------------

class SetUnionVsEnumeration : public ::testing::TestWithParam<unsigned> {};

IntegerSet random_conjunction(std::mt19937& rng) {
  std::uniform_int_distribution<i64> coef(-3, 3);
  std::uniform_int_distribution<i64> cst(-8, 8);
  std::uniform_int_distribution<int> nc(1, 3);
  std::uniform_int_distribution<int> kind(0, 4);
  IntegerSet s(2);
  const int n = nc(rng);
  for (int i = 0; i < n; ++i) {
    AffineExpr e(2, cst(rng));
    e.set_coeff(0, coef(rng));
    e.set_coeff(1, coef(rng));
    // Mostly inequalities, occasionally an equality to exercise the
    // two-sided complement.
    if (kind(rng) == 0)
      s.add_constraint(Constraint::eq0(e));
    else
      s.add_constraint(Constraint::ge0(e));
  }
  return s;
}

TEST_P(SetUnionVsEnumeration, AlgebraMatchesPoints) {
  std::mt19937 rng(GetParam());
  const i64 kLo = -16, kHi = 15;  // 32 x 32 = 1024 points

  // U = box /\ A  union  box /\ B; subtrahend C, intersector D.
  const IntegerSet box = box2(kLo, kHi, kLo, kHi);
  IntegerSet a = box, b = box;
  a.intersect(random_conjunction(rng));
  b.intersect(random_conjunction(rng));
  const IntegerSet c = random_conjunction(rng);
  const IntegerSet d = random_conjunction(rng);

  auto u = SetUnion::wrap(a);
  u.unite(SetUnion::wrap(b));
  const SetUnion diff = u.subtract(c);
  const SetUnion inter = u.intersect(d);
  SetUnion coal = diff;
  coal.coalesce();
  // Disjointness is guaranteed among the pieces carved from ONE base
  // disjunct (they pairwise disagree on some c_i); a and b may overlap,
  // so check it on the single-disjunct subtraction.
  const SetUnion adiff = SetUnion::wrap(a).subtract(c);

  for (i64 x = kLo; x <= kHi; ++x) {
    for (i64 y = kLo; y <= kHi; ++y) {
      const IntVector p{x, y};
      const bool in_u = a.contains(p) || b.contains(p);
      EXPECT_EQ(u.contains(p), in_u) << "seed " << GetParam() << " union";
      EXPECT_EQ(diff.contains(p), in_u && !c.contains(p))
          << "seed " << GetParam() << " subtract at (" << x << "," << y << ")";
      EXPECT_EQ(inter.contains(p), in_u && d.contains(p))
          << "seed " << GetParam() << " intersect at (" << x << "," << y << ")";
      // coalesce() must not change the set.
      EXPECT_EQ(coal.contains(p), diff.contains(p))
          << "seed " << GetParam() << " coalesce at (" << x << "," << y << ")";
      EXPECT_EQ(adiff.contains(p), a.contains(p) && !c.contains(p))
          << "seed " << GetParam() << " single-base subtract at (" << x << ","
          << y << ")";
      int hits = 0;
      for (const IntegerSet& dj : adiff.disjuncts())
        if (dj.contains(p)) ++hits;
      EXPECT_LE(hits, 1) << "seed " << GetParam() << " disjointness at ("
                         << x << "," << y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCases, SetUnionVsEnumeration,
                         ::testing::Range(0u, 25u));

// ---------------------------------------------------------------------------
// Property test: exact point counting vs enumeration. Every random case
// builds bounded sets inside the 32x32 box and checks count_points /
// count_projection against literally counting `contains` hits --
// covering the single-set recursion, the inclusion-exclusion union path,
// the many-disjunct progressive-subtraction path, and the projection
// count. A differential leg re-counts under lp::testing::ExactPathScope:
// the exact path must produce the identical numbers.
// ---------------------------------------------------------------------------

class CountVsEnumeration : public ::testing::TestWithParam<unsigned> {};

TEST_P(CountVsEnumeration, CountMatchesEnumeration) {
  std::mt19937 rng(GetParam());
  const i64 kLo = -16, kHi = 15;  // 32 x 32 = 1024 points

  const IntegerSet box = box2(kLo, kHi, kLo, kHi);
  IntegerSet a = box, b = box;
  a.intersect(random_conjunction(rng));
  b.intersect(random_conjunction(rng));
  const IntegerSet c = random_conjunction(rng);

  auto u = SetUnion::wrap(a);
  u.unite(SetUnion::wrap(b));
  // Subtraction fans one box disjunct into several pieces, so `diff`
  // exercises the multi-disjunct union paths.
  const SetUnion diff = u.subtract(c);

  // Ground truth by enumeration.
  i64 na = 0, nu = 0, ndiff = 0, nproj = 0;
  for (i64 x = kLo; x <= kHi; ++x) {
    bool col = false;
    for (i64 y = kLo; y <= kHi; ++y) {
      const IntVector p{x, y};
      na += a.contains(p);
      const bool in_u = a.contains(p) || b.contains(p);
      nu += in_u;
      ndiff += in_u && !c.contains(p);
      col = col || in_u;
    }
    nproj += col;
  }

  auto expect_exact = [&](const Count& got, i64 want, const char* what) {
    ASSERT_TRUE(got.is_exact()) << "seed " << GetParam() << " " << what
                                << " -> " << got.to_string();
    EXPECT_EQ(got.value, want) << "seed " << GetParam() << " " << what;
  };
  expect_exact(count_points(a), na, "single set");
  expect_exact(count_points(u), nu, "two-disjunct union");
  expect_exact(count_points(diff), ndiff, "subtraction result");
  expect_exact(count_projection(u, 1), nproj, "prefix projection");

  // Force the joint-enumeration fallback on the same union: with the
  // inclusion-exclusion budget at 1 the count must not change.
  CountOptions joint;
  joint.max_inclusion_exclusion_disjuncts = 1;
  expect_exact(count_points(diff, joint), ndiff, "joint enumeration");

  // Differential: the exact path (BigInt cells, no warm start) counts
  // the same points.
  {
    lp::testing::ExactPathScope exact_path;
    clear_solve_cache();
    expect_exact(count_points(a), na, "single set (exact path)");
    expect_exact(count_points(u), nu, "union (exact path)");
    expect_exact(count_projection(u, 1), nproj, "projection (exact path)");
  }
  clear_solve_cache();
}

INSTANTIATE_TEST_SUITE_P(RandomCases, CountVsEnumeration,
                         ::testing::Range(0u, 25u));

}  // namespace
}  // namespace pf::poly
