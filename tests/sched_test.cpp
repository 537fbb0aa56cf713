// Tests for the Pluto-style scheduler and the fusion policies, on the
// paper's own examples (gemver Fig. 1/3, advect Fig. 4/6) plus legality
// property tests over every policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "analysis/reductions.h"
#include "ddg/dependences.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "poly/set.h"
#include "sched/farkas.h"
#include "sched/pluto.h"
#include "suite/suite.h"
#include "support/linalg.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace pf::sched {
namespace {

using fusion::FusionModel;

// Legality property: every real dependence must be lexicographically
// positive under the schedule -- strongly satisfied at its satisfaction
// level, with zero difference at all earlier levels' minima >= 0.
void expect_legal(const ir::Scop& scop, const ddg::DependenceGraph& dg,
                  const Schedule& sch) {
  ASSERT_EQ(sch.satisfied_at.size(), dg.deps().size());
  for (std::size_t i = 0; i < dg.deps().size(); ++i) {
    const ddg::Dependence& d = dg.deps()[i];
    ASSERT_NE(sch.satisfied_at[i], SIZE_MAX)
        << "dependence " << scop.statement(d.src).name() << " -> "
        << scop.statement(d.dst).name() << " never satisfied";
    const std::size_t sat = sch.satisfied_at[i];
    for (std::size_t l = 0; l <= sat; ++l) {
      const poly::AffineExpr diff =
          d.lift_dst(sch.rows[d.dst][l]) - d.lift_src(sch.rows[d.src][l]);
      const auto mn = d.poly.integer_min(diff);
      ASSERT_EQ(mn.kind, poly::IntegerSet::Opt::kOk);
      if (l < sat)
        EXPECT_GE(mn.value, 0) << "level " << l;
      else
        EXPECT_GE(mn.value, 1) << "satisfaction level " << l;
    }
  }
}

Schedule run_model(const ir::Scop& scop, const ddg::DependenceGraph& dg,
                   FusionModel m) {
  auto policy = fusion::make_policy(m);
  return compute_schedule(scop, dg, *policy);
}

// ---------------------------------------------------------------------------
// Farkas lemma unit tests.
// ---------------------------------------------------------------------------

TEST(Farkas, NonNegativityOnASegment) {
  // P = { x : 0 <= x <= 10 }; E(x) = a*x + b >= 0 on P  iff  b >= 0 and
  // 10a + b >= 0. Check a few instantiations against the generated system.
  poly::IntegerSet p(1);
  p.add_constraint(poly::Constraint::ge0(poly::AffineExpr::var(1, 0)));
  p.add_constraint(poly::Constraint::ge0(
      poly::AffineExpr::constant(1, 10) - poly::AffineExpr::var(1, 0)));
  // Unknowns y = (a, b); E coeff of x is a, const is b.
  ParamAffine coeff(2), cst(2);
  coeff.coeffs = {1, 0};
  cst.coeffs = {0, 1};
  const auto cs = farkas_constraints(p, {coeff}, cst, 2);
  ASSERT_FALSE(cs.empty());
  auto ok = [&](i64 a, i64 b) {
    for (const poly::Constraint& c : cs) {
      const i64 v = c.expr.eval({a, b});
      if (c.is_equality ? v != 0 : v < 0) return false;
    }
    return true;
  };
  EXPECT_TRUE(ok(0, 0));
  EXPECT_TRUE(ok(1, 0));
  EXPECT_TRUE(ok(-1, 10));
  EXPECT_FALSE(ok(-1, 5));  // at x=10: -10+5 < 0
  EXPECT_FALSE(ok(0, -1));
}

TEST(Farkas, HandlesEqualitiesInP) {
  // P = { (x, y) : x == y, 0 <= x <= 5 }. E = a*x - a*y is 0 on P for any
  // a; E = x - y + b needs b >= 0.
  poly::IntegerSet p(2);
  p.add_constraint(poly::Constraint::eq(poly::AffineExpr::var(2, 0),
                                        poly::AffineExpr::var(2, 1)));
  p.add_constraint(poly::Constraint::ge0(poly::AffineExpr::var(2, 0)));
  p.add_constraint(poly::Constraint::ge0(
      poly::AffineExpr::constant(2, 5) - poly::AffineExpr::var(2, 0)));
  // Unknown y = (b); E = x - y + b.
  ParamAffine cx(1), cy(1), cst(1);
  cx.constant = 1;
  cy.constant = -1;
  cst.coeffs = {1};
  const auto cs = farkas_constraints(p, {cx, cy}, cst, 1);
  auto ok = [&](i64 b) {
    for (const poly::Constraint& c : cs) {
      const i64 v = c.expr.eval({b});
      if (c.is_equality ? v != 0 : v < 0) return false;
    }
    return true;
  };
  EXPECT_TRUE(ok(0));
  EXPECT_TRUE(ok(3));
  EXPECT_FALSE(ok(-1));
}

// ---------------------------------------------------------------------------
// Scheduler on tiny programs.
// ---------------------------------------------------------------------------

TEST(Scheduler, SingleStatementIdentityLike) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N][N];
      for (i = 0 .. N-1) { for (j = 0 .. N-1) {
        S1: a[i][j] = a[i][j] * 2.0; } } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  EXPECT_TRUE(dg.deps().empty());
  const Schedule sch = run_model(scop, dg, FusionModel::kSmartfuse);
  // Two linear levels, no scalar dims needed.
  ASSERT_EQ(sch.num_levels(), 2u);
  EXPECT_TRUE(sch.level_linear[0]);
  EXPECT_TRUE(sch.level_linear[1]);
  // Both levels parallel (no deps at all).
  EXPECT_TRUE(sch.is_parallel_for({0}, 0));
  EXPECT_TRUE(sch.is_parallel_for({0}, 1));
}

TEST(Scheduler, StencilGetsSequentialOuterLoop) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N];
      for (i = 1 .. N-1) { S1: a[i] = a[i-1] * 0.5; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const Schedule sch = run_model(scop, dg, FusionModel::kSmartfuse);
  expect_legal(scop, dg, sch);
  ASSERT_EQ(sch.num_levels(), 1u);
  EXPECT_TRUE(sch.level_linear[0]);
  EXPECT_FALSE(sch.is_parallel_for({0}, 0));  // carries the flow dep
}

TEST(Scheduler, ProducerConsumerFusesWithTextualOrder) {
  // S1: a[i] = ...; S2: b[i] = a[i]: fusable; the loop-independent dep is
  // satisfied by a trailing scalar level (body order), not distribution.
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N];
      for (i = 0 .. N-1) { S1: a[i] = 1.0; }
      for (i = 0 .. N-1) { S2: b[i] = a[i] + 1.0; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const Schedule sch = run_model(scop, dg, FusionModel::kSmartfuse);
  expect_legal(scop, dg, sch);
  // Fused: same outer partition.
  const auto parts = sch.outer_partitions();
  EXPECT_EQ(parts[0], parts[1]);
  // The fused loop is parallel.
  ASSERT_TRUE(sch.level_linear[0]);
  EXPECT_TRUE(sch.is_parallel_for({0, 1}, 0));
}

TEST(Scheduler, NofuseDistributesEverything) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N];
      for (i = 0 .. N-1) { S1: a[i] = 1.0; }
      for (i = 0 .. N-1) { S2: b[i] = a[i] + 1.0; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const Schedule sch = run_model(scop, dg, FusionModel::kNofuse);
  expect_legal(scop, dg, sch);
  const auto parts = sch.outer_partitions();
  EXPECT_NE(parts[0], parts[1]);
}

// ---------------------------------------------------------------------------
// gemver (paper Figures 1 and 3).
// ---------------------------------------------------------------------------

constexpr const char* kGemver = R"(
scop gemver(N) {
  context N >= 4;
  array A[N][N]; array B[N][N];
  array u1[N]; array v1[N]; array u2[N]; array v2[N];
  array x[N]; array y[N]; array w[N]; array z[N];
  for (i = 0 .. N-1) { for (j = 0 .. N-1) {
    S1: B[i][j] = A[i][j] + u1[i]*v1[j] + u2[i]*v2[j]; } }
  for (i = 0 .. N-1) { for (j = 0 .. N-1) {
    S2: x[i] = x[i] + 2.5*B[j][i]*y[j]; } }
  for (i = 0 .. N-1) {
    S3: x[i] = x[i] + z[i]; }
  for (i = 0 .. N-1) { for (j = 0 .. N-1) {
    S4: w[i] = w[i] + 1.5*B[i][j]*x[j]; } }
}
)";

TEST(Scheduler, GemverFusesS1S2WithInterchange) {
  const ir::Scop scop = frontend::parse_scop(kGemver);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const Schedule sch = run_model(scop, dg, FusionModel::kSmartfuse);
  expect_legal(scop, dg, sch);

  // Paper Figure 3: S1 and S2 perfectly fused; S3 and S4 distributed
  // (partition vector (0, 0, 1, 2)). Our scheduler additionally fuses the
  // parallel outer loop across all four statements -- strictly more reuse,
  // same legality -- so Figure 3's scalar dimension appears one level in.
  const auto parts = sch.nest_partitions();
  EXPECT_EQ(parts, (std::vector<int>{0, 0, 1, 2}));
  EXPECT_EQ(parts[0], parts[1]);
  EXPECT_NE(parts[1], parts[2]);
  EXPECT_NE(parts[2], parts[3]);
  EXPECT_NE(parts[1], parts[3]);

  // The fusion requires interchanging S1's loops: at the first linear
  // level, S1's hyperplane must be j (coeff on dim 1) while S2's is i
  // (coeff on dim 0).
  std::size_t first_linear = 0;
  while (!sch.level_linear[first_linear]) ++first_linear;
  const poly::AffineExpr& r1 = sch.rows[0][first_linear];
  const poly::AffineExpr& r2 = sch.rows[1][first_linear];
  EXPECT_EQ(r1.coeff(0), 0);
  EXPECT_EQ(r1.coeff(1), 1);
  EXPECT_EQ(r2.coeff(0), 1);
  EXPECT_EQ(r2.coeff(1), 0);
  // And the fused outer loop is parallel (communication-free).
  EXPECT_TRUE(sch.is_parallel_for({0, 1}, first_linear));
}

TEST(Scheduler, GemverWisefuseMatchesSmartfusePartitioning) {
  // Paper Section 5.3: wisefuse and smartfuse achieve identical fusion
  // partitioning on gemver.
  const ir::Scop scop = frontend::parse_scop(kGemver);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto a = run_model(scop, dg, FusionModel::kWisefuse);
  const auto b = run_model(scop, dg, FusionModel::kSmartfuse);
  expect_legal(scop, dg, a);
  // Same grouping into nests (S1+S2 fused; S3, S4 apart). wisefuse
  // additionally distributes S4's reduction at the outermost level
  // (Algorithm 2's parallelism preservation), which smartfuse does not --
  // so nest partitions agree while outer partitions may differ.
  EXPECT_EQ(a.nest_partitions(), b.nest_partitions());
  EXPECT_EQ(a.nest_partitions()[0], a.nest_partitions()[1]);
}

// ---------------------------------------------------------------------------
// advect (paper Figures 4 and 6).
// ---------------------------------------------------------------------------

constexpr const char* kAdvect = R"(
scop advect(N) {
  context N >= 4;
  array wk1[N+2][N+2]; array wk2[N+2][N+2]; array wk4[N+2][N+2];
  array u[N+2][N+2]; array v[N+2][N+2];
  for (i = 1 .. N) { for (j = 1 .. N) {
    S1: wk1[i][j] = u[i][j] + u[i][j+1]; } }
  for (i = 1 .. N) { for (j = 1 .. N) {
    S2: wk2[i][j] = v[i][j] + v[i+1][j]; } }
  for (i = 1 .. N) { for (j = 1 .. N) {
    S3: wk4[i][j] = wk1[i][j] + wk2[i][j]; } }
  for (i = 1 .. N) { for (j = 1 .. N) {
    S4: u[i][j] = wk4[i][j] - wk4[i][j+1] + wk4[i+1][j]; } }
}
)";

TEST(Scheduler, AdvectMaxfuseLosesOuterParallelism) {
  // Figure 4(c): full fusion is legal only with shifting, and the outer
  // loop becomes a forward-dependence (pipelined) loop.
  const ir::Scop scop = frontend::parse_scop(kAdvect);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const Schedule sch = run_model(scop, dg, FusionModel::kMaxfuse);
  expect_legal(scop, dg, sch);
  const auto parts = sch.outer_partitions();
  // Everything in one nest.
  EXPECT_EQ(parts[0], parts[3]);
  // ... but the outermost loop is not parallel for the full group.
  std::size_t first_linear = 0;
  while (!sch.level_linear[first_linear]) ++first_linear;
  EXPECT_FALSE(sch.is_parallel_for({0, 1, 2, 3}, first_linear));
}

TEST(Scheduler, AdvectWisefuseCutsS4AndStaysParallel) {
  // Figure 6: wisefuse keeps S1-S3 fused (parallel) and distributes S4.
  const ir::Scop scop = frontend::parse_scop(kAdvect);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const Schedule sch = run_model(scop, dg, FusionModel::kWisefuse);
  expect_legal(scop, dg, sch);
  const auto parts = sch.outer_partitions();
  EXPECT_EQ(parts[0], parts[1]);
  EXPECT_EQ(parts[1], parts[2]);
  EXPECT_NE(parts[2], parts[3]);
  std::size_t first_linear = 0;
  while (!sch.level_linear[first_linear]) ++first_linear;
  EXPECT_TRUE(sch.is_parallel_for({0, 1, 2}, first_linear));
  EXPECT_TRUE(sch.is_parallel_for({3}, first_linear));
}

// ---------------------------------------------------------------------------
// Every model must produce a legal schedule on every program.
// ---------------------------------------------------------------------------

// A test program, printed by name so the parameterized test names do not
// carry the address of its source text, which changes from run to run.
struct Program {
  const char* name;
  const char* source;
};

void PrintTo(const Program& p, std::ostream* os) { *os << p.name; }

class AllModelsLegal
    : public ::testing::TestWithParam<std::tuple<int, Program>> {};

TEST_P(AllModelsLegal, ScheduleIsLegal) {
  const ir::Scop scop = frontend::parse_scop(std::get<1>(GetParam()).source);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const Schedule sch =
      run_model(scop, dg, static_cast<FusionModel>(std::get<0>(GetParam())));
  expect_legal(scop, dg, sch);
  // Structure invariants: all statements have rows at every level.
  for (std::size_t s = 0; s < scop.num_statements(); ++s)
    EXPECT_EQ(sch.rows[s].size(), sch.num_levels());
}

constexpr Program kPrograms[] = {
    // producer-consumer chain
    {"chain", R"(scop t(N) { context N >= 4; array a[N]; array b[N]; array c[N];
       for (i = 0 .. N-1) { a[i] = 1.0; }
       for (i = 0 .. N-1) { b[i] = a[i] + 1.0; }
       for (i = 0 .. N-1) { c[i] = b[i] * 2.0; } })"},
    // reversal-free stencil chain with shifts
    {"shifted_stencil", R"(scop t(N) { context N >= 4; array a[N+2]; array b[N+2];
       for (i = 1 .. N) { a[i] = b[i-1] + b[i+1]; }
       for (i = 1 .. N) { b[i] = a[i] * 0.5; } })"},
    // triangular (lu-like)
    {"triangular", R"(scop t(N) { context N >= 3; array A[N][N];
       for (k = 0 .. N-2) {
         for (i = k+1 .. N-1) { A[i][k] = A[i][k] / A[k][k]; }
         for (i = k+1 .. N-1) { for (j = k+1 .. N-1) {
           A[i][j] = A[i][j] - A[i][k] * A[k][j]; } }
       } })"},
    // mixed dimensionality
    {"mixed_dims", R"(scop t(N) { context N >= 4; array a[N]; array B[N][N];
       for (i = 0 .. N-1) { a[i] = 2.0; }
       for (i = 0 .. N-1) { for (j = 0 .. N-1) { B[i][j] = a[i] + a[j]; } }
       for (i = 0 .. N-1) { a[i] = B[i][i]; } })"},
};

INSTANTIATE_TEST_SUITE_P(
    ModelsTimesPrograms, AllModelsLegal,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::ValuesIn(kPrograms)));

// ---------------------------------------------------------------------------
// Wisefuse pre-fusion order (Algorithm 1) unit behavior.
// ---------------------------------------------------------------------------

TEST(Wisefuse, OrdersRarNeighborsConsecutively) {
  // S1 and S3 read the same array c (RAR reuse) and have the same dim;
  // S2 is unrelated 2-d. Algorithm 1 pulls S3 right after S1.
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N]; array c[N];
      array D[N][N];
      for (i = 0 .. N-1) { S1: a[i] = c[i]; }
      for (i = 0 .. N-1) { for (j = 0 .. N-1) { S2: D[i][j] = 1.0; } }
      for (i = 0 .. N-1) { S3: b[i] = c[i] * 2.0; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto sccs = dg.sccs();
  const auto order = fusion::wisefuse_prefusion_order(scop, dg, sccs, {});
  // Positions of S1's and S3's SCCs must be adjacent, before S2's.
  std::vector<std::size_t> pos(sccs.num_sccs());
  for (std::size_t p = 0; p < order.size(); ++p) pos[order[p]] = p;
  const auto p1 = pos[static_cast<std::size_t>(sccs.scc_of[0])];
  const auto p2 = pos[static_cast<std::size_t>(sccs.scc_of[1])];
  const auto p3 = pos[static_cast<std::size_t>(sccs.scc_of[2])];
  EXPECT_EQ(p3, p1 + 1);
  EXPECT_GT(p2, p3);
}

TEST(Wisefuse, RarDisabledKeepsOriginalOrder) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N]; array c[N];
      array D[N][N];
      for (i = 0 .. N-1) { S1: a[i] = c[i]; }
      for (i = 0 .. N-1) { for (j = 0 .. N-1) { S2: D[i][j] = 1.0; } }
      for (i = 0 .. N-1) { S3: b[i] = c[i] * 2.0; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto sccs = dg.sccs();
  fusion::WisefuseOptions opts;
  opts.use_rar = false;
  const auto order = fusion::wisefuse_prefusion_order(scop, dg, sccs, opts);
  // No reuse edges at all here without RAR: program order retained.
  std::vector<std::size_t> pos(sccs.num_sccs());
  for (std::size_t p = 0; p < order.size(); ++p) pos[order[p]] = p;
  EXPECT_LT(pos[static_cast<std::size_t>(sccs.scc_of[0])],
            pos[static_cast<std::size_t>(sccs.scc_of[1])]);
  EXPECT_LT(pos[static_cast<std::size_t>(sccs.scc_of[1])],
            pos[static_cast<std::size_t>(sccs.scc_of[2])]);
}

TEST(Wisefuse, PrecedenceConstraintBlocksReordering) {
  // S3 reuses with S1 but depends on S2 (unvisited when S1 is seeded), so
  // it must NOT be pulled ahead of S2.
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N]; array c[N];
      array D[N][N];
      for (i = 0 .. N-1) { S1: a[i] = c[i]; }
      for (i = 0 .. N-1) { for (j = 0 .. N-1) { S2: D[i][j] = 3.0; } }
      for (i = 0 .. N-1) { S3: b[i] = c[i] + D[i][i]; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto sccs = dg.sccs();
  const auto order = fusion::wisefuse_prefusion_order(scop, dg, sccs, {});
  std::vector<std::size_t> pos(sccs.num_sccs());
  for (std::size_t p = 0; p < order.size(); ++p) pos[order[p]] = p;
  EXPECT_LT(pos[static_cast<std::size_t>(sccs.scc_of[1])],
            pos[static_cast<std::size_t>(sccs.scc_of[2])]);
}

// ---------------------------------------------------------------------------
// The independence-orientation certificate skips only enumerations that
// would fail, so it never changes a schedule.
// ---------------------------------------------------------------------------

// gemver under wisefuse (reductions relaxed, the CLI default) has one
// level where the sign-0 triage succeeds but no orientation can: the
// certificate fires there once, and the schedule is the recorded one
// (tests/golden/sched/gemver.sched).
TEST(OrientationCertificate, FiresOnceOnGemverWisefuse) {
  const ir::Scop scop = suite::parse(suite::benchmark("gemver"));
  const auto dg = ddg::DependenceGraph::analyze(scop);
  SchedulerOptions opts;
  opts.relaxed_deps = analysis::analyze_reductions(scop, dg).relaxable;
  const auto policy = fusion::make_policy(FusionModel::kWisefuse);
  support::MetricsScope metrics;
  const Schedule sch = compute_schedule(scop, dg, *policy, opts);
  EXPECT_EQ(metrics.registry().get(support::Counter::kSchedOrientationSkips),
            1);
  EXPECT_EQ(sch.to_string(),
            "T_S1 = (j, 0, i, 0)\n"
            "T_S2 = (i, 0, j, 1)\n"
            "T_S3 = (i, 1, 0, 2)\n"
            "T_S4 = (j, 2, i, 3)\n");
}

// The skewed stencil of PermutableBands.SeidelBreaksMatmulDoesNot needs
// the flipped orientation at its second level: the certificate must not
// fire, and the enumeration must still find the flipped hyperplane.
TEST(OrientationCertificate, NeverFiresWhenAFlippedOrientationSucceeds) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop sk(N) { context N >= 4;
      array a[N+2][N+2];
      for (i = 1 .. N) { for (j = 1 .. N) {
        S1: a[i][j] = a[i-1][j+1] * 0.5; } } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto policy = fusion::make_policy(FusionModel::kSmartfuse);
  support::MetricsScope metrics;
  const Schedule sch = compute_schedule(scop, dg, *policy);
  EXPECT_EQ(metrics.registry().get(support::Counter::kSchedOrientationSkips),
            0);
  EXPECT_EQ(sch.to_string(), "T_S1 = (i + j, i)\n");
  expect_legal(scop, dg, sch);

  // The second row has a negative product with the default (summed)
  // complement of the first, so only the flipped sign admits it.
  ASSERT_EQ(sch.num_levels(), 2u);
  IntMatrix h(0, 2);
  h.append_row({sch.rows[0][0].coeff(0), sch.rows[0][0].coeff(1)});
  const IntMatrix comp = orthogonal_complement_rows(h);
  i64 dot = 0;
  for (std::size_t j = 0; j < comp.rows(); ++j)
    for (std::size_t k = 0; k < 2; ++k)
      dot += comp(j, k) * sch.rows[0][1].coeff(k);
  EXPECT_LT(dot, 0);
}

// One sched/farkas_system span per dependence system the scheduler
// needs, saying whether the shape memo served it and how many rows were
// kept. With the memo off (the solve cache off) every system is built,
// and each keeps exactly as many rows, in the same order of dependences,
// with the same schedule as the result.
TEST(FarkasMemo, SpansMatchCountersAndUnmemoizedBuild) {
  const ir::Scop scop = suite::parse(suite::benchmark("swim"));
  const auto dg = ddg::DependenceGraph::analyze(scop);
  SchedulerOptions opts;
  opts.relaxed_deps = analysis::analyze_reductions(scop, dg).relaxable;
  struct Run {
    std::string schedule;
    std::vector<std::string> hits, rows_kept;
    i64 builds = 0, memo_hits = 0;
  };
  auto run = [&](bool memo) {
    // The memo is on inside a request scope and off outside one.
    std::optional<poly::SolveCacheScope> cache;
    if (memo) cache.emplace();
    support::Tracer tracer(/*spans=*/true, /*remarks=*/false);
    support::TracerScope tracer_scope(&tracer);
    support::MetricsScope metrics;
    const auto policy = fusion::make_policy(FusionModel::kWisefuse);
    Run out;
    out.schedule = compute_schedule(scop, dg, *policy, opts).to_string();
    for (const support::TraceEvent& e : tracer.events()) {
      if (e.name != "farkas_system") continue;
      EXPECT_EQ(e.category, "sched");
      EXPECT_EQ(e.attrs.size(), 2u);
      for (const support::TraceAttr& a : e.attrs)
        (a.first == "hit" ? out.hits : out.rows_kept).push_back(a.second);
    }
    out.builds = metrics.registry().get(support::Counter::kFarkasBuilds);
    out.memo_hits = metrics.registry().get(support::Counter::kFarkasMemoHits);
    return out;
  };
  const Run on = run(true);
  const Run off = run(false);
  EXPECT_GT(on.memo_hits, 0);
  EXPECT_EQ(std::count(on.hits.begin(), on.hits.end(), "1"), on.memo_hits);
  EXPECT_EQ(std::count(on.hits.begin(), on.hits.end(), "0"), on.builds);
  EXPECT_EQ(off.memo_hits, 0);
  EXPECT_EQ(off.builds, on.builds + on.memo_hits);
  EXPECT_EQ(std::count(off.hits.begin(), off.hits.end(), "0"), off.builds);
  EXPECT_EQ(off.rows_kept, on.rows_kept);
  EXPECT_EQ(off.schedule, on.schedule);
}

// Which dependences share a build. In this time loop all eight
// dependences have the rows i' = i and either t' >= t + 1 (carried by t)
// or t' = t, over the same domain. One build serves both self-dependences
// (one block each) and one each of the S1 -> S2 pairs carried by t and
// not carried; the S2 -> S1 pair carried by t has the rows of the
// S1 -> S2 one but its blocks the other way round, so it is a fourth
// shape. Four builds, four hits; with the memo off, eight builds and the
// same schedule.
TEST(FarkasMemo, SharesBuildsExactlyByShape) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop ping(T, N) { context T >= 2; context N >= 4;
      array a[N]; array b[N];
      for (t = 0 .. T-1) {
        for (i = 0 .. N-1) { S1: a[i] = b[i] + 1.0; }
        for (i = 0 .. N-1) { S2: b[i] = a[i] * 0.5; } } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  ASSERT_EQ(dg.deps().size(), 8u);
  std::string schedules[2];
  for (const bool memo : {true, false}) {
    std::optional<poly::SolveCacheScope> cache;
    if (memo) cache.emplace();
    support::MetricsScope metrics;
    const auto policy = fusion::make_policy(FusionModel::kWisefuse);
    const Schedule sch = compute_schedule(scop, dg, *policy);
    expect_legal(scop, dg, sch);
    schedules[memo ? 0 : 1] = sch.to_string();
    EXPECT_EQ(metrics.registry().get(support::Counter::kFarkasBuilds),
              memo ? 4 : 8);
    EXPECT_EQ(metrics.registry().get(support::Counter::kFarkasMemoHits),
              memo ? 4 : 0);
  }
  EXPECT_EQ(schedules[0], schedules[1]);
}

}  // namespace
}  // namespace pf::sched
