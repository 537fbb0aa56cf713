// Tests for the independent schedule verifier (src/verify).
//
// Positive direction: everything the real pipeline produces -- every
// fusion policy, every suite benchmark, synthetic programs, identity
// schedules, tiled ASTs -- must verify clean.
//
// Negative direction (the checker itself is under test): hand-crafted
// illegal schedules and falsely-parallel-marked AST loops must be
// detected with the exact diagnostic kind, statement pair and level.
#include <gtest/gtest.h>

#include "codegen/codegen.h"
#include "codegen/tiling.h"
#include "ddg/dependences.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "sched/analysis.h"
#include "sched/pluto.h"
#include "suite/suite.h"
#include "suite/synthetic.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "verify/verify.h"

namespace pf {
namespace {

struct Pipeline {
  ir::Scop scop;
  ddg::DependenceGraph dg;

  explicit Pipeline(const std::string& src)
      : scop(frontend::parse_scop(src)),
        dg(ddg::DependenceGraph::analyze(scop)) {}
};

codegen::AstNode* first_loop(codegen::AstNode& n) {
  if (n.kind == codegen::AstNode::Kind::kLoop) return &n;
  for (const codegen::AstPtr& c : n.children)
    if (codegen::AstNode* l = first_loop(*c)) return l;
  return nullptr;
}

const char* kProducerConsumer = R"(
  scop pc(N) { context N >= 4;
    array a[N]; array b[N];
    for (i = 0 .. N-1) { S1: a[i] = i * 1.5; }
    for (i = 0 .. N-1) { S2: b[i] = a[i] + 1.0; }
  })";

const char* kSequentialChain = R"(
  scop chain(N) { context N >= 4;
    array a[N+2];
    for (i = 1 .. N) { S1: a[i] = a[i-1] * 0.5; }
  })";

// ---------------------------------------------------------------------------
// Positive: real pipeline output verifies under every policy.
// ---------------------------------------------------------------------------

void expect_verifies(const Pipeline& p, const sched::Schedule& sch,
                     const std::string& what) {
  const auto ast = codegen::generate_ast(p.scop, sch);
  const verify::Report r = verify::run_all(p.scop, p.dg, sch, ast.get());
  EXPECT_TRUE(r.ok()) << what << ":\n" << r.to_string(&p.scop);
  EXPECT_EQ(r.checked_deps, p.dg.deps().size()) << what;
}

TEST(Verify, AllPoliciesVerifyOnHandPrograms) {
  for (const char* src : {kProducerConsumer, kSequentialChain}) {
    Pipeline p(src);
    for (int m = 0; m < 4; ++m) {
      auto policy = fusion::make_policy(static_cast<fusion::FusionModel>(m));
      const sched::Schedule sch = sched::compute_schedule(p.scop, p.dg, *policy);
      expect_verifies(p, sch, "model " + std::to_string(m));
    }
    sched::Schedule ident = sched::identity_schedule(p.scop);
    sched::annotate_dependences(ident, p.dg);
    expect_verifies(p, ident, "identity");
  }
}

TEST(Verify, SkewedStencilVerifies) {
  // Needs skewing for parallelism: exercises non-trivial rows.
  Pipeline p(R"(
    scop st(N) { context N >= 4;
      array a[N+2][N+2];
      for (i = 1 .. N) { for (j = 1 .. N) {
        S1: a[i][j] = a[i-1][j] + a[i][j-1]; } } })");
  for (int m = 0; m < 4; ++m) {
    auto policy = fusion::make_policy(static_cast<fusion::FusionModel>(m));
    const sched::Schedule sch = sched::compute_schedule(p.scop, p.dg, *policy);
    expect_verifies(p, sch, "stencil model " + std::to_string(m));
  }
}

TEST(Verify, TiledAstStillVerifies) {
  Pipeline p(R"(
    scop mm(N) { context N >= 4;
      array A[N][N]; array B[N][N]; array C[N][N];
      for (i = 0 .. N-1) { for (j = 0 .. N-1) { for (k = 0 .. N-1) {
        S1: C[i][j] = C[i][j] + A[i][k]*B[k][j]; } } } })");
  auto policy = fusion::make_policy(fusion::FusionModel::kSmartfuse);
  const sched::Schedule sch = sched::compute_schedule(p.scop, p.dg, *policy);
  auto ast = codegen::generate_ast(p.scop, sch);
  codegen::tile_ast(*ast, sch, p.dg, {.tile_size = 4});
  const verify::Report r = verify::run_all(p.scop, p.dg, sch, ast.get());
  EXPECT_TRUE(r.ok()) << r.to_string(&p.scop);
  EXPECT_GT(r.race_checks, 0u);  // tile + point loops both claim parallel
}

TEST(Verify, WholeSuiteVerifiesUnderAllPolicies) {
  for (const suite::Benchmark& b : suite::all_benchmarks()) {
    const ir::Scop scop = suite::parse(b);
    const auto dg = ddg::DependenceGraph::analyze(scop);
    for (int m = 0; m < 4; ++m) {
      auto policy = fusion::make_policy(static_cast<fusion::FusionModel>(m));
      const sched::Schedule sch = sched::compute_schedule(scop, dg, *policy);
      const auto ast = codegen::generate_ast(scop, sch);
      const verify::Report r = verify::run_all(scop, dg, sch, ast.get());
      EXPECT_TRUE(r.ok()) << b.name << " model " << m << ":\n"
                          << r.to_string(&scop);
    }
  }
}

TEST(Verify, SyntheticProgramsVerify) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    Pipeline p(suite::synthetic_program(seed));
    for (int m = 0; m < 4; ++m) {
      auto policy = fusion::make_policy(static_cast<fusion::FusionModel>(m));
      const sched::Schedule sch = sched::compute_schedule(p.scop, p.dg, *policy);
      expect_verifies(p, sch,
                      "seed " + std::to_string(seed) + " model " +
                          std::to_string(m));
    }
  }
}

// ---------------------------------------------------------------------------
// Negative: injected bugs must be caught with precise diagnostics.
// ---------------------------------------------------------------------------

// Hand-built single-level schedule: statement 0 runs as phi = coeff * i.
sched::Schedule one_level_schedule(const ir::Scop& scop, i64 coeff) {
  sched::Schedule sch;
  sch.scop = &scop;
  sch.level_linear = {true};
  for (std::size_t s = 0; s < scop.num_statements(); ++s) {
    const std::size_t dims = scop.statement(s).dim() + scop.num_params();
    poly::AffineExpr row(dims);
    row.set_coeff(0, coeff);
    sch.rows.push_back({row});
  }
  return sch;
}

TEST(Verify, DetectsLoopReversalAsLegalityViolation) {
  // a[i] = a[i-1]: flow dep with distance 1. Reversing the loop (phi=-i)
  // runs consumers before producers.
  Pipeline p(kSequentialChain);
  ASSERT_EQ(p.dg.deps().size(), 1u);  // single flow self-dependence
  const sched::Schedule bad = one_level_schedule(p.scop, -1);
  const verify::Report r = verify::check_legality(p.dg, bad);
  ASSERT_EQ(r.findings.size(), 1u) << r.to_string(&p.scop);
  const verify::Finding& f = r.findings[0];
  EXPECT_EQ(f.kind, verify::CheckKind::kLegality);
  EXPECT_EQ(f.dep_kind, ddg::DepKind::kFlow);
  EXPECT_EQ(f.src, 0u);
  EXPECT_EQ(f.dst, 0u);
  EXPECT_EQ(f.level, 0u);  // violated at the one and only level

  // The legal direction is clean.
  EXPECT_TRUE(verify::check_legality(p.dg, one_level_schedule(p.scop, 1)).ok());
}

TEST(Verify, DetectsFalselyParallelMarkedLoop) {
  // The chain's loop carries its flow dependence; codegen correctly
  // leaves it sequential. Force the parallel mark and the race detector
  // must object with the exact dependence and level.
  Pipeline p(kSequentialChain);
  sched::Schedule sch = one_level_schedule(p.scop, 1);
  sched::annotate_dependences(sch, p.dg);
  auto ast = codegen::generate_ast(p.scop, sch);
  codegen::AstNode* loop = first_loop(*ast);
  ASSERT_NE(loop, nullptr);
  ASSERT_FALSE(loop->parallel);  // codegen got it right

  loop->parallel = true;  // inject the bug the emitter would trust
  loop->mark_parallel = true;
  const verify::Report r = verify::check_races(p.dg, sch, *ast);
  ASSERT_EQ(r.findings.size(), 1u) << r.to_string(&p.scop);
  const verify::Finding& f = r.findings[0];
  EXPECT_EQ(f.kind, verify::CheckKind::kRace);
  EXPECT_EQ(f.dep_kind, ddg::DepKind::kFlow);
  EXPECT_EQ(f.src, 0u);
  EXPECT_EQ(f.dst, 0u);
  EXPECT_EQ(f.level, 0u);
  EXPECT_EQ(r.race_checks, 1u);
}

TEST(Verify, ParallelLoopWithNoCarriedDepStaysClean) {
  // b[i] = a[i] fused loops: the real pipeline marks the fused loop
  // parallel, and the race detector agrees.
  Pipeline p(kProducerConsumer);
  auto policy = fusion::make_policy(fusion::FusionModel::kMaxfuse);
  const sched::Schedule sch = sched::compute_schedule(p.scop, p.dg, *policy);
  auto ast = codegen::generate_ast(p.scop, sch);
  const verify::Report r = verify::check_races(p.dg, sch, *ast);
  EXPECT_TRUE(r.ok()) << r.to_string(&p.scop);
  EXPECT_GT(r.race_checks, 0u);  // the claim was actually checked
}

// Hand-built (scalar, linear) schedule putting statement s at outer
// position pos[s] -- the shape fusion cuts produce.
sched::Schedule two_level_schedule(const ir::Scop& scop,
                                   const std::vector<i64>& pos) {
  sched::Schedule sch;
  sch.scop = &scop;
  sch.level_linear = {false, true};
  for (std::size_t s = 0; s < scop.num_statements(); ++s) {
    const std::size_t dims = scop.statement(s).dim() + scop.num_params();
    poly::AffineExpr scalar(dims, pos[s]);
    poly::AffineExpr linear = poly::AffineExpr::var(dims, 0);
    sch.rows.push_back({scalar, linear});
  }
  return sch;
}

TEST(Verify, DetectsBackwardFusionPartitionOrder) {
  // S1 produces a, S2 consumes it. Ordering the S2 partition first breaks
  // the topological order of the SCC condensation.
  Pipeline p(kProducerConsumer);
  const sched::Schedule bad = two_level_schedule(p.scop, {1, 0});
  const verify::Report r = verify::check_partition(p.dg, bad);
  ASSERT_EQ(r.findings.size(), 1u) << r.to_string(&p.scop);
  const verify::Finding& f = r.findings[0];
  EXPECT_EQ(f.kind, verify::CheckKind::kPartition);
  EXPECT_EQ(f.src, 0u);
  EXPECT_EQ(f.dst, 1u);
  EXPECT_EQ(f.level, 0u);  // the scalar level whose values disagree

  // The same shape in program order is a valid topological order.
  EXPECT_TRUE(verify::check_partition(p.dg, two_level_schedule(p.scop, {0, 1}))
                  .ok());
  // Fusing both into one partition is fine too.
  EXPECT_TRUE(verify::check_partition(p.dg, two_level_schedule(p.scop, {0, 0}))
                  .ok());
  // And the backward order is of course also a legality violation.
  EXPECT_FALSE(verify::check_legality(p.dg, bad).ok());
}

TEST(Verify, DetectsSplitScc) {
  // S1 and S2 feed each other across iterations: a statement-level
  // dependence cycle that no fusion cut may separate.
  Pipeline p(R"(
    scop cyc(N) { context N >= 4;
      array a[N+2]; array b[N+2];
      for (i = 1 .. N) {
        S1: a[i] = b[i-1] + 1.0;
        S2: b[i] = a[i-1] * 0.5;
      } })");
  const sched::Schedule split = two_level_schedule(p.scop, {0, 1});
  const verify::Report r = verify::check_partition(p.dg, split);
  ASSERT_FALSE(r.ok());
  bool saw_split = false;
  for (const verify::Finding& f : r.findings)
    saw_split = saw_split || (f.kind == verify::CheckKind::kPartition &&
                              f.detail.find("split") != std::string::npos);
  EXPECT_TRUE(saw_split) << r.to_string(&p.scop);

  EXPECT_TRUE(verify::check_partition(p.dg, two_level_schedule(p.scop, {0, 0}))
                  .ok());
}

TEST(Verify, DetectsNeverSatisfiedDependence) {
  // Both statements collapse onto the same time point at every level:
  // the flow dependence S1 -> S2 is never strongly separated.
  Pipeline p(kProducerConsumer);
  const sched::Schedule tied = two_level_schedule(p.scop, {0, 0});
  // One linear level only -- drop the scalar one so nothing separates
  // the statements.
  sched::Schedule flat;
  flat.scop = tied.scop;
  flat.level_linear = {true};
  for (const auto& rows : tied.rows) flat.rows.push_back({rows[1]});
  const verify::Report r = verify::check_legality(p.dg, flat);
  ASSERT_EQ(r.findings.size(), 1u) << r.to_string(&p.scop);
  EXPECT_EQ(r.findings[0].kind, verify::CheckKind::kUnsatisfied);
  EXPECT_EQ(r.findings[0].src, 0u);
  EXPECT_EQ(r.findings[0].dst, 1u);
}

// ---------------------------------------------------------------------------
// Reporting plumbing: counters, remarks, rendering.
// ---------------------------------------------------------------------------

TEST(Verify, FeedsStatsCountersAndRemarks) {
  support::current_metrics().reset();
  support::Tracer tracer(/*spans=*/false, /*remarks=*/true);
  support::TracerScope scope(&tracer);

  Pipeline p(kProducerConsumer);
  auto policy = fusion::make_policy(fusion::FusionModel::kWisefuse);
  const sched::Schedule sch = sched::compute_schedule(p.scop, p.dg, *policy);
  const auto ast = codegen::generate_ast(p.scop, sch);
  const verify::Report r = verify::run_all(p.scop, p.dg, sch, ast.get());
  ASSERT_TRUE(r.ok());

  const support::MetricsRegistry& st = support::current_metrics();
  EXPECT_EQ(st.get(support::Counter::kVerifyCheckedDeps),
            static_cast<i64>(r.checked_deps));
  EXPECT_EQ(st.get(support::Counter::kVerifyRaceChecks),
            static_cast<i64>(r.race_checks));
  EXPECT_EQ(st.get(support::Counter::kVerifyViolations), 0);

  bool saw_summary = false;
  for (const support::TraceEvent& rem : tracer.events())
    saw_summary = saw_summary || (rem.category == "verify" &&
                                  rem.name.find("checked") == 0);
  EXPECT_TRUE(saw_summary);
  support::current_metrics().reset();
}

TEST(Verify, FindingRendersPreciseDiagnostic) {
  Pipeline p(kSequentialChain);
  const verify::Report r =
      verify::check_legality(p.dg, one_level_schedule(p.scop, -1));
  ASSERT_EQ(r.findings.size(), 1u);
  const std::string line = r.findings[0].to_string(&p.scop);
  EXPECT_NE(line.find("legality"), std::string::npos) << line;
  EXPECT_NE(line.find("flow dependence S1 -> S1"), std::string::npos) << line;
  EXPECT_NE(line.find("level 0"), std::string::npos) << line;
  const std::string full = r.to_string(&p.scop);
  EXPECT_NE(full.find("VIOLATION"), std::string::npos);
  EXPECT_NE(full.find("1 violation(s)"), std::string::npos);
}

TEST(Verify, MalformedScheduleIsDiagnosedNotFatal) {
  Pipeline p(kProducerConsumer);
  sched::Schedule sch = one_level_schedule(p.scop, 1);
  sch.rows[0] = {poly::AffineExpr(1)};  // wrong dimensionality
  const verify::Report r = verify::check_legality(p.dg, sch);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].kind, verify::CheckKind::kMalformed);
}

}  // namespace
}  // namespace pf
