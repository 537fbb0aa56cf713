// End-to-end semantic tests: for every fusion model and a family of
// programs, the transformed program (generated AST, interpreted) must
// produce bit-for-bit the results of the original program (identity
// schedule), and the emitted C must compile and agree too.
#include <gtest/gtest.h>

#include "codegen/cemit.h"
#include "codegen/codegen.h"
#include "ddg/dependences.h"
#include "exec/interp.h"
#include "exec/jit.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "sched/analysis.h"
#include "sched/pluto.h"

namespace pf::codegen {
namespace {

using fusion::FusionModel;

void default_init(exec::ArrayStore& store) {
  for (std::size_t a = 0; a < store.num_arrays(); ++a) {
    const double salt = static_cast<double>(a + 1);
    store.fill(a, [&](const IntVector& idx) {
      double v = 0.31 * salt;
      for (std::size_t d = 0; d < idx.size(); ++d)
        v += static_cast<double>(idx[d]) * (0.7 + 0.13 * static_cast<double>(d)) /
             salt;
      return v + 1.0;  // keep away from zero (some kernels divide)
    });
  }
}

exec::ArrayStore run_schedule(const ir::Scop& scop,
                              const sched::Schedule& sch, i64 n_value) {
  const AstPtr ast = generate_ast(scop, sch);
  exec::ArrayStore store(scop, {n_value});
  default_init(store);
  exec::interpret(*ast, store);
  return store;
}

void expect_semantics_preserved(const std::string& source, FusionModel model,
                                i64 n_value = 9) {
  const ir::Scop scop = frontend::parse_scop(source);
  const auto dg = ddg::DependenceGraph::analyze(scop);

  sched::Schedule ident = sched::identity_schedule(scop);
  sched::annotate_dependences(ident, dg);
  const exec::ArrayStore ref = run_schedule(scop, ident, n_value);

  auto policy = fusion::make_policy(model);
  const sched::Schedule sch = sched::compute_schedule(scop, dg, *policy);
  const exec::ArrayStore got = run_schedule(scop, sch, n_value);

  EXPECT_EQ(exec::ArrayStore::max_abs_diff(ref, got), 0.0)
      << "model " << fusion::to_string(model) << " changed results";
}

// ---------------------------------------------------------------------------
// Identity schedule + AST structure.
// ---------------------------------------------------------------------------

TEST(IdentitySchedule, ReproducesProgramOrder) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array B[N][N];
      for (i = 0 .. N-1) {
        S1: a[i] = 1.0;
        for (j = 0 .. N-1) { S2: B[i][j] = a[i]; }
        S3: a[i] = a[i] + 2.0;
      } })");
  const sched::Schedule sch = sched::identity_schedule(scop);
  // 2d+1 with d = 2: 5 levels.
  ASSERT_EQ(sch.num_levels(), 5u);
  EXPECT_FALSE(sch.level_linear[0]);
  EXPECT_TRUE(sch.level_linear[1]);
  EXPECT_FALSE(sch.level_linear[2]);
  EXPECT_TRUE(sch.level_linear[3]);
  EXPECT_FALSE(sch.level_linear[4]);
  // Sibling positions inside the i loop: S1=0, loop(S2)=1, S3=2.
  EXPECT_EQ(sch.rows[0][2].const_term(), 0);
  EXPECT_EQ(sch.rows[1][2].const_term(), 1);
  EXPECT_EQ(sch.rows[2][2].const_term(), 2);
}

TEST(IdentitySchedule, IsLegalForAllTestPrograms) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N];
      for (i = 1 .. N-1) { S1: a[i] = a[i-1] * 0.5; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  sched::Schedule sch = sched::identity_schedule(scop);
  EXPECT_NO_THROW(sched::annotate_dependences(sch, dg));
  // The self flow dep is carried by the (only) loop level.
  EXPECT_FALSE(sch.is_parallel_for({0}, 1));
}

TEST(Ast, SimpleLoopStructure) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N];
      for (i = 0 .. N-1) { S1: a[i] = 2.0; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  auto policy = fusion::make_policy(FusionModel::kSmartfuse);
  const sched::Schedule sch = sched::compute_schedule(scop, dg, *policy);
  const AstPtr ast = generate_ast(scop, sch);
  ASSERT_EQ(ast->kind, AstNode::Kind::kLoop);
  EXPECT_TRUE(ast->parallel);
  EXPECT_TRUE(ast->mark_parallel);
  const std::string text = ast_to_string(*ast, scop);
  EXPECT_NE(text.find("for (t0 = 0; t0 <= N - 1; t0++)"), std::string::npos);
  EXPECT_NE(text.find("S1(t0);"), std::string::npos);
}

TEST(Ast, TriangularBoundsUseEnclosingT) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array B[N][N];
      for (i = 0 .. N-1) { for (j = i .. N-1) { S1: B[i][j] = 1.0; } } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  auto policy = fusion::make_policy(FusionModel::kSmartfuse);
  const sched::Schedule sch = sched::compute_schedule(scop, dg, *policy);
  // The inner loop's span must depend on the outer t0 (either direction
  // of the triangle, depending on which legal order the ILP picked).
  const std::string text = ast_to_string(*generate_ast(scop, sch), scop);
  const bool lower_uses_t0 = text.find("t1 = t0") != std::string::npos;
  const bool upper_uses_t0 = text.find("t1 <= t0") != std::string::npos;
  EXPECT_TRUE(lower_uses_t0 || upper_uses_t0) << text;
}

// ---------------------------------------------------------------------------
// Semantics preservation: models x programs.
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

constexpr const char* kAdvect = R"(
scop advect(N) {
  context N >= 4;
  array wk1[N+2][N+2]; array wk2[N+2][N+2]; array wk4[N+2][N+2];
  array u[N+2][N+2]; array v[N+2][N+2];
  for (i = 1 .. N) { for (j = 1 .. N) { S1: wk1[i][j] = u[i][j] + u[i][j+1]; } }
  for (i = 1 .. N) { for (j = 1 .. N) { S2: wk2[i][j] = v[i][j] + v[i+1][j]; } }
  for (i = 1 .. N) { for (j = 1 .. N) { S3: wk4[i][j] = wk1[i][j] + wk2[i][j]; } }
  for (i = 1 .. N) { for (j = 1 .. N) {
    S4: u[i][j] = wk4[i][j] - wk4[i][j+1] + wk4[i+1][j]; } }
}
)";

constexpr const char* kLu = R"(
scop lu(N) {
  context N >= 3;
  array A[N][N];
  for (k = 0 .. N-2) {
    for (i = k+1 .. N-1) { S1: A[i][k] = A[i][k] / A[k][k]; }
    for (i = k+1 .. N-1) { for (j = k+1 .. N-1) {
      S2: A[i][j] = A[i][j] - A[i][k] * A[k][j]; } }
  }
}
)";

constexpr const char* kImperfect = R"(
scop t(N) {
  context N >= 4; array a[N]; array B[N][N]; array c[N];
  for (i = 0 .. N-1) {
    S1: a[i] = c[i] * 2.0;
    for (j = 0 .. N-1) { S2: B[i][j] = a[i] + c[j]; }
    S3: c[i] = B[i][i] + a[i];
  }
}
)";

// A test program, printed by name so the parameterized test names do not
// carry the address of its source text, which changes from run to run.
struct Program {
  const char* name;
  const char* source;
};

void PrintTo(const Program& p, std::ostream* os) { *os << p.name; }

class SemanticsAcrossModels
    : public ::testing::TestWithParam<std::tuple<int, Program>> {};

TEST_P(SemanticsAcrossModels, TransformedEqualsOriginal) {
  expect_semantics_preserved(std::get<1>(GetParam()).source,
                             static_cast<FusionModel>(std::get<0>(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(
    ModelsTimesPrograms, SemanticsAcrossModels,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(Program{"gemver", kGemver},
                                         Program{"advect", kAdvect},
                                         Program{"lu", kLu},
                                         Program{"imperfect", kImperfect})));

TEST(Semantics, DifferentParameterValues) {
  for (const i64 n : {4, 7, 16}) {
    const ir::Scop scop = frontend::parse_scop(kAdvect);
    const auto dg = ddg::DependenceGraph::analyze(scop);
    sched::Schedule ident = sched::identity_schedule(scop);
    sched::annotate_dependences(ident, dg);
    auto policy = fusion::make_policy(FusionModel::kWisefuse);
    const sched::Schedule sch = sched::compute_schedule(scop, dg, *policy);
    const auto ref = run_schedule(scop, ident, n);
    const auto got = run_schedule(scop, sch, n);
    EXPECT_EQ(exec::ArrayStore::max_abs_diff(ref, got), 0.0) << "N=" << n;
  }
}

// ---------------------------------------------------------------------------
// Shifting (advect under maxfuse needs S4 shifted by one iteration).
// ---------------------------------------------------------------------------

TEST(Codegen, AdvectMaxfuseUsesShiftAndGuards) {
  const ir::Scop scop = frontend::parse_scop(kAdvect);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  auto policy = fusion::make_policy(FusionModel::kMaxfuse);
  const sched::Schedule sch = sched::compute_schedule(scop, dg, *policy);
  // S4's schedule must differ from S1's by a constant shift at some level.
  bool shifted = false;
  for (std::size_t l = 0; l < sch.num_levels(); ++l) {
    if (!sch.level_linear[l]) continue;
    if (sch.rows[3][l].const_term() != sch.rows[0][l].const_term())
      shifted = true;
  }
  EXPECT_TRUE(shifted);
  // And codegen must still reproduce the original results (guards etc.).
  expect_semantics_preserved(kAdvect, FusionModel::kMaxfuse);
}

// ---------------------------------------------------------------------------
// C emission + JIT.
// ---------------------------------------------------------------------------

TEST(CEmit, SourceShape) {
  const ir::Scop scop = frontend::parse_scop(kGemver);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  auto policy = fusion::make_policy(FusionModel::kWisefuse);
  const sched::Schedule sch = sched::compute_schedule(scop, dg, *policy);
  const std::string c = emit_c(*generate_ast(scop, sch), scop);
  EXPECT_NE(c.find("void pf_kernel(double** arrays"), std::string::npos);
  EXPECT_NE(c.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_NE(c.find("const long long N = params[0];"), std::string::npos);
}

TEST(CEmit, JitMatchesInterpreter) {
  if (!exec::jit_available()) GTEST_SKIP() << "no system compiler";
  for (const char* src : {kGemver, kAdvect, kLu, kImperfect}) {
    const ir::Scop scop = frontend::parse_scop(src);
    const auto dg = ddg::DependenceGraph::analyze(scop);
    auto policy = fusion::make_policy(FusionModel::kWisefuse);
    const sched::Schedule sch = sched::compute_schedule(scop, dg, *policy);
    const AstPtr ast = generate_ast(scop, sch);

    exec::ArrayStore interp_store(scop, {8});
    default_init(interp_store);
    exec::interpret(*ast, interp_store);

    std::string error;
    auto kernel =
        exec::JitKernel::compile(emit_c(*ast, scop), "pf_kernel", {}, &error);
    ASSERT_TRUE(kernel.has_value()) << error;
    exec::ArrayStore jit_store(scop, {8});
    default_init(jit_store);
    kernel->run(jit_store);

    EXPECT_EQ(exec::ArrayStore::max_abs_diff(interp_store, jit_store), 0.0)
        << scop.name();
  }
}

TEST(Interp, StatsCountInstances)  {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N];
      for (i = 0 .. N-1) { S1: a[i] = a[i] + 1.0; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  sched::Schedule ident = sched::identity_schedule(scop);
  sched::annotate_dependences(ident, dg);
  const AstPtr ast = generate_ast(scop, ident);
  exec::ArrayStore store(scop, {10});
  const auto stats = exec::interpret(*ast, store);
  EXPECT_EQ(stats.statements_executed, 10u);
  EXPECT_EQ(stats.reads, 10u);
  EXPECT_EQ(stats.writes, 10u);
}

TEST(Interp, TraceHookSeesAccessesInOrder) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N];
      for (i = 0 .. N-1) { S1: b[i] = a[i] * 2.0; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  sched::Schedule ident = sched::identity_schedule(scop);
  sched::annotate_dependences(ident, dg);
  const AstPtr ast = generate_ast(scop, ident);
  exec::ArrayStore store(scop, {4});
  std::vector<std::tuple<std::size_t, i64, bool>> trace;
  exec::interpret(*ast, store, [&](std::size_t a, i64 idx, bool w) {
    trace.emplace_back(a, idx, w);
  });
  ASSERT_EQ(trace.size(), 8u);  // (read a[i], write b[i]) x 4
  EXPECT_EQ(trace[0], std::make_tuple(std::size_t{0}, i64{0}, false));
  EXPECT_EQ(trace[1], std::make_tuple(std::size_t{1}, i64{0}, true));
}

TEST(Storage, BoundsCheckingCatchesBadAccess) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 2; array a[N];
      for (i = 0 .. N-1) { S1: a[i] = 0.0; } })");
  exec::ArrayStore store(scop, {4});
  EXPECT_THROW(store.at(0, {4}), Error);
  EXPECT_THROW(store.at(0, {-1}), Error);
  EXPECT_THROW(store.at(0, {0, 0}), Error);
  EXPECT_NO_THROW(store.at(0, {3}));
  EXPECT_THROW(exec::ArrayStore(scop, {1}), Error);  // violates context
}

}  // namespace
}  // namespace pf::codegen
