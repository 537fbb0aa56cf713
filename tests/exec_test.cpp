// Tests for the exec module beyond what codegen_test covers: JIT error
// paths and artifacts, C-emission details, interpreter math calls.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "codegen/cemit.h"
#include "codegen/codegen.h"
#include "ddg/dependences.h"
#include "exec/interp.h"
#include "exec/jit.h"
#include "frontend/parser.h"
#include "sched/analysis.h"
#include "support/budget.h"
#include "temp_dir.h"

namespace pf::exec {
namespace {

codegen::AstPtr identity_ast(const ir::Scop& scop,
                             const ddg::DependenceGraph& dg) {
  sched::Schedule sch = sched::identity_schedule(scop);
  sched::annotate_dependences(sch, dg);
  return codegen::generate_ast(scop, sch);
}

TEST(Jit, CompileErrorIsReported) {
  if (!jit_available()) GTEST_SKIP();
  std::string err;
  const auto k = JitKernel::compile("this is not C", "pf_kernel", {}, &err);
  EXPECT_FALSE(k.has_value());
  // The nonzero exit is diagnosed and the compiler's own stderr is
  // captured into the error message.
  EXPECT_NE(err.find("exited with code"), std::string::npos) << err;
  EXPECT_NE(err.find("error"), std::string::npos) << err;
}

// Write an executable fake "compiler" script and return its path.
std::string write_fake_compiler(const std::string& name,
                                const std::string& body) {
  const std::string path = pf::testtmp::path(name);
  {
    std::ofstream out(path);
    out << "#!/bin/sh\n" << body << "\n";
  }
  ::chmod(path.c_str(), 0755);
  return path;
}

TEST(Jit, HungCompilerIsKilledOnTimeout) {
  JitOptions opts;
  opts.compiler = write_fake_compiler("sleepy.sh", "sleep 30");
  opts.compile_timeout_ms = 200;
  std::string err;
  const auto k = JitKernel::compile("int x;", "pf_kernel", opts, &err);
  EXPECT_FALSE(k.has_value());
  EXPECT_NE(err.find("timed out after 200 ms"), std::string::npos) << err;
}

TEST(Jit, CompilerStderrSurfacesInTheError) {
  JitOptions opts;
  opts.compiler =
      write_fake_compiler("noisy.sh", "echo boom-diagnostic >&2; exit 3");
  std::string err;
  const auto k = JitKernel::compile("int x;", "pf_kernel", opts, &err);
  EXPECT_FALSE(k.has_value());
  EXPECT_NE(err.find("exited with code 3"), std::string::npos) << err;
  EXPECT_NE(err.find("boom-diagnostic"), std::string::npos) << err;
}

TEST(Jit, FailedCompilesDoNotLeakTempDirs) {
  JitOptions opts;
  opts.compiler = write_fake_compiler("failing.sh", "exit 1");
  const auto count_dirs = [] {
    std::size_t n = 0;
    std::error_code ec;
    for (const auto& e :
         std::filesystem::directory_iterator("/tmp", ec))
      if (e.path().filename().string().rfind("polyfuse-jit-", 0) == 0) ++n;
    return n;
  };
  const std::size_t before = count_dirs();
  for (int i = 0; i < 3; ++i) {
    std::string err;
    EXPECT_FALSE(JitKernel::compile("int x;", "pf_kernel", opts, &err));
  }
  // Tolerate unrelated concurrent JIT users; our three failures must
  // not have left three new trees behind.
  EXPECT_LT(count_dirs(), before + 3);
}

TEST(Jit, InjectedCcFaultSkipsTheCompile) {
  support::BudgetSpec spec;
  spec.injections.push_back({support::BudgetSite::kJitCc, 0});
  support::Budget budget(spec);
  support::BudgetScope scope(&budget);
  std::string err;
  const auto k = JitKernel::compile("int x;", "pf_kernel", {}, &err);
  EXPECT_FALSE(k.has_value());
  EXPECT_NE(err.find("jit compile aborted"), std::string::npos) << err;
  EXPECT_EQ(budget.faults(), 1);
}

TEST(Jit, MissingSymbolIsReported) {
  if (!jit_available()) GTEST_SKIP();
  std::string err;
  const auto k = JitKernel::compile(
      "void something_else(double** a, const long long* p) {}", "pf_kernel",
      {}, &err);
  EXPECT_FALSE(k.has_value());
  EXPECT_NE(err.find("not found"), std::string::npos);
}

TEST(Jit, BadCompilerDetected) {
  JitOptions opts;
  opts.compiler = "definitely-not-a-compiler-xyz";
  EXPECT_FALSE(jit_available(opts));
}

TEST(Jit, RunsMinimalKernel) {
  if (!jit_available()) GTEST_SKIP();
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 2; array a[N];
      for (i = 0 .. N-1) { S1: a[i] = i * 2.0 + 1.0; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto ast = identity_ast(scop, dg);
  std::string err;
  auto k = JitKernel::compile(codegen::emit_c(*ast, scop), "pf_kernel", {},
                              &err);
  ASSERT_TRUE(k.has_value()) << err;
  ArrayStore store(scop, {5});
  k->run(store);
  for (i64 i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(store.at(0, {i}), 2.0 * static_cast<double>(i) + 1.0);
}

// Unloading a kernel must not unload the OpenMP runtime under its own
// worker threads: the first -fopenmp kernel is what loads libgomp, and
// its pool threads outlive the kernel. num_threads(4) makes the runtime
// spawn workers on any host, so two kernels back to back exercise the
// teardown even on one core.
TEST(Jit, OpenMPKernelsCreatedAndDestroyedBackToBack) {
  if (!jit_available()) GTEST_SKIP();
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 2; array a[N];
      for (i = 0 .. N-1) { S1: a[i] = 0.0; } })");
  const std::string source = R"(
    void pf_kernel(double** a, const long long* p) {
      #pragma omp parallel for num_threads(4)
      for (long long i = 0; i < p[0]; ++i) a[0][i] = (double)(i + K);
    })";
  for (int k = 1; k <= 2; ++k) {
    std::string err;
    auto kernel = JitKernel::compile(
        "#define K " + std::to_string(k) + "\n" + source, "pf_kernel", {},
        &err);
    ASSERT_TRUE(kernel.has_value()) << err;
    ArrayStore store(scop, {64});
    kernel->run(store);
    for (i64 i = 0; i < 64; ++i)
      EXPECT_DOUBLE_EQ(store.at(0, {i}), static_cast<double>(i + k));
  }
}

TEST(CEmit, HelpersAndLinearization) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 2; array A[N][N+1];
      for (i = 0 .. N-1) { for (j = 0 .. N) { S1: A[i][j] = 1.0; } } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const std::string c = codegen::emit_c(*identity_ast(scop, dg), scop);
  // Row-major linearization with the declared extent N+1 of dim 1.
  EXPECT_NE(c.find("* (N + 1) +"), std::string::npos);
  EXPECT_NE(c.find("pf_ceild"), std::string::npos);  // helper defined
  EXPECT_NE(c.find("const long long N = params[0];"), std::string::npos);
}

TEST(CEmit, RejectsIteratorNamedLikeLoopVars) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 2; array a[N];
      for (t0 = 0 .. N-1) { S1: a[t0] = 1.0; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  EXPECT_THROW(codegen::emit_c(*identity_ast(scop, dg), scop), Error);
}

TEST(Interp, MathCalls) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 2; array a[N]; array b[N];
      for (i = 0 .. N-1) { S1: b[i] = sqrt(a[i]) + fabs(a[i] - 5.0)
          + pow(a[i], 2.0) + fmin(a[i], 2.0); } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto ast = identity_ast(scop, dg);
  ArrayStore store(scop, {3});
  store.fill(0, [](const IntVector& idx) {
    return 1.0 + static_cast<double>(idx[0]);
  });
  interpret(*ast, store);
  for (i64 i = 0; i < 3; ++i) {
    const double a = 1.0 + static_cast<double>(i);
    EXPECT_DOUBLE_EQ(store.at(1, {i}), std::sqrt(a) + std::fabs(a - 5.0) +
                                           std::pow(a, 2.0) +
                                           std::fmin(a, 2.0));
  }
}

TEST(Interp, UnsupportedCallThrows) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 2; array a[N];
      for (i = 0 .. N-1) { S1: a[i] = frobnicate(a[i]); } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto ast = identity_ast(scop, dg);
  ArrayStore store(scop, {3});
  EXPECT_THROW(interpret(*ast, store), Error);
}

TEST(Interp, ParamValuesReachSubscriptsAndBodies) {
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 3; array a[N+1];
      for (i = 0 .. 0) { S1: a[N] = N * 1.0; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto ast = identity_ast(scop, dg);
  ArrayStore store(scop, {7});
  interpret(*ast, store);
  EXPECT_DOUBLE_EQ(store.at(0, {7}), 7.0);
}

}  // namespace
}  // namespace pf::exec
