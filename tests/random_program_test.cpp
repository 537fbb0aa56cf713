// Randomized end-to-end property tests.
//
// A generator produces random (but always valid) affine programs:
// random arrays, nests, subscript shifts/transposes and read sets. For
// each seed and each fusion model the full pipeline runs and we check
//   * the scheduler terminates and satisfies every dependence,
//   * interpreting the transformed AST reproduces the original program's
//     results bit-for-bit,
//   * the tiled AST does too,
//   * the independent verifier (src/verify) agrees: legality, parallel
//     marks and fusion partitions check out on every schedule/AST pair.
// This exercises parser-free construction (builder), dependence analysis,
// Farkas scheduling, cuts, codegen (incl. guards and shifts), tiling, the
// interpreter and the static verifier against each other.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "codegen/codegen.h"
#include "codegen/tiling.h"
#include "ddg/dependences.h"
#include "exec/interp.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "sched/analysis.h"
#include "sched/pluto.h"
#include "suite/synthetic.h"
#include "verify/verify.h"

namespace pf {
namespace {

// The shared generator (suite/synthetic.h); perfbench's analysis-reports
// workload also runs it at larger sizes.
std::string random_program(unsigned seed) {
  return suite::synthetic_program(seed);
}

void run_store(const codegen::AstNode& ast, exec::ArrayStore& store) {
  for (std::size_t a = 0; a < store.num_arrays(); ++a) {
    const double salt = static_cast<double>(a + 1);
    store.fill(a, [&](const IntVector& idx) {
      double v = 0.5 + salt;
      for (std::size_t d = 0; d < idx.size(); ++d)
        v += 0.03 * static_cast<double>(idx[d]) * (1.0 + static_cast<double>(d));
      return v;
    });
  }
  exec::interpret(ast, store);
}

class RandomPrograms : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomPrograms, AllModelsPreserveSemantics) {
  const std::string src = random_program(GetParam());
  SCOPED_TRACE(src);
  const ir::Scop scop = frontend::parse_scop(src);
  const auto dg = ddg::DependenceGraph::analyze(scop);

  sched::Schedule ident = sched::identity_schedule(scop);
  sched::annotate_dependences(ident, dg);
  const auto orig_ast = codegen::generate_ast(scop, ident);
  {
    const verify::Report r = verify::run_all(scop, dg, ident, orig_ast.get());
    EXPECT_TRUE(r.ok()) << "identity schedule:\n" << r.to_string(&scop);
  }
  exec::ArrayStore ref(scop, {7});
  run_store(*orig_ast, ref);

  for (int m = 0; m < 4; ++m) {
    auto policy = fusion::make_policy(static_cast<fusion::FusionModel>(m));
    const sched::Schedule sch = sched::compute_schedule(scop, dg, *policy);
    // Every dependence satisfied.
    for (const std::size_t lvl : sch.satisfied_at) EXPECT_NE(lvl, SIZE_MAX);

    auto ast = codegen::generate_ast(scop, sch);
    // Independent legality/race/partition oracle on the untiled AST.
    {
      const verify::Report r = verify::run_all(scop, dg, sch, ast.get());
      EXPECT_TRUE(r.ok()) << "model " << m << " seed " << GetParam() << ":\n"
                          << r.to_string(&scop);
    }
    exec::ArrayStore got(scop, {7});
    run_store(*ast, got);
    EXPECT_EQ(exec::ArrayStore::max_abs_diff(ref, got), 0.0)
        << "model " << m << " seed " << GetParam();

    // Tiling must not change results either -- and the tiled AST's
    // parallel marks must still withstand the race detector.
    codegen::tile_ast(*ast, sch, dg, {.tile_size = 3});
    {
      const verify::Report r = verify::check_races(dg, sch, *ast);
      EXPECT_TRUE(r.ok()) << "tiled model " << m << " seed " << GetParam()
                          << ":\n" << r.to_string(&scop);
    }
    exec::ArrayStore tiled(scop, {7});
    run_store(*ast, tiled);
    EXPECT_EQ(exec::ArrayStore::max_abs_diff(ref, tiled), 0.0)
        << "tiled model " << m << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range(0u, 30u));

TEST(RandomPrograms, GeneratorIsDeterministic) {
  EXPECT_EQ(random_program(5), random_program(5));
  EXPECT_NE(random_program(5), random_program(6));
}

}  // namespace
}  // namespace pf
