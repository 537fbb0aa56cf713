// Suite-level tests: every benchmark parses and validates; every fusion
// model preserves semantics on every benchmark (small sizes); and the
// paper's qualitative fusion results hold on the CLI's default path
// (Figures 1, 3, 4, 5, 6, 8 and the Section 5.3 discussion).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "analysis/reductions.h"
#include "codegen/codegen.h"
#include "ddg/dependences.h"
#include "exec/interp.h"
#include "fusion/models.h"
#include "machine/perfmodel.h"
#include "sched/analysis.h"
#include "sched/pluto.h"
#include "suite/suite.h"

namespace pf::suite {
namespace {

using fusion::FusionModel;

int num_partitions(const std::vector<int>& parts) {
  return static_cast<int>(std::set<int>(parts.begin(), parts.end()).size());
}

TEST(Suite, TenBenchmarksRegistered) {
  ASSERT_EQ(all_benchmarks().size(), 10u);
  // Table 2 names.
  for (const char* name : {"gemsfdtd", "swim", "applu", "bt", "sp", "advect",
                           "lu", "tce", "gemver", "wupwise"})
    EXPECT_NO_THROW(benchmark(name));
  EXPECT_THROW(benchmark("nonesuch"), Error);
}

TEST(Suite, LargeSmallSplitMatchesTable2) {
  int large = 0;
  for (const Benchmark& b : all_benchmarks()) large += b.is_large ? 1 : 0;
  EXPECT_EQ(large, 5);
  EXPECT_TRUE(benchmark("swim").is_large);
  EXPECT_FALSE(benchmark("gemver").is_large);
}

TEST(Suite, AllBenchmarksParse) {
  for (const Benchmark& b : all_benchmarks()) {
    const ir::Scop scop = parse(b);
    EXPECT_GT(scop.num_statements(), 0u) << b.name;
    // Parameters fit the declared context.
    EXPECT_TRUE(scop.context().contains(b.test_params)) << b.name;
    EXPECT_TRUE(scop.context().contains(b.bench_params)) << b.name;
  }
}

TEST(Suite, SwimHasNineteenStatements) {
  const ir::Scop scop = parse(benchmark("swim"));
  EXPECT_EQ(scop.num_statements(), 19u);
}

TEST(Suite, InitStoreIsDeterministicAndNonZero) {
  const ir::Scop scop = parse(benchmark("lu"));
  exec::ArrayStore a(scop, {6}), b(scop, {6});
  init_store(a);
  init_store(b);
  EXPECT_EQ(exec::ArrayStore::max_abs_diff(a, b), 0.0);
  for (i64 i = 0; i < 6; ++i) EXPECT_GT(a.at(0, {i, i}), 1.0);
}

// ---------------------------------------------------------------------------
// Correctness: every model x every benchmark at test sizes.
// ---------------------------------------------------------------------------

class SuiteSemantics
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SuiteSemantics, TransformedEqualsOriginal) {
  const Benchmark& b =
      all_benchmarks()[static_cast<std::size_t>(std::get<0>(GetParam()))];
  const auto model = static_cast<FusionModel>(std::get<1>(GetParam()));

  const ir::Scop scop = parse(b);
  const auto dg = ddg::DependenceGraph::analyze(scop);

  sched::Schedule ident = sched::identity_schedule(scop);
  sched::annotate_dependences(ident, dg);
  exec::ArrayStore ref(scop, b.test_params);
  init_store(ref);
  exec::interpret(*codegen::generate_ast(scop, ident), ref);

  auto policy = fusion::make_policy(model);
  const sched::Schedule sch = sched::compute_schedule(scop, dg, *policy);
  exec::ArrayStore got(scop, b.test_params);
  init_store(got);
  exec::interpret(*codegen::generate_ast(scop, sch), got);

  EXPECT_EQ(exec::ArrayStore::max_abs_diff(ref, got), 0.0)
      << b.name << " under " << fusion::to_string(model);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarksAllModels, SuiteSemantics,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Range(0, 4)));

// ---------------------------------------------------------------------------
// Paper-shape assertions: the claims of the paper's figures, checked on the
// CLI's default path (tools/driver.cpp). A transforming model analyzes
// reductions, relaxes the relaxable self-dependences and schedules through
// the degradation chain; "baseline" is the identity schedule.
// ---------------------------------------------------------------------------

struct Scheduled {
  std::unique_ptr<ir::Scop> scop;  // schedule and ast point into it
  sched::Schedule schedule;
  codegen::AstPtr ast;
};

// One suite program on the default path; std::nullopt is the baseline.
Scheduled schedule_for(const std::string& name,
                       std::optional<FusionModel> model) {
  Scheduled out;
  out.scop = std::make_unique<ir::Scop>(parse(benchmark(name)));
  const ir::Scop& scop = *out.scop;
  const auto dg = ddg::DependenceGraph::analyze(scop);
  if (model) {
    sched::SchedulerOptions opts;
    opts.relaxed_deps =
        analysis::analyze_reductions_degrading(scop, dg).relaxable;
    out.schedule = fusion::compute_schedule_degrading(scop, dg, *model, opts);
  } else {
    out.schedule = sched::identity_schedule(scop);
    sched::annotate_dependences(out.schedule, dg);
  }
  out.ast = codegen::generate_ast(scop, out.schedule);
  return out;
}

bool encloses(const codegen::AstNode& n, std::size_t stmt) {
  switch (n.kind) {
    case codegen::AstNode::Kind::kStmt:
      return n.stmt == stmt;
    case codegen::AstNode::Kind::kLoop:
      return encloses(*n.body, stmt);
    case codegen::AstNode::Kind::kBlock:
      for (const auto& c : n.children)
        if (encloses(*c, stmt)) return true;
      return false;
  }
  return false;
}

// The loops of the generated code that enclose every statement of
// `stmts`, outermost first; empty when the statements share no loop.
std::vector<const codegen::AstNode*> shared_loops(
    const codegen::AstNode& root, const std::vector<std::size_t>& stmts) {
  std::vector<const codegen::AstNode*> loops;
  const codegen::AstNode* n = &root;
  while (n != nullptr) {
    const codegen::AstNode* next = nullptr;
    if (n->kind == codegen::AstNode::Kind::kLoop) {
      loops.push_back(n);
      next = n->body.get();
    } else if (n->kind == codegen::AstNode::Kind::kBlock) {
      for (const auto& c : n->children)
        if (std::all_of(stmts.begin(), stmts.end(),
                        [&](std::size_t s) { return encloses(*c, s); }))
          next = c.get();
    }
    n = next;
  }
  return loops;
}

// What --emit=c prints as `#pragma omp parallel for [reduction(...)]`.
bool parallel_or_reduction(const codegen::AstNode& loop) {
  return loop.parallel || !loop.reductions.empty();
}

// The outermost loop shared by `stmts` runs in parallel, possibly with
// reduction clauses. False when the statements share no loop.
bool outer_parallel(const Scheduled& s, const std::vector<std::size_t>& stmts) {
  const auto loops = shared_loops(*s.ast, stmts);
  return !loops.empty() && parallel_or_reduction(*loops.front());
}

// min over the src -> dst flow dependences of phi(dst) - phi(src) with
// phi = the outermost iterator of both statements: the check of fusing
// the two without any transformation. Unbounded or negative means the
// naive fusion runs some dependence backward.
bool naive_outer_fusion_is_illegal(const std::string& name, std::size_t src,
                                   std::size_t dst) {
  const ir::Scop scop = parse(benchmark(name));
  const auto dg = ddg::DependenceGraph::analyze(scop);
  bool any = false, illegal = false;
  for (const ddg::Dependence& d : dg.deps()) {
    if (d.src != src || d.dst != dst || d.kind != ddg::DepKind::kFlow)
      continue;
    any = true;
    poly::AffineExpr i_src(scop.statement(src).dim() + scop.num_params());
    poly::AffineExpr i_dst(scop.statement(dst).dim() + scop.num_params());
    i_src.set_coeff(0, 1);
    i_dst.set_coeff(0, 1);
    const auto mn = d.poly.integer_min(d.lift_dst(i_dst) - d.lift_src(i_src));
    if (mn.kind == poly::IntegerSet::Opt::kUnbounded ||
        (mn.kind == poly::IntegerSet::Opt::kOk && mn.value < 0))
      illegal = true;
  }
  EXPECT_TRUE(any) << name << ": no flow dependence S" << src + 1 << " -> S"
                   << dst + 1;
  return illegal;
}

TEST(PaperShape, GemverFigure1bNaiveFusionIsIllegal) {
  // phi = i for S1 and S2: S2 reads B transposed, so the S1 -> S2 flow
  // dependence has instances of negative distance.
  EXPECT_TRUE(naive_outer_fusion_is_illegal("gemver", 0, 1));
}

TEST(PaperShape, GemverFigure1cFusesS1S2WithS1Interchanged) {
  const auto s = schedule_for("gemver", FusionModel::kWisefuse);
  const auto& sch = s.schedule;
  const auto parts = sch.nest_partitions();
  EXPECT_EQ(parts[0], parts[1]);
  // Figure 3: T_S1 = (j, ...), T_S2 = (i, ...) at the fused outer level.
  std::size_t fl = 0;
  while (!sch.level_linear[fl]) ++fl;
  EXPECT_EQ(sch.rows[0][fl].coeff(0), 0);
  EXPECT_EQ(sch.rows[0][fl].coeff(1), 1);
  EXPECT_EQ(sch.rows[1][fl].coeff(0), 1);
  EXPECT_EQ(sch.rows[1][fl].coeff(1), 0);
  EXPECT_TRUE(outer_parallel(s, {0, 1}));
}

TEST(PaperShape, SwimFigure5FiveStatementFusion) {
  const auto parts =
      schedule_for("swim", FusionModel::kWisefuse).schedule.nest_partitions();
  // S1, S2, S3, S15, S18 share one nest (indices 0,1,2,14,17).
  EXPECT_EQ(parts[0], parts[1]);
  EXPECT_EQ(parts[1], parts[2]);
  EXPECT_EQ(parts[2], parts[14]);
  EXPECT_EQ(parts[14], parts[17]);
  // S13/S16 are blocked by the boundary statements.
  EXPECT_NE(parts[12], parts[0]);
  EXPECT_NE(parts[15], parts[0]);

  // The first nest fuses exactly the paper's five statements.
  int first_nest_size = 0;
  for (const int p : parts) first_nest_size += (p == parts[0]) ? 1 : 0;
  EXPECT_EQ(first_nest_size, 5);

  // Pluto's model fuses fewer 2-d statements per nest than wisefuse's 5
  // (the paper's real swim shows at most 2; our structural model gives
  // its DFS order slightly more luck, but the gap remains).
  const auto smart = schedule_for("swim", FusionModel::kSmartfuse);
  const auto sparts = smart.schedule.nest_partitions();
  std::map<int, int> sizes;
  for (std::size_t s = 0; s < sparts.size(); ++s)
    if (smart.scop->statement(s).dim() == 2) ++sizes[sparts[s]];
  int smart_max_2d = 0;
  for (const auto& [p, n] : sizes) smart_max_2d = std::max(smart_max_2d, n);
  EXPECT_LT(smart_max_2d, 5);
}

TEST(PaperShape, GemsfdtdFigure8PartitionCounts) {
  // Figure 8: wisefuse minimizes partitions; icc (baseline) and nofuse
  // keep every nest separate; smartfuse lands in between, fragmented by
  // interleaved dimensionalities.
  const auto count = [](const Scheduled& s) {
    return num_partitions(s.schedule.nest_partitions());
  };
  EXPECT_EQ(count(schedule_for("gemsfdtd", FusionModel::kWisefuse)), 2);
  EXPECT_EQ(count(schedule_for("gemsfdtd", FusionModel::kSmartfuse)), 6);
  EXPECT_EQ(count(schedule_for("gemsfdtd", FusionModel::kNofuse)), 11);
  EXPECT_EQ(count(schedule_for("gemsfdtd", std::nullopt)), 11);
}

TEST(PaperShape, AdvectFigure4bFusionWithoutShiftIsIllegal) {
  // phi = i for every statement runs the S3 -> S4 dependence through
  // wk4[i+1][j] backward.
  EXPECT_TRUE(naive_outer_fusion_is_illegal("advect", 2, 3));
}

TEST(PaperShape, AdvectMaxfuseIsFullyFusedButNotParallel) {
  // Figure 4(c): maximal fusion is legal only after shifting S4.
  const auto s = schedule_for("advect", FusionModel::kMaxfuse);
  const auto& sch = s.schedule;
  EXPECT_EQ(num_partitions(sch.nest_partitions()), 1);
  // S4 is shifted relative to S1 at some loop level.
  bool shifted = false;
  for (std::size_t l = 0; l < sch.num_levels(); ++l)
    if (sch.level_linear[l] &&
        sch.rows[3][l].const_term() != sch.rows[0][l].const_term())
      shifted = true;
  EXPECT_TRUE(shifted);
  // The fused outer loop is a forward-dependence (pipelined) loop.
  const auto loops = shared_loops(*s.ast, {0, 1, 2, 3});
  ASSERT_FALSE(loops.empty());
  EXPECT_FALSE(parallel_or_reduction(*loops.front()));
}

TEST(PaperShape, AdvectFigure6WisefuseCutsOnlyS4) {
  const auto s = schedule_for("advect", FusionModel::kWisefuse);
  const auto parts = s.schedule.nest_partitions();
  EXPECT_EQ(parts[0], parts[1]);
  EXPECT_EQ(parts[1], parts[2]);
  EXPECT_NE(parts[2], parts[3]);
  // Outer loop parallel for both partitions.
  EXPECT_TRUE(outer_parallel(s, {0, 1, 2}));
  EXPECT_TRUE(outer_parallel(s, {3}));
}

TEST(PaperShape, AppluWisefuseFusesPerPass) {
  const auto s = schedule_for("applu", FusionModel::kWisefuse);
  // Passes: (S1,S2,S3), (S4,S5,S6), (S7,S8,S9).
  EXPECT_EQ(s.schedule.nest_partitions(),
            (std::vector<int>{0, 0, 0, 1, 1, 1, 2, 2, 2}));
  // Each pass keeps an outer parallel loop.
  EXPECT_TRUE(outer_parallel(s, {0, 1, 2}));
  EXPECT_TRUE(outer_parallel(s, {3, 4, 5}));
  EXPECT_TRUE(outer_parallel(s, {6, 7, 8}));
  // smartfuse fuses everything and loses outer parallelism.
  const auto smart = schedule_for("applu", FusionModel::kSmartfuse);
  EXPECT_EQ(num_partitions(smart.schedule.nest_partitions()), 1);
  const auto loops = shared_loops(*smart.ast, {0, 1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_FALSE(loops.empty());
  EXPECT_FALSE(parallel_or_reduction(*loops.front()));
}

TEST(PaperShape, AppluWisefuseGapGrowsWithCores) {
  // Section 5.3: wisefuse's parallel nests pay one fork/join each, while
  // smartfuse's pipelined fused nest pays one barrier per wavefront, a
  // cost that does not shrink with the core count.
  const Benchmark& b = benchmark("applu");
  const auto wise = schedule_for("applu", FusionModel::kWisefuse);
  const auto smart = schedule_for("applu", FusionModel::kSmartfuse);
  const auto cycles = [&](const Scheduled& s, int cores) {
    machine::MachineConfig cfg;
    cfg.cores = cores;
    exec::ArrayStore store(*s.scop, b.bench_params);
    init_store(store);
    return machine::evaluate(*s.ast, store, cfg).modeled_cycles;
  };
  double prev = 0;
  for (const int cores : {1, 2, 4, 8, 16}) {
    const double ratio = cycles(smart, cores) / cycles(wise, cores);
    EXPECT_GT(ratio, prev) << cores << " cores";
    prev = ratio;
  }
  EXPECT_GT(prev, 1.5);
}

TEST(PaperShape, GemverSection53SamePartitioning) {
  const auto wise = schedule_for("gemver", FusionModel::kWisefuse);
  const auto smart = schedule_for("gemver", FusionModel::kSmartfuse);
  EXPECT_EQ(wise.schedule.nest_partitions(), smart.schedule.nest_partitions());
  EXPECT_EQ(wise.schedule.nest_partitions(), (std::vector<int>{0, 0, 1, 2}));
}

TEST(PaperShape, LuBothModelsIdenticalAndParallel) {
  const auto wise = schedule_for("lu", FusionModel::kWisefuse);
  const auto smart = schedule_for("lu", FusionModel::kSmartfuse);
  EXPECT_EQ(wise.schedule.nest_partitions(), smart.schedule.nest_partitions());
  // Some loop around both statements is parallel (the polyhedral
  // advantage over icc on a non-rectangular space).
  const auto loops = shared_loops(*wise.ast, {0, 1});
  EXPECT_TRUE(std::any_of(loops.begin(), loops.end(), [](const auto* l) {
    return parallel_or_reduction(*l);
  }));
}

TEST(PaperShape, TceOuterLoopsFuseAcrossPermutedNests) {
  const auto s = schedule_for("tce", FusionModel::kWisefuse);
  // All four contractions share the outermost loops (no scalar level
  // before the first linear one).
  EXPECT_EQ(num_partitions(s.schedule.outer_partitions()), 1);
  EXPECT_TRUE(outer_parallel(s, {0, 1, 2, 3}));
}

TEST(PaperShape, WupwiseWisefusePairsRealAndImaginary) {
  const auto parts = schedule_for("wupwise", FusionModel::kWisefuse)
                         .schedule.nest_partitions();
  // (S1,S2) init, (S3,S4) update, (S5,S6) scale.
  EXPECT_EQ(parts[0], parts[1]);
  EXPECT_EQ(parts[2], parts[3]);
  EXPECT_EQ(parts[4], parts[5]);
  EXPECT_NE(parts[0], parts[2]);
  EXPECT_NE(parts[2], parts[4]);
  // smartfuse's DFS order fragments this.
  const auto smart = schedule_for("wupwise", FusionModel::kSmartfuse);
  EXPECT_GT(num_partitions(smart.schedule.nest_partitions()),
            num_partitions(parts));
}

}  // namespace
}  // namespace pf::suite
