// Tests for the fusion policies themselves: Algorithm 1 ablations and
// their effect on gemsfdtd, policy metadata, and the cut recipes.
#include <gtest/gtest.h>

#include <set>

#include "ddg/dependences.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "sched/pluto.h"
#include "suite/suite.h"

namespace pf::fusion {
namespace {

TEST(Models, NamesAndFactory) {
  EXPECT_STREQ(to_string(FusionModel::kWisefuse), "wisefuse");
  EXPECT_STREQ(to_string(FusionModel::kSmartfuse), "smartfuse");
  EXPECT_STREQ(to_string(FusionModel::kNofuse), "nofuse");
  EXPECT_STREQ(to_string(FusionModel::kMaxfuse), "maxfuse");
  for (int m = 0; m < 4; ++m) {
    auto p = make_policy(static_cast<FusionModel>(m));
    ASSERT_NE(p, nullptr);
    EXPECT_STREQ(p->name().c_str(), to_string(static_cast<FusionModel>(m)));
  }
}

TEST(Models, OnlyWisefuseEnforcesOuterParallelism) {
  EXPECT_TRUE(make_policy(FusionModel::kWisefuse)->enforce_outer_parallelism());
  EXPECT_FALSE(
      make_policy(FusionModel::kSmartfuse)->enforce_outer_parallelism());
  EXPECT_FALSE(make_policy(FusionModel::kNofuse)->enforce_outer_parallelism());
  EXPECT_FALSE(make_policy(FusionModel::kMaxfuse)->enforce_outer_parallelism());
  WisefuseOptions opts;
  opts.enforce_outer_parallelism = false;
  EXPECT_FALSE(make_wisefuse(opts)->enforce_outer_parallelism());
}

TEST(CutRecipes, CutAllAndBoundary) {
  EXPECT_EQ(sched::cut_all(4), (std::vector<i64>{0, 1, 2, 3}));
  EXPECT_EQ(sched::cut_at_boundary(4, 1), (std::vector<i64>{0, 1, 1, 1}));
  EXPECT_EQ(sched::cut_at_boundary(4, 3), (std::vector<i64>{0, 0, 0, 1}));
  EXPECT_THROW(sched::cut_at_boundary(4, 0), Error);
  EXPECT_THROW(sched::cut_at_boundary(4, 4), Error);
}

// A program whose wisefuse order depends on every Algorithm-1 ingredient:
// S1 (1-d) and S4 (1-d) share only a RAR edge; S2 is an unrelated 2-d
// statement between them; S3 (1-d) depends on S2.
constexpr const char* kProgram = R"(
  scop t(N) { context N >= 4;
    array a[N]; array b[N]; array c[N]; array d[N]; array E[N][N];
    for (i = 0 .. N-1) { S1: a[i] = c[i] + 1.0; }
    for (i = 0 .. N-1) { for (j = 0 .. N-1) { S2: E[i][j] = 2.0; } }
    for (i = 0 .. N-1) { S3: d[i] = E[i][i] + c[i]; }
    for (i = 0 .. N-1) { S4: b[i] = c[i] * 3.0; }
  })";

std::vector<std::size_t> positions(const ir::Scop& scop,
                                   const ddg::DependenceGraph& dg,
                                   const WisefuseOptions& opts) {
  const auto sccs = dg.sccs();
  const auto order = wisefuse_prefusion_order(scop, dg, sccs, opts);
  std::vector<std::size_t> pos_of_scc(sccs.num_sccs());
  for (std::size_t p = 0; p < order.size(); ++p) pos_of_scc[order[p]] = p;
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < scop.num_statements(); ++s)
    out.push_back(pos_of_scc[static_cast<std::size_t>(sccs.scc_of[s])]);
  return out;
}

TEST(Algorithm1, FullOptionsPullRarNeighborForward) {
  const ir::Scop scop = frontend::parse_scop(kProgram);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto pos = positions(scop, dg, WisefuseOptions{});
  // S4 ordered right after S1 (RAR on c, same dim, precedence fine).
  EXPECT_EQ(pos[3], pos[0] + 1);
  // S3 cannot move before S2 (flow dep).
  EXPECT_GT(pos[2], pos[1]);
}

TEST(Algorithm1, AblationNoRarKeepsProgramOrder) {
  const ir::Scop scop = frontend::parse_scop(kProgram);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  WisefuseOptions opts;
  opts.use_rar = false;
  const auto pos = positions(scop, dg, opts);
  // Without RAR edges S4 has no reuse with S1: stays last.
  EXPECT_EQ(pos[3], 3u);
}

TEST(Algorithm1, AblationNoDimCheckStillRespectsPrecedence) {
  const ir::Scop scop = frontend::parse_scop(kProgram);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  WisefuseOptions opts;
  opts.require_same_dim = false;
  const auto pos = positions(scop, dg, opts);
  // Precedence still holds for S2 -> S3.
  EXPECT_GT(pos[2], pos[1]);
}

TEST(Algorithm1, AblationNoReorderIsIdentity) {
  const ir::Scop scop = frontend::parse_scop(kProgram);
  const auto dg = ddg::DependenceGraph::analyze(scop);
  WisefuseOptions opts;
  opts.reorder = false;
  const auto sccs = dg.sccs();
  const auto order = wisefuse_prefusion_order(scop, dg, sccs, opts);
  for (std::size_t p = 0; p < order.size(); ++p) EXPECT_EQ(order[p], p);
}

TEST(Algorithm1, OrderIsAlwaysAValidPermutation) {
  for (const char* src : {kProgram, R"(
    scop u(N) { context N >= 4; array a[N]; array b[N];
      for (i = 1 .. N-1) { S1: a[i] = b[i-1] + 1.0; S2: b[i] = a[i] * 2.0; }
    })"}) {
    const ir::Scop scop = frontend::parse_scop(src);
    const auto dg = ddg::DependenceGraph::analyze(scop);
    const auto sccs = dg.sccs();
    const auto order = wisefuse_prefusion_order(scop, dg, sccs, {});
    std::vector<bool> seen(sccs.num_sccs(), false);
    for (const std::size_t id : order) {
      ASSERT_LT(id, sccs.num_sccs());
      EXPECT_FALSE(seen[id]);
      seen[id] = true;
    }
  }
}

TEST(Algorithm1, SccsMoveAsAUnit) {
  // S1 and S2 form an SCC; the order must keep them in one position.
  const ir::Scop scop = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N];
      for (i = 1 .. N-1) {
        S1: a[i] = b[i-1] + 1.0;
        S2: b[i] = a[i] * 2.0;
      }
      for (i = 0 .. N-1) { S3: a[i] = a[i] + 0.5; } })");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto sccs = dg.sccs();
  EXPECT_EQ(sccs.scc_of[0], sccs.scc_of[1]);
  const auto order = wisefuse_prefusion_order(scop, dg, sccs, {});
  EXPECT_EQ(order.size(), sccs.num_sccs());
}

TEST(Ablation, Algorithm2OffAllowsPipelinedFusion) {
  // advect: with Algorithm 2 off, wisefuse behaves like maxfuse here
  // (full fusion with a shift; outer loop pipelined).
  const ir::Scop scop = frontend::parse_scop(R"(
scop advect(N) {
  context N >= 4;
  array wk1[N+2][N+2]; array wk2[N+2][N+2]; array wk4[N+2][N+2];
  array u[N+2][N+2]; array v[N+2][N+2];
  for (i = 1 .. N) { for (j = 1 .. N) { S1: wk1[i][j] = u[i][j] + u[i][j+1]; } }
  for (i = 1 .. N) { for (j = 1 .. N) { S2: wk2[i][j] = v[i][j] + v[i+1][j]; } }
  for (i = 1 .. N) { for (j = 1 .. N) { S3: wk4[i][j] = wk1[i][j] + wk2[i][j]; } }
  for (i = 1 .. N) { for (j = 1 .. N) {
    S4: u[i][j] = wk4[i][j] - wk4[i][j+1] + wk4[i+1][j]; } }
})");
  const auto dg = ddg::DependenceGraph::analyze(scop);
  WisefuseOptions opts;
  opts.enforce_outer_parallelism = false;
  auto policy = make_wisefuse(opts);
  const auto sch = sched::compute_schedule(scop, dg, *policy);
  const auto parts = sch.nest_partitions();
  EXPECT_EQ(parts[0], parts[3]);  // fully fused
  std::size_t fl = 0;
  while (!sch.level_linear[fl]) ++fl;
  EXPECT_FALSE(sch.is_parallel_for({0, 1, 2, 3}, fl));

  WisefuseOptions on;
  auto policy_on = make_wisefuse(on);
  const auto sch_on = sched::compute_schedule(scop, dg, *policy_on);
  EXPECT_NE(sch_on.nest_partitions()[2], sch_on.nest_partitions()[3]);
}

TEST(Ablation, GemsfdtdPartitionsPerWisefuseIngredient) {
  // Figure 8's program has no reductions, so this is the CLI default path
  // with one Algorithm 1 ingredient switched off at a time. Each one is
  // needed for wisefuse's two partitions.
  const ir::Scop scop = suite::parse(suite::benchmark("gemsfdtd"));
  const auto dg = ddg::DependenceGraph::analyze(scop);
  const auto partitions = [&](const WisefuseOptions& opts) {
    auto policy = make_wisefuse(opts);
    const auto parts =
        sched::compute_schedule(scop, dg, *policy).nest_partitions();
    return std::set<int>(parts.begin(), parts.end()).size();
  };
  WisefuseOptions full, no_rar, no_dim, no_order;
  no_rar.use_rar = false;
  no_dim.require_same_dim = false;
  no_order.reorder = false;
  EXPECT_EQ(partitions(full), 2u);
  EXPECT_EQ(partitions(no_rar), 6u);
  EXPECT_EQ(partitions(no_dim), 8u);
  EXPECT_EQ(partitions(no_order), 8u);
}

}  // namespace
}  // namespace pf::fusion
