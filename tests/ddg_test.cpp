// Tests for dependence analysis and graph utilities, including a
// property test validating dependence polyhedra against brute-force
// instance-pair enumeration on small concrete domains.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "ddg/dependences.h"
#include "ddg/graph.h"
#include "frontend/parser.h"
#include "suite/synthetic.h"

namespace pf::ddg {
namespace {

// ---------------------------------------------------------------------------
// Graph utilities.
// ---------------------------------------------------------------------------

TEST(Scc, SingleCycle) {
  // 0 -> 1 -> 2 -> 0 plus 2 -> 3.
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0}, {2, 3}};
  for (auto algo : {kosaraju_sccs, tarjan_sccs}) {
    const SccResult r = algo(4, edges);
    EXPECT_EQ(r.num_sccs(), 2u);
    EXPECT_EQ(r.scc_of[0], r.scc_of[1]);
    EXPECT_EQ(r.scc_of[1], r.scc_of[2]);
    EXPECT_NE(r.scc_of[0], r.scc_of[3]);
    // Topological numbering: the cycle precedes vertex 3.
    EXPECT_LT(r.scc_of[0], r.scc_of[3]);
  }
}

TEST(Scc, DisconnectedVerticesAreSingletons) {
  const SccResult r = kosaraju_sccs(3, {});
  EXPECT_EQ(r.num_sccs(), 3u);
}

TEST(Scc, KosarajuMatchesTarjanOnRandomGraphs) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng() % 8;
    std::vector<Edge> edges;
    const std::size_t m = rng() % (2 * n + 1);
    for (std::size_t e = 0; e < m; ++e)
      edges.emplace_back(rng() % n, rng() % n);
    const SccResult a = kosaraju_sccs(n, edges);
    const SccResult b = tarjan_sccs(n, edges);
    ASSERT_EQ(a.num_sccs(), b.num_sccs()) << "trial " << trial;
    // Same partition: vertices grouped identically.
    for (std::size_t u = 0; u < n; ++u)
      for (std::size_t v = 0; v < n; ++v)
        EXPECT_EQ(a.scc_of[u] == a.scc_of[v], b.scc_of[u] == b.scc_of[v])
            << "trial " << trial;
  }
}

TEST(Graph, TopologicalOrderRespectsEdges) {
  const std::vector<Edge> edges{{2, 0}, {0, 1}, {2, 1}};
  const auto order = topological_order(3, edges);
  std::vector<std::size_t> pos(3);
  for (std::size_t i = 0; i < 3; ++i) pos[order[i]] = i;
  EXPECT_LT(pos[2], pos[0]);
  EXPECT_LT(pos[0], pos[1]);
}

TEST(Graph, TopologicalOrderThrowsOnCycle) {
  EXPECT_THROW(topological_order(2, {{0, 1}, {1, 0}}), Error);
}

TEST(Graph, CondensationEdges) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {1, 2}, {0, 2}};
  const SccResult r = kosaraju_sccs(3, edges);
  const auto ce = condensation_edges(r, edges);
  ASSERT_EQ(ce.size(), 1u);  // {0,1} -> {2}, deduplicated
}

// ---------------------------------------------------------------------------
// Dependence analysis on hand-checked kernels.
// ---------------------------------------------------------------------------

// Count deps of a kind between two named statements.
int count_deps(const DependenceGraph& g, DepKind kind, const std::string& src,
               const std::string& dst) {
  int c = 0;
  const auto& list = kind == DepKind::kInput ? g.rar_deps() : g.deps();
  for (const Dependence& d : list) {
    if (d.kind != kind) continue;
    if (g.scop().statement(d.src).name() == src &&
        g.scop().statement(d.dst).name() == dst)
      ++c;
  }
  return c;
}

TEST(Dependences, FlowWithinStencilLoop) {
  // a[i] = a[i-1]: flow dep carried by the loop at depth 0.
  const ir::Scop s = frontend::parse_scop(R"(
    scop st(N) { context N >= 4; array a[N];
      for (i = 1 .. N-1) { S1: a[i] = a[i-1] * 0.5; } })");
  const auto g = DependenceGraph::analyze(s);
  ASSERT_GE(g.deps().size(), 1u);
  int flow_carried = 0;
  for (const Dependence& d : g.deps())
    if (d.kind == DepKind::kFlow && d.depth == 0 && d.src == 0 && d.dst == 0)
      ++flow_carried;
  EXPECT_EQ(flow_carried, 1);
}

TEST(Dependences, NoDepWhenDisjointArrays) {
  const ir::Scop s = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N];
      for (i = 0 .. N-1) { S1: a[i] = 1.0; }
      for (i = 0 .. N-1) { S2: b[i] = 2.0; } })");
  const auto g = DependenceGraph::analyze(s);
  EXPECT_TRUE(g.deps().empty());
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_reuse_edge(0, 1));
}

TEST(Dependences, LoopIndependentFlowAcrossNests) {
  // S1 writes a, S2 reads a in a later nest: flow at depth 0 (no shared
  // loops -> loop-independent case).
  const ir::Scop s = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N];
      for (i = 0 .. N-1) { S1: a[i] = 1.0; }
      for (i = 0 .. N-1) { S2: b[i] = a[i] + 1.0; } })");
  const auto g = DependenceGraph::analyze(s);
  EXPECT_EQ(count_deps(g, DepKind::kFlow, "S1", "S2"), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  // No dependence case may run backwards in textual order here.
  EXPECT_EQ(count_deps(g, DepKind::kFlow, "S2", "S1"), 0);
}

TEST(Dependences, AntiAndOutputDetected) {
  const ir::Scop s = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N];
      for (i = 0 .. N-1) { S1: b[i] = a[i]; }
      for (i = 0 .. N-1) { S2: a[i] = 3.0; }
      for (i = 0 .. N-1) { S3: a[i] = 4.0; } })");
  const auto g = DependenceGraph::analyze(s);
  EXPECT_EQ(count_deps(g, DepKind::kAnti, "S1", "S2"), 1);
  EXPECT_EQ(count_deps(g, DepKind::kOutput, "S2", "S3"), 1);
}

TEST(Dependences, InputDepsKeptSeparately) {
  // S1 and S2 both read c: RAR edge, no DDG edge.
  const ir::Scop s = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N]; array c[N];
      for (i = 0 .. N-1) { S1: a[i] = c[i]; }
      for (i = 0 .. N-1) { S2: b[i] = c[i]; } })");
  const auto g = DependenceGraph::analyze(s);
  EXPECT_TRUE(g.deps().empty());
  EXPECT_EQ(count_deps(g, DepKind::kInput, "S1", "S2"), 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_reuse_edge(0, 1));
  EXPECT_TRUE(g.has_reuse_edge(1, 0));  // symmetric
}

TEST(Dependences, GemverBackwardDependence) {
  // The paper's Figure 1: S1 writes B[i][j]; S2 reads B[j][i]. Within a
  // shared nest this would be fusion-preventing; across separate nests the
  // dependence is loop-independent S1 -> S2.
  const ir::Scop s = frontend::parse_scop(R"(
    scop g(N) { context N >= 4;
      array A[N][N]; array B[N][N]; array u1[N]; array v1[N];
      array x[N]; array y[N];
      for (i = 0 .. N-1) { for (j = 0 .. N-1) {
        S1: B[i][j] = A[i][j] + u1[i]*v1[j]; } }
      for (i = 0 .. N-1) { for (j = 0 .. N-1) {
        S2: x[i] = x[i] + B[j][i]*y[j]; } } })");
  const auto g = DependenceGraph::analyze(s);
  EXPECT_EQ(count_deps(g, DepKind::kFlow, "S1", "S2"), 1);
  // S1 and S2 are separate SCCs with an edge S1 -> S2.
  const SccResult sccs = g.sccs();
  EXPECT_EQ(sccs.num_sccs(), 2u);
  EXPECT_LT(sccs.scc_of[0], sccs.scc_of[1]);
}

TEST(Dependences, SelfOutputOnScalarLikeCell) {
  // a[0] accumulation: self output + flow + anti, all carried at depth 0.
  const ir::Scop s = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[1]; array b[N];
      for (i = 0 .. N-1) { S1: a[0] = a[0] + b[i]; } })");
  const auto g = DependenceGraph::analyze(s);
  EXPECT_EQ(count_deps(g, DepKind::kOutput, "S1", "S1"), 1);
  EXPECT_EQ(count_deps(g, DepKind::kFlow, "S1", "S1"), 1);
  EXPECT_EQ(count_deps(g, DepKind::kAnti, "S1", "S1"), 1);
}

TEST(Dependences, SccOfReductionCycle) {
  // S1 -> S2 -> S1 through arrays: one SCC.
  const ir::Scop s = frontend::parse_scop(R"(
    scop t(N) { context N >= 4; array a[N]; array b[N];
      for (i = 1 .. N-1) {
        S1: a[i] = b[i-1] + 1.0;
        S2: b[i] = a[i] * 2.0;
      } })");
  const auto g = DependenceGraph::analyze(s);
  const SccResult sccs = g.sccs();
  EXPECT_EQ(sccs.num_sccs(), 1u);
}

TEST(Dependences, LiftHelpersMapSpacesCorrectly) {
  Dependence d;
  d.src_dim = 2;
  d.dst_dim = 1;
  d.num_params = 1;
  // src expr over [i, j, N]: i + 2N.
  poly::AffineExpr e(3);
  e.set_coeff(0, 1);
  e.set_coeff(2, 2);
  const auto ls = d.lift_src(e);
  EXPECT_EQ(ls.dims(), 4u);
  EXPECT_EQ(ls.coeff(0), 1);
  EXPECT_EQ(ls.coeff(3), 2);
  // dst expr over [k, N]: k - N.
  poly::AffineExpr f(2);
  f.set_coeff(0, 1);
  f.set_coeff(1, -1);
  const auto ld = d.lift_dst(f);
  EXPECT_EQ(ld.coeff(2), 1);
  EXPECT_EQ(ld.coeff(3), -1);
}

// ---------------------------------------------------------------------------
// Property test: dependence analysis vs brute-force instance enumeration.
//
// Build small 1-2 statement programs with random shifts, fix N = 6, and
// check: for every pair of instances (s, t) with s executed before t that
// touch the same cell (>= 1 write), SOME dependence polyhedron contains
// the pair, and every polyhedron point is a genuine conflicting pair.
// ---------------------------------------------------------------------------

class DepsVsBruteForce : public ::testing::TestWithParam<unsigned> {};

TEST_P(DepsVsBruteForce, ExactOnSmallDomains) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<i64> shift(-2, 2);
  const i64 kN = 6;

  // S1: a[i+s1] = a[i+s2] ...; S2: b[i] = a[i+s3]; single loop each, shared
  // program: two nests over 2..N-3 so shifted subscripts stay in bounds.
  const i64 s1 = shift(rng), s2 = shift(rng), s3 = shift(rng);
  std::ostringstream src;
  src << "scop t(N) { context N >= 6; array a[N+4]; array b[N+4];\n"
      << "for (i = 2 .. N-3) { S1: a[i+" << (s1 + 2) << "] = a[i+" << (s2 + 2)
      << "] * 0.5; }\n"
      << "for (i = 2 .. N-3) { S2: b[i+2] = a[i+" << (s3 + 2) << "]; } }";
  const ir::Scop scop = frontend::parse_scop(src.str());
  const auto g = DependenceGraph::analyze(scop);

  // Enumerate instance pairs. Execution order: all of S1's instances by i,
  // then all of S2's.
  struct Inst {
    int stmt;
    i64 i;
  };
  std::vector<Inst> order;
  for (i64 i = 2; i <= kN - 3; ++i) order.push_back({0, i});
  for (i64 i = 2; i <= kN - 3; ++i) order.push_back({1, i});

  auto cells = [&](int stmt, i64 i) {
    // Returns {write cell, read cell} on array a (array id 0); b ignored
    // (no sharing). Cell -1 means "no access".
    if (stmt == 0) return std::pair<i64, i64>{i + s1 + 2, i + s2 + 2};
    return std::pair<i64, i64>{-1, i + s3 + 2};
  };

  for (std::size_t x = 0; x < order.size(); ++x) {
    for (std::size_t y = x + 1; y < order.size(); ++y) {
      const auto [wx, rx] = cells(order[x].stmt, order[x].i);
      const auto [wy, ry] = cells(order[y].stmt, order[y].i);
      // Conflicting pairs with at least one write.
      const bool conflict = (wx >= 0 && wy >= 0 && wx == wy) ||
                            (wx >= 0 && wx == ry) || (rx >= 0 && rx == wy);
      if (!conflict) continue;
      // Some real dependence polyhedron must contain this pair.
      bool covered = false;
      for (const Dependence& d : g.deps()) {
        if (static_cast<int>(d.src) != order[x].stmt ||
            static_cast<int>(d.dst) != order[y].stmt)
          continue;
        const IntVector point{order[x].i, order[y].i, kN};
        if (d.poly.contains(point)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "seed " << GetParam() << ": uncovered pair S"
                           << order[x].stmt + 1 << "(" << order[x].i << ") -> S"
                           << order[y].stmt + 1 << "(" << order[y].i << ")";
    }
  }

  // Soundness of polyhedra: every integer point is a genuine conflict in
  // correct execution order.
  for (const Dependence& d : g.deps()) {
    for (i64 is = 2; is <= kN - 3; ++is) {
      for (i64 it = 2; it <= kN - 3; ++it) {
        if (!d.poly.contains({is, it, kN})) continue;
        // Execution order: same statement -> is < it; S1 before S2 always.
        if (d.src == d.dst)
          EXPECT_LT(is, it) << "seed " << GetParam();
        else
          EXPECT_LT(d.src, d.dst);
        const auto [ws, rs] = cells(static_cast<int>(d.src), is);
        const auto [wt, rt] = cells(static_cast<int>(d.dst), it);
        const bool conflict = (ws >= 0 && wt >= 0 && ws == wt) ||
                              (ws >= 0 && ws == rt) || (rs >= 0 && rs == wt);
        EXPECT_TRUE(conflict) << "seed " << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShifts, DepsVsBruteForce,
                         ::testing::Range(0u, 25u));

// ---------------------------------------------------------------------------
// Parallel analysis determinism: the multi-threaded fan-out must produce a
// graph byte-identical to the serial path -- ids, ordering, kinds, depths
// and the dependence polyhedra themselves.
// ---------------------------------------------------------------------------

void expect_same_deps(const std::vector<Dependence>& a,
                      const std::vector<Dependence>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "dep " << i;
    EXPECT_EQ(a[i].src, b[i].src) << "dep " << i;
    EXPECT_EQ(a[i].dst, b[i].dst) << "dep " << i;
    EXPECT_EQ(a[i].src_access, b[i].src_access) << "dep " << i;
    EXPECT_EQ(a[i].dst_access, b[i].dst_access) << "dep " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "dep " << i;
    EXPECT_EQ(a[i].depth, b[i].depth) << "dep " << i;
    EXPECT_EQ(a[i].poly.to_string(), b[i].poly.to_string()) << "dep " << i;
  }
}

TEST(Dependences, ParallelAnalysisIsDeterministic) {
  for (const unsigned seed : {0u, 3u, 11u, 23u}) {
    const std::string src = suite::synthetic_program(seed);
    SCOPED_TRACE(src);
    const ir::Scop scop = frontend::parse_scop(src);
    AnalysisOptions serial;
    serial.jobs = 1;
    AnalysisOptions parallel;
    parallel.jobs = 4;
    const auto a = DependenceGraph::analyze(scop, serial);
    const auto b = DependenceGraph::analyze(scop, parallel);
    expect_same_deps(a.deps(), b.deps());
    expect_same_deps(a.rar_deps(), b.rar_deps());
    EXPECT_EQ(a.to_string(), b.to_string());
    EXPECT_EQ(a.stmt_edges(), b.stmt_edges());
  }
}

}  // namespace
}  // namespace pf::ddg
