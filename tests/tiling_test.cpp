// Tests for AST-level loop tiling: structure, semantics preservation
// across programs/models/tile sizes, and the cache-locality payoff.
#include <gtest/gtest.h>

#include "codegen/codegen.h"
#include "codegen/tiling.h"
#include "ddg/dependences.h"
#include "exec/interp.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "machine/perfmodel.h"
#include "sched/analysis.h"
#include "sched/pluto.h"

namespace pf::codegen {
namespace {

struct Built {
  std::shared_ptr<ir::Scop> scop_ptr;
  ddg::DependenceGraph dg;
  sched::Schedule sch;
  AstPtr ast;

  const ir::Scop& scop() const { return *scop_ptr; }
  std::size_t tile(const TilingOptions& opts) {
    return tile_ast(*ast, sch, dg, opts);
  }
};

Built build(const char* src, fusion::FusionModel m) {
  auto scop = std::make_shared<ir::Scop>(frontend::parse_scop(src));
  auto dg = ddg::DependenceGraph::analyze(*scop);
  auto policy = fusion::make_policy(m);
  sched::Schedule sch = sched::compute_schedule(*scop, dg, *policy);
  AstPtr ast = generate_ast(*scop, sch);
  return Built{std::move(scop), std::move(dg), std::move(sch), std::move(ast)};
}

constexpr const char* kMatmulLike = R"(
  scop mm(N) { context N >= 4;
    array A[N][N]; array B[N][N]; array C[N][N];
    for (i = 0 .. N-1) { for (j = 0 .. N-1) { for (k = 0 .. N-1) {
      S1: C[i][j] = C[i][j] + A[i][k]*B[k][j]; } } } })";

TEST(Tiling, StripMinesARectangularBand) {
  auto b = build(kMatmulLike, fusion::FusionModel::kSmartfuse);
  TilingOptions opts;
  opts.tile_size = 8;
  const std::size_t bands = b.tile(opts);
  EXPECT_EQ(bands, 1u);
  // Depth doubled: 3 tile loops + 3 point loops.
  std::size_t depth = 0;
  const AstNode* n = b.ast.get();
  while (n->kind == AstNode::Kind::kLoop) {
    ++depth;
    n = n->body.get();
  }
  EXPECT_EQ(depth, 6u);
  const std::string text = ast_to_string(*b.ast, b.scop());
  EXPECT_NE(text.find("ceild"), std::string::npos);
  EXPECT_NE(text.find("floord"), std::string::npos);
}

TEST(Tiling, PreservesSemantics) {
  for (const i64 tile : {2, 3, 8, 100}) {
    auto plain = build(kMatmulLike, fusion::FusionModel::kSmartfuse);
    auto tiled = build(kMatmulLike, fusion::FusionModel::kSmartfuse);
    TilingOptions opts;
    opts.tile_size = tile;
    ASSERT_GT(tiled.tile(opts), 0u);

    exec::ArrayStore a(plain.scop(), {13}), c(tiled.scop(), {13});
    auto init = [](exec::ArrayStore& s) {
      for (std::size_t arr = 0; arr < s.num_arrays(); ++arr)
        s.fill(arr, [&](const IntVector& idx) {
          return 1.0 + 0.5 * static_cast<double>(idx[0]) +
                 0.25 * static_cast<double>(idx[1]) +
                 static_cast<double>(arr);
        });
    };
    init(a);
    init(c);
    exec::interpret(*plain.ast, a);
    exec::interpret(*tiled.ast, c);
    EXPECT_EQ(exec::ArrayStore::max_abs_diff(a, c), 0.0) << "tile " << tile;
  }
}

TEST(Tiling, PreservesSemanticsOnFusedMultiStatementPrograms) {
  constexpr const char* src = R"(
    scop t(N) { context N >= 4;
      array A[N][N]; array B[N][N]; array C[N][N];
      for (i = 0 .. N-1) { for (j = 0 .. N-1) { S1: A[i][j] = i + 2.0*j; } }
      for (i = 0 .. N-1) { for (j = 0 .. N-1) { S2: B[i][j] = A[i][j] * 2.0; } }
      for (i = 0 .. N-1) { for (j = 0 .. N-1) { S3: C[i][j] = A[i][j] + B[i][j]; } }
    })";
  for (const auto model :
       {fusion::FusionModel::kWisefuse, fusion::FusionModel::kNofuse}) {
    auto plain = build(src, model);
    auto tiled = build(src, model);
    ASSERT_GT(tiled.tile({.tile_size = 4}), 0u);
    exec::ArrayStore a(plain.scop(), {11}), c(tiled.scop(), {11});
    exec::interpret(*plain.ast, a);
    exec::interpret(*tiled.ast, c);
    EXPECT_EQ(exec::ArrayStore::max_abs_diff(a, c), 0.0)
        << fusion::to_string(model);
  }
}

TEST(Tiling, TriangularBandsAreLeftAlone) {
  // LU's bounds reference outer t vars; the rectangular tiler must skip
  // them rather than produce wrong code.
  auto b = build(R"(
    scop lu(N) { context N >= 3; array A[N][N];
      for (k = 0 .. N-2) {
        for (i = k+1 .. N-1) { S1: A[i][k] = A[i][k] / A[k][k]; }
        for (i = k+1 .. N-1) { for (j = k+1 .. N-1) {
          S2: A[i][j] = A[i][j] - A[i][k] * A[k][j]; } }
      } })",
                 fusion::FusionModel::kSmartfuse);
  auto before = ast_to_string(*b.ast, b.scop());
  b.tile({.tile_size = 8});
  // Whatever was tiled (possibly nothing), semantics must hold.
  auto plain = build(R"(
    scop lu(N) { context N >= 3; array A[N][N];
      for (k = 0 .. N-2) {
        for (i = k+1 .. N-1) { S1: A[i][k] = A[i][k] / A[k][k]; }
        for (i = k+1 .. N-1) { for (j = k+1 .. N-1) {
          S2: A[i][j] = A[i][j] - A[i][k] * A[k][j]; } }
      } })",
                     fusion::FusionModel::kSmartfuse);
  exec::ArrayStore x(plain.scop(), {12}), y(b.scop(), {12});
  auto init = [](exec::ArrayStore& s) {
    s.fill(0, [](const IntVector& idx) {
      return idx[0] == idx[1] ? 40.0 : 1.0 + 0.1 * static_cast<double>(idx[1]);
    });
  };
  init(x);
  init(y);
  exec::interpret(*plain.ast, x);
  exec::interpret(*b.ast, y);
  EXPECT_EQ(exec::ArrayStore::max_abs_diff(x, y), 0.0);
}

TEST(Tiling, ParallelMarksStayOnOutermostParallelLoop) {
  auto b = build(kMatmulLike, fusion::FusionModel::kSmartfuse);
  ASSERT_GT(b.tile({.tile_size = 8}), 0u);
  // Root is now the tile loop of the (parallel) i loop: it must carry the
  // pragma; nothing below should.
  ASSERT_EQ(b.ast->kind, AstNode::Kind::kLoop);
  EXPECT_TRUE(b.ast->mark_parallel);
  std::size_t marks = 0;
  const std::function<void(const AstNode&)> count = [&](const AstNode& n) {
    if (n.kind == AstNode::Kind::kLoop) {
      marks += n.mark_parallel ? 1 : 0;
      count(*n.body);
    } else if (n.kind == AstNode::Kind::kBlock) {
      for (const AstPtr& c : n.children) count(*c);
    }
  };
  count(*b.ast);
  EXPECT_EQ(marks, 1u);
}

TEST(Tiling, NoBandNoChange) {
  auto b = build(R"(
    scop t(N) { context N >= 4; array a[N];
      for (i = 0 .. N-1) { S1: a[i] = 1.0; } })",
                 fusion::FusionModel::kSmartfuse);
  // Single loop: below the minimum tiled band depth (2).
  EXPECT_EQ(b.tile({.tile_size = 8}), 0u);
}

TEST(Tiling, RejectsSillyTileSize) {
  auto b = build(kMatmulLike, fusion::FusionModel::kSmartfuse);
  TilingOptions opts;
  opts.tile_size = 1;
  EXPECT_THROW(b.tile(opts), Error);
}

TEST(Tiling, ImprovesCacheBehaviorOnMatmul) {
  // The classic: untiled matmul streams B column-wise through the cache;
  // tiled matmul keeps a tile of B resident. Compare L2 misses at a size
  // where a row of B exceeds L1 but a tile set fits L2.
  auto plain = build(kMatmulLike, fusion::FusionModel::kSmartfuse);
  auto tiled = build(kMatmulLike, fusion::FusionModel::kSmartfuse);
  ASSERT_GT(tiled.tile({.tile_size = 32}), 0u);
  const i64 n = 192;  // 3 arrays x 288KB
  exec::ArrayStore a(plain.scop(), {n}), c(tiled.scop(), {n});
  const machine::ModelReport rp = machine::evaluate(*plain.ast, a);
  const machine::ModelReport rt = machine::evaluate(*tiled.ast, c);
  EXPECT_LT(rt.cache.misses[1], rp.cache.misses[1] / 2)
      << "tiling should cut L2 misses decisively";
}

}  // namespace
}  // namespace pf::codegen
