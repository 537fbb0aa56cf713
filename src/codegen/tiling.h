// Loop tiling (blocking) on the generated AST.
//
// The schedules produced by the Pluto-style scheduler consist of bands of
// fully permutable linear levels (every hyperplane has non-negative
// dependence components by construction), which is exactly the legality
// condition for rectangular tiling. tile_ast() strip-mines each maximal
// chain of perfectly nested loops into (tile loops..., point loops...):
//
//   for (t0 = lb0 .. ub0)                for (T0 = floord(lb0,B) ..)
//     for (t1 = lb1 .. ub1)        =>      for (T1 = ...)
//       body                                 for (t0 = max(lb0, B*T0) ..
//                                                      min(ub0, B*T0+B-1))
//                                              for (t1 = ...) body
//
// Bounds referencing enclosing point iterators (triangular spaces) are
// handled by over-approximating the tile loop's span with the loop's
// parametric extremes and keeping the exact bounds on the point loops --
// empty tiles simply run zero point iterations.
//
// Tiling composes with fusion: it is what turns the fused nests' reuse
// into cache-sized working sets (Pluto's headline combination; the paper
// positions its fusion model as the step that decides *what* the tiles
// will contain).
#pragma once

#include "codegen/ast.h"
#include "ddg/dependences.h"
#include "sched/schedule.h"

namespace pf::codegen {

struct TilingOptions {
  /// Tile size per loop (uniform).
  i64 tile_size = 32;
};

/// Tile the AST in place, splitting loop chains at the schedule's
/// permutable-band boundaries (sched::permutable_bands) so only legally
/// tileable bands are blocked. Returns the number of bands tiled.
std::size_t tile_ast(AstNode& root, const sched::Schedule& schedule,
                     const ddg::DependenceGraph& dg,
                     const TilingOptions& options = {});

}  // namespace pf::codegen
