// Feautrier-style value-based dataflow, computed by last-writer
// subtraction over the memory-based dependence graph.
//
// The DDG's flow dependences are *memory-based*: S -> T whenever S
// writes a cell T later reads, even if another write U overwrote the
// cell in between. Value-based dataflow keeps only the pairs where S is
// the *last* writer, i.e. the flows along which a value actually
// travels. It is computed here exactly as a subtraction problem:
//
//   VB(S -> T)  =  D(S -> T)  -  union over writers U of
//                  project_u { (s, u, t) :  s in dom(S), u in dom(U),
//                              t in dom(T),  A_U(u) == A_T(t),
//                              s <lex u <lex t }
//
// where D is the union of the memory-based flow polyhedra (all
// precedence cases) of the access pair, `<lex` is the original program
// order (prefix-equal + strictly-smaller at a shared loop, or textual
// order at equal prefixes -- the DDG's own precedence encoding), and
// project_u is Fourier-Motzkin elimination of the intermediate writer's
// iterators. The subtraction needs a union of polyhedra: this is what
// poly::SetUnion exists for.
//
// From the same machinery two per-access summaries fall out:
//  * ReadCover: the read instances *no* write precedes (they observe the
//    array's initial contents -- the scop's live-in set), and
//  * WriteLiveness: `unused` write instances whose value no read ever
//    uses, and `killed` instances later overwritten; `unused & killed`
//    is the classical dead store, `unused` alone is dead for a `local`
//    array (which has no live-out role).
//
// Everything runs serially over the deterministically-merged dependence
// graph, so results (and any remarks derived from them) are identical at
// every --jobs count.
//
// The graph owns its dataflow: DependenceGraph::dataflow() builds it at
// most once per graph while the one memo gate (poly::active_memo) is
// open, and serves that build to every later asker, so --lint, --analyze
// and --reductions in one request share it. A closed gate -- no request
// scope, a limiting budget, lp::testing::ExactPathScope -- builds a
// private copy and keeps nothing: a charged build must stay charged, and
// the reference path has no shortcut.
#pragma once

#include <vector>

#include "ddg/dependences.h"
#include "ir/scop.h"
#include "poly/set_union.h"

namespace pf::ddg {

/// One value-based producer/consumer flow: the last-writer instances of
/// statement `src` feeding read `dst_access` of statement `dst`.
struct ValueFlow {
  std::size_t src = 0, dst = 0;  // statement indices
  std::size_t dst_access = 0;    // read access index in dst's accesses()
  std::size_t src_dim = 0, dst_dim = 0, num_params = 0;
  /// Space [src iters, dst iters, params], like a dependence polyhedron.
  poly::SetUnion poly{0};
};

/// Per read access: the instances fed by no earlier write at all.
struct ReadCover {
  std::size_t stmt = 0;
  std::size_t access = 0;  // read access index
  /// Space [stmt iters, params]: reads of the array's initial contents.
  poly::SetUnion uncovered{0};
};

/// Per statement (its single write access): liveness of written values.
struct WriteLiveness {
  std::size_t stmt = 0;
  /// Space [stmt iters, params]: instances whose value no read ever
  /// consumes (under value-based flow).
  poly::SetUnion unused{0};
  /// Space [stmt iters, params]: instances a later write overwrites.
  poly::SetUnion killed{0};
};

struct Dataflow {
  std::vector<ValueFlow> flows;        // non-empty flows only
  std::vector<ReadCover> covers;       // one per read access
  std::vector<WriteLiveness> writes;   // one per statement
};

}  // namespace pf::ddg
