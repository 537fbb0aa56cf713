// Exact array dependence analysis over the polyhedral IR.
//
// For every pair of accesses to the same array (at least one a write --
// plus read/read pairs, kept separately as *input* (RAR) dependences,
// which the paper's wisefuse uses for reuse), one dependence polyhedron is
// built per lexicographic-precedence case:
//
//   space  [src iterators, dst iterators, parameters]
//   constraints:
//     src domain, dst domain, parameter context,
//     access equality  A_src(s) == A_dst(t),
//     precedence case `depth` d:
//       d <  common nest depth: s[0..d) == t[0..d) and s[d] < t[d]
//       d == common nest depth: s[0..d) == t[0..d) and src textually
//                               precedes dst (loop-independent case)
//
// Cases whose polyhedron has no integer point are discarded (branch-and-
// bound emptiness; a capped search conservatively keeps the dependence).
// This is memory-based (not value-based) analysis -- the same choice Pluto
// makes; extra dependences only constrain, never break, the transformation.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ddg/graph.h"
#include "ir/scop.h"

namespace pf::ddg {

enum class DepKind { kFlow, kAnti, kOutput, kInput };

const char* to_string(DepKind k);

struct Dependence {
  std::size_t id = 0;
  std::size_t src = 0, dst = 0;                // statement indices
  std::size_t src_access = 0, dst_access = 0;  // indices into accesses()
  DepKind kind = DepKind::kFlow;
  /// Precedence case: depth < common nest depth means "carried by original
  /// loop `depth`"; depth == common depth is the loop-independent case.
  std::size_t depth = 0;
  std::size_t src_dim = 0, dst_dim = 0, num_params = 0;
  poly::IntegerSet poly{0};
  /// True when the dependence was not proven (its emptiness test ran out
  /// of budget or hit an injected fault) and is *assumed* to exist -- a
  /// sound over-approximation: extra dependences only constrain the
  /// schedule. See src/support/budget.h.
  bool assumed = false;

  /// Lift a statement-space affine form ([iters, params]) of the source
  /// (resp. destination) statement into the dependence space.
  poly::AffineExpr lift_src(const poly::AffineExpr& e) const;
  poly::AffineExpr lift_dst(const poly::AffineExpr& e) const;

  bool is_real() const { return kind != DepKind::kInput; }
};

struct AnalysisOptions {
  /// Worker threads for the statement-pair fan-out. 0 means
  /// support::default_jobs() (--jobs=N / POLYFUSE_JOBS / hardware);
  /// 1 runs the exact serial path. Results are merged in deterministic
  /// (src, dst, access-pair, depth) order, so the graph -- dependence
  /// ids included -- is byte-identical at every thread count.
  std::size_t jobs = 0;
};

struct Dataflow;  // ddg/dataflow.h

class DependenceGraph {
 public:
  /// Run the analysis. The scop must outlive the graph.
  static DependenceGraph analyze(const ir::Scop& scop,
                                 const AnalysisOptions& options = {});

  const ir::Scop& scop() const { return *scop_; }

  /// Flow/anti/output dependences -- the edges of the DDG proper.
  const std::vector<Dependence>& deps() const { return deps_; }
  /// Input (RAR) dependences, kept out of the DDG (paper, Section 2.3).
  const std::vector<Dependence>& rar_deps() const { return rar_; }

  /// True if some real dependence runs src -> dst.
  bool has_edge(std::size_t src, std::size_t dst) const;
  /// True if statements a and b share any dependence (real, either
  /// direction) or input dependence: the paper's reuse test
  /// `adj(i,j) = 1 or RARadj(i,j) = 1`.
  bool has_reuse_edge(std::size_t a, std::size_t b) const;

  /// Statement-level edges of the real-dependence graph, deduplicated.
  std::vector<Edge> stmt_edges() const;

  /// SCCs of the real-dependence graph (Kosaraju, ids in topological
  /// order of the condensation).
  SccResult sccs() const;

  /// Value-based dataflow of scop() (ddg/dataflow.h). Built at most
  /// once per graph while poly::active_memo() is open and kept for every
  /// later asker; under a closed gate each call builds a private copy.
  /// Safe to call from several threads.
  std::shared_ptr<const Dataflow> dataflow() const;

  std::string to_string() const;

 private:
  // The kept dataflow build. Copies of a graph share it.
  struct DataflowSlot {
    std::mutex mu;
    std::shared_ptr<const Dataflow> value;
  };

  const ir::Scop* scop_ = nullptr;
  std::vector<Dependence> deps_;
  std::vector<Dependence> rar_;
  std::vector<std::vector<bool>> adj_;      // adj_[src][dst] over real deps
  std::vector<std::vector<bool>> reuse_;    // symmetric: real or RAR
  std::shared_ptr<DataflowSlot> dataflow_ = std::make_shared<DataflowSlot>();
};

}  // namespace pf::ddg
