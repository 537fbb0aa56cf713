// The result of polyhedral scheduling: a statement-wise multi-dimensional
// affine function (the paper's T_S, Figure 3), plus the dependence
// bookkeeping needed to classify loops and reason about parallelism.
//
// Levels are global: level k is either scalar for every statement (a
// fusion-partitioning dimension; each statement has a constant value) or
// linear (a loop hyperplane; statements that already reached full rank may
// carry a constant row at a linear level, meaning they execute at exactly
// that iteration of the fused loop).
#pragma once

#include <string>
#include <vector>

#include "ddg/dependences.h"
#include "ir/reduction.h"
#include "ir/scop.h"

namespace pf::sched {

struct Schedule {
  const ir::Scop* scop = nullptr;

  /// rows[stmt][level]: affine over that statement's [iterators, params].
  std::vector<std::vector<poly::AffineExpr>> rows;
  /// level_linear[level]: loop hyperplane (true) or scalar dimension.
  std::vector<bool> level_linear;

  /// Per real dependence (index into DependenceGraph::deps()): the level
  /// that strongly satisfied it (min phi-diff >= 1), or SIZE_MAX.
  std::vector<std::size_t> satisfied_at;
  /// Per real dependence: (src stmt, dst stmt) -- copied from the DDG so
  /// the schedule is self-contained for parallelism queries.
  std::vector<std::pair<std::size_t, std::size_t>> dep_endpoints;
  /// carried_at[level]: real-dep indices with max phi-diff >= 1 at that
  /// level among deps still active when the level was found. A loop level
  /// is parallel for a statement group iff no carried dep has both
  /// endpoints in the group.
  std::vector<std::vector<std::size_t>> carried_at;

  /// Reduction self-dependences the scheduler was allowed to ignore
  /// (SchedulerOptions::relaxed_deps), sorted by dep_id. A relaxed dep
  /// keeps satisfied_at == SIZE_MAX but IS entered into carried_at with
  /// race semantics (tied prefix, distance != 0 either sign), so
  /// is_parallel_for stays sound: a loop that is sequential only because
  /// of relaxed deps reads as non-parallel here, and codegen upgrades it
  /// to a reduction-parallel loop with the matching OpenMP clause. The
  /// verifier re-proves every entry (verify/reductions.cpp) -- these are
  /// the analysis pass's claims, not trusted facts.
  std::vector<ir::ReductionDep> relaxed_deps;

  /// True iff `dep` is one of relaxed_deps (binary search by dep_id).
  bool is_relaxed_dep(std::size_t dep) const;

  std::size_t num_levels() const { return level_linear.size(); }
  std::size_t num_statements() const { return rows.size(); }

  /// Outermost fusion partition per statement: statements share a value
  /// iff they agree on every scalar level preceding the first linear
  /// level (i.e. they live in the same outermost loop nest). Partition
  /// ids are dense, in execution order.
  std::vector<int> outer_partitions() const;

  /// True iff linear level `level` is a parallel loop for the statement
  /// subset (no carried dependence within the subset at that level).
  bool is_parallel_for(const std::vector<std::size_t>& stmts,
                       std::size_t level) const;

  /// Innermost fusion partition per statement: statements share a value
  /// iff they agree on *every* scalar level, i.e. they end up perfectly
  /// fused in the same loop body. Ids are dense, in execution order.
  std::vector<int> leaf_partitions() const;

  /// Loop-nest partition per statement: like leaf_partitions() but
  /// ignoring trailing scalar levels after the last linear level (those
  /// only order statement bodies inside a fully shared nest).
  std::vector<int> nest_partitions() const;

  /// The statement's schedule as text, e.g. "T_S1 = (0, j, i)".
  std::string statement_to_string(std::size_t stmt) const;
  /// All statements (Figure 3 style).
  std::string to_string() const;
};

}  // namespace pf::sched
