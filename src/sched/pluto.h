// Pluto-style affine scheduler (Bondhugula et al. [9,10]) with pluggable
// fusion policies.
//
// Level by level, an ILP over all statements' schedule coefficients
// (non-negative, bounded) searches for legal hyperplanes that minimize the
// dependence-distance bound u.n + w (the communication-volume / reuse-
// distance cost function), subject to
//   * Farkas-linearized legality:   phi_dst(t) - phi_src(s) >= 0 on P_e,
//   * Farkas-linearized bounding:   u.n + w - (phi_dst - phi_src) >= 0,
//   * linear independence with already-found rows (orthogonal-complement
//     heuristic, like Pluto's),
// for every not-yet-satisfied real dependence. When the ILP is infeasible
// a scalar dimension (fusion cut) is inserted; *which* cut is the fusion
// policy's decision -- that is where wisefuse/smartfuse/nofuse/maxfuse
// differ. Policies may also enable the paper's Algorithm 2, which rejects
// outermost hyperplanes that carry an inter-SCC forward dependence and
// cuts precisely between the offending SCCs instead.
//
// Known restriction (same as Pluto's): coefficients are non-negative, so
// loop reversal is not found; none of the paper's benchmarks needs it.
#pragma once

#include "ddg/dependences.h"
#include "sched/policy.h"
#include "sched/schedule.h"

namespace pf::sched {

struct SchedulerOptions {
  /// Reduction self-dependences the scheduler may ignore during the
  /// hyperplane search (from analysis::analyze_reductions; see
  /// docs/reductions.md). Each is marked satisfied before the first
  /// level, so it contributes no legality constraint and triggers no
  /// cut; the resulting Schedule records it in relaxed_deps and enters
  /// it into carried_at with race semantics. Empty (the default) keeps
  /// the classic behavior, as does `--no-reductions`.
  std::vector<ir::ReductionDep> relaxed_deps;
};

/// Run the scheduler. Throws pf::Error if no legal schedule exists within
/// the non-negative-coefficient restriction (which cannot happen for
/// programs whose original execution order is itself expressible, i.e. all
/// PolyLang programs).
Schedule compute_schedule(const ir::Scop& scop,
                          const ddg::DependenceGraph& dg, FusionPolicy& policy,
                          const SchedulerOptions& options = {});

}  // namespace pf::sched
