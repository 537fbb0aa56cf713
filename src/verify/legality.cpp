// Check (a): lexicographic positivity of the schedule difference over
// every real dependence polyhedron.
//
// For dependence D with per-level differences delta_0 .. delta_{L-1}, the
// transformed program preserves D iff for every point of D the vector
// (delta_0, ..., delta_{L-1}) is lexicographically positive. Decided
// level by level on a shrinking residual:
//
//   R_0 = D
//   V_l = R_l /\ { delta_l <= -1 }   must be empty  (else: violated at l)
//   R_{l+1} = R_l /\ { delta_l == 0 }
//   R_L                              must be empty  (else: never satisfied)
//
// The residual R_l is exactly "instances still tied after levels < l", so
// V_l is the paper's "violated at level l" polyhedron. Once R_l is empty
// the dependence is strongly satisfied above l and deeper levels are
// unconstrained (loop reversal below a satisfied level is legal -- this
// is weaker, and more precise, than the scheduler's constructive
// per-level non-negativity).
#include <algorithm>

#include "support/trace.h"
#include "verify/internal.h"

namespace pf::verify {

namespace {

// delta <= -1, i.e. -delta - 1 >= 0.
poly::Constraint violated_half(const poly::AffineExpr& delta) {
  return poly::Constraint::ge0((-delta).plus_const(-1));
}

}  // namespace

Report check_legality(const ddg::DependenceGraph& dg,
                      const sched::Schedule& sch) {
  support::TraceSpan span("verify", "legality");
  Report report;
  const std::string problem = detail::structure_problem(dg, sch);
  if (!problem.empty()) {
    Finding f;
    f.kind = CheckKind::kMalformed;
    f.detail = problem;
    detail::add_finding(&report, std::move(f));
    return report;
  }

  for (std::size_t dep_index = 0; dep_index < dg.deps().size(); ++dep_index) {
    const ddg::Dependence& d = dg.deps()[dep_index];
    ++report.checked_deps;
    // A relaxed reduction self-dependence that the verifier's own matcher
    // re-proves (check_reductions / detail::reduction_confirmed) is
    // waived entirely: the accumulation commutes, so instances may run in
    // any order -- including tied at every level. An UNCONFIRMED relaxed
    // dependence gets no waiver and is judged like any other (and
    // check_reductions reports it besides). ReductionDep::dep_id is the
    // positional index into dg.deps(), not the display Dependence::id.
    if (sch.is_relaxed_dep(dep_index)) {
      const auto it = std::lower_bound(
          sch.relaxed_deps.begin(), sch.relaxed_deps.end(), dep_index,
          [](const ir::ReductionDep& rd, std::size_t id) {
            return rd.dep_id < id;
          });
      if (it != sch.relaxed_deps.end() && it->dep_id == dep_index &&
          detail::reduction_confirmed(dg, *it, nullptr)) {
        ++report.reduction_waivers;
        continue;
      }
    }
    poly::IntegerSet residual = d.poly;  // instances tied so far
    bool settled = false;
    for (std::size_t l = 0; l < sch.num_levels(); ++l) {
      const poly::AffineExpr delta = detail::level_diff(d, sch, l);
      poly::IntegerSet violated = residual;
      violated.add_constraint(violated_half(delta));
      if (!violated.is_empty()) {
        Finding f;
        f.kind = CheckKind::kLegality;
        f.dep_kind = d.kind;
        f.dep_id = d.id;
        f.src = d.src;
        f.dst = d.dst;
        f.level = l;
        f.detail = "schedule difference can reach " +
                   std::string("-1 or below with all outer levels tied");
        detail::add_finding(&report, std::move(f));
        settled = true;  // one precise diagnostic per dependence
        break;
      }
      residual.add_constraint(poly::Constraint::eq0(delta));
      if (residual.trivially_empty() || residual.is_empty()) {
        settled = true;  // strongly satisfied at or above l
        break;
      }
    }
    if (!settled) {
      // Some instance pair is tied at every level: the transformed
      // program leaves their order undefined.
      Finding f;
      f.kind = CheckKind::kUnsatisfied;
      f.dep_kind = d.kind;
      f.dep_id = d.id;
      f.src = d.src;
      f.dst = d.dst;
      detail::add_finding(&report, std::move(f));
    }
  }
  if (span.active()) {
    span.attr("deps", static_cast<i64>(report.checked_deps));
    span.attr("violations", static_cast<i64>(report.findings.size()));
  }
  return report;
}

}  // namespace pf::verify
