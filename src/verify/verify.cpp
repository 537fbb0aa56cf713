#include "verify/verify.h"

#include <sstream>

#include "support/budget.h"
#include "support/metrics.h"
#include "support/strings.h"
#include "support/trace.h"
#include "verify/internal.h"

namespace pf::verify {

const char* to_string(CheckKind k) {
  switch (k) {
    case CheckKind::kLegality:
      return "legality";
    case CheckKind::kUnsatisfied:
      return "unsatisfied";
    case CheckKind::kRace:
      return "race";
    case CheckKind::kPartition:
      return "partition";
    case CheckKind::kReduction:
      return "reduction";
    case CheckKind::kMalformed:
      return "malformed";
  }
  return "?";
}

namespace detail {

std::string structure_problem(const ddg::DependenceGraph& dg,
                              const sched::Schedule& sch) {
  const ir::Scop& scop = dg.scop();
  if (sch.scop != &scop) return "schedule was built for a different scop";
  if (sch.num_statements() != scop.num_statements())
    return "schedule has " + std::to_string(sch.num_statements()) +
           " statement(s), scop has " +
           std::to_string(scop.num_statements());
  for (std::size_t s = 0; s < sch.num_statements(); ++s) {
    if (sch.rows[s].size() != sch.num_levels())
      return "statement " + scop.statement(s).name() + " has " +
             std::to_string(sch.rows[s].size()) + " schedule row(s), " +
             "expected " + std::to_string(sch.num_levels());
    const std::size_t want = scop.statement(s).dim() + scop.num_params();
    for (const poly::AffineExpr& row : sch.rows[s])
      if (row.dims() != want)
        return "schedule row of " + scop.statement(s).name() +
               " lives in a " + std::to_string(row.dims()) +
               "-d space, statement space is " + std::to_string(want) + "-d";
  }
  for (const ddg::Dependence& d : dg.deps())
    if (d.src >= sch.num_statements() || d.dst >= sch.num_statements())
      return "dependence #" + std::to_string(d.id) +
             " references a statement outside the schedule";
  return "";
}

void add_finding(Report* report, Finding f) {
  for (const Finding& o : report->findings)
    if (o.kind == f.kind && o.dep_id == f.dep_id && o.src == f.src &&
        o.dst == f.dst && o.level == f.level)
      return;
  report->findings.push_back(std::move(f));
}

}  // namespace detail

std::string Finding::to_string(const ir::Scop* scop) const {
  auto stmt_name = [&](std::size_t s) {
    if (scop != nullptr && s < scop->num_statements())
      return scop->statement(s).name();
    return s == SIZE_MAX ? std::string("?") : concat("#", std::to_string(s));
  };
  std::ostringstream os;
  os << verify::to_string(kind) << ": ";
  if (kind == CheckKind::kMalformed) {
    os << detail;
    return os.str();
  }
  if (src != SIZE_MAX || dst != SIZE_MAX) {
    if (dep_id != SIZE_MAX) os << ddg::to_string(dep_kind) << " dependence ";
    os << stmt_name(src) << " -> " << stmt_name(dst);
    if (dep_id != SIZE_MAX) os << " (dep #" << dep_id << ")";
    os << " ";
  }
  switch (kind) {
    case CheckKind::kLegality:
      os << "violated at level " << level;
      break;
    case CheckKind::kUnsatisfied:
      os << "never strongly satisfied (schedule difference identically "
            "zero on some instances)";
      break;
    case CheckKind::kRace:
      os << "carried by loop marked parallel at level " << level;
      break;
    case CheckKind::kPartition:
      break;  // detail carries the full story
    case CheckKind::kReduction:
      os << "relaxed as a reduction but not re-proven";
      break;
    case CheckKind::kMalformed:
      break;
  }
  if (!detail.empty()) {
    if (kind != CheckKind::kPartition) os << " (";
    os << detail;
    if (kind != CheckKind::kPartition) os << ")";
  }
  return os.str();
}

void Report::merge(Report other) {
  for (Finding& f : other.findings) detail::add_finding(this, std::move(f));
  checked_deps += other.checked_deps;
  race_checks += other.race_checks;
  partition_checks += other.partition_checks;
  reduction_checks += other.reduction_checks;
  reduction_waivers += other.reduction_waivers;
}

std::string Report::summary() const {
  std::ostringstream os;
  os << "checked " << checked_deps << " dependence(s), " << race_checks
     << " race check(s), " << partition_checks << " partition check(s)";
  // Mentioned only when reductions are in play, so classic runs keep
  // their exact summary line.
  if (reduction_checks != 0 || reduction_waivers != 0)
    os << ", " << reduction_checks << " reduction check(s), "
       << reduction_waivers << " waiver(s)";
  os << ": ";
  if (ok())
    os << "ok";
  else
    os << findings.size() << " violation(s)";
  return os.str();
}

std::string Report::to_string(const ir::Scop* scop) const {
  std::ostringstream os;
  for (const Finding& f : findings)
    os << "verify: VIOLATION " << f.to_string(scop) << "\n";
  os << "verify: " << summary() << "\n";
  return os.str();
}

Report run_all(const ir::Scop& scop, const ddg::DependenceGraph& dg,
               const sched::Schedule& sch, const codegen::AstNode* ast) {
  support::TraceSpan span("verify", "run_all");
  // The verifier is a must-complete checker: a conservative (budgeted)
  // is_empty would fabricate "violations" that do not exist, so it always
  // runs with the budget suspended.
  support::BudgetSuspend budget_suspend;
  Report report;
  PF_CHECK_MSG(sch.scop == &scop || sch.scop == nullptr,
               "schedule built for another scop");
  const std::string problem = detail::structure_problem(dg, sch);
  if (!problem.empty()) {
    Finding f;
    f.kind = CheckKind::kMalformed;
    f.detail = problem;
    detail::add_finding(&report, std::move(f));
  } else {
    if (!sch.relaxed_deps.empty()) report.merge(check_reductions(dg, sch));
    report.merge(check_legality(dg, sch));
    if (ast != nullptr) report.merge(check_races(dg, sch, *ast));
    report.merge(check_partition(dg, sch));
  }

  support::count(support::Counter::kVerifyCheckedDeps,
                 static_cast<i64>(report.checked_deps));
  support::count(support::Counter::kVerifyRaceChecks,
                 static_cast<i64>(report.race_checks));
  support::count(support::Counter::kVerifyReductionChecks,
                 static_cast<i64>(report.reduction_checks));
  support::count(support::Counter::kVerifyReductionWaivers,
                 static_cast<i64>(report.reduction_waivers));
  support::count(support::Counter::kVerifyViolations,
                 static_cast<i64>(report.findings.size()));
  if (span.active()) {
    span.attr("checked_deps", static_cast<i64>(report.checked_deps));
    span.attr("race_checks", static_cast<i64>(report.race_checks));
    span.attr("reduction_waivers",
              static_cast<i64>(report.reduction_waivers));
    span.attr("violations", static_cast<i64>(report.findings.size()));
  }
  if (support::Tracer::remarks_on()) {
    for (const Finding& f : report.findings)
      support::remark("verify", "violation: " + f.to_string(&scop),
                      {{"kind", to_string(f.kind)},
                       {"level", f.level == SIZE_MAX
                                     ? std::string("-")
                                     : std::to_string(f.level)}});
    support::remark(
        "verify", report.summary(),
        {{"checked_deps", std::to_string(report.checked_deps)},
         {"race_checks", std::to_string(report.race_checks)},
         {"partition_checks", std::to_string(report.partition_checks)},
         {"violations", std::to_string(report.findings.size())}});
  }
  return report;
}

}  // namespace pf::verify
