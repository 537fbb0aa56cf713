#include "analysis/lint.h"

#include <algorithm>
#include <sstream>

#include "ddg/dataflow.h"
#include "support/budget.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/strings.h"
#include "support/trace.h"

namespace pf::analysis {

using ddg::Dataflow;
using ddg::ReadCover;
using ddg::ValueFlow;
using ddg::WriteLiveness;
using poly::AffineExpr;
using poly::Constraint;
using poly::IntegerSet;
using poly::SetUnion;

const char* to_string(LintKind k) {
  switch (k) {
    case LintKind::kOutOfBounds:
      return "out-of-bounds";
    case LintKind::kUninitRead:
      return "uninitialized-read";
    case LintKind::kDeadWrite:
      return "dead-write";
    case LintKind::kNonContiguous:
      return "noncontiguous-access";
    case LintKind::kFusionDistance:
      return "fusion-distance";
  }
  return "?";
}

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kPerf:
      return "perf";
  }
  return "?";
}

std::string LintFinding::to_string(const ir::Scop* scop) const {
  std::ostringstream os;
  os << analysis::to_string(severity) << " " << analysis::to_string(kind);
  if (stmt != SIZE_MAX) {
    os << " "
       << (scop ? scop->statement(stmt).name()
                : concat("S", std::to_string(stmt)));
    if (stmt2 != SIZE_MAX)
      os << " -> "
         << (scop ? scop->statement(stmt2).name()
                  : concat("S", std::to_string(stmt2)));
  }
  if (array != SIZE_MAX)
    os << " "
       << (scop ? scop->array(array).name : concat("a", std::to_string(array)));
  if (dim != SIZE_MAX) os << " (dim " << dim << ")";
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

std::size_t LintReport::num_errors() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const LintFinding& f) {
        return f.severity == Severity::kError;
      }));
}

std::size_t LintReport::num_warnings() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const LintFinding& f) {
        return f.severity == Severity::kWarning;
      }));
}

std::size_t LintReport::num_perf() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const LintFinding& f) {
        return f.severity == Severity::kPerf;
      }));
}

std::string LintReport::summary() const {
  std::ostringstream os;
  os << "lint: checked " << checked_accesses << " access(es), " << value_flows
     << " value flow(s): ";
  if (findings.empty()) {
    os << "ok";
  } else {
    os << num_errors() << " error(s), " << num_warnings() << " warning(s), "
       << num_perf() << " perf note(s)";
  }
  return os.str();
}

std::string LintReport::to_string(const ir::Scop* scop) const {
  std::ostringstream os;
  for (const LintFinding& f : findings)
    os << "lint: " << f.to_string(scop) << "\n";
  os << summary() << "\n";
  return os.str();
}

namespace {

/// domain(s) restricted to the parameter context, over [iters, params].
IntegerSet domain_in_context(const ir::Scop& scop, const ir::Statement& s) {
  IntegerSet dc = s.domain();
  dc.intersect(scop.context().insert_dims(0, s.dim()));
  return dc;
}

/// " at i=0 j=5 N=8" for a witness point, or "" if none was found.
std::string witness(const IntegerSet& region,
                    const std::vector<std::string>& names) {
  const auto point = region.sample_point();
  if (!point) return "";
  std::ostringstream os;
  os << " at";
  for (std::size_t k = 0; k < point->size(); ++k)
    os << " " << (k < names.size() ? names[k] : concat("x", std::to_string(k)))
       << "="
       << (*point)[k];
  return os.str();
}

std::string witness(const SetUnion& region,
                    const std::vector<std::string>& names) {
  for (const IntegerSet& d : region.disjuncts()) {
    std::string w = witness(d, names);
    if (!w.empty()) return w;
  }
  return "";
}

void check_bounds(const ir::Scop& scop, LintReport* report) {
  for (const ir::Statement& s : scop.statements()) {
    const IntegerSet dom = domain_in_context(scop, s);
    const std::vector<std::string> names = scop.space_names(s);
    const std::size_t m = s.dim();
    for (std::size_t x = 0; x < s.accesses().size(); ++x) {
      const ir::Access& acc = s.accesses()[x];
      ++report->checked_accesses;
      const ir::Array& arr = scop.array(acc.array_id);
      for (std::size_t d = 0; d < acc.subscripts.size(); ++d) {
        const AffineExpr& sub = acc.subscripts[d];
        const AffineExpr extent =
            arr.extents[d].resolve(scop.params()).insert_dims(0, m);

        IntegerSet below = dom;  // sub <= -1
        below.add_constraint(Constraint::ge0((-sub).plus_const(-1)));
        IntegerSet above = dom;  // sub >= extent
        above.add_constraint(Constraint::ge0(sub - extent));

        for (const auto& [region, what] :
             {std::make_pair(below, "below 0"),
              std::make_pair(above, "beyond the extent")}) {
          if (region.is_empty()) continue;
          LintFinding f;
          f.kind = LintKind::kOutOfBounds;
          f.severity = Severity::kError;
          f.stmt = s.index();
          f.array = acc.array_id;
          f.access = x;
          f.dim = d;
          std::ostringstream det;
          det << (acc.is_write ? "write" : "read") << " subscript "
              << sub.to_string(names) << " can fall " << what << " (extent "
              << arr.extents[d].to_string() << ")"
              << witness(region, names);
          f.detail = det.str();
          report->findings.push_back(std::move(f));
        }
      }
    }
  }
}

void check_uninit(const ir::Scop& scop, const Dataflow& df,
                  LintReport* report) {
  for (const ReadCover& rc : df.covers) {
    const ir::Statement& s = scop.statement(rc.stmt);
    const ir::Access& acc = s.accesses()[rc.access];
    const ir::Array& arr = scop.array(acc.array_id);
    // For a regular array the uncovered reads are the live-in set --
    // legitimate input. Only a `local` array has no initial contents.
    if (!arr.is_local) continue;
    if (rc.uncovered.trivially_empty() || rc.uncovered.is_empty())
      continue;
    const std::vector<std::string> names = scop.space_names(s);
    LintFinding f;
    f.kind = LintKind::kUninitRead;
    f.severity = Severity::kError;
    f.stmt = rc.stmt;
    f.array = acc.array_id;
    f.access = rc.access;
    std::ostringstream det;
    det << "read of local array cell no write defined, instances "
        << rc.uncovered.to_string(names)
        << witness(rc.uncovered, names);
    f.detail = det.str();
    report->findings.push_back(std::move(f));
  }
}

void check_dead(const ir::Scop& scop, const Dataflow& df,
                LintReport* report) {
  for (const WriteLiveness& wl : df.writes) {
    const ir::Statement& s = scop.statement(wl.stmt);
    const ir::Array& arr = scop.array(s.write().array_id);
    // Local arrays have no live-out: any unused write is dead. Regular
    // arrays are outputs: a write is only dead if also overwritten.
    SetUnion dead =
        arr.is_local ? wl.unused : wl.unused.intersect(wl.killed);
    dead.coalesce();
    if (dead.trivially_empty()) continue;
    const std::vector<std::string> names = scop.space_names(s);
    LintFinding f;
    f.kind = LintKind::kDeadWrite;
    f.severity = arr.is_local ? Severity::kError : Severity::kWarning;
    f.stmt = wl.stmt;
    f.array = s.write().array_id;
    f.access = 0;
    std::ostringstream det;
    det << (arr.is_local
                ? "written value never read (local array has no live-out)"
                : "written value overwritten before any read")
        << ", instances " << dead.to_string(names)
        << witness(dead, names);
    f.detail = det.str();
    report->findings.push_back(std::move(f));
  }
}

void check_contiguity(const ir::Scop& scop, LintReport* report) {
  for (const ir::Statement& s : scop.statements()) {
    const std::size_t m = s.dim();
    if (m == 0) continue;
    const std::size_t inner = m - 1;  // innermost iterator position
    const std::vector<std::string> names = scop.space_names(s);
    for (std::size_t x = 0; x < s.accesses().size(); ++x) {
      const ir::Access& acc = s.accesses()[x];
      if (acc.subscripts.empty()) continue;
      const std::size_t rank = acc.subscripts.size();
      // Row-major: only the last subscript is stride-1.
      std::size_t outer_dim = SIZE_MAX;
      for (std::size_t d = 0; d + 1 < rank; ++d)
        if (acc.subscripts[d].coeff(inner) != 0) {
          outer_dim = d;
          break;
        }
      const i64 c_last = acc.subscripts[rank - 1].coeff(inner);
      LintFinding f;
      f.kind = LintKind::kNonContiguous;
      f.severity = Severity::kPerf;
      f.stmt = s.index();
      f.array = acc.array_id;
      f.access = x;
      std::ostringstream det;
      if (outer_dim != SIZE_MAX) {
        f.dim = outer_dim;
        det << "innermost iterator " << names[inner]
            << " indexes a non-innermost array dimension "
               "(transposed/column-major walk; row-major stride is the "
               "extent product)";
      } else if (c_last != 0 && c_last != 1 && c_last != -1) {
        f.dim = rank - 1;
        det << "innermost-loop stride " << c_last
            << " in the contiguous dimension";
      } else {
        continue;  // contiguous (stride 1) or loop-invariant (stride 0)
      }
      f.detail = det.str();
      report->findings.push_back(std::move(f));
    }
  }
}

void check_fusion_distance(const ir::Scop& scop, const Dataflow& df,
                           LintReport* report) {
  for (const ValueFlow& vf : df.flows) {
    if (vf.src == vf.dst) continue;  // recurrences are not a fusion issue
    if (vf.src_dim == 0 || vf.dst_dim == 0) continue;
    const std::size_t total = vf.src_dim + vf.dst_dim + vf.num_params;
    // Outermost-loop distance t0 - s0 over the value-based flow.
    const AffineExpr delta = AffineExpr::var(total, vf.src_dim) -
                             AffineExpr::var(total, 0);
    bool unbounded = false, unknown = false;
    bool have = false;
    i64 lo = 0, hi = 0;
    for (const IntegerSet& d : vf.poly.disjuncts()) {
      const auto mn = d.integer_min(delta);
      const auto mx = d.integer_max(delta);
      if (mn.kind == IntegerSet::Opt::kEmpty ||
          mx.kind == IntegerSet::Opt::kEmpty)
        continue;
      if (mn.kind == IntegerSet::Opt::kUnbounded ||
          mx.kind == IntegerSet::Opt::kUnbounded) {
        unbounded = true;
        continue;
      }
      if (mn.kind != IntegerSet::Opt::kOk || mx.kind != IntegerSet::Opt::kOk) {
        unknown = true;
        continue;
      }
      lo = have ? std::min(lo, mn.value) : mn.value;
      hi = have ? std::max(hi, mx.value) : mx.value;
      have = true;
    }
    if (unknown && !have && !unbounded) continue;
    if (!have && !unbounded) continue;
    if (have && !unbounded && lo == 0 && hi == 0)
      continue;  // aligned producer/consumer: fusion-friendly
    LintFinding f;
    f.kind = LintKind::kFusionDistance;
    f.severity = Severity::kPerf;
    f.stmt = vf.src;
    f.stmt2 = vf.dst;
    f.array = scop.statement(vf.dst).accesses()[vf.dst_access].array_id;
    f.access = vf.dst_access;
    f.dim = 0;  // outermost loop level
    std::ostringstream det;
    if (unbounded)
      det << "unbounded producer/consumer distance at the outermost loop "
             "(all-to-all reuse): fusion is blocked";
    else if (lo == hi)
      det << "constant producer/consumer distance " << lo
          << " at the outermost loop: fusion needs a shift/peel of "
          << (lo < 0 ? -lo : lo) << " iteration(s)";
    else
      det << "non-uniform producer/consumer distance [" << lo << ", " << hi
          << "] at the outermost loop: fusion of the pair is hindered";
    f.detail = det.str();
    report->findings.push_back(std::move(f));
  }
}

}  // namespace

LintReport run_lint(const ir::Scop& scop, const ddg::DependenceGraph& dg) {
  support::TraceSpan span("analysis", "run_lint");
  // Must-complete checker: budgeted (conservative) polyhedral answers
  // would turn into phantom findings, so the linter always runs exact.
  support::BudgetSuspend budget_suspend;
  PF_CHECK_MSG(&dg.scop() == &scop, "dependence graph built for another scop");
  LintReport report;

  check_bounds(scop, &report);

  const std::shared_ptr<const Dataflow> df = dg.dataflow();
  report.value_flows = df->flows.size();
  check_uninit(scop, *df, &report);
  check_dead(scop, *df, &report);
  check_contiguity(scop, &report);
  check_fusion_distance(scop, *df, &report);

  support::count(support::Counter::kLintCheckedAccesses,
                 static_cast<i64>(report.checked_accesses));
  support::count(support::Counter::kLintValueFlows,
                 static_cast<i64>(report.value_flows));
  support::count(support::Counter::kLintFindings,
                 static_cast<i64>(report.findings.size()));
  support::count(support::Counter::kLintErrors,
                 static_cast<i64>(report.num_errors()));
  if (span.active()) {
    span.attr("checked_accesses", static_cast<i64>(report.checked_accesses));
    span.attr("value_flows", static_cast<i64>(report.value_flows));
    span.attr("findings", static_cast<i64>(report.findings.size()));
  }
  if (support::Tracer::remarks_on()) {
    for (const LintFinding& f : report.findings)
      support::remark("lint", f.to_string(&scop),
                      {{"kind", analysis::to_string(f.kind)},
                       {"severity", analysis::to_string(f.severity)}});
    support::remark("lint", report.summary(),
                    {{"checked_accesses",
                      std::to_string(report.checked_accesses)},
                     {"value_flows", std::to_string(report.value_flows)},
                     {"errors", std::to_string(report.num_errors())},
                     {"findings", std::to_string(report.findings.size())}});
  }
  return report;
}

}  // namespace pf::analysis
