// Check (b): static race detection over the emitted OpenMP annotations.
//
// Walks the generated AST -- the artifact the emitter prints pragmas
// from -- rather than the schedule's own parallelism bookkeeping. For a
// loop at schedule level L claiming `parallel`, two statement instances
// race iff they are distinct iterations of that loop within one iteration
// of every enclosing sequential level and a dependence connects them:
//
//   C = D  /\  { delta_k == 0 : k < L }  /\  { delta_L != 0 }
//
// IntegerSets are conjunctions, so the disequality splits into the
// delta_L >= 1 and delta_L <= -1 halves; a point in either is a concrete
// pair of iterations `#pragma omp parallel for` would run on different
// threads in an order the dependence forbids. The equalities run over
// *all* levels < L (scalar ones included): statements under one loop node
// share their scalar prefix, so those constraints are vacuous on
// well-formed ASTs, but on a corrupted AST they keep the check exact
// instead of crashing.
//
// Both the inner `parallel` claim and the emitter-facing `mark_parallel`
// hint are checked -- a loop wrongly claiming either is reported with the
// dependence kind, endpoints and level. Tiled ASTs verify unchanged:
// tile loops inherit the point loop's level and claim, and duplicate
// findings collapse in add_finding.
//
// Reduction-parallel loops (AstNode::reductions non-empty): a carried
// dependence is downgraded -- counted as a waiver, not a race -- iff it
// is a relaxed reduction self-dependence that the verifier's own matcher
// re-proves (detail::reduction_confirmed) AND the loop carries a clause
// with the matching (operator, array). Everything else still diagnoses:
// a non-commutative read-modify-write is never relaxed, so its carried
// self-dependence surfaces as a kRace finding here. Each clause is also
// checked for soundness of the privatization it implies: it must be
// backed by a confirmed accumulation under the loop, and no other
// statement under the loop may touch the privatized array (a stray
// reader would observe a thread-private partial value).
#include <algorithm>
#include <vector>

#include "support/trace.h"
#include "verify/internal.h"

namespace pf::verify {

namespace {

void collect_stmts(const codegen::AstNode& n, std::vector<bool>* under) {
  switch (n.kind) {
    case codegen::AstNode::Kind::kStmt:
      if (n.stmt < under->size()) (*under)[n.stmt] = true;
      break;
    case codegen::AstNode::Kind::kLoop:
      collect_stmts(*n.body, under);
      break;
    case codegen::AstNode::Kind::kBlock:
      for (const codegen::AstPtr& c : n.children) collect_stmts(*c, under);
      break;
  }
}

class RaceWalker {
 public:
  RaceWalker(const ddg::DependenceGraph& dg, const sched::Schedule& sch,
             Report* report)
      : dg_(dg), sch_(sch), report_(report) {}

  void walk(const codegen::AstNode& n) {
    switch (n.kind) {
      case codegen::AstNode::Kind::kLoop:
        if (n.parallel || n.mark_parallel) check_loop(n);
        walk(*n.body);
        break;
      case codegen::AstNode::Kind::kBlock:
        for (const codegen::AstPtr& c : n.children) walk(*c);
        break;
      case codegen::AstNode::Kind::kStmt:
        break;
    }
  }

 private:
  void check_loop(const codegen::AstNode& loop) {
    const std::size_t level = loop.level;
    if (level >= sch_.num_levels() || !sch_.level_linear[level]) {
      Finding f;
      f.kind = CheckKind::kMalformed;
      f.level = level;
      f.detail = "AST loop claims parallel at level " +
                 std::to_string(level) +
                 ", which is not a linear schedule level";
      detail::add_finding(report_, std::move(f));
      return;
    }
    std::vector<bool> under(sch_.num_statements(), false);
    collect_stmts(loop, &under);
    if (!loop.reductions.empty()) check_clauses(loop, under);

    for (std::size_t dep_index = 0; dep_index < dg_.deps().size();
         ++dep_index) {
      const ddg::Dependence& d = dg_.deps()[dep_index];
      if (!under[d.src] || !under[d.dst]) continue;
      ++report_->race_checks;
      // Same iteration of every enclosing level...
      poly::IntegerSet tied = d.poly;
      for (std::size_t k = 0; k < level && !tied.trivially_empty(); ++k)
        tied.add_constraint(
            poly::Constraint::eq0(detail::level_diff(d, sch_, k)));
      if (tied.trivially_empty()) continue;
      // ... but different iterations of this one.
      const poly::AffineExpr delta = detail::level_diff(d, sch_, level);
      poly::IntegerSet forward = tied;
      forward.add_constraint(poly::Constraint::ge0(delta.plus_const(-1)));
      poly::IntegerSet backward = std::move(tied);
      backward.add_constraint(poly::Constraint::ge0((-delta).plus_const(-1)));
      const bool fwd = !forward.is_empty();
      const bool bwd = !backward.is_empty();
      if (!fwd && !bwd) continue;
      if (clause_covered(loop, dep_index)) {
        ++report_->reduction_waivers;
        continue;
      }
      Finding f;
      f.kind = CheckKind::kRace;
      f.dep_kind = d.kind;
      f.dep_id = d.id;
      f.src = d.src;
      f.dst = d.dst;
      f.level = level;
      f.detail = std::string("loop iterations ") +
                 (fwd && bwd ? "in both directions"
                             : (fwd ? "ahead of the source"
                                    : "behind the source")) +
                 " touch the same location";
      detail::add_finding(report_, std::move(f));
    }
  }

  // Is the carried dependence `d` excused by a clause on `loop`? Only
  // when it is a relaxed reduction self-dependence, the verifier's own
  // matcher confirms the accumulation, and the clause agrees on
  // (operator, array).
  bool clause_covered(const codegen::AstNode& loop, std::size_t dep_index) {
    const auto it = std::lower_bound(
        sch_.relaxed_deps.begin(), sch_.relaxed_deps.end(), dep_index,
        [](const ir::ReductionDep& rd, std::size_t id) {
          return rd.dep_id < id;
        });
    if (it == sch_.relaxed_deps.end() || it->dep_id != dep_index) return false;
    for (const codegen::ReductionClause& rc : loop.reductions)
      if (rc.array_id == it->array_id && rc.op == it->op)
        return detail::reduction_confirmed(dg_, *it, nullptr);
    return false;
  }

  // Soundness of the privatization each clause implies: a confirmed
  // accumulation into the clause array must exist under the loop, and no
  // other statement under the loop may touch that array.
  void check_clauses(const codegen::AstNode& loop,
                     const std::vector<bool>& under) {
    const ir::Scop& scop = dg_.scop();
    for (const codegen::ReductionClause& rc : loop.reductions) {
      ++report_->reduction_checks;
      std::vector<bool> owner(sch_.num_statements(), false);
      bool any_owner = false;
      for (const ir::ReductionDep& rd : sch_.relaxed_deps) {
        if (rd.array_id != rc.array_id || rd.op != rc.op) continue;
        if (rd.stmt >= owner.size() || !under[rd.stmt]) continue;
        if (!detail::reduction_confirmed(dg_, rd, nullptr)) continue;
        owner[rd.stmt] = true;
        any_owner = true;
      }
      if (!any_owner) {
        Finding f;
        f.kind = CheckKind::kReduction;
        f.level = loop.level;
        f.detail = "reduction clause on array '" +
                   scop.array(rc.array_id).name +
                   "' is backed by no confirmed accumulation under the loop";
        detail::add_finding(report_, std::move(f));
        continue;
      }
      for (std::size_t s = 0; s < sch_.num_statements(); ++s) {
        if (!under[s] || owner[s]) continue;
        for (const ir::Access& a : scop.statement(s).accesses()) {
          if (a.array_id != rc.array_id) continue;
          Finding f;
          f.kind = CheckKind::kReduction;
          f.src = f.dst = s;
          f.level = loop.level;
          f.detail = "statement touches reduction-privatized array '" +
                     scop.array(rc.array_id).name + "'";
          detail::add_finding(report_, std::move(f));
          break;
        }
      }
    }
  }

  const ddg::DependenceGraph& dg_;
  const sched::Schedule& sch_;
  Report* report_;
};

}  // namespace

Report check_races(const ddg::DependenceGraph& dg, const sched::Schedule& sch,
                   const codegen::AstNode& ast) {
  support::TraceSpan span("verify", "races");
  Report report;
  const std::string problem = detail::structure_problem(dg, sch);
  if (!problem.empty()) {
    Finding f;
    f.kind = CheckKind::kMalformed;
    f.detail = problem;
    detail::add_finding(&report, std::move(f));
    return report;
  }
  RaceWalker walker(dg, sch, &report);
  walker.walk(ast);
  if (span.active()) {
    span.attr("race_checks", static_cast<i64>(report.race_checks));
    span.attr("violations", static_cast<i64>(report.findings.size()));
  }
  return report;
}

}  // namespace pf::verify
