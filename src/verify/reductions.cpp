// Check (d): re-prove every relaxed reduction self-dependence.
//
// The scheduler is allowed to ignore self-dependences that the analysis
// pass (analysis/reductions.cpp) claims belong to an associative,
// commutative accumulation. Those claims travel with the schedule
// (sched::Schedule::relaxed_deps) and this pass re-derives each one from
// the statement bodies and the dependence graph alone, with its own
// expression matcher -- pf_verify does not link pf_analysis, so a bug in
// the analysis matcher cannot vouch for itself.
//
// A claim `(dep, stmt, array, op)` is CONFIRMED when
//   * dep is in range and is a real self-dependence stmt -> stmt,
//   * both of its access endpoints are on `array`, which is the array the
//     statement writes,
//   * the statement body is a chain of `op` (`+` / `*` as binary
//     operators, `min` / `max` as nested two-argument fmin/fmax calls)
//     over at least two leaves, exactly one leaf is the self-read of the
//     written cell, and no other leaf touches the accumulator array.
// Under these conditions every instance of `stmt` performs
//   A[f(i)] = A[f(i)] op e(i)   with e independent of A,
// so any execution order of the tied instances folds the same multiset of
// operands into each cell with an associative commutative operator --
// ignoring the self-dependence preserves the result (integer semantics;
// floating-point reassociation is the user-visible contract of
// reductions, exactly as with `#pragma omp reduction`).
//
// Confirmed claims make check_legality waive the dependence entirely and
// make check_races downgrade clause-covered carried deps; an unconfirmed
// claim yields a kReduction finding here AND loses every waiver there, so
// `--verify=strict` fails on injected bogus relaxations.
#include <string>
#include <vector>

#include "support/trace.h"
#include "verify/internal.h"

namespace pf::verify {

namespace {

using ir::ReductionOp;

// Is `e` an interior node of an `op` chain?
bool chain_node(const ir::Expr& e, ReductionOp op) {
  using K = ir::Expr::Kind;
  switch (op) {
    case ReductionOp::kSum:
      return e.kind == K::kBinary && e.op == ir::BinOp::kAdd;
    case ReductionOp::kProd:
      return e.kind == K::kBinary && e.op == ir::BinOp::kMul;
    case ReductionOp::kMin:
      return e.kind == K::kCall && e.callee == "fmin" && e.args.size() == 2;
    case ReductionOp::kMax:
      return e.kind == K::kCall && e.callee == "fmax" && e.args.size() == 2;
  }
  return false;
}

void chain_leaves(const ir::Expr& e, ReductionOp op,
                  std::vector<const ir::Expr*>* out) {
  if (chain_node(e, op)) {
    if (e.kind == ir::Expr::Kind::kBinary) {
      chain_leaves(*e.lhs, op, out);
      chain_leaves(*e.rhs, op, out);
    } else {
      chain_leaves(*e.args[0], op, out);
      chain_leaves(*e.args[1], op, out);
    }
    return;
  }
  out->push_back(&e);
}

bool references_array(const ir::Expr& e, std::size_t array_id) {
  if (e.kind == ir::Expr::Kind::kAccess && e.array_id == array_id) return true;
  if (e.lhs && references_array(*e.lhs, array_id)) return true;
  if (e.rhs && references_array(*e.rhs, array_id)) return true;
  if (e.operand && references_array(*e.operand, array_id)) return true;
  for (const ir::ExprPtr& a : e.args)
    if (references_array(*a, array_id)) return true;
  return false;
}

// The statement body is `acc op e1 op e2 ...` where acc is the self-read
// of the written cell and no ei touches the accumulator array.
bool body_is_accumulation(const ir::Statement& s, ReductionOp op,
                          std::string* why) {
  const ir::Access& w = s.write();
  std::vector<const ir::Expr*> leaves;
  chain_leaves(*s.body(), op, &leaves);
  if (leaves.size() < 2) {
    if (why != nullptr)
      *why = std::string("body is not a chain of '") + ir::to_string(op) +
             "' with at least two operands";
    return false;
  }
  std::size_t self_reads = 0;
  for (const ir::Expr* leaf : leaves) {
    if (leaf->kind == ir::Expr::Kind::kAccess &&
        leaf->array_id == w.array_id &&
        leaf->subscripts_resolved == w.subscripts) {
      ++self_reads;
      continue;
    }
    if (references_array(*leaf, w.array_id)) {
      if (why != nullptr)
        *why = "an operand other than the self-read touches the "
               "accumulator array";
      return false;
    }
  }
  if (self_reads != 1) {
    if (why != nullptr)
      *why = "expected exactly one self-read of the written cell, found " +
             std::to_string(self_reads);
    return false;
  }
  return true;
}

}  // namespace

namespace detail {

bool reduction_confirmed(const ddg::DependenceGraph& dg,
                         const ir::ReductionDep& rd, std::string* why) {
  if (rd.dep_id >= dg.deps().size()) {
    if (why != nullptr) *why = "dependence id out of range";
    return false;
  }
  const ddg::Dependence& d = dg.deps()[rd.dep_id];
  if (!d.is_real() || d.src != d.dst || d.src != rd.stmt) {
    if (why != nullptr)
      *why = "not a real self-dependence of the claimed statement";
    return false;
  }
  const ir::Scop& scop = dg.scop();
  if (rd.stmt >= scop.num_statements()) {
    if (why != nullptr) *why = "statement index out of range";
    return false;
  }
  const ir::Statement& s = scop.statement(rd.stmt);
  if (s.write().array_id != rd.array_id) {
    if (why != nullptr)
      *why = "statement does not write the claimed accumulator array";
    return false;
  }
  if (s.accesses()[d.src_access].array_id != rd.array_id ||
      s.accesses()[d.dst_access].array_id != rd.array_id) {
    if (why != nullptr)
      *why = "dependence is not on the accumulator array";
    return false;
  }
  return body_is_accumulation(s, rd.op, why);
}

}  // namespace detail

Report check_reductions(const ddg::DependenceGraph& dg,
                        const sched::Schedule& sch) {
  support::TraceSpan span("verify", "reductions");
  Report report;
  const std::string problem = detail::structure_problem(dg, sch);
  if (!problem.empty()) {
    Finding f;
    f.kind = CheckKind::kMalformed;
    f.detail = problem;
    detail::add_finding(&report, std::move(f));
    return report;
  }
  for (const ir::ReductionDep& rd : sch.relaxed_deps) {
    ++report.reduction_checks;
    std::string why;
    if (detail::reduction_confirmed(dg, rd, &why)) continue;
    Finding f;
    f.kind = CheckKind::kReduction;
    if (rd.dep_id < dg.deps().size()) {
      // Findings display the global Dependence::id; rd.dep_id is the
      // positional index into dg.deps().
      f.dep_id = dg.deps()[rd.dep_id].id;
      f.dep_kind = dg.deps()[rd.dep_id].kind;
      f.src = dg.deps()[rd.dep_id].src;
      f.dst = dg.deps()[rd.dep_id].dst;
    } else {
      f.dep_id = rd.dep_id;
      f.src = f.dst = rd.stmt;
    }
    f.detail = why;
    detail::add_finding(&report, std::move(f));
  }
  if (span.active()) {
    span.attr("reduction_checks", static_cast<i64>(report.reduction_checks));
    span.attr("violations", static_cast<i64>(report.findings.size()));
  }
  return report;
}

}  // namespace pf::verify
