// Polyhedra-scanning code generation ("CLooG-lite").
//
// Turns (Scop, Schedule) into a loop AST:
//  * scalar levels become textual sequences (ordered by value),
//  * linear levels become loops; per-statement bounds are obtained by
//    Fourier-Motzkin projection of the transformed domain
//      { (t, i) : i in D_S, t_k == phi_k(i) for every linear level k }
//    onto [t_0..t_k, params],
//  * statements fused into one loop share the union of their spans
//    (min of lowers / max of uppers); statements whose span differs from
//    the union carry per-instance affine guards,
//  * original iterators are recovered by inverting the statement's linear
//    schedule rows -- the inverse must be integral (unimodular schedules;
//    the scheduler's small-coefficient objective delivers this, and
//    generation fails loudly otherwise),
//  * a loop is marked parallel when no dependence is carried at its level
//    for the statements under it; the outermost such loop of each nest is
//    flagged for `#pragma omp parallel for`.
#pragma once

#include "codegen/ast.h"
#include "sched/schedule.h"

namespace pf::codegen {

/// Generate the loop AST for a schedule. Projected bounds go through
/// LP-based redundant-constraint elimination. Throws pf::Error on
/// unsupported (non-unimodular) schedules.
AstPtr generate_ast(const ir::Scop& scop, const sched::Schedule& schedule);

}  // namespace pf::codegen
