// Independent schedule-legality verifier and static OpenMP race detector.
//
// The optimizer enforces legality *constructively* (the Pluto scheduler
// only emits Farkas-feasible hyperplanes) and marks loops parallel from
// its own carried-dependence bookkeeping. This subsystem re-proves both
// claims from first principles, without reusing the scheduler's code
// paths: every check builds a polyhedron directly from the final schedule
// matrices and the dependence polyhedra, and decides it with
// IntegerSet::is_empty.
//
// Three checks:
//
//  * Legality (check_legality): for every real dependence D with schedule
//    difference delta_l(x) = phi_dst,l - phi_src,l over the dependence
//    space, the "violated at level l" polyhedron
//        V_l = D  /\  { delta_k == 0 : k < l }  /\  { delta_l <= -1 }
//    must be empty at every level, and the residual
//        R = D  /\  { delta_k == 0 : all levels k }
//    must be empty too (every dependence instance pair is strongly
//    separated somewhere) -- together: lexicographic positivity of the
//    schedule difference over the whole dependence polyhedron.
//
//  * Static race detection (check_races): walks the *generated AST* (not
//    the schedule) and, for every loop the codegen marked parallel,
//    proves that no RAW/WAR/WAW dependence between statements under that
//    loop is carried by it:
//        C = D  /\  { delta_k == 0 : k < level }  /\  { |delta_level| >= 1 }
//    must be empty (split into the >= 1 and <= -1 halves). This is
//    exactly the condition under which `#pragma omp parallel for` is
//    race-free. Works on tiled ASTs too (tile loops inherit the point
//    loop's schedule level and parallel claim).
//
//  * Fusion partition order (check_partition): recomputes the outermost
//    fusion partition of every statement from the scalar schedule rows
//    and the SCCs of the statement-level dependence graph (Tarjan here;
//    the DDG itself uses Kosaraju -- an independent implementation), and
//    checks the Algorithms 1-2 postcondition: no SCC is split across
//    partitions and the partition sequence is a topological order of the
//    SCC condensation.
//
// Findings are structured (kind, dependence kind, statement pair, level)
// so tests can assert exact diagnostics; they are also emitted on the
// decision-remark channel (category "verify") and counted in the
// pipeline-wide stats (verify_checked_deps / verify_violations /
// verify_race_checks). Decisions are conservative: a capped ILP search
// that cannot prove emptiness reports a (possible) violation.
#pragma once

#include <string>
#include <vector>

#include "codegen/ast.h"
#include "ddg/dependences.h"
#include "sched/schedule.h"

namespace pf::verify {

enum class CheckKind {
  kLegality,     // dependence lexicographically violated at a level
  kUnsatisfied,  // dependence instances never strongly separated
  kRace,         // parallel-marked loop carries a dependence
  kPartition,    // fusion partition breaks the SCC condensation order
  kReduction,    // relaxed dependence is not a proven commutative
                 // accumulation, or a reduction clause is unsound
  kMalformed,    // schedule/AST structurally unusable for verification
};

const char* to_string(CheckKind k);

/// One verification failure, precise enough to act on: which dependence
/// (kind + endpoints), at which schedule level, and why.
struct Finding {
  CheckKind kind = CheckKind::kLegality;
  ddg::DepKind dep_kind = ddg::DepKind::kFlow;
  std::size_t dep_id = SIZE_MAX;  // index into DependenceGraph::deps()
  std::size_t src = SIZE_MAX;     // statement indices
  std::size_t dst = SIZE_MAX;
  std::size_t level = SIZE_MAX;   // schedule level (SIZE_MAX = n/a)
  std::string detail;

  /// "legality: flow dependence S1 -> S2 (dep #3) violated at level 1".
  std::string to_string(const ir::Scop* scop = nullptr) const;
};

struct Report {
  std::vector<Finding> findings;
  std::size_t checked_deps = 0;      // dependences legality-checked
  std::size_t race_checks = 0;       // (parallel loop, dependence) pairs
  std::size_t partition_checks = 0;  // SCCs + condensation edges checked
  std::size_t reduction_checks = 0;  // relaxed deps independently re-proven
  std::size_t reduction_waivers = 0; // legality/race checks waived because
                                     // the relaxed dep was re-proven

  bool ok() const { return findings.empty(); }
  std::size_t num_violations() const { return findings.size(); }
  void merge(Report other);
  /// Multi-line human-readable report (one line per finding + summary).
  std::string to_string(const ir::Scop* scop = nullptr) const;
  /// The one-line summary ("checked 12 dependence(s), ...: ok").
  std::string summary() const;
};

/// Check (a): lexicographic positivity of every real dependence under the
/// schedule. Needs only sch.rows / sch.level_linear (no scheduler
/// bookkeeping).
Report check_legality(const ddg::DependenceGraph& dg,
                      const sched::Schedule& sch);

/// Check (b): every AST loop claiming `parallel` (or `mark_parallel`)
/// carries no real dependence between the statements under it.
Report check_races(const ddg::DependenceGraph& dg, const sched::Schedule& sch,
                   const codegen::AstNode& ast);

/// Check (c): the outermost fusion partition is a valid topological order
/// of the DDG's SCC condensation and never splits an SCC.
Report check_partition(const ddg::DependenceGraph& dg,
                       const sched::Schedule& sch);

/// Check (d): every relaxed reduction self-dependence recorded in
/// sch.relaxed_deps is re-proven to be a genuine commutative accumulation
/// with the verifier's own matcher (verify/reductions.cpp -- deliberately
/// NOT analysis::match_reduction): the dependence must be a real
/// self-dependence of the claimed statement on its accumulator array, and
/// the statement body must be a chain of the claimed associative operator
/// whose only accumulator reference is the self-read of the written cell.
/// A relaxed dependence that fails the re-proof yields a kReduction
/// finding, and check_legality / check_races then judge it with no
/// waiver, so `--verify=strict` rejects bogus relaxations twice over.
Report check_reductions(const ddg::DependenceGraph& dg,
                        const sched::Schedule& sch);

/// Run every check. `ast` may be null (race check skipped --
/// e.g. when only the schedule exists). Emits one remark per finding and
/// a summary remark (category "verify") and feeds the verify_* stats
/// counters.
Report run_all(const ir::Scop& scop, const ddg::DependenceGraph& dg,
               const sched::Schedule& sch, const codegen::AstNode* ast);

}  // namespace pf::verify
