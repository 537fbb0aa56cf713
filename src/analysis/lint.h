// Static program lints over the polyhedral IR: exact correctness checks
// and performance diagnostics, computed before any transformation runs.
//
// Four lints (docs/analysis.md has the full story):
//
//  * Out-of-bounds access (error): for every access subscript, the
//    domain-and-context points where it falls below 0 or reaches the
//    declared extent. Exact: each violation polyhedron is decided by the
//    ILP and comes with a concrete witness iteration.
//
//  * Uninitialized read (error, `local` arrays only): read instances of
//    a scop-local array that no earlier write covers (memory-based
//    coverage from the DDG's flow dependences). For regular arrays the
//    same set is the scop's *live-in* region -- legitimate input, not
//    reported.
//
//  * Dead write (error for `local` arrays, warning otherwise): write
//    instances whose value no read ever consumes under value-based
//    dataflow. A local array has no live-out role, so every unused
//    write is dead; for a regular array the write must additionally be
//    overwritten later (classical dead store) -- an un-overwritten final
//    write is the scop's output.
//
//  * Performance diagnostics (perf severity, never affect the exit
//    code): accesses whose innermost-loop stride is not 0 or 1 in the
//    innermost array dimension (non-contiguous / transposed, in the
//    spirit of the "performance vocabulary" line of work), and
//    value-based producer/consumer pairs whose outermost-loop distance
//    is a nonzero constant (fusion needs a shift) or non-uniform
//    (fusion-blocking).
//
// Findings are structured so tests can assert exact diagnostics, land on
// the decision-remark channel as category "lint", and feed the lint_*
// stats counters. Everything runs serially over the deterministically
// merged dependence graph: output is byte-identical at every --jobs.
#pragma once

#include <string>
#include <vector>

#include "ddg/dependences.h"
#include "ir/scop.h"

namespace pf::analysis {

enum class LintKind {
  kOutOfBounds,     // access can leave the declared extents
  kUninitRead,      // local-array read no write defined
  kDeadWrite,       // written value never consumed
  kNonContiguous,   // innermost-loop stride breaks spatial locality
  kFusionDistance,  // producer/consumer distance hinders fusion
};

enum class Severity {
  kError,    // correctness: --lint=strict exits 1
  kWarning,  // suspicious but defensible: reported, never fatal
  kPerf,     // performance diagnostic: reported, never fatal
};

const char* to_string(LintKind k);
const char* to_string(Severity s);

/// One lint finding, precise enough to assert in a test: which
/// statement, array, access and subscript dim / loop level, plus a
/// human-readable detail with a concrete witness point where one exists.
struct LintFinding {
  LintKind kind = LintKind::kOutOfBounds;
  Severity severity = Severity::kError;
  std::size_t stmt = SIZE_MAX;    // statement index
  std::size_t stmt2 = SIZE_MAX;   // consumer statement (fusion distance)
  std::size_t array = SIZE_MAX;   // array id
  std::size_t access = SIZE_MAX;  // access index within the statement
  std::size_t dim = SIZE_MAX;     // subscript dim, or loop level
  std::string detail;

  /// "error out-of-bounds S1 a (dim 0): ..." -- names resolved when a
  /// scop is supplied.
  std::string to_string(const ir::Scop* scop = nullptr) const;
};

struct LintReport {
  std::vector<LintFinding> findings;
  std::size_t checked_accesses = 0;  // accesses bounds/coverage-checked
  std::size_t value_flows = 0;       // value-based flows computed

  std::size_t num_errors() const;
  std::size_t num_warnings() const;
  std::size_t num_perf() const;
  /// No *error* findings (warnings and perf notes do not fail a lint).
  bool ok() const { return num_errors() == 0; }

  /// Multi-line report: one line per finding plus the summary.
  std::string to_string(const ir::Scop* scop = nullptr) const;
  /// "lint: checked N access(es), M value flow(s): ok" or the counts.
  std::string summary() const;
};

/// Run every lint. `dg` must be the memory-based dependence
/// graph of `scop`. Emits one remark per finding plus a summary remark
/// (category "lint") and feeds the lint_* stats counters.
LintReport run_lint(const ir::Scop& scop, const ddg::DependenceGraph& dg);

}  // namespace pf::analysis
