// Static reduction & privatization classification.
//
// Reductions: a statement is an associative reduction when its body is a
// chain of one commutative operator (`+`, `*`, `fmin`, `fmax`) in which
// exactly one leaf re-reads the written cell (same array, same affine
// subscripts) and no other subexpression touches the accumulator array.
// Every real self-dependence of such a statement connects the write to
// that one self-read, so reordering the accumulation chain is legal
// modulo floating-point rounding (exact for integer-valued data): those
// self-dependences are *relaxable* -- the scheduler may ignore them when
// searching hyperplanes, provided codegen re-serializes the combination
// with an OpenMP `reduction(op:var)` clause (docs/reductions.md,
// following Doerfert et al., "Polly's Polyhedral Scheduling in the
// Presence of Reductions").
//
// Privatization: from the Feautrier value-based dataflow (ddg/dataflow.h), a
// `local` array is privatizable at depth k when none of its reads
// observes initial contents and every value flow into it is tied in the
// first k loop dimensions of producer and consumer -- each iteration of
// the outer k loops could own a private copy. Reported for diagnostics
// only; no transformation consumes it yet.
//
// Determinism: everything here iterates statements, dependences and
// flows in index order over the deterministically-merged dependence
// graph, so reports, remarks and counters are byte-identical at every
// --jobs count.
#pragma once

#include <string>
#include <vector>

#include "ddg/dependences.h"
#include "ir/reduction.h"
#include "ir/scop.h"

namespace pf::analysis {

/// One statement classified as an associative/commutative reduction.
struct ReductionStatement {
  std::size_t stmt = 0;
  ir::ReductionOp op = ir::ReductionOp::kSum;
  std::size_t array_id = 0;    // the accumulator
  std::size_t self_deps = 0;   // real self-dependences (the relaxable set)
};

/// One array whose value flows are iteration-private at some depth.
struct PrivatizableArray {
  std::size_t array_id = 0;
  /// Largest k such that every value flow on the array is tied in the
  /// first k loop dimensions of both endpoints (k >= 1 to be reported).
  std::size_t depth = 0;
};

struct ReductionInfo {
  std::vector<ReductionStatement> statements;   // by statement index
  std::vector<ir::ReductionDep> relaxable;      // by dependence id
  std::vector<PrivatizableArray> privatizable;  // by array id
  /// True when a budget fault or injected failure emptied the info --
  /// the sound degradation: nothing is relaxed, nothing is claimed.
  bool degraded = false;
};

struct ReductionOptions {
  /// Skip the (dataflow-based) privatization half; the reduction half
  /// is pure structure matching and always runs.
  bool privatization = true;
};

/// Classify reductions and privatizable arrays. Charges fuel at budget
/// site `analysis.reductions`; throws BudgetExceeded on exhaustion or
/// injection.
ReductionInfo analyze_reductions(const ir::Scop& scop,
                                 const ddg::DependenceGraph& dg,
                                 const ReductionOptions& options = {});

/// Like analyze_reductions, but degrades a budget fault into the empty
/// (sound: nothing relaxed) info with `degraded` set, counting a
/// budget downgrade -- the form the CLI pipeline consumes.
ReductionInfo analyze_reductions_degrading(const ir::Scop& scop,
                                           const ddg::DependenceGraph& dg,
                                           const ReductionOptions& options = {});

/// Match one statement body against the reduction patterns; returns
/// false when the statement is not a recognized accumulation. Exposed
/// for tests. (The verifier deliberately does NOT call this: it carries
/// its own matcher in verify/reductions.cpp so a bug here cannot
/// vouch for itself.)
bool match_reduction(const ir::Statement& s, ir::ReductionOp* op_out);

/// Human-readable report (for `polyfuse --reductions`).
std::string render_reductions_text(const ir::Scop& scop,
                                   const ddg::DependenceGraph& dg,
                                   const ReductionInfo& info);
/// Deterministic JSON report (for `polyfuse --reductions=json`).
std::string render_reductions_json(const ir::Scop& scop,
                                   const ddg::DependenceGraph& dg,
                                   const ReductionInfo& info);

}  // namespace pf::analysis
