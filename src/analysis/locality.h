// Static locality and profitability analysis over exact point counts
// (--analyze): how much work each statement does, how much data each
// array touches, and how many cells fusion candidates actually share.
//
// Everything is an exact integer count from poly/count.h, evaluated at a
// concrete parameter assignment (the --params values, or the same guess
// --validate uses):
//
//  * per-statement iteration-domain cardinality (dynamic instances),
//  * per-array footprint (distinct cells touched -- the exact projection
//    of the access relations, no Fourier-Motzkin overapproximation),
//    access volume (dynamic accesses) and reuse volume (accesses minus
//    footprint: how many accesses revisit a cell),
//  * dead-write and uninitialized-read *volumes*: the --lint findings
//    upgraded from a single ILP witness point to a ranked count of how
//    many instances are affected,
//  * per-statement-pair shared cells: the size of the footprint
//    intersection, the quantity wisefuse's reuse heuristic approximates
//    by dependence existence. The report doubles as the profitability
//    oracle the fusion remark channel consumes, so --explain can show
//    *why* fusing a candidate pays.
//
// Budget discipline: the dataflow sets are built under BudgetSuspend
// (a conservative subtraction would make volumes wrong, not just
// incomplete), while the counting itself runs under the live budget and
// degrades per count to a structured "unknown" -- never a wrong number.
// The pass is serial: reports are byte-identical at every --jobs.
#pragma once

#include <string>
#include <vector>

#include "ddg/dependences.h"
#include "ir/scop.h"
#include "poly/count.h"

namespace pf::analysis {

/// Dynamic instance count of one statement's iteration domain.
struct StatementVolume {
  std::size_t stmt = 0;
  poly::Count instances;
};

/// Footprint / access / reuse volumes of one array.
struct ArrayLocality {
  std::size_t array = 0;
  poly::Count footprint;  // distinct cells touched by any access
  poly::Count accesses;   // dynamic access instances, reads + writes
  poly::Count reuse;      // accesses - footprint (cell revisits)
};

/// A counted lint finding: how many instances the defect covers.
struct VolumeFinding {
  enum Kind { kDeadWrite, kUninitRead } kind = kDeadWrite;
  std::size_t stmt = 0;   // writing / reading statement
  std::size_t array = 0;  // affected array
  poly::Count volume;

  std::string to_string(const ir::Scop* scop = nullptr) const;
};

/// Distinct cells two statements both touch (summed over common arrays).
struct PairLocality {
  std::size_t s = 0, t = 0;  // statement indices, s < t
  poly::Count shared_cells;
};

struct LocalityReport {
  IntVector params;  // the concrete parameter assignment analyzed
  bool context_satisfied = true;
  std::vector<StatementVolume> statements;  // by statement index
  std::vector<ArrayLocality> arrays;        // by array id
  std::vector<VolumeFinding> findings;      // ranked by volume, descending
  std::vector<PairLocality> pairs;          // by (s, t)

  /// Shared-cell count for an unordered statement pair; -1 when the pair
  /// was not analyzed or its count is not exact. This is the fusion
  /// profitability oracle's feed.
  i64 shared_cells_or_negative(std::size_t a, std::size_t b) const;

  std::string to_string(const ir::Scop& scop) const;
  /// One JSON object {"analyze": {...}}; deterministic member order.
  std::string to_json(const ir::Scop& scop) const;
};

/// Analyze the scop at the given parameter values. `dg` must be the
/// memory-based dependence graph of `scop`; `params` one value per scop
/// parameter. Emits "analysis" remarks when the remark channel is on.
LocalityReport analyze_locality(const ir::Scop& scop,
                                const ddg::DependenceGraph& dg,
                                const IntVector& params);

}  // namespace pf::analysis
