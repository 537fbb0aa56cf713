// Exact integer-point counting over IntegerSet / SetUnion.
//
// The counter recurses dimension by dimension: the exact integer range
// of the leading dim comes from the existing integer_min / integer_max
// ILP machinery, each value in the range is substituted (the dim drops
// out) and the remainder counted recursively. A dim that shares no
// constraint with any other dim is *separable*: its contribution is a
// plain range length multiplied into the rest, which makes rectangular
// iteration domains O(dims) ILP solves instead of a full enumeration.
//
// count_projection counts the distinct assignments to a dim *prefix*
// that extend to a full point -- the exact integer projection, with the
// trailing dims treated as existentially quantified. That is what
// per-array footprints need (distinct cells touched by a loop nest).
// Each disjunct's existential dims are eliminated where that is
// integer-exact (a +-1 equality substitutes, or Fourier-Motzkin where
// every lower or every upper bound has a unit coefficient -- Pugh's
// exact shadow); since existential quantification distributes over
// union, the answer is then the point count of the union of the images.
// A disjunct that keeps an existential (accesses like a[2*i], whose
// rational shadow would admit the odd cells too) sends the whole union
// to joint enumeration of the shared prefix, testing membership against
// any disjunct.
//
// Unions: count_points uses inclusion-exclusion over the disjuncts, and
// joint prefix enumeration (whose work the step guard bounds) when 2^n
// intersections would blow up. Where no disjunct couples the leading dim
// to the others, the enumeration counts each segment between two range
// endpoints once, so unions of boxes cost the same at any extent.
//
// Results are structured, never wrong: a set the engine cannot finish
// (fuel budget exhausted, ILP node cap, step guard, int64 overflow)
// reports kUnknown; a genuinely infinite set reports kUnbounded. All
// arithmetic is int128 compute-then-commit with a checked narrowing to
// int64 (the PR 6 fast-lane pattern). Every recursion step charges the
// count_set fuel site and every image elimination the fme_project site,
// all inside the one recovery boundary of each public call; finished
// subproblems are memoized in the same memo table as the solve cache
// (cleared by poly::clear_solve_cache).
#pragma once

#include <string>

#include "poly/set.h"
#include "poly/set_union.h"

namespace pf::poly {

/// Outcome of an exact point count.
struct Count {
  enum Kind { kExact, kUnbounded, kUnknown } kind = kExact;
  i64 value = 0;  // valid iff kind == kExact

  static Count exact(i64 v) { return Count{kExact, v}; }
  static Count unbounded() { return Count{kUnbounded, 0}; }
  static Count unknown() { return Count{kUnknown, 0}; }

  bool is_exact() const { return kind == kExact; }
  /// "12", "unbounded" or "unknown" -- the spelling the --analyze JSON
  /// report and the tests share.
  std::string to_string() const;
};

struct CountOptions {
  /// Inclusion-exclusion over a SetUnion (or over the images a
  /// projection count reduces to) visits 2^n - 1 intersections; beyond
  /// this many disjuncts the count switches to joint prefix enumeration
  /// (exact, bounded by the step guard).
  std::size_t max_inclusion_exclusion_disjuncts = 8;
  /// Hard guard on recursion steps per top-level count (a step is one
  /// enumerated value or segment of one dim). Exceeding it yields
  /// kUnknown.
  i64 max_steps = 1 << 22;
};

/// Number of integer points of `s`. Exact, unbounded, or unknown.
Count count_points(const IntegerSet& s, const CountOptions& options = {});
/// Number of integer points of the union (inclusion-exclusion / joint
/// enumeration; overlapping disjuncts are not double-counted).
Count count_points(const SetUnion& u, const CountOptions& options = {});

/// Number of distinct assignments to dims [0, prefix) that extend to a
/// full integer point of `s` -- the exact integer projection count.
Count count_projection(const IntegerSet& s, std::size_t prefix,
                       const CountOptions& options = {});
Count count_projection(const SetUnion& u, std::size_t prefix,
                       const CountOptions& options = {});

}  // namespace pf::poly
