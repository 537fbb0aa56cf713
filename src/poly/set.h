// IntegerSet: a conjunction of affine constraints over a positional space,
// interpreted over the integers.
//
// This is polyfuse's polyhedron type: iteration domains, dependence
// polyhedra and transformed-domain projections are all IntegerSets.
// Supported operations:
//  * integer emptiness / min / max of affine forms (exact, via the
//    branch-and-bound ILP),
//  * Fourier-Motzkin elimination (rational projection -- an
//    overapproximation of the integer projection, which is the standard,
//    safe choice for loop-bound generation),
//  * LP-based redundant-constraint removal (keeps emitted bounds tidy).
//
// Solve cache. Inside a request (SolveCacheScope), is_empty /
// integer_min / integer_max are memoized in the request's memo table
// (poly/memo.h), keyed by the canonical
// (gcd-normalized, sorted) constraint system plus the objective and the
// ILP node cap; point counts (poly/count.h) share the same table under
// their own domain. The Pluto level loop and FME redundancy elimination
// re-test many structurally identical systems; a hit skips the whole
// branch-and-bound search. Keys compare full canonical content, so a hit
// is always exact -- results are byte-identical with the cache on or off,
// and safe under concurrency.
//
// When support/diskcache is configured, an in-memory miss additionally
// consults the persistent on-disk store (domain "solve"), and computed
// results are committed there, so solve work survives process restarts.
// Whatever poly::active_memo() turns away -- no request scope, a limiting
// budget, the exact reference path -- bypasses both layers, and the disk
// layer's run-id guard keeps its hits deterministic within one run.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lp/ilp.h"
#include "poly/affine.h"

namespace pf::poly {

class MemoTable;

/// Drop every memoized solve and count of the calling thread's request
/// table, if it has one.
void clear_solve_cache();

/// RAII: give the calling thread's request its own memo table for solves
/// and counts until the scope dies; pool tasks it submits share it. It is
/// the one memo gate (poly::active_memo): without a live scope nothing is
/// memoized, the scheduler's Farkas systems included. cli::run_request wraps every request in
/// one, so (a) a request's cache metrics depend only on its own work --
/// never on what a concurrently running sibling memoized first -- and
/// (b) memoization is freed request by request instead of accumulating
/// for the process lifetime. The persistent on-disk cache
/// (support/diskcache) is still consulted on misses: its run-id guard
/// makes disk hits a property of the directory state at startup, which
/// keeps them deterministic at any --jobs. Scopes nest; the previous
/// table is restored on destruction.
class SolveCacheScope {
 public:
  SolveCacheScope();
  ~SolveCacheScope();
  SolveCacheScope(const SolveCacheScope&) = delete;
  SolveCacheScope& operator=(const SolveCacheScope&) = delete;

 private:
  MemoTable* previous_;
  std::unique_ptr<MemoTable> table_;
};

class IntegerSet {
 public:
  explicit IntegerSet(std::size_t dims) : dims_(dims) {}

  static IntegerSet universe(std::size_t dims) { return IntegerSet(dims); }

  std::size_t dims() const { return dims_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  std::size_t num_constraints() const { return constraints_.size(); }

  /// Add a constraint (gcd-normalized; equalities unsatisfiable over the
  /// integers mark the set trivially empty). Exact duplicates are dropped.
  void add_constraint(Constraint c);
  /// Intersect with another set over the same space.
  void intersect(const IntegerSet& other);

  /// Syntactically empty (a normalization proved emptiness without ILP).
  bool trivially_empty() const { return trivially_empty_; }

  /// True if the set provably contains no integer point. A capped ILP
  /// search returns false ("may be non-empty") -- the conservative answer
  /// for dependence analysis.
  bool is_empty() const;

  /// Membership test for an integer point.
  bool contains(const IntVector& point) const;

  /// Any integer point, if one is found.
  std::optional<IntVector> sample_point() const;

  /// Result of an integer optimization over the set.
  struct Opt {
    enum Kind { kOk, kEmpty, kUnbounded, kUnknown } kind = kEmpty;
    i64 value = 0;  // valid iff kind == kOk
  };
  Opt integer_min(const AffineExpr& e) const;
  Opt integer_max(const AffineExpr& e) const;

  /// Fourier-Motzkin eliminate every dim with remove[d] == true; the
  /// result's dims are the remaining ones in original order.
  IntegerSet eliminate_dims(const std::vector<bool>& remove) const;
  IntegerSet eliminate_dim(std::size_t k) const;
  /// Keep only dims [0, n): eliminate the rest.
  IntegerSet project_onto_prefix(std::size_t n) const;
  /// The integer projection onto dims [0, n), when Fourier-Motzkin
  /// computes it exactly: every trailing dim must go by substitution
  /// through a +-1 equality, or have unit coefficients on all its lower
  /// or on all its upper bounds (Pugh's exact shadow). nullopt when some
  /// dim admits neither -- the rational shadow could then hold integer
  /// points without an integer preimage (a[2*i]'s odd cells). Charges
  /// fuel like any elimination but is not an fme_project operation.
  std::optional<IntegerSet> exact_projection_onto_prefix(std::size_t n) const;

  /// Insert `count` unconstrained dims at position `pos`.
  IntegerSet insert_dims(std::size_t pos, std::size_t count) const;

  /// Remove inequalities implied (over the rationals) by the rest.
  void remove_redundant();

  /// Lower the set onto an ILP problem (all variables free integers),
  /// rows in canonical_order (poly/memo.h).
  lp::IlpProblem to_ilp() const;

  /// Order-independent hash of the canonical constraint system: two sets
  /// holding the same (already gcd-normalized) constraints hash equal
  /// regardless of insertion order.
  std::size_t hash_value() const;

  std::string to_string(const std::vector<std::string>& names = {}) const;

 private:
  // Canonical trivially-empty representation: the flag set and the
  // constraint list cleared, so every route to emptiness (contradictory
  // add_constraint, intersect with an empty set, FME signalling a
  // contradiction) leaves the same state and equal sets hash equal.
  void mark_trivially_empty() {
    trivially_empty_ = true;
    constraints_.clear();
  }
  // Returns false if the normalized constraint is unsatisfiable.
  bool normalize(Constraint& c) const;
  // integer_min without consulting the solve cache.
  Opt integer_min_uncached(const AffineExpr& e) const;
  // FM elimination of a single dim, in place on the constraint list
  // (column k becomes all-zero; caller drops it).
  static void fm_eliminate_column(std::vector<Constraint>& cs, std::size_t k,
                                  bool* trivially_empty);
  static void dedupe(std::vector<Constraint>& cs);
  // Eliminate the `pending` columns of `cs`, cheapest first. With
  // exact_only, only integer-exact eliminations are taken; returns false
  // when pending columns remain of which none is exact.
  static bool eliminate_columns(std::vector<Constraint>& cs,
                                std::vector<std::size_t> pending,
                                bool exact_only, bool* empty);
  // The set over the dims not in `remove`, from eliminated rows `cs`.
  static IntegerSet shrunk(const std::vector<Constraint>& cs, bool empty,
                           const std::vector<bool>& remove);

  std::size_t dims_;
  std::vector<Constraint> constraints_;
  bool trivially_empty_ = false;
};

}  // namespace pf::poly
