// SetUnion: a finite union of IntegerSet disjuncts over one positional
// space.
//
// IntegerSet is a *conjunction* of affine constraints, which is enough
// for dependence polyhedra but cannot express the results of set
// subtraction -- the core operation of value-based dataflow ("the reads
// fed by S minus the ones an intermediate write killed"). SetUnion is
// the standard remedy: a list of disjuncts closed under union,
// intersection and subtraction.
//
// Subtraction uses complement-and-distribute: for a single disjunct A
// and a subtrahend B = c_1 /\ ... /\ c_n,
//
//   A - B = union_i ( A /\ c_1 /\ ... /\ c_{i-1} /\ !c_i )
//
// where !(e >= 0) is (-e - 1 >= 0) over the integers and !(e == 0)
// splits into (e - 1 >= 0) | (-e - 1 >= 0). The pieces carved from one
// disjunct A are pairwise disjoint by construction (each pair disagrees
// on some c_i); pieces from different (possibly overlapping) disjuncts
// of a union need not be.
//
// Projection (eliminate_dims) maps Fourier-Motzkin over the disjuncts;
// like IntegerSet's, it is the rational projection, an overapproximation
// of the integer projection (exact whenever every eliminated variable
// has only +-1 coefficients, which covers everything the PolyLang
// frontend produces).
//
// coalesce() keeps the representation small: it drops ILP-empty
// disjuncts and disjuncts subsumed by another (A subset-of B iff
// A /\ !c is empty for every constraint c of B).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "poly/set.h"

namespace pf::poly {

/// Exact subset test between conjunctions: a is contained in b iff
/// intersecting a with the negation of any single constraint of b is
/// (integer-)empty. Conservative under ILP node caps: may return false
/// for a true containment, never true for a false one.
bool is_subset(const IntegerSet& a, const IntegerSet& b);

class SetUnion {
 public:
  /// The empty union over a `dims`-dimensional space.
  explicit SetUnion(std::size_t dims) : dims_(dims) {}

  static SetUnion empty(std::size_t dims) { return SetUnion(dims); }
  static SetUnion universe(std::size_t dims);
  /// The union holding just `s` (dropped immediately if trivially empty).
  static SetUnion wrap(IntegerSet s);

  std::size_t dims() const { return dims_; }
  const std::vector<IntegerSet>& disjuncts() const { return disjuncts_; }
  std::size_t num_disjuncts() const { return disjuncts_.size(); }

  /// Add one disjunct (trivially empty sets are dropped on the spot).
  void add_disjunct(IntegerSet s);
  /// In-place union with another SetUnion over the same space.
  void unite(const SetUnion& o);

  SetUnion intersect(const IntegerSet& o) const;
  SetUnion intersect(const SetUnion& o) const;

  /// this - b, exact over the integers (complement-and-distribute).
  SetUnion subtract(const IntegerSet& b) const;
  /// this - o, subtracting each of o's disjuncts in turn.
  SetUnion subtract(const SetUnion& o) const;

  /// Fourier-Motzkin eliminate every dim with remove[d] == true from
  /// every disjunct (rational projection, see header comment).
  SetUnion eliminate_dims(const std::vector<bool>& remove) const;
  /// Keep only dims [0, n).
  SetUnion project_onto_prefix(std::size_t n) const;
  /// Insert `count` unconstrained dims at `pos` in every disjunct.
  SetUnion insert_dims(std::size_t pos, std::size_t count) const;

  /// No disjunct contains an integer point. Conservative under node
  /// caps (false means "may be non-empty"), like IntegerSet::is_empty.
  bool is_empty() const;
  /// Syntactically empty: the disjunct list is empty.
  bool trivially_empty() const { return disjuncts_.empty(); }

  /// Point membership: contained in any disjunct.
  bool contains(const IntVector& point) const;

  /// Any integer point of any disjunct, if one is found.
  std::optional<IntVector> sample_point() const;

  /// Compact the representation: drop ILP-empty disjuncts, then drop
  /// disjuncts subsumed by a remaining one. Does not change the set.
  void coalesce();

  std::string to_string(const std::vector<std::string>& names = {}) const;

 private:
  std::size_t dims_;
  std::vector<IntegerSet> disjuncts_;
};

}  // namespace pf::poly
