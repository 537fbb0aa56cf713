#include "poly/count.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "poly/memo.h"
#include "support/budget.h"
#include "support/error.h"

namespace pf::poly {
namespace {

inline bool in_i64(i128 v) {
  return v >= static_cast<i128>(INT64_MIN) && v <= static_cast<i128>(INT64_MAX);
}

// Count cache: finished subproblems (a canonical constraint system plus
// the prefix length and the ILP node cap) are memoized in the request's
// memo table under domain "count" (value {kind, value}) -- the recursion
// re-derives structurally identical slices constantly (every iteration of
// a rectangular loop leaves the same remainder set). Hits are exact, so
// results are byte-identical with the cache on or off. kUnknown results
// are never stored: they can depend on transient state (the step guard,
// the remaining fuel), not just on the key.
constexpr const char* kCountDomain = "count";

bool count_is_memoizable(const MemoTable::Value& v) {
  return v[0] != Count::kUnknown;
}

// ---------------------------------------------------------------------------
// Recursive counting.
// ---------------------------------------------------------------------------

struct Ctx {
  const CountOptions& opts;
  i64 steps = 0;
  MemoTable* memo = nullptr;  // active_memo() at the top-level call
};

// One recursion node: announce the op (fault injection point), spend one
// fuel unit, and bump the step guard. BudgetExceeded unwinds to the
// top-level wrapper, which reports kUnknown.
bool step(Ctx& ctx) {
  support::budget_op(support::BudgetSite::kCountSet);
  support::budget_charge(support::BudgetSite::kCountSet);
  ++ctx.steps;
  return ctx.steps <= ctx.opts.max_steps;
}

// Definite emptiness probe. IntegerSet::is_empty is conservative the
// wrong way for counting (a capped search answers "may be non-empty",
// which would count a phantom point), so probe through integer_min of a
// constant objective, whose kUnknown is explicit.
Count probe_nonempty(const IntegerSet& s) {
  if (s.trivially_empty()) return Count::exact(0);
  if (s.num_constraints() == 0) return Count::exact(1);  // universe
  const auto r = s.integer_min(AffineExpr::constant(s.dims(), 0));
  switch (r.kind) {
    case IntegerSet::Opt::kOk:
    case IntegerSet::Opt::kUnbounded:  // feasible either way
      return Count::exact(1);
    case IntegerSet::Opt::kEmpty:
      return Count::exact(0);
    case IntegerSet::Opt::kUnknown:
      break;
  }
  return Count::unknown();
}

// Exact integer range of dim 0, or the structured degradation.
struct Dim0Range {
  enum Kind { kRange, kEmpty, kUnbounded, kUnknown } kind = kEmpty;
  i64 lo = 0;
  i64 hi = 0;
};

Dim0Range dim0_range(const IntegerSet& s) {
  const AffineExpr x0 = AffineExpr::var(s.dims(), 0);
  const auto mn = s.integer_min(x0);
  if (mn.kind == IntegerSet::Opt::kEmpty) return {Dim0Range::kEmpty, 0, 0};
  if (mn.kind == IntegerSet::Opt::kUnknown) return {Dim0Range::kUnknown, 0, 0};
  if (mn.kind == IntegerSet::Opt::kUnbounded) {
    // The LP relaxation can be unbounded over an integer-empty set (gcd
    // gaps); distinguish via the feasibility probe.
    const Count probe = probe_nonempty(s);
    if (probe.is_exact())
      return {probe.value == 0 ? Dim0Range::kEmpty : Dim0Range::kUnbounded, 0,
              0};
    return {Dim0Range::kUnknown, 0, 0};
  }
  const auto mx = s.integer_max(x0);
  if (mx.kind == IntegerSet::Opt::kEmpty) return {Dim0Range::kEmpty, 0, 0};
  if (mx.kind == IntegerSet::Opt::kUnknown) return {Dim0Range::kUnknown, 0, 0};
  if (mx.kind == IntegerSet::Opt::kUnbounded)
    return {Dim0Range::kUnbounded, 0, 0};
  return {Dim0Range::kRange, mn.value, mx.value};
}

// True when no constraint couples dim 0 to another dim: the dim's
// contribution is then an independent range factor.
bool dim0_separable(const IntegerSet& s) {
  for (const Constraint& c : s.constraints()) {
    if (c.expr.coeff(0) == 0) continue;
    for (std::size_t k = 1; k < s.dims(); ++k)
      if (c.expr.coeff(k) != 0) return false;
  }
  return true;
}

// Substitute dim 0 := v (the constant folds in; the dim drops out).
// nullopt on int64 overflow of a folded constant.
std::optional<IntegerSet> fix_dim0(const IntegerSet& s, i64 v) {
  IntegerSet out(s.dims() - 1);
  for (const Constraint& c : s.constraints()) {
    const i128 folded = static_cast<i128>(c.expr.coeff(0)) * v +
                        static_cast<i128>(c.expr.const_term());
    if (!in_i64(folded)) return std::nullopt;
    AffineExpr e(s.dims() - 1, static_cast<i64>(folded));
    for (std::size_t k = 1; k < s.dims(); ++k)
      e.set_coeff(k - 1, c.expr.coeff(k));
    out.add_constraint(Constraint{std::move(e), c.is_equality});
    if (out.trivially_empty()) break;
  }
  return out;
}

// Drop dim 0 keeping only constraints that do not mention it (the
// separable case: the dropped constraints are pure dim-0 bounds already
// summarized by the range).
IntegerSet drop_dim0(const IntegerSet& s) {
  IntegerSet out(s.dims() - 1);
  for (const Constraint& c : s.constraints()) {
    if (c.expr.coeff(0) != 0) continue;
    AffineExpr e(s.dims() - 1, c.expr.const_term());
    for (std::size_t k = 1; k < s.dims(); ++k)
      e.set_coeff(k - 1, c.expr.coeff(k));
    out.add_constraint(Constraint{std::move(e), c.is_equality});
  }
  return out;
}

Count count_set_prefix(const IntegerSet& s, std::size_t prefix, Ctx& ctx);

Count count_set_prefix_uncached(const IntegerSet& s, std::size_t prefix,
                                Ctx& ctx) {
  const Dim0Range r = dim0_range(s);
  switch (r.kind) {
    case Dim0Range::kEmpty:
      return Count::exact(0);
    case Dim0Range::kUnknown:
      return Count::unknown();
    case Dim0Range::kUnbounded:
      return Count::unbounded();
    case Dim0Range::kRange:
      break;
  }
  const i128 range = static_cast<i128>(r.hi) - r.lo + 1;
  if (s.dims() == 1) {
    // All 1-D constraints normalize to unit coefficients, so the set is
    // the gap-free integer interval [lo, hi].
    return in_i64(range) ? Count::exact(static_cast<i64>(range))
                         : Count::unknown();
  }
  if (dim0_separable(s)) {
    const Count rest = count_set_prefix(drop_dim0(s), prefix - 1, ctx);
    if (rest.kind != Count::kExact) return rest;
    const i128 total = range * rest.value;
    return in_i64(total) ? Count::exact(static_cast<i64>(total))
                         : Count::unknown();
  }
  if (range > ctx.opts.max_steps - ctx.steps) return Count::unknown();
  i128 total = 0;
  for (i64 v = r.lo;; ++v) {
    if (!step(ctx)) return Count::unknown();
    const auto fixed = fix_dim0(s, v);
    if (!fixed) return Count::unknown();
    const Count sub = count_set_prefix(*fixed, prefix - 1, ctx);
    if (sub.kind != Count::kExact) return sub;
    total += sub.value;
    if (v == r.hi) break;
  }
  return in_i64(total) ? Count::exact(static_cast<i64>(total))
                       : Count::unknown();
}

// Count the assignments to dims [0, prefix) of `s` extendable to a full
// integer point. Invariant: prefix <= s.dims().
Count count_set_prefix(const IntegerSet& s, std::size_t prefix, Ctx& ctx) {
  if (s.trivially_empty()) return Count::exact(0);
  if (prefix == 0) return probe_nonempty(s);
  if (!step(ctx)) return Count::unknown();
  if (ctx.memo == nullptr) return count_set_prefix_uncached(s, prefix, ctx);
  const MemoTable::Value v = memoize(
      *ctx.memo,
      {kCountDomain,
       canonical_key(static_cast<i64>(prefix), s.dims(), s.constraints())},
      support::Counter::kCountCacheHits, support::Counter::kCountCacheMisses,
      [&] {
        const Count c = count_set_prefix_uncached(s, prefix, ctx);
        return MemoTable::Value{c.kind, c.value};
      },
      count_is_memoizable);
  return Count{static_cast<Count::Kind>(v[0]), v[1]};
}

Count count_union_prefix(const std::vector<IntegerSet>& disjuncts,
                         std::size_t prefix, Ctx& ctx);

// The union-of-disjuncts form of the separable shortcut. When no present
// disjunct couples dim 0 to another dim, each one is its dim-0 range
// times a fixed remainder, so the slice at dim 0 = v only changes where
// some range starts or ends: count each segment between two such cuts
// once and multiply by its length. Boxes then cost O(cuts^dims) steps,
// whatever their extents.
Count count_union_segments(const std::vector<const IntegerSet*>& present,
                           const std::vector<Dim0Range>& ranges,
                           std::size_t prefix, Ctx& ctx) {
  std::vector<i128> cuts;
  cuts.reserve(2 * ranges.size());
  for (const Dim0Range& r : ranges) {
    cuts.push_back(r.lo);
    cuts.push_back(static_cast<i128>(r.hi) + 1);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  i128 total = 0;
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    if (!step(ctx)) return Count::unknown();
    std::vector<IntegerSet> slices;
    for (std::size_t i = 0; i < present.size(); ++i)
      if (ranges[i].lo <= cuts[k] && cuts[k] <= ranges[i].hi)
        slices.push_back(drop_dim0(*present[i]));
    if (slices.empty()) continue;
    const Count sub = count_union_prefix(slices, prefix - 1, ctx);
    if (sub.kind != Count::kExact) return sub;
    total += (cuts[k + 1] - cuts[k]) * sub.value;
    if (!in_i64(total)) return Count::unknown();
  }
  return Count::exact(static_cast<i64>(total));
}

// Union prefix counting: enumerate the leading dim over the union of the
// disjunct ranges, recursing on the fixed slices. Cells covered by
// several disjuncts are counted once (membership, not summation).
Count count_union_prefix(const std::vector<IntegerSet>& disjuncts,
                         std::size_t prefix, Ctx& ctx) {
  std::vector<IntegerSet> live;
  live.reserve(disjuncts.size());
  for (const IntegerSet& d : disjuncts)
    if (!d.trivially_empty()) live.push_back(d);
  if (live.empty()) return Count::exact(0);
  if (live.size() == 1) return count_set_prefix(live[0], prefix, ctx);
  if (prefix == 0) {
    bool unknown = false;
    for (const IntegerSet& d : live) {
      const Count probe = probe_nonempty(d);
      if (probe.is_exact() && probe.value == 1) return Count::exact(1);
      if (!probe.is_exact()) unknown = true;
    }
    return unknown ? Count::unknown() : Count::exact(0);
  }
  if (!step(ctx)) return Count::unknown();
  // Joint range of dim 0 across the live disjuncts.
  bool have_range = false;
  bool separable = true;
  i64 lo = 0;
  i64 hi = 0;
  std::vector<const IntegerSet*> present;
  std::vector<Dim0Range> ranges;
  for (const IntegerSet& d : live) {
    const Dim0Range r = dim0_range(d);
    switch (r.kind) {
      case Dim0Range::kEmpty:
        continue;
      case Dim0Range::kUnknown:
        return Count::unknown();
      case Dim0Range::kUnbounded:
        return Count::unbounded();
      case Dim0Range::kRange:
        break;
    }
    lo = have_range ? std::min(lo, r.lo) : r.lo;
    hi = have_range ? std::max(hi, r.hi) : r.hi;
    have_range = true;
    separable &= dim0_separable(d);
    present.push_back(&d);
    ranges.push_back(r);
  }
  if (!have_range) return Count::exact(0);
  if (separable) return count_union_segments(present, ranges, prefix, ctx);
  const i128 range = static_cast<i128>(hi) - lo + 1;
  if (range > ctx.opts.max_steps - ctx.steps) return Count::unknown();
  i128 total = 0;
  for (i64 v = lo;; ++v) {
    if (!step(ctx)) return Count::unknown();
    std::vector<IntegerSet> fixed;
    fixed.reserve(present.size());
    for (const IntegerSet* d : present) {
      auto f = fix_dim0(*d, v);
      if (!f) return Count::unknown();
      if (!f->trivially_empty()) fixed.push_back(std::move(*f));
    }
    const Count sub = count_union_prefix(fixed, prefix - 1, ctx);
    if (sub.kind != Count::kExact) return sub;
    total += sub.value;
    if (v == hi) break;
  }
  return in_i64(total) ? Count::exact(static_cast<i64>(total))
                       : Count::unknown();
}

// Point count of a union under one context. Inclusion-exclusion:
// |union A_i| = sum over non-empty subsets S of (-1)^(|S|+1)
// |intersection of S|. Beyond max_inclusion_exclusion_disjuncts the
// 2^n - 1 intersections would blow up, so joint prefix enumeration takes
// over instead. Exact (membership semantics never double counts), and --
// unlike subtracting disjuncts from each other, whose piece count
// multiplies with every subtraction -- its total work is bounded by the
// step guard.
Count count_union_points(const std::vector<IntegerSet>& ds, std::size_t dims,
                         Ctx& ctx) {
  if (ds.empty()) return Count::exact(0);
  if (ds.size() == 1) return count_set_prefix(ds[0], dims, ctx);
  if (ds.size() > ctx.opts.max_inclusion_exclusion_disjuncts)
    return count_union_prefix(ds, dims, ctx);
  i128 total = 0;
  const std::size_t n = ds.size();
  for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
    IntegerSet inter(dims);
    int picked = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i & 1U) == 0) continue;
      ++picked;
      if (picked == 1)
        inter = ds[i];
      else
        inter.intersect(ds[i]);
      if (inter.trivially_empty()) break;
    }
    if (inter.trivially_empty()) continue;
    const Count c = count_set_prefix(inter, dims, ctx);
    if (c.kind == Count::kUnknown) return Count::unknown();
    // An unbounded intersection is contained in the union.
    if (c.kind == Count::kUnbounded) return Count::unbounded();
    total += (picked % 2 == 1) ? static_cast<i128>(c.value)
                               : -static_cast<i128>(c.value);
  }
  return in_i64(total) ? Count::exact(static_cast<i64>(total))
                       : Count::unknown();
}

// The integer images of the disjuncts on dims [0, prefix), trivially
// empty and repeated images dropped; nullopt when some disjunct keeps an
// existential dim (IntegerSet::exact_projection_onto_prefix). The
// elimination charges fuel, so it runs inside the recovery boundary.
std::optional<std::vector<IntegerSet>> exact_images(
    const std::vector<IntegerSet>& ds, std::size_t prefix) {
  std::vector<IntegerSet> images;
  std::vector<std::vector<i64>> keys;
  for (const IntegerSet& d : ds) {
    if (d.trivially_empty()) continue;
    std::optional<IntegerSet> image = d.exact_projection_onto_prefix(prefix);
    if (!image) return std::nullopt;
    if (image->trivially_empty()) continue;
    std::vector<i64> key = canonical_key(0, prefix, image->constraints());
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    keys.push_back(std::move(key));
    images.push_back(std::move(*image));
  }
  return images;
}

// Distinct prefixes of a union's points. Existential quantification
// distributes over union -- the projection of a union is the union of
// the disjuncts' projections -- so when every disjunct projects exactly,
// the answer is the point count of the images, at a cost independent of
// the extents wherever the images are separable. Otherwise the shared
// prefix is enumerated jointly, cell by cell.
Count count_union_projection(const std::vector<IntegerSet>& ds,
                             std::size_t prefix, Ctx& ctx) {
  if (const auto images = exact_images(ds, prefix))
    return count_union_points(*images, prefix, ctx);
  return count_union_prefix(ds, prefix, ctx);
}

// Top-level wrapper: counters, the steps histogram, the wall-clock
// histogram, and the BudgetExceeded -> kUnknown recovery boundary.
template <typename Fn>
Count count_top_level(const CountOptions& options, Fn&& fn) {
  support::count(support::Counter::kCountSolves);
  const auto t0 = std::chrono::steady_clock::now();
  Ctx ctx{options, 0, active_memo()};
  Count result = Count::unknown();
  try {
    result = fn(ctx);
  } catch (const support::BudgetExceeded&) {
    result = Count::unknown();
  }
  support::count(support::Counter::kCountSteps, ctx.steps);
  support::observe(support::Hist::kCountStepsPerSolve, ctx.steps);
  if (result.kind == Count::kUnknown)
    support::count(support::Counter::kCountUnknowns);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  support::observe(support::Hist::kCountSolveMicros, static_cast<i64>(us));
  return result;
}

}  // namespace

std::string Count::to_string() const {
  switch (kind) {
    case kExact:
      return std::to_string(value);
    case kUnbounded:
      return "unbounded";
    case kUnknown:
      break;
  }
  return "unknown";
}

Count count_points(const IntegerSet& s, const CountOptions& options) {
  return count_top_level(options, [&](Ctx& ctx) {
    return count_set_prefix(s, s.dims(), ctx);
  });
}

Count count_points(const SetUnion& u, const CountOptions& options) {
  return count_top_level(options, [&](Ctx& ctx) {
    return count_union_points(u.disjuncts(), u.dims(), ctx);
  });
}

Count count_projection(const IntegerSet& s, std::size_t prefix,
                       const CountOptions& options) {
  PF_CHECK(prefix <= s.dims());
  return count_top_level(options, [&](Ctx& ctx) {
    return count_union_projection({s}, prefix, ctx);
  });
}

Count count_projection(const SetUnion& u, std::size_t prefix,
                       const CountOptions& options) {
  PF_CHECK(prefix <= u.dims());
  return count_top_level(options, [&](Ctx& ctx) {
    return count_union_projection(u.disjuncts(), prefix, ctx);
  });
}

}  // namespace pf::poly
