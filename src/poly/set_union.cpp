#include "poly/set_union.h"

#include <sstream>

#include "support/budget.h"
#include "support/error.h"

namespace pf::poly {

namespace {

/// The integer negation of one constraint, as a disjunction of
/// conjunction-halves: !(e >= 0) is {-e - 1 >= 0}; !(e == 0) is
/// {e - 1 >= 0} | {-e - 1 >= 0}.
std::vector<Constraint> negate(const Constraint& c) {
  std::vector<Constraint> out;
  if (c.is_equality) out.push_back(Constraint::ge0(c.expr.plus_const(-1)));
  out.push_back(Constraint::ge0((-c.expr).plus_const(-1)));
  return out;
}

}  // namespace

bool is_subset(const IntegerSet& a, const IntegerSet& b) {
  PF_CHECK(a.dims() == b.dims());
  if (a.trivially_empty()) return true;
  for (const Constraint& c : b.constraints()) {
    for (const Constraint& half : negate(c)) {
      IntegerSet probe = a;
      probe.add_constraint(half);
      if (!probe.is_empty()) return false;
    }
  }
  return true;
}

SetUnion SetUnion::universe(std::size_t dims) {
  SetUnion u(dims);
  u.disjuncts_.push_back(IntegerSet::universe(dims));
  return u;
}

SetUnion SetUnion::wrap(IntegerSet s) {
  SetUnion u(s.dims());
  u.add_disjunct(std::move(s));
  return u;
}

void SetUnion::add_disjunct(IntegerSet s) {
  PF_CHECK(s.dims() == dims_);
  if (s.trivially_empty()) return;
  disjuncts_.push_back(std::move(s));
}

void SetUnion::unite(const SetUnion& o) {
  PF_CHECK(o.dims_ == dims_);
  for (const IntegerSet& d : o.disjuncts_) add_disjunct(d);
}

SetUnion SetUnion::intersect(const IntegerSet& o) const {
  PF_CHECK(o.dims() == dims_);
  SetUnion out(dims_);
  for (const IntegerSet& d : disjuncts_) {
    IntegerSet x = d;
    x.intersect(o);
    out.add_disjunct(std::move(x));
  }
  return out;
}

SetUnion SetUnion::intersect(const SetUnion& o) const {
  PF_CHECK(o.dims_ == dims_);
  SetUnion out(dims_);
  for (const IntegerSet& a : disjuncts_)
    for (const IntegerSet& b : o.disjuncts_) {
      support::budget_charge(support::BudgetSite::kFmeProject);
      IntegerSet x = a;
      x.intersect(b);
      out.add_disjunct(std::move(x));
    }
  return out;
}

SetUnion SetUnion::subtract(const IntegerSet& b) const {
  PF_CHECK(b.dims() == dims_);
  if (b.trivially_empty()) return *this;
  SetUnion out(dims_);
  for (const IntegerSet& a : disjuncts_) {
    // Union algebra can blow up quadratically in disjunct count, so it
    // burns fuel at the projection site alongside FME proper.
    support::budget_charge(support::BudgetSite::kFmeProject);
    // carry accumulates c_1 /\ ... /\ c_{i-1} on top of a.
    IntegerSet carry = a;
    for (const Constraint& c : b.constraints()) {
      for (const Constraint& half : negate(c)) {
        IntegerSet d = carry;
        d.add_constraint(half);
        out.add_disjunct(std::move(d));
      }
      carry.add_constraint(c);
      if (carry.trivially_empty()) break;  // a /\ prefix already empty
    }
    // If b has no constraints it is the universe and a vanishes whole.
  }
  return out;
}

SetUnion SetUnion::subtract(const SetUnion& o) const {
  PF_CHECK(o.dims_ == dims_);
  SetUnion out = *this;
  for (const IntegerSet& b : o.disjuncts_) out = out.subtract(b);
  return out;
}

SetUnion SetUnion::eliminate_dims(const std::vector<bool>& remove) const {
  PF_CHECK(remove.size() == dims_);
  std::size_t kept = 0;
  for (std::size_t d = 0; d < dims_; ++d)
    if (!remove[d]) ++kept;
  SetUnion out(kept);
  for (const IntegerSet& d : disjuncts_)
    out.add_disjunct(d.eliminate_dims(remove));
  return out;
}

SetUnion SetUnion::project_onto_prefix(std::size_t n) const {
  std::vector<bool> remove(dims_, false);
  for (std::size_t d = n; d < dims_; ++d) remove[d] = true;
  return eliminate_dims(remove);
}

SetUnion SetUnion::insert_dims(std::size_t pos, std::size_t count) const {
  SetUnion out(dims_ + count);
  for (const IntegerSet& d : disjuncts_)
    out.add_disjunct(d.insert_dims(pos, count));
  return out;
}

bool SetUnion::is_empty() const {
  for (const IntegerSet& d : disjuncts_)
    if (!d.is_empty()) return false;
  return true;
}

bool SetUnion::contains(const IntVector& point) const {
  for (const IntegerSet& d : disjuncts_)
    if (d.contains(point)) return true;
  return false;
}

std::optional<IntVector> SetUnion::sample_point() const {
  for (const IntegerSet& d : disjuncts_)
    if (auto p = d.sample_point()) return p;
  return std::nullopt;
}

void SetUnion::coalesce() {
  std::vector<IntegerSet> live;
  live.reserve(disjuncts_.size());
  for (IntegerSet& d : disjuncts_)
    if (!d.is_empty()) live.push_back(std::move(d));

  // Drop any disjunct contained in another surviving one. On a tie
  // (mutual containment) the earlier disjunct wins, keeping the result
  // deterministic.
  std::vector<bool> dead(live.size(), false);
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (dead[i]) continue;
    for (std::size_t j = 0; j < live.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (is_subset(live[j], live[i]) &&
          !(j < i && is_subset(live[i], live[j])))
        dead[j] = true;
    }
  }
  disjuncts_.clear();
  for (std::size_t i = 0; i < live.size(); ++i)
    if (!dead[i]) disjuncts_.push_back(std::move(live[i]));
}

std::string SetUnion::to_string(const std::vector<std::string>& names) const {
  if (disjuncts_.empty()) return "{ }";
  std::ostringstream os;
  for (std::size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i) os << " | ";
    os << disjuncts_[i].to_string(names);
  }
  return os.str();
}

}  // namespace pf::poly
