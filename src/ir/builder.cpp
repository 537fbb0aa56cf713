#include "ir/builder.h"

#include <algorithm>

#include "support/strings.h"

namespace pf::ir {

ScopBuilder::ScopBuilder(std::string name, std::vector<std::string> params)
    : scop_(std::move(name), std::move(params)) {
  // Parameter names must be unique.
  auto p = scop_.params();
  std::sort(p.begin(), p.end());
  PF_CHECK_MSG(std::adjacent_find(p.begin(), p.end()) == p.end(),
               "duplicate parameter names");
}

void ScopBuilder::context(const NamedConstraint& c) {
  const poly::AffineExpr e = c.expr.resolve(scop_.params());
  scop_.add_context(c.is_equality ? poly::Constraint::eq0(e)
                                  : poly::Constraint::ge0(e));
}

std::size_t ScopBuilder::array(const std::string& name,
                               std::vector<NamedAffine> extents,
                               bool is_local) {
  for (const NamedAffine& e : extents)
    e.resolve(scop_.params());  // validates: extents over params only
  return scop_.add_array(Array{name, std::move(extents), is_local});
}

void ScopBuilder::for_loop(const std::string& iterator, NamedAffine lower,
                           NamedAffine upper) {
  PF_CHECK_MSG(!built_, "builder already consumed");
  // Iterator must not shadow a parameter or an open iterator.
  PF_CHECK_MSG(!scop_.param_index(iterator).has_value(),
               "loop iterator '" << iterator << "' shadows a parameter");
  for (const int id : open_)
    PF_CHECK_MSG(
        scop_.loops()[static_cast<std::size_t>(id)].iterator != iterator,
        "loop iterator '" << iterator << "' shadows an open loop");
  // Bounds must be expressible over enclosing iterators and params; this
  // resolve() throws on unknown names.
  const std::vector<std::string> names = current_names();
  lower.resolve(names);
  upper.resolve(names);

  Loop l;
  l.iterator = iterator;
  l.lower = std::move(lower);
  l.upper = std::move(upper);
  l.parent = open_.empty() ? -1 : open_.back();
  open_.push_back(scop_.add_loop(std::move(l)));
}

void ScopBuilder::end_loop() {
  PF_CHECK_MSG(!open_.empty(), "end_loop with no open loop");
  open_.pop_back();
}

void ScopBuilder::begin_guard(const NamedConstraint& c) {
  c.expr.resolve(current_names());  // validate names now
  guards_.push_back(c);
}

void ScopBuilder::end_guard() {
  PF_CHECK_MSG(!guards_.empty(), "end_guard with no open guard");
  guards_.pop_back();
}

std::vector<std::string> ScopBuilder::current_names() const {
  std::vector<std::string> names;
  for (const int id : open_)
    names.push_back(scop_.loops()[static_cast<std::size_t>(id)].iterator);
  names.insert(names.end(), scop_.params().begin(), scop_.params().end());
  return names;
}

std::size_t ScopBuilder::stmt(std::size_t array_id,
                              std::vector<NamedAffine> subscripts,
                              ExprPtr body, std::string name) {
  PF_CHECK_MSG(!built_, "builder already consumed");
  PF_CHECK_MSG(array_id < scop_.arrays().size(), "unknown array id");
  PF_CHECK_MSG(body != nullptr, "statement body required");
  PF_CHECK_MSG(subscripts.size() == scop_.array(array_id).rank(),
               "array '" << scop_.array(array_id).name << "' has rank "
                         << scop_.array(array_id).rank() << ", got "
                         << subscripts.size() << " subscripts");
  if (name.empty()) name = concat("S", std::to_string(next_stmt_));
  ++next_stmt_;

  const std::vector<std::string> names = current_names();
  const std::size_t depth = open_.size();

  // Iterators and loop chain.
  std::vector<std::string> iterators(names.begin(),
                                     names.begin() + static_cast<long>(depth));
  std::vector<int> chain = open_;

  // Domain: bounds of each open loop plus all active guards.
  poly::IntegerSet domain(names.size());
  for (const int id : open_) {
    const Loop& l = scop_.loops()[static_cast<std::size_t>(id)];
    const poly::AffineExpr it = NamedAffine::var(l.iterator).resolve(names);
    domain.add_constraint(poly::Constraint::ge(it, l.lower.resolve(names)));
    domain.add_constraint(poly::Constraint::le(it, l.upper.resolve(names)));
  }
  for (const NamedConstraint& g : guards_) {
    const poly::AffineExpr e = g.expr.resolve(names);
    domain.add_constraint(g.is_equality ? poly::Constraint::eq0(e)
                                        : poly::Constraint::ge0(e));
  }

  // Accesses: write first, then reads in evaluation order.
  std::vector<Access> accesses;
  {
    Access w;
    w.array_id = array_id;
    w.is_write = true;
    for (const NamedAffine& s : subscripts)
      w.subscripts.push_back(s.resolve(names));
    accesses.push_back(std::move(w));
  }
  std::vector<const Expr*> nodes;
  collect_accesses(body, &nodes);
  for (const Expr* n : nodes) {
    PF_CHECK_MSG(n->array_id < scop_.arrays().size(), "unknown array in body");
    PF_CHECK_MSG(n->subscripts.size() == scop_.array(n->array_id).rank(),
                 "read of array '" << scop_.array(n->array_id).name
                                   << "' with wrong subscript count");
    Access r;
    r.array_id = n->array_id;
    r.is_write = false;
    for (const NamedAffine& s : n->subscripts)
      r.subscripts.push_back(s.resolve(names));
    accesses.push_back(std::move(r));
  }

  const std::size_t index = scop_.num_statements();
  scop_.add_statement(Statement(index, std::move(name), std::move(iterators),
                                std::move(chain), std::move(domain),
                                std::move(accesses),
                                resolve_expr(body, names)));
  return index;
}

Scop ScopBuilder::build() {
  PF_CHECK_MSG(!built_, "builder already consumed");
  PF_CHECK_MSG(open_.empty(), "build() with " << open_.size()
                                              << " unclosed loops");
  PF_CHECK_MSG(guards_.empty(), "build() with open guard scopes");
  PF_CHECK_MSG(scop_.num_statements() > 0, "empty scop");
  built_ = true;
  return std::move(scop_);
}

}  // namespace pf::ir
