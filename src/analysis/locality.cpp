#include "analysis/locality.h"

#include <algorithm>
#include <sstream>

#include "ddg/dataflow.h"
#include "support/budget.h"
#include "support/error.h"
#include "support/strings.h"
#include "support/trace.h"

namespace pf::analysis {

using ddg::ReadCover;
using ddg::WriteLiveness;
using poly::AffineExpr;
using poly::Constraint;
using poly::Count;
using poly::IntegerSet;
using poly::SetUnion;

namespace {

inline bool in_i64(i128 v) {
  return v >= static_cast<i128>(INT64_MIN) && v <= static_cast<i128>(INT64_MAX);
}

// Substitute the trailing parameter dims of an expression over
// [iters, params] with the concrete values; nullopt on i64 overflow of
// the folded constant (the affected count degrades to unknown).
std::optional<AffineExpr> bind_expr(const AffineExpr& e, std::size_t iters,
                                    const IntVector& values) {
  i128 k = e.const_term();
  for (std::size_t j = 0; j < values.size(); ++j)
    k += static_cast<i128>(e.coeff(iters + j)) * values[j];
  if (!in_i64(k)) return std::nullopt;
  AffineExpr out(iters, static_cast<i64>(k));
  for (std::size_t i = 0; i < iters; ++i) out.set_coeff(i, e.coeff(i));
  return out;
}

// Same substitution for a whole set over [iters, params].
std::optional<IntegerSet> bind_set(const IntegerSet& s, std::size_t iters,
                                   const IntVector& values) {
  IntegerSet out(iters);
  if (s.trivially_empty()) {
    out.add_constraint(Constraint::ge0(AffineExpr::constant(iters, -1)));
    return out;
  }
  for (const Constraint& c : s.constraints()) {
    auto e = bind_expr(c.expr, iters, values);
    if (!e) return std::nullopt;
    out.add_constraint(Constraint{std::move(*e), c.is_equality});
  }
  return out;
}

std::optional<SetUnion> bind_union(const SetUnion& u, std::size_t iters,
                                   const IntVector& values) {
  SetUnion out(iters);
  for (const IntegerSet& d : u.disjuncts()) {
    auto b = bind_set(d, iters, values);
    if (!b) return std::nullopt;
    out.add_disjunct(std::move(*b));
  }
  return out;
}

// Add `s` (over m dims) into `out` with its dims mapped to
// [offset, offset + m).
void embed_set(IntegerSet* out, const IntegerSet& s, std::size_t offset) {
  if (s.trivially_empty()) {
    out->add_constraint(
        Constraint::ge0(AffineExpr::constant(out->dims(), -1)));
    return;
  }
  for (const Constraint& c : s.constraints()) {
    AffineExpr e(out->dims(), c.expr.const_term());
    for (std::size_t k = 0; k < s.dims(); ++k)
      e.set_coeff(offset + k, c.expr.coeff(k));
    out->add_constraint(Constraint{std::move(e), c.is_equality});
  }
}

// Add cell_d == sub(iters) with the iters living at [offset, ...).
void add_cell_equality(IntegerSet* out, std::size_t cell_dim,
                       const AffineExpr& sub, std::size_t offset) {
  AffineExpr e(out->dims(), -sub.const_term());
  e.set_coeff(cell_dim, 1);
  for (std::size_t k = 0; k < sub.dims(); ++k)
    e.set_coeff(offset + k, -sub.coeff(k));
  out->add_constraint(Constraint::eq0(std::move(e)));
}

// One access-relation graph disjunct over [rank, space_dims]: the cell
// dims equated with the bound subscripts, the iteration dims constrained
// by the bound domain at `offset`. Returns false on a bind overflow.
bool add_access_disjunct(IntegerSet* out, const ir::Statement& stmt,
                         const ir::Access& acc, std::size_t rank,
                         std::size_t offset, const IntVector& params) {
  const auto dom = bind_set(stmt.domain(), stmt.dim(), params);
  if (!dom) return false;
  embed_set(out, *dom, offset);
  for (std::size_t d = 0; d < rank; ++d) {
    const auto sub = bind_expr(acc.subscripts[d], stmt.dim(), params);
    if (!sub) return false;
    add_cell_equality(out, d, *sub, offset);
  }
  return true;
}

Count sum_counts(const std::vector<Count>& parts) {
  i128 total = 0;
  bool unbounded = false;
  for (const Count& c : parts) {
    switch (c.kind) {
      case Count::kExact:
        total += c.value;
        break;
      case Count::kUnbounded:
        unbounded = true;
        break;
      case Count::kUnknown:
        return Count::unknown();
    }
  }
  if (unbounded) return Count::unbounded();
  return in_i64(total) ? Count::exact(static_cast<i64>(total))
                       : Count::unknown();
}

// accesses - footprint; unknown whenever the difference is not defined.
Count reuse_volume(const Count& accesses, const Count& footprint) {
  if (accesses.kind == Count::kExact && footprint.kind == Count::kExact)
    return Count::exact(std::max<i64>(0, accesses.value - footprint.value));
  if (accesses.kind == Count::kUnbounded &&
      footprint.kind == Count::kExact)
    return Count::unbounded();
  return Count::unknown();
}

// Ranking for findings: unbounded volumes first, then exact descending,
// unknown last; ties broken structurally for deterministic output.
bool finding_before(const VolumeFinding& a, const VolumeFinding& b) {
  auto rank = [](const Count& c) {
    switch (c.kind) {
      case Count::kUnbounded:
        return 0;
      case Count::kExact:
        return 1;
      case Count::kUnknown:
        break;
    }
    return 2;
  };
  if (rank(a.volume) != rank(b.volume))
    return rank(a.volume) < rank(b.volume);
  if (a.volume.kind == Count::kExact && a.volume.value != b.volume.value)
    return a.volume.value > b.volume.value;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.stmt != b.stmt) return a.stmt < b.stmt;
  return a.array < b.array;
}

std::string json_count(const Count& c) {
  if (c.kind == Count::kExact) return std::to_string(c.value);
  std::ostringstream os;
  os << '"' << c.to_string() << '"';
  return os.str();
}

}  // namespace

std::string VolumeFinding::to_string(const ir::Scop* scop) const {
  std::ostringstream os;
  os << (kind == kDeadWrite ? "dead-write" : "uninitialized-read") << " "
     << (scop ? scop->statement(stmt).name()
              : concat("S", std::to_string(stmt)))
     << " "
     << (scop ? scop->array(array).name : concat("a", std::to_string(array)))
     << ": volume " << volume.to_string();
  return os.str();
}

i64 LocalityReport::shared_cells_or_negative(std::size_t a,
                                             std::size_t b) const {
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  for (const PairLocality& p : pairs)
    if (p.s == lo && p.t == hi)
      return p.shared_cells.kind == Count::kExact ? p.shared_cells.value : -1;
  return -1;
}

std::string LocalityReport::to_string(const ir::Scop& scop) const {
  std::ostringstream os;
  os << "analyze: params";
  for (std::size_t j = 0; j < params.size(); ++j)
    os << " " << scop.params()[j] << "=" << params[j];
  os << "\n";
  if (!context_satisfied)
    os << "analyze: warning: parameter values violate the context\n";
  for (const StatementVolume& sv : statements)
    os << "analyze: statement " << scop.statement(sv.stmt).name() << ": "
       << sv.instances.to_string() << " instance(s)\n";
  for (const ArrayLocality& al : arrays)
    os << "analyze: array " << scop.array(al.array).name << ": footprint "
       << al.footprint.to_string() << ", accesses " << al.accesses.to_string()
       << ", reuse " << al.reuse.to_string() << "\n";
  for (const VolumeFinding& f : findings)
    os << "analyze: " << f.to_string(&scop) << "\n";
  for (const PairLocality& p : pairs)
    os << "analyze: pair " << scop.statement(p.s).name() << "/"
       << scop.statement(p.t).name() << ": " << p.shared_cells.to_string()
       << " shared cell(s)\n";
  os << "analyze: " << statements.size() << " statement(s), " << arrays.size()
     << " array(s), " << findings.size() << " finding(s), " << pairs.size()
     << " pair(s)\n";
  return os.str();
}

std::string LocalityReport::to_json(const ir::Scop& scop) const {
  std::ostringstream os;
  os << "{\"analyze\": {\"scop\": \"" << scop.name() << "\", \"params\": {";
  for (std::size_t j = 0; j < params.size(); ++j) {
    if (j != 0) os << ", ";
    os << "\"" << scop.params()[j] << "\": " << params[j];
  }
  os << "}, \"context_satisfied\": "
     << (context_satisfied ? "true" : "false");
  os << ", \"statements\": [";
  for (std::size_t i = 0; i < statements.size(); ++i) {
    if (i != 0) os << ", ";
    os << "{\"name\": \"" << scop.statement(statements[i].stmt).name()
       << "\", \"instances\": " << json_count(statements[i].instances) << "}";
  }
  os << "], \"arrays\": [";
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    if (i != 0) os << ", ";
    os << "{\"name\": \"" << scop.array(arrays[i].array).name
       << "\", \"footprint\": " << json_count(arrays[i].footprint)
       << ", \"accesses\": " << json_count(arrays[i].accesses)
       << ", \"reuse\": " << json_count(arrays[i].reuse) << "}";
  }
  os << "], \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i != 0) os << ", ";
    const VolumeFinding& f = findings[i];
    os << "{\"kind\": \""
       << (f.kind == VolumeFinding::kDeadWrite ? "dead-write"
                                               : "uninitialized-read")
       << "\", \"statement\": \"" << scop.statement(f.stmt).name()
       << "\", \"array\": \"" << scop.array(f.array).name
       << "\", \"volume\": " << json_count(f.volume) << "}";
  }
  os << "], \"pairs\": [";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i != 0) os << ", ";
    os << "{\"s\": \"" << scop.statement(pairs[i].s).name() << "\", \"t\": \""
       << scop.statement(pairs[i].t).name()
       << "\", \"shared_cells\": " << json_count(pairs[i].shared_cells)
       << "}";
  }
  os << "]}}";
  return os.str();
}

LocalityReport analyze_locality(const ir::Scop& scop,
                                const ddg::DependenceGraph& dg,
                                const IntVector& params) {
  PF_CHECK_MSG(&dg.scop() == &scop, "dependence graph built for another scop");
  PF_CHECK_MSG(params.size() == scop.num_params(),
               "analyze_locality: expected " << scop.num_params()
                                             << " parameter value(s), got "
                                             << params.size());
  LocalityReport rep;
  rep.params = params;
  for (const Constraint& c : scop.context().constraints()) {
    const i64 v = c.expr.eval(params);
    if (c.is_equality ? v != 0 : v < 0) rep.context_satisfied = false;
  }
  if (scop.context().trivially_empty()) rep.context_satisfied = false;

  const std::size_t n = scop.num_statements();

  // Per-statement instance counts.
  for (std::size_t s = 0; s < n; ++s) {
    const ir::Statement& stmt = scop.statement(s);
    const auto dom = bind_set(stmt.domain(), stmt.dim(), params);
    rep.statements.push_back(
        {s, dom ? poly::count_points(*dom) : Count::unknown()});
  }

  // Per-array footprint / access / reuse volumes. All access relations of
  // an array share one graph space [rank, max statement dim]; unused
  // trailing iteration dims stay unconstrained, which is harmless --
  // they are existential in the projection count.
  std::size_t max_dim = 0;
  for (std::size_t s = 0; s < n; ++s)
    max_dim = std::max(max_dim, scop.statement(s).dim());
  for (std::size_t a = 0; a < scop.arrays().size(); ++a) {
    const std::size_t rank = scop.array(a).rank();
    SetUnion graph(rank + max_dim);
    bool bind_ok = true;
    std::vector<Count> access_parts;
    for (std::size_t s = 0; s < n; ++s) {
      const ir::Statement& stmt = scop.statement(s);
      for (const ir::Access& acc : stmt.accesses()) {
        if (acc.array_id != a) continue;
        IntegerSet disjunct(rank + max_dim);
        bind_ok &= add_access_disjunct(&disjunct, stmt, acc, rank, rank,
                                       params);
        graph.add_disjunct(std::move(disjunct));
        access_parts.push_back(rep.statements[s].instances);
      }
    }
    ArrayLocality al;
    al.array = a;
    if (access_parts.empty()) {
      al.footprint = al.accesses = al.reuse = Count::exact(0);
    } else {
      al.footprint =
          bind_ok ? poly::count_projection(graph, rank) : Count::unknown();
      al.accesses = sum_counts(access_parts);
      al.reuse = reuse_volume(al.accesses, al.footprint);
    }
    rep.arrays.push_back(al);
  }

  // Dead-write / uninitialized-read volumes. The dataflow subtraction
  // runs exact (BudgetSuspend): a conservative subtraction would report
  // wrong volumes, not merely unknown ones. Counting the resulting sets
  // stays under the live budget and degrades per count.
  std::shared_ptr<const ddg::Dataflow> df;
  {
    support::BudgetSuspend suspend;
    df = dg.dataflow();
  }
  auto count_bound_union = [&](const SetUnion& u, std::size_t iters) {
    const auto bound = bind_union(u, iters, params);
    return bound ? poly::count_points(*bound) : Count::unknown();
  };
  for (const WriteLiveness& wl : df->writes) {
    const ir::Statement& stmt = scop.statement(wl.stmt);
    const std::size_t array = stmt.write().array_id;
    const SetUnion dead = scop.array(array).is_local
                              ? wl.unused
                              : wl.unused.intersect(wl.killed);
    if (dead.trivially_empty()) continue;
    const Count volume = count_bound_union(dead, stmt.dim());
    if (volume.kind == Count::kExact && volume.value == 0) continue;
    rep.findings.push_back(
        {VolumeFinding::kDeadWrite, wl.stmt, array, volume});
  }
  for (const ReadCover& rc : df->covers) {
    const ir::Statement& stmt = scop.statement(rc.stmt);
    const std::size_t array = stmt.accesses()[rc.access].array_id;
    if (!scop.array(array).is_local) continue;  // live-in, not a defect
    if (rc.uncovered.trivially_empty()) continue;
    const Count volume = count_bound_union(rc.uncovered, stmt.dim());
    if (volume.kind == Count::kExact && volume.value == 0) continue;
    rep.findings.push_back(
        {VolumeFinding::kUninitRead, rc.stmt, array, volume});
  }
  std::stable_sort(rep.findings.begin(), rep.findings.end(), finding_before);

  // Shared cells per statement pair with at least one common array: the
  // size of the footprint intersection, counted exactly on the joint
  // access-pair graph [rank, s iters, t iters]. The self pair (t == s)
  // counts cells touched by at least two *distinct* instances -- the
  // accumulator cell of a reduction is self-reuse the fusion oracle
  // must see, while a[i] = f(a[i]) has none (and a 0-dim statement,
  // with its single instance, always counts 0). Distinctness is a
  // union over dimension and sign: some d has i_d - i'_d >= 1 (or
  // <= -1).
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = s; t < n; ++t) {
      const ir::Statement& ss = scop.statement(s);
      const ir::Statement& st = scop.statement(t);
      const bool self = t == s;
      std::vector<Count> parts;
      bool any_common = false;
      for (std::size_t a = 0; a < scop.arrays().size(); ++a) {
        bool in_s = false;
        bool in_t = false;
        for (const ir::Access& acc : ss.accesses())
          in_s |= acc.array_id == a;
        for (const ir::Access& acc : st.accesses())
          in_t |= acc.array_id == a;
        if (!in_s || !in_t) continue;
        any_common = true;
        const std::size_t rank = scop.array(a).rank();
        const std::size_t dims = rank + ss.dim() + st.dim();
        SetUnion graph(dims);
        bool bind_ok = true;
        for (const ir::Access& sa : ss.accesses()) {
          if (sa.array_id != a) continue;
          for (const ir::Access& ta : st.accesses()) {
            if (ta.array_id != a) continue;
            IntegerSet disjunct(dims);
            bind_ok &= add_access_disjunct(&disjunct, ss, sa, rank, rank,
                                           params);
            bind_ok &= add_access_disjunct(&disjunct, st, ta, rank,
                                           rank + ss.dim(), params);
            if (!self) {
              graph.add_disjunct(std::move(disjunct));
              continue;
            }
            for (std::size_t d = 0; d < ss.dim(); ++d) {
              const AffineExpr delta =
                  AffineExpr::var(dims, rank + d) -
                  AffineExpr::var(dims, rank + ss.dim() + d);
              IntegerSet fwd = disjunct;
              fwd.add_constraint(Constraint::ge0(delta.plus_const(-1)));
              graph.add_disjunct(std::move(fwd));
              IntegerSet bwd = disjunct;
              bwd.add_constraint(Constraint::ge0((-delta).plus_const(-1)));
              graph.add_disjunct(std::move(bwd));
            }
          }
        }
        parts.push_back(bind_ok ? poly::count_projection(graph, rank)
                                : Count::unknown());
      }
      if (!any_common) continue;
      rep.pairs.push_back({s, t, sum_counts(parts)});
    }
  }

  if (support::Tracer::remarks_on()) {
    for (const PairLocality& p : rep.pairs)
      support::remark("analysis", "shared cells",
                      {{"s", scop.statement(p.s).name()},
                       {"t", scop.statement(p.t).name()},
                       {"cells", p.shared_cells.to_string()}});
    for (const VolumeFinding& f : rep.findings)
      support::remark("analysis", f.to_string(&scop),
                      {{"volume", f.volume.to_string()}});
  }
  return rep;
}

}  // namespace pf::analysis
