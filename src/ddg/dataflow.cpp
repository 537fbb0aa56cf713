#include "ddg/dataflow.h"

#include <map>
#include <tuple>
#include <utility>

#include "poly/memo.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace pf::ddg {

namespace {

using poly::AffineExpr;
using poly::Constraint;
using poly::IntegerSet;
using poly::SetUnion;

/// Embed a statement-space form ([m iters, p params]) into a larger
/// space: iterators land at iter_off, parameters at param_off.
AffineExpr embed(const AffineExpr& e, std::size_t m, std::size_t p,
                 std::size_t iter_off, std::size_t param_off,
                 std::size_t total) {
  PF_CHECK(e.dims() == m + p);
  std::vector<std::size_t> map(m + p);
  for (std::size_t k = 0; k < m; ++k) map[k] = iter_off + k;
  for (std::size_t q = 0; q < p; ++q) map[m + q] = param_off + q;
  return e.remap(total, map);
}

void add_embedded_domain(IntegerSet* set, const ir::Statement& s,
                         std::size_t p, std::size_t iter_off,
                         std::size_t param_off, std::size_t total) {
  for (const Constraint& c : s.domain().constraints())
    set->add_constraint(Constraint{
        embed(c.expr, s.dim(), p, iter_off, param_off, total), c.is_equality});
}

void add_embedded_context(IntegerSet* set, const ir::Scop& scop,
                          std::size_t param_off, std::size_t total) {
  const std::size_t p = scop.num_params();
  std::vector<std::size_t> map(p);
  for (std::size_t q = 0; q < p; ++q) map[q] = param_off + q;
  for (const Constraint& c : scop.context().constraints())
    set->add_constraint(Constraint{c.expr.remap(total, map), c.is_equality});
}

/// The original-program-order precedence a <lex b as a disjunct list
/// over `total` dims (a's iterators at off_a, b's at off_b): one
/// disjunct per precedence depth, mirroring the DDG's encoding --
/// prefix-equal plus strictly-smaller at a shared loop, or bare
/// prefix-equal at the common depth when a textually precedes b.
std::vector<IntegerSet> lex_before(const ir::Scop& scop,
                                   const ir::Statement& a,
                                   const ir::Statement& b, std::size_t off_a,
                                   std::size_t off_b, std::size_t total) {
  const std::size_t common = scop.common_loop_depth(a, b);
  std::vector<IntegerSet> out;
  for (std::size_t depth = 0; depth <= common; ++depth) {
    if (depth == common && a.index() >= b.index()) continue;
    IntegerSet prec(total);
    for (std::size_t l = 0; l < depth; ++l)
      prec.add_constraint(Constraint::eq(AffineExpr::var(total, off_a + l),
                                         AffineExpr::var(total, off_b + l)));
    if (depth < common)
      prec.add_constraint(Constraint::ge0(
          AffineExpr::var(total, off_b + depth) -
          AffineExpr::var(total, off_a + depth) -
          AffineExpr::constant(total, 1)));
    out.push_back(std::move(prec));
  }
  return out;
}

/// domain(s) restricted to the parameter context, in [iters, params].
IntegerSet domain_in_context(const ir::Scop& scop, const ir::Statement& s) {
  IntegerSet dc = s.domain();
  dc.intersect(scop.context().insert_dims(0, s.dim()));
  return dc;
}

/// Subtract every disjunct of `sub` from `from`, coalescing after each
/// step to keep the disjunct count from compounding.
SetUnion subtract_all(SetUnion from, const SetUnion& sub) {
  for (const IntegerSet& d : sub.disjuncts()) {
    if (from.trivially_empty()) break;
    from = from.subtract(d);
    from.coalesce();
  }
  return from;
}

/// One build of the value-based dataflow of `dg`'s scop.
std::shared_ptr<const Dataflow> compute_dataflow(const DependenceGraph& dg) {
  support::TraceSpan span("analysis", "compute_dataflow");
  support::count(support::Counter::kDataflowBuilds);
  const ir::Scop& scop = dg.scop();
  const std::size_t p = scop.num_params();
  auto result = std::make_shared<Dataflow>();
  Dataflow& out = *result;

  // Writers per array (each statement writes exactly one access, [0]).
  std::vector<std::vector<std::size_t>> writers(scop.arrays().size());
  for (const ir::Statement& s : scop.statements())
    writers[s.write().array_id].push_back(s.index());

  // Memory-based flow polyhedra, grouped per producer/consumer access
  // pair with the per-depth cases united. std::map keeps every later
  // walk in deterministic (src, dst, access) order.
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, SetUnion>
      groups;
  for (const Dependence& d : dg.deps()) {
    if (d.kind != DepKind::kFlow) continue;
    const auto key = std::make_tuple(d.src, d.dst, d.dst_access);
    auto it = groups.find(key);
    if (it == groups.end())
      it = groups.emplace(key, SetUnion(d.poly.dims())).first;
    it->second.add_disjunct(d.poly);
  }

  // Per read access: union of (projected) memory flows reaching it.
  std::map<std::pair<std::size_t, std::size_t>, SetUnion> covered;
  // Per producer statement: union of (projected) *value-based* flows.
  std::vector<SetUnion> sourced;
  sourced.reserve(scop.statements().size());
  for (const ir::Statement& s : scop.statements())
    sourced.emplace_back(s.dim() + p);

  for (const auto& [key, mem_flow] : groups) {
    const auto [si, ti, ri] = key;
    const ir::Statement& src = scop.statement(si);
    const ir::Statement& dst = scop.statement(ti);
    const ir::Access& read = dst.accesses()[ri];
    const std::size_t mi = src.dim(), mt = dst.dim();
    const std::size_t flow_dims = mi + mt + p;
    PF_CHECK(mem_flow.dims() == flow_dims);

    // Coverage is a memory-based notion: any earlier write feeds the
    // read. Project the flow union onto [dst iters, params].
    {
      std::vector<bool> drop_src(flow_dims, false);
      for (std::size_t k = 0; k < mi; ++k) drop_src[k] = true;
      const auto ckey = std::make_pair(ti, ri);
      auto it = covered.find(ckey);
      if (it == covered.end())
        it = covered.emplace(ckey, SetUnion(mt + p)).first;
      it->second.unite(mem_flow.eliminate_dims(drop_src));
    }

    // Kill set: (s, t) pairs with an intermediate writer u of the same
    // cell, s <lex u <lex t. Built in [s, u, t, params] and projected
    // onto [s, t, params].
    SetUnion kills(flow_dims);
    for (const std::size_t ui : writers[read.array_id]) {
      const ir::Statement& killer = scop.statement(ui);
      const std::size_t mu = killer.dim();
      const std::size_t total = mi + mu + mt + p;
      const std::size_t off_u = mi, off_t = mi + mu, off_p = mi + mu + mt;

      IntegerSet base(total);
      add_embedded_domain(&base, src, p, 0, off_p, total);
      add_embedded_domain(&base, killer, p, off_u, off_p, total);
      add_embedded_domain(&base, dst, p, off_t, off_p, total);
      add_embedded_context(&base, scop, off_p, total);
      // Same cell three ways: A_src(s) == A_dst(t) (also implied by the
      // minuend, but it keeps the kill polyhedra small) and
      // A_killer(u) == A_dst(t).
      const ir::Access& w_src = src.write();
      const ir::Access& w_kill = killer.write();
      for (std::size_t d = 0; d < read.subscripts.size(); ++d) {
        base.add_constraint(Constraint::eq(
            embed(w_src.subscripts[d], mi, p, 0, off_p, total),
            embed(read.subscripts[d], mt, p, off_t, off_p, total)));
        base.add_constraint(Constraint::eq(
            embed(w_kill.subscripts[d], mu, p, off_u, off_p, total),
            embed(read.subscripts[d], mt, p, off_t, off_p, total)));
      }
      if (base.trivially_empty()) continue;

      std::vector<bool> drop_u(total, false);
      for (std::size_t k = 0; k < mu; ++k) drop_u[off_u + k] = true;

      for (const IntegerSet& before_u : lex_before(scop, src, killer, 0,
                                                   off_u, total)) {
        for (const IntegerSet& after_u : lex_before(scop, killer, dst,
                                                    off_u, off_t, total)) {
          IntegerSet k = base;
          k.intersect(before_u);
          k.intersect(after_u);
          if (k.is_empty()) continue;
          kills.add_disjunct(k.eliminate_dims(drop_u));
        }
      }
    }

    SetUnion value_flow = subtract_all(mem_flow, kills);
    value_flow.coalesce();
    if (value_flow.trivially_empty()) continue;

    // Producer instances that source at least one value-based flow.
    {
      std::vector<bool> drop_dst(flow_dims, false);
      for (std::size_t k = 0; k < mt; ++k) drop_dst[mi + k] = true;
      sourced[si].unite(value_flow.eliminate_dims(drop_dst));
    }

    ValueFlow vf;
    vf.src = si;
    vf.dst = ti;
    vf.dst_access = ri;
    vf.src_dim = mi;
    vf.dst_dim = mt;
    vf.num_params = p;
    vf.poly = std::move(value_flow);
    out.flows.push_back(std::move(vf));
  }

  // Read covers: every read access, covered or not.
  for (const ir::Statement& s : scop.statements()) {
    for (std::size_t r = 1; r < s.accesses().size(); ++r) {
      ReadCover rc;
      rc.stmt = s.index();
      rc.access = r;
      SetUnion uncovered = SetUnion::wrap(domain_in_context(scop, s));
      const auto it = covered.find(std::make_pair(s.index(), r));
      if (it != covered.end())
        uncovered = subtract_all(std::move(uncovered), it->second);
      uncovered.coalesce();
      rc.uncovered = std::move(uncovered);
      out.covers.push_back(std::move(rc));
    }
  }

  // Write liveness: killed from the DDG's output dependences, unused
  // from the value-based flows.
  for (const ir::Statement& s : scop.statements()) {
    WriteLiveness wl;
    wl.stmt = s.index();
    const std::size_t m = s.dim();

    SetUnion killed(m + p);
    for (const Dependence& d : dg.deps()) {
      if (d.kind != DepKind::kOutput || d.src != s.index()) continue;
      std::vector<bool> drop_dst(d.poly.dims(), false);
      for (std::size_t k = 0; k < d.dst_dim; ++k) drop_dst[d.src_dim + k] = true;
      killed.add_disjunct(d.poly.eliminate_dims(drop_dst));
    }
    killed.coalesce();
    wl.killed = std::move(killed);

    SetUnion unused = SetUnion::wrap(domain_in_context(scop, s));
    unused = subtract_all(std::move(unused), sourced[s.index()]);
    unused.coalesce();
    wl.unused = std::move(unused);

    out.writes.push_back(std::move(wl));
  }

  if (span.active()) {
    span.attr("value_flows", static_cast<i64>(out.flows.size()));
    span.attr("read_covers", static_cast<i64>(out.covers.size()));
  }
  return result;
}

}  // namespace

std::shared_ptr<const Dataflow> DependenceGraph::dataflow() const {
  // The one memo gate: a closed gate keeps nothing and serves nothing, so
  // a budgeted build stays charged and the exact path stays exact.
  if (poly::active_memo() == nullptr) return compute_dataflow(*this);
  std::lock_guard<std::mutex> lock(dataflow_->mu);
  if (dataflow_->value) {
    support::count(support::Counter::kDataflowMemoHits);
    return dataflow_->value;
  }
  dataflow_->value = compute_dataflow(*this);
  return dataflow_->value;
}

}  // namespace pf::ddg
