#include "codegen/tiling.h"

#include <functional>

#include "sched/analysis.h"
#include "support/budget.h"

namespace pf::codegen {

namespace {

// Only chains at least this deep are tiled (tiling a single loop rarely
// pays; 2-d+ bands do).
constexpr std::size_t kMinBandDepth = 2;

std::size_t count_t_vars(const AstNode& n) {
  switch (n.kind) {
    case AstNode::Kind::kLoop:
      return std::max(n.t_index + 1, count_t_vars(*n.body));
    case AstNode::Kind::kBlock: {
      std::size_t q = 0;
      for (const AstPtr& c : n.children) q = std::max(q, count_t_vars(*c));
      return q;
    }
    case AstNode::Kind::kStmt:
      return 0;
  }
  return 0;
}

// A loop is rectangular-tileable when its bounds are single-alternative,
// denominator-1 and reference only parameters (no enclosing t vars).
bool tileable(const AstNode& loop, std::size_t q) {
  for (const LoopBound* b : {&loop.lower, &loop.upper}) {
    if (b->alternatives.size() != 1) return false;
    for (const BoundTerm& t : b->alternatives[0]) {
      if (t.denom != 1) return false;
      for (std::size_t d = 0; d < q; ++d)
        if (t.expr.coeff(d) != 0) return false;
    }
  }
  return true;
}

// Apply `fn` to every affine payload in the tree.
void for_each_expr(AstNode& n,
                   const std::function<void(poly::AffineExpr&)>& fn) {
  switch (n.kind) {
    case AstNode::Kind::kLoop:
      for (LoopBound* b : {&n.lower, &n.upper})
        for (auto& alt : b->alternatives)
          for (BoundTerm& t : alt) fn(t.expr);
      for_each_expr(*n.body, fn);
      break;
    case AstNode::Kind::kBlock:
      for (const AstPtr& c : n.children) for_each_expr(*c, fn);
      break;
    case AstNode::Kind::kStmt:
      for (poly::AffineExpr& e : n.iter_exprs) fn(e);
      for (poly::AffineExpr& e : n.guards) fn(e);
      break;
  }
}

// Remap every affine payload into the enlarged space
// [t_0..t_{q-1}, NEW tile vars, params].
void widen(AstNode& n, std::size_t q, std::size_t extra) {
  for_each_expr(n, [&](poly::AffineExpr& e) { e = e.insert_dims(q, extra); });
}

// Drop the unused tail of reserved tile dims [q + used, q + extra).
void narrow(AstNode& n, std::size_t q, std::size_t used, std::size_t extra,
            std::size_t dims) {
  if (used == extra) return;
  std::vector<bool> remove(dims, false);
  for (std::size_t d = q + used; d < q + extra; ++d) remove[d] = true;
  for_each_expr(n, [&](poly::AffineExpr& e) { e = e.drop_dims(remove); });
}

class Tiler {
 public:
  Tiler(std::size_t q, std::size_t extra, i64 tile_size,
        const std::vector<std::size_t>& band_of)
      : q_(q), extra_(extra), dims_(0), tile_size_(tile_size),
        band_of_(band_of) {}

  std::size_t bands_tiled = 0;
  std::size_t tile_vars_used = 0;

  void set_dims(std::size_t dims) { dims_ = dims; }

  void run(AstPtr& node) {
    switch (node->kind) {
      case AstNode::Kind::kBlock:
        for (AstPtr& c : node->children) run(c);
        return;
      case AstNode::Kind::kStmt:
        return;
      case AstNode::Kind::kLoop:
        break;
    }
    // Collect the maximal perfect chain of tileable loops within one
    // permutable band.
    std::vector<AstNode*> chain;
    AstNode* cur = node.get();
    while (cur->kind == AstNode::Kind::kLoop && tileable(*cur, q_ + extra_) &&
           same_band(chain.empty() ? cur : chain.front(), cur)) {
      chain.push_back(cur);
      if (cur->body->kind != AstNode::Kind::kLoop) break;
      cur = cur->body.get();
    }
    if (chain.size() < kMinBandDepth ||
        tile_vars_used + chain.size() > extra_) {
      // Not tiled here; keep descending (inner chains may still qualify).
      if (node->kind == AstNode::Kind::kLoop) run(node->body);
      return;
    }

    // Build tile loops T_0..T_{D-1} above the chain.
    const i64 b = tile_size_;
    std::vector<AstPtr> tile_loops;
    for (AstNode* loop : chain) {
      AstPtr t = make_loop(loop->level, q_ + tile_vars_used);
      ++tile_vars_used;
      // T >= floord(lb, B) == ceild(lb - (B-1), B); T <= floord(ub, B).
      std::vector<BoundTerm> lo, hi;
      for (const BoundTerm& term : loop->lower.alternatives[0])
        lo.push_back(BoundTerm{term.expr.plus_const(-(b - 1)), b});
      for (const BoundTerm& term : loop->upper.alternatives[0])
        hi.push_back(BoundTerm{term.expr, b});
      t->lower.alternatives.push_back(std::move(lo));
      t->upper.alternatives.push_back(std::move(hi));
      t->parallel = loop->parallel;
      tile_loops.push_back(std::move(t));
    }
    // Constrain each point loop to its tile.
    for (std::size_t k = 0; k < chain.size(); ++k) {
      AstNode* loop = chain[k];
      const std::size_t tvar = tile_loops[k]->t_index;
      poly::AffineExpr bt(dims_);
      bt.set_coeff(tvar, b);
      loop->lower.alternatives[0].push_back(BoundTerm{bt, 1});
      loop->upper.alternatives[0].push_back(
          BoundTerm{bt.plus_const(b - 1), 1});
    }

    // Relink: node -> T0 -> ... -> T_{D-1} -> original chain.
    AstPtr original_chain = std::move(node);
    AstPtr head = std::move(tile_loops[0]);
    AstNode* tail = head.get();
    for (std::size_t k = 1; k < tile_loops.size(); ++k) {
      tail->body = std::move(tile_loops[k]);
      tail = tail->body.get();
    }
    tail->body = std::move(original_chain);
    node = std::move(head);
    ++bands_tiled;

    // Continue below the band (inner blocks may contain further nests).
    run(chain.back()->body);
  }

 private:
  bool same_band(const AstNode* first, const AstNode* candidate) const {
    PF_CHECK(first->t_index < band_of_.size() &&
             candidate->t_index < band_of_.size());
    return band_of_[first->t_index] == band_of_[candidate->t_index];
  }

  std::size_t q_;
  std::size_t extra_;
  std::size_t dims_;
  i64 tile_size_;
  const std::vector<std::size_t>& band_of_;
};

std::size_t count_tileable_band_loops(const AstNode& n, std::size_t q,
                                      const std::vector<std::size_t>& band_of) {
  switch (n.kind) {
    case AstNode::Kind::kBlock: {
      std::size_t total = 0;
      for (const AstPtr& c : n.children)
        total += count_tileable_band_loops(*c, q, band_of);
      return total;
    }
    case AstNode::Kind::kStmt:
      return 0;
    case AstNode::Kind::kLoop:
      break;
  }
  std::vector<const AstNode*> chain;
  const AstNode* cur = &n;
  auto same_band = [&](const AstNode* a, const AstNode* b) {
    return band_of[a->t_index] == band_of[b->t_index];
  };
  while (cur->kind == AstNode::Kind::kLoop && tileable(*cur, q) &&
         same_band(chain.empty() ? cur : chain.front(), cur)) {
    chain.push_back(cur);
    if (cur->body->kind != AstNode::Kind::kLoop) break;
    cur = cur->body.get();
  }
  const AstNode* below =
      chain.empty() ? cur : chain.back()->body.get();
  std::size_t total = chain.size() >= kMinBandDepth ? chain.size() : 0;
  if (chain.empty()) {
    if (n.body) total += count_tileable_band_loops(*n.body, q, band_of);
  } else {
    total += count_tileable_band_loops(*below, q, band_of);
  }
  return total;
}

void remark_parallel(AstNode& n, bool enclosing) {
  switch (n.kind) {
    case AstNode::Kind::kLoop: {
      n.mark_parallel = false;
      bool inner = enclosing;
      if (n.parallel && !inner) {
        n.mark_parallel = true;
        inner = true;
      }
      remark_parallel(*n.body, inner);
      break;
    }
    case AstNode::Kind::kBlock:
      for (const AstPtr& c : n.children) remark_parallel(*c, enclosing);
      break;
    case AstNode::Kind::kStmt:
      break;
  }
}

}  // namespace

std::size_t tile_ast(AstNode& root, const sched::Schedule& schedule,
                     const ddg::DependenceGraph& dg,
                     const TilingOptions& options) {
  // Must-complete, like generate_ast: tiling legality is a checker over
  // the final schedule.
  support::BudgetSuspend budget_suspend;
  const std::vector<std::size_t> band_of =
      sched::permutable_bands(schedule, dg);
  PF_CHECK_MSG(options.tile_size >= 2, "tile size must be >= 2");
  const std::size_t q = count_t_vars(root);
  const std::size_t extra = count_tileable_band_loops(root, q, band_of);
  if (extra == 0) return 0;

  widen(root, q, extra);

  // Full dimensionality of the widened expression space: find it from any
  // widened bound/expr; loops' bound terms always exist.
  std::size_t dims = q + extra;
  {
    const std::function<void(const AstNode&)> find_dims =
        [&](const AstNode& n) {
          if (n.kind == AstNode::Kind::kLoop) {
            if (!n.lower.alternatives.empty() &&
                !n.lower.alternatives[0].empty())
              dims = n.lower.alternatives[0][0].expr.dims();
            find_dims(*n.body);
          } else if (n.kind == AstNode::Kind::kBlock) {
            for (const AstPtr& c : n.children) find_dims(*c);
          }
        };
    find_dims(root);
  }

  Tiler tiler(q, extra, options.tile_size, band_of);
  tiler.set_dims(dims);

  // The tiler relinks through AstPtr; move the caller's node into a
  // temporary owner, tile, and move the result back.
  AstPtr tmp = std::make_unique<AstNode>(std::move(root));
  tiler.run(tmp);
  root = std::move(*tmp);

  // The estimate `extra` is an upper bound; drop any reserved-but-unused
  // tile dims so every expression space matches the t vars that actually
  // appear.
  narrow(root, q, tiler.tile_vars_used, extra, dims);

  remark_parallel(root, false);
  return tiler.bands_tiled;
}

}  // namespace pf::codegen
