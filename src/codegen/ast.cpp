#include "codegen/ast.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "support/strings.h"

namespace pf::codegen {

AstPtr make_block() { return std::make_unique<AstNode>(AstNode::Kind::kBlock); }

AstPtr make_loop(std::size_t level, std::size_t t_index) {
  auto n = std::make_unique<AstNode>(AstNode::Kind::kLoop);
  n->level = level;
  n->t_index = t_index;
  return n;
}

AstPtr make_stmt(std::size_t stmt) {
  auto n = std::make_unique<AstNode>(AstNode::Kind::kStmt);
  n->stmt = stmt;
  return n;
}

namespace {

std::vector<std::string> t_space_names(std::size_t q, const ir::Scop& scop) {
  std::vector<std::string> names;
  for (std::size_t k = 0; k < q; ++k)
    names.push_back(concat("t", std::to_string(k)));
  for (const std::string& p : scop.params()) names.push_back(p);
  return names;
}

std::string term_str(const BoundTerm& t, bool lower,
                     const std::vector<std::string>& names) {
  if (t.denom == 1) return t.expr.to_string(names);
  return std::string(lower ? "ceild(" : "floord(") + t.expr.to_string(names) +
         ", " + std::to_string(t.denom) + ")";
}

std::string bound_str(const LoopBound& b, bool lower,
                      const std::vector<std::string>& names) {
  std::vector<std::string> alts;
  for (const auto& terms : b.alternatives) {
    std::vector<std::string> parts;
    for (const BoundTerm& t : terms) parts.push_back(term_str(t, lower, names));
    if (parts.size() == 1)
      alts.push_back(parts[0]);
    else
      alts.push_back(std::string(lower ? "max(" : "min(") + join(parts, ", ") +
                     ")");
  }
  if (alts.size() == 1) return alts[0];
  return std::string(lower ? "min(" : "max(") + join(alts, ", ") + ")";
}

void emit(const AstNode& n, const ir::Scop& scop,
          const std::vector<std::string>& names, std::size_t depth,
          std::ostringstream& os) {
  switch (n.kind) {
    case AstNode::Kind::kBlock:
      for (const AstPtr& c : n.children) emit(*c, scop, names, depth, os);
      break;
    case AstNode::Kind::kLoop: {
      const std::string t = concat("t", std::to_string(n.t_index));
      if (n.mark_parallel) {
        os << indent(depth) << "#pragma omp parallel for";
        for (const ReductionClause& rc : n.reductions)
          os << " reduction(" << ir::to_string(rc.op) << ":"
             << scop.array(rc.array_id).name << ")";
        os << "\n";
      }
      os << indent(depth) << "for (" << t << " = "
         << bound_str(n.lower, true, names) << "; " << t << " <= "
         << bound_str(n.upper, false, names) << "; " << t << "++) {";
      if (n.parallel && !n.mark_parallel) os << "  /* parallel */";
      os << "\n";
      emit(*n.body, scop, names, depth + 1, os);
      os << indent(depth) << "}\n";
      break;
    }
    case AstNode::Kind::kStmt: {
      const ir::Statement& s = scop.statement(n.stmt);
      std::size_t d = depth;
      if (!n.guards.empty()) {
        std::vector<std::string> conds;
        for (const poly::AffineExpr& g : n.guards)
          conds.push_back(g.to_string(names) + " >= 0");
        os << indent(d) << "if (" << join(conds, " && ") << ") {\n";
        ++d;
      }
      os << indent(d) << s.name() << "(";
      std::vector<std::string> iter_strs;
      for (std::size_t k = 0; k < n.iter_exprs.size(); ++k) {
        const i64 den = k < n.iter_denoms.size() ? n.iter_denoms[k] : 1;
        std::string str = n.iter_exprs[k].to_string(names);
        if (den != 1) str = "(" + str + ")/" + std::to_string(den);
        iter_strs.push_back(std::move(str));
      }
      os << join(iter_strs, ", ") << ");\n";
      if (!n.guards.empty()) os << indent(depth) << "}\n";
      break;
    }
  }
}

}  // namespace

std::string ast_to_string(const AstNode& root, const ir::Scop& scop) {
  // Find q: max t_index + 1 over loops.
  std::size_t q = 0;
  const std::function<void(const AstNode&)> scan = [&](const AstNode& n) {
    if (n.kind == AstNode::Kind::kLoop) {
      q = std::max(q, n.t_index + 1);
      scan(*n.body);
    } else if (n.kind == AstNode::Kind::kBlock) {
      for (const AstPtr& c : n.children) scan(*c);
    }
  };
  scan(root);
  std::ostringstream os;
  emit(root, scop, t_space_names(q, scop), 0, os);
  return os.str();
}

}  // namespace pf::codegen
