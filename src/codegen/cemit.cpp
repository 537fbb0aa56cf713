#include "codegen/cemit.h"

#include <cctype>
#include <functional>
#include <sstream>

#include "support/strings.h"

namespace pf::codegen {

namespace {

class CEmitter {
 public:
  CEmitter(const AstNode& root, const ir::Scop& scop,
           const CEmitOptions& options)
      : root_(root), scop_(scop), options_(options) {
    // t-space size.
    const std::function<void(const AstNode&)> scan = [&](const AstNode& n) {
      if (n.kind == AstNode::Kind::kLoop) {
        q_ = std::max(q_, n.t_index + 1);
        scan(*n.body);
      } else if (n.kind == AstNode::Kind::kBlock) {
        for (const AstPtr& c : n.children) scan(*c);
      }
    };
    scan(root_);
    for (std::size_t k = 0; k < q_; ++k)
      t_names_.push_back(concat("t", std::to_string(k)));
    for (const std::string& p : scop_.params()) t_names_.push_back(p);
  }

  std::string emit() {
    // Loop variables are named t<k>; reject programs whose own names would
    // collide (PolyLang authors should avoid t0, t1, ...).
    auto collides = [](const std::string& name) {
      if (name.size() < 2 || name[0] != 't') return false;
      for (std::size_t i = 1; i < name.size(); ++i)
        if (!std::isdigit(static_cast<unsigned char>(name[i]))) return false;
      return true;
    };
    for (const std::string& p : scop_.params())
      PF_CHECK_MSG(!collides(p), "parameter name '" << p
                                                    << "' collides with loop "
                                                       "variable names");
    for (const ir::Statement& s : scop_.statements())
      for (const std::string& it : s.iterators())
        PF_CHECK_MSG(!collides(it), "iterator name '"
                                        << it
                                        << "' collides with loop variables");

    os_ << "/* generated by polyfuse */\n";
    os_ << "#include <math.h>\n\n";
    os_ << "static long long pf_ceild(long long n, long long d) {\n"
        << "  return n >= 0 ? (n + d - 1) / d : -((-n) / d);\n}\n";
    os_ << "static long long pf_floord(long long n, long long d) {\n"
        << "  return n >= 0 ? n / d : -((-n + d - 1) / d);\n}\n";
    os_ << "static long long pf_min(long long a, long long b) { return a < b "
           "? a : b; }\n";
    os_ << "static long long pf_mod(long long a, long long d) {\n"
        << "  long long m = a % d; return m < 0 ? m + d : m;\n}\n";
    os_ << "static long long pf_max(long long a, long long b) { return a > b "
           "? a : b; }\n\n";
    os_ << "void pf_kernel(double** arrays, const long long* params) {\n";
    for (std::size_t j = 0; j < scop_.num_params(); ++j)
      os_ << "  const long long " << scop_.params()[j] << " = params[" << j
          << "];\n";
    for (std::size_t a = 0; a < scop_.arrays().size(); ++a)
      os_ << "  double* const a" << a << " = arrays[" << a << "];\n";
    os_ << "\n";
    emit_node(root_, 1);
    os_ << "}\n";
    return os_.str();
  }

 private:
  std::string term(const BoundTerm& t, bool lower) const {
    const std::string e = concat("(", t.expr.to_string(t_names_), ")");
    if (t.denom == 1) return e;
    return std::string(lower ? "pf_ceild" : "pf_floord") + "(" + e + ", " +
           std::to_string(t.denom) + ")";
  }

  std::string fold(const std::vector<std::string>& parts,
                   const std::string& fn) const {
    PF_CHECK(!parts.empty());
    std::string acc = parts[0];
    for (std::size_t i = 1; i < parts.size(); ++i)
      acc = fn + "(" + acc + ", " + parts[i] + ")";
    return acc;
  }

  std::string bound(const LoopBound& b, bool lower) const {
    // lower: min over alternatives of (max over terms); upper dual.
    std::vector<std::string> alts;
    for (const auto& terms : b.alternatives) {
      std::vector<std::string> parts;
      for (const BoundTerm& t : terms) parts.push_back(term(t, lower));
      alts.push_back(fold(parts, lower ? "pf_max" : "pf_min"));
    }
    return fold(alts, lower ? "pf_min" : "pf_max");
  }

  // Linearized array index for an access with positional subscripts over
  // the *statement* space; `iter_names` maps that space to C expressions.
  std::string array_index(const ir::Array& array,
                          const std::vector<poly::AffineExpr>& subs,
                          const std::vector<std::string>& stmt_names) const {
    PF_CHECK(subs.size() == array.rank());
    std::string acc;
    for (std::size_t d = 0; d < subs.size(); ++d) {
      const std::string s = concat("(", subs[d].to_string(stmt_names), ")");
      if (d == 0) {
        acc = s;
      } else {
        acc = "(" + acc + ") * (" + array.extents[d].to_string() + ") + " + s;
      }
    }
    return acc;
  }

  void emit_expr(const ir::ExprPtr& e,
                 const std::vector<std::string>& stmt_names) {
    using K = ir::Expr::Kind;
    switch (e->kind) {
      case K::kNumber: {
        std::ostringstream n;
        n.precision(17);
        n << e->number;
        std::string s = n.str();
        if (s.find('.') == std::string::npos &&
            s.find('e') == std::string::npos &&
            s.find("inf") == std::string::npos &&
            s.find("nan") == std::string::npos)
          s += ".0";
        os_ << s;
        break;
      }
      case K::kAffine:
        os_ << "(double)(" << e->affine_resolved.to_string(stmt_names) << ")";
        break;
      case K::kAccess: {
        const ir::Array& arr = scop_.array(e->array_id);
        os_ << "a" << e->array_id << "["
            << array_index(arr, e->subscripts_resolved, stmt_names) << "]";
        break;
      }
      case K::kBinary:
        os_ << "(";
        emit_expr(e->lhs, stmt_names);
        os_ << " " << ir::to_string(e->op) << " ";
        emit_expr(e->rhs, stmt_names);
        os_ << ")";
        break;
      case K::kUnaryMinus:
        os_ << "(-";
        emit_expr(e->operand, stmt_names);
        os_ << ")";
        break;
      case K::kCall: {
        os_ << e->callee << "(";
        for (std::size_t i = 0; i < e->args.size(); ++i) {
          if (i != 0) os_ << ", ";
          emit_expr(e->args[i], stmt_names);
        }
        os_ << ")";
        break;
      }
    }
  }

  void emit_node(const AstNode& n, std::size_t depth) {
    switch (n.kind) {
      case AstNode::Kind::kBlock:
        for (const AstPtr& c : n.children) emit_node(*c, depth);
        break;
      case AstNode::Kind::kLoop: {
        const std::string t = concat("t", std::to_string(n.t_index));
        if (options_.openmp && n.mark_parallel) {
          os_ << indent(depth) << "#pragma omp parallel for";
          // OpenMP 4.5 array-section reductions over the flattened
          // arrays: aN[0:<extent product>].
          for (const ReductionClause& rc : n.reductions) {
            const ir::Array& arr = scop_.array(rc.array_id);
            std::vector<std::string> extents;
            for (const auto& e : arr.extents)
              extents.push_back(concat("(", e.to_string(), ")"));
            os_ << " reduction(" << ir::to_string(rc.op) << ":a"
                << rc.array_id << "[0:" << join(extents, " * ") << "])";
          }
          os_ << "\n";
        }
        os_ << indent(depth) << "for (long long " << t << " = "
            << bound(n.lower, true) << "; " << t
            << " <= " << bound(n.upper, false) << "; " << t << "++) {\n";
        emit_node(*n.body, depth + 1);
        os_ << indent(depth) << "}\n";
        break;
      }
      case AstNode::Kind::kStmt: {
        const ir::Statement& s = scop_.statement(n.stmt);
        os_ << indent(depth) << "{ /* " << s.name() << " */\n";
        std::size_t d = depth + 1;
        std::vector<std::string> conds;
        for (const poly::AffineExpr& g : n.guards)
          conds.push_back(concat("(", g.to_string(t_names_), ") >= 0"));
        // Divisibility guards for non-unimodular schedules.
        for (std::size_t k = 0; k < s.dim(); ++k) {
          const i64 den = k < n.iter_denoms.size() ? n.iter_denoms[k] : 1;
          if (den != 1)
            conds.push_back("pf_mod(" + n.iter_exprs[k].to_string(t_names_) +
                            ", " + std::to_string(den) + ") == 0");
        }
        if (!conds.empty()) {
          os_ << indent(d) << "if (" << join(conds, " && ") << ") {\n";
          ++d;
        }
        // Original iterators recovered from the t variables.
        for (std::size_t k = 0; k < s.dim(); ++k) {
          const i64 den = k < n.iter_denoms.size() ? n.iter_denoms[k] : 1;
          os_ << indent(d) << "const long long " << s.iterators()[k] << " = ";
          if (den != 1)
            os_ << "pf_floord(" << n.iter_exprs[k].to_string(t_names_) << ", "
                << den << ");\n";
          else
            os_ << n.iter_exprs[k].to_string(t_names_) << ";\n";
        }
        const std::vector<std::string> stmt_names = scop_.space_names(s);
        os_ << indent(d) << "a" << s.write().array_id << "["
            << array_index(scop_.array(s.write().array_id),
                           s.write().subscripts, stmt_names)
            << "] = ";
        emit_expr(s.body(), stmt_names);
        os_ << ";\n";
        if (!conds.empty()) os_ << indent(depth + 1) << "}\n";
        os_ << indent(depth) << "}\n";
        break;
      }
    }
  }

  const AstNode& root_;
  const ir::Scop& scop_;
  const CEmitOptions& options_;
  std::size_t q_ = 0;
  std::vector<std::string> t_names_;
  std::ostringstream os_;
};

}  // namespace

std::string emit_c(const AstNode& root, const ir::Scop& scop,
                   const CEmitOptions& options) {
  return CEmitter(root, scop, options).emit();
}

}  // namespace pf::codegen
