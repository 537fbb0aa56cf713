// Affine expressions and constraints over a positional variable space.
//
// An AffineExpr is coeffs . x + constant over dims x_0..x_{d-1}. Which
// variable each position means (iterator, parameter, schedule dimension)
// is a convention of the layer above; poly itself is positional.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "support/intmath.h"
#include "support/linalg.h"

namespace pf::poly {

class AffineExpr {
 public:
  AffineExpr() : constant_(0) {}
  explicit AffineExpr(std::size_t dims, i64 constant = 0)
      : coeffs_(dims, 0), constant_(constant) {}
  AffineExpr(IntVector coeffs, i64 constant)
      : coeffs_(std::move(coeffs)), constant_(constant) {}

  /// The expression "x_k" in a d-dimensional space.
  static AffineExpr var(std::size_t dims, std::size_t k) {
    AffineExpr e(dims);
    e.coeffs_[k] = 1;
    return e;
  }
  /// The constant expression.
  static AffineExpr constant(std::size_t dims, i64 value) {
    return AffineExpr(dims, value);
  }

  std::size_t dims() const { return coeffs_.size(); }
  i64 coeff(std::size_t k) const { return coeffs_[k]; }
  void set_coeff(std::size_t k, i64 v) { coeffs_[k] = v; }
  i64 const_term() const { return constant_; }
  void set_const_term(i64 v) { constant_ = v; }
  const IntVector& coeffs() const { return coeffs_; }

  bool is_constant() const;
  /// True if all coefficients and the constant are zero.
  bool is_zero() const;

  AffineExpr operator+(const AffineExpr& o) const;
  AffineExpr operator-(const AffineExpr& o) const;
  AffineExpr operator-() const;
  AffineExpr operator*(i64 s) const;
  AffineExpr& operator+=(const AffineExpr& o) { return *this = *this + o; }
  AffineExpr& operator-=(const AffineExpr& o) { return *this = *this - o; }

  AffineExpr plus_const(i64 c) const;

  bool operator==(const AffineExpr& o) const {
    return coeffs_ == o.coeffs_ && constant_ == o.constant_;
  }

  /// Value at an integer point (point.size() == dims()).
  i64 eval(const IntVector& point) const;
  Rational eval_rat(const RatVector& point) const;

  /// Re-embed into a larger space: old dim i becomes new dim map[i].
  AffineExpr remap(std::size_t new_dims,
                   const std::vector<std::size_t>& map) const;

  /// Insert `count` zero-coefficient dims starting at position `pos`.
  AffineExpr insert_dims(std::size_t pos, std::size_t count) const;

  /// Drop dims listed in `remove` (must have zero coefficient unless
  /// `allow_nonzero`); remaining dims keep their order.
  AffineExpr drop_dims(const std::vector<bool>& remove) const;

  std::string to_string(const std::vector<std::string>& names = {}) const;

 private:
  IntVector coeffs_;
  i64 constant_;
};

/// x * p + y * q, each cell computed in one 128-bit step. Factors of
/// magnitude up to 2^63 keep every product within 2^126, so the only
/// failure is a result cell outside i64, which throws pf::Error. The
/// staged `x * p + y * q` also throws when a product alone passes i64;
/// this does not. Fourier-Motzkin builds every row with it (poly/set.cpp).
AffineExpr linear_combination(const AffineExpr& x, i128 p, const AffineExpr& y,
                              i128 q);

/// Hash over (coeffs, constant); equal expressions hash equal.
inline std::size_t hash_value(const AffineExpr& e) {
  std::size_t seed = std::hash<std::size_t>{}(e.dims());
  for (std::size_t k = 0; k < e.dims(); ++k)
    hash_combine(seed, std::hash<i64>{}(e.coeff(k)));
  hash_combine(seed, std::hash<i64>{}(e.const_term()));
  return seed;
}

/// expr >= 0 (inequality) or expr == 0 (equality).
struct Constraint {
  AffineExpr expr;
  bool is_equality = false;

  static Constraint ge0(AffineExpr e) { return Constraint{std::move(e), false}; }
  static Constraint eq0(AffineExpr e) { return Constraint{std::move(e), true}; }

  /// a >= b, i.e. a - b >= 0.
  static Constraint ge(const AffineExpr& a, const AffineExpr& b) {
    return ge0(a - b);
  }
  /// a <= b.
  static Constraint le(const AffineExpr& a, const AffineExpr& b) {
    return ge0(b - a);
  }
  /// a == b.
  static Constraint eq(const AffineExpr& a, const AffineExpr& b) {
    return eq0(a - b);
  }

  bool operator==(const Constraint& o) const {
    return is_equality == o.is_equality && expr == o.expr;
  }

  std::string to_string(const std::vector<std::string>& names = {}) const;
};

/// Hash over (expr, is_equality); equal constraints hash equal.
inline std::size_t hash_value(const Constraint& c) {
  std::size_t seed = hash_value(c.expr);
  hash_combine(seed, std::hash<bool>{}(c.is_equality));
  return seed;
}

}  // namespace pf::poly
