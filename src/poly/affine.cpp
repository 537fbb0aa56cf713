#include "poly/affine.h"

#include <algorithm>
#include <sstream>

#include "support/strings.h"

namespace pf::poly {

bool AffineExpr::is_constant() const {
  return std::all_of(coeffs_.begin(), coeffs_.end(),
                     [](i64 c) { return c == 0; });
}

bool AffineExpr::is_zero() const { return is_constant() && constant_ == 0; }

AffineExpr AffineExpr::operator+(const AffineExpr& o) const {
  PF_CHECK_MSG(dims() == o.dims(), "adding affine exprs of different spaces");
  AffineExpr r(dims());
  for (std::size_t i = 0; i < dims(); ++i)
    r.coeffs_[i] = checked_add(coeffs_[i], o.coeffs_[i]);
  r.constant_ = checked_add(constant_, o.constant_);
  return r;
}

AffineExpr AffineExpr::operator-(const AffineExpr& o) const {
  return *this + (-o);
}

AffineExpr AffineExpr::operator-() const {
  AffineExpr r(dims());
  for (std::size_t i = 0; i < dims(); ++i) r.coeffs_[i] = checked_neg(coeffs_[i]);
  r.constant_ = checked_neg(constant_);
  return r;
}

AffineExpr AffineExpr::operator*(i64 s) const {
  AffineExpr r(dims());
  for (std::size_t i = 0; i < dims(); ++i) r.coeffs_[i] = checked_mul(coeffs_[i], s);
  r.constant_ = checked_mul(constant_, s);
  return r;
}

AffineExpr linear_combination(const AffineExpr& x, i128 p, const AffineExpr& y,
                              i128 q) {
  PF_CHECK_MSG(x.dims() == y.dims(),
               "combining affine exprs of different spaces");
  constexpr i128 kMaxFactor = static_cast<i128>(1) << 63;
  PF_CHECK(p >= -kMaxFactor && p <= kMaxFactor && q >= -kMaxFactor &&
           q <= kMaxFactor);
  // |cell * factor| <= 2^126, so only the sum can leave i128, and then it
  // is far outside i64 anyway.
  const auto cell = [p, q](i64 a, i64 b) {
    i128 sum;
    PF_CHECK_MSG(!__builtin_add_overflow(a * p, b * q, &sum),
                 "integer overflow in affine combination");
    return narrow_i128(sum);
  };
  IntVector coeffs(x.dims());
  for (std::size_t i = 0; i < x.dims(); ++i)
    coeffs[i] = cell(x.coeff(i), y.coeff(i));
  return AffineExpr(std::move(coeffs), cell(x.const_term(), y.const_term()));
}

AffineExpr AffineExpr::plus_const(i64 c) const {
  AffineExpr r = *this;
  r.constant_ = checked_add(r.constant_, c);
  return r;
}

i64 AffineExpr::eval(const IntVector& point) const {
  PF_CHECK(point.size() == dims());
  i128 acc = constant_;
  for (std::size_t i = 0; i < dims(); ++i)
    acc += static_cast<i128>(coeffs_[i]) * static_cast<i128>(point[i]);
  return narrow_i128(acc);
}

Rational AffineExpr::eval_rat(const RatVector& point) const {
  PF_CHECK(point.size() == dims());
  Rational acc(constant_);
  for (std::size_t i = 0; i < dims(); ++i)
    acc += Rational(coeffs_[i]) * point[i];
  return acc;
}

AffineExpr AffineExpr::remap(std::size_t new_dims,
                             const std::vector<std::size_t>& map) const {
  PF_CHECK(map.size() == dims());
  AffineExpr r(new_dims, constant_);
  for (std::size_t i = 0; i < dims(); ++i) {
    if (coeffs_[i] == 0) continue;
    PF_CHECK(map[i] < new_dims);
    r.coeffs_[map[i]] = checked_add(r.coeffs_[map[i]], coeffs_[i]);
  }
  return r;
}

AffineExpr AffineExpr::insert_dims(std::size_t pos, std::size_t count) const {
  PF_CHECK(pos <= dims());
  AffineExpr r(dims() + count, constant_);
  for (std::size_t i = 0; i < dims(); ++i)
    r.coeffs_[i < pos ? i : i + count] = coeffs_[i];
  return r;
}

AffineExpr AffineExpr::drop_dims(const std::vector<bool>& remove) const {
  PF_CHECK(remove.size() == dims());
  IntVector kept;
  for (std::size_t i = 0; i < dims(); ++i) {
    if (remove[i]) {
      PF_CHECK_MSG(coeffs_[i] == 0,
                   "dropping dim " << i << " with nonzero coefficient");
    } else {
      kept.push_back(coeffs_[i]);
    }
  }
  return AffineExpr(std::move(kept), constant_);
}

std::string AffineExpr::to_string(
    const std::vector<std::string>& names) const {
  std::ostringstream os;
  bool first = true;
  for (std::size_t i = 0; i < dims(); ++i) {
    const i64 c = coeffs_[i];
    if (c == 0) continue;
    const std::string name =
        i < names.size() ? names[i] : concat("x", std::to_string(i));
    if (first) {
      if (c == -1)
        os << "-";
      else if (c != 1)
        os << c << "*";
      os << name;
      first = false;
    } else {
      os << (c > 0 ? " + " : " - ");
      const i64 a = abs_i64(c);
      if (a != 1) os << a << "*";
      os << name;
    }
  }
  if (first) {
    os << constant_;
  } else if (constant_ != 0) {
    os << (constant_ > 0 ? " + " : " - ") << abs_i64(constant_);
  }
  return os.str();
}

std::string Constraint::to_string(
    const std::vector<std::string>& names) const {
  return expr.to_string(names) + (is_equality ? " == 0" : " >= 0");
}

}  // namespace pf::poly
