// Arbitrary-precision signed integers: the cell type of the simplex
// kernel's exact instance.
//
// lp/simplex.cpp runs one Bland-rule kernel on two cell types. The fast
// instance holds i64 cells with 128-bit intermediates and gives up on a
// solve once a value passes 2^62; the exact instance holds BigInt cells,
// which never overflow. BigInt provides only what that kernel calls:
// +, -, *, exact division, gcd, comparison, sign and a checked narrowing
// to i64.
//
// A value of magnitude below 2^127 is held inline as an i128, and its
// arithmetic runs in 128 bits with overflow checks, so the cells of a
// typical tableau and their products never allocate. A larger value is a
// sign and a base-2^32 magnitude. The representation is canonical (inline
// if and only if |value| < 2^127).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <vector>

#include "support/intmath.h"

namespace pf::lp {

class BigInt {
 public:
  BigInt() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): integers embed naturally.
  BigInt(i64 v) : small_(v) {}
  static BigInt from_i128(i128 v);

  /// -1, 0 or 1.
  int sign() const { return small_ > 0 ? 1 : (small_ < 0 ? -1 : 0); }
  /// The value, or nullopt when it does not fit in i64.
  std::optional<i64> to_i64() const {
    if (!mag_.empty() || small_ != static_cast<i64>(small_))
      return std::nullopt;
    return static_cast<i64>(small_);
  }

  BigInt operator-() const;
  friend BigInt operator+(const BigInt& a, const BigInt& b);
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  /// Exact division: b is nonzero and divides a (the quotient of any
  /// other pair is truncated toward zero).
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  BigInt& operator-=(const BigInt& b) { return *this = *this - b; }
  BigInt& operator/=(const BigInt& b) { return *this = *this / b; }
  /// gcd(|a|, |b|); gcd(0, 0) == 0.
  friend BigInt gcd(const BigInt& a, const BigInt& b);

  /// -1, 0 or 1 as a is less than, equal to or greater than b.
  friend int compare(const BigInt& a, const BigInt& b);
  friend bool operator==(const BigInt& a, const BigInt& b) {
    return compare(a, b) == 0;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
    return compare(a, b) <=> 0;
  }

 private:
  using Limbs = std::vector<std::uint32_t>;

  bool is_small() const { return mag_.empty(); }
  /// |value| in limbs.
  Limbs magnitude() const;
  /// sign * mag in canonical form; mag has no leading zero limbs.
  static BigInt from_sign_mag(int sign, Limbs mag);

  i128 small_ = 0;  // the value when mag_ is empty, else its sign (+-1)
  Limbs mag_;       // |value| when it is 2^127 or more, low limb first
};

}  // namespace pf::lp
