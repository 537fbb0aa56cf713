#include "lp/bigint.h"

#include <bit>
#include <numeric>
#include <utility>

#include "support/error.h"

namespace pf::lp {

namespace {

using Limbs = std::vector<std::uint32_t>;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using u128 = unsigned __int128;

void trim(Limbs& a) {
  while (!a.empty() && a.back() == 0) a.pop_back();
}

Limbs limbs_of(u128 v) {
  Limbs a;
  for (; v != 0; v >>= 32) a.push_back(static_cast<u32>(v));
  return a;
}

int cmp_mag(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;)
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  return 0;
}

Limbs add_mag(const Limbs& a, const Limbs& b) {
  const Limbs& lo = a.size() < b.size() ? a : b;
  const Limbs& hi = a.size() < b.size() ? b : a;
  Limbs r(hi.size() + 1);
  u64 carry = 0;
  for (std::size_t i = 0; i < hi.size(); ++i) {
    carry += u64{hi[i]} + (i < lo.size() ? lo[i] : 0);
    r[i] = static_cast<u32>(carry);
    carry >>= 32;
  }
  r[hi.size()] = static_cast<u32>(carry);
  trim(r);
  return r;
}

// a -= b, for |a| >= |b|.
void sub_mag(Limbs& a, const Limbs& b) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < a.size() && (i < b.size() || borrow != 0);
       ++i) {
    const u64 sub = u64{i < b.size() ? b[i] : 0} + borrow;
    borrow = a[i] < sub ? 1 : 0;
    a[i] = static_cast<u32>(u64{a[i]} - sub);
  }
  trim(a);
}

Limbs mul_mag(const Limbs& a, const Limbs& b) {
  Limbs r(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      carry += u64{a[i]} * b[j] + r[i + j];  // at most 2^64 - 1
      r[i + j] = static_cast<u32>(carry);
      carry >>= 32;
    }
    r[i + b.size()] = static_cast<u32>(carry);
  }
  trim(r);
  return r;
}

std::size_t bit_length(const Limbs& a) {
  return a.empty() ? 0
                   : 32 * a.size() -
                         static_cast<std::size_t>(std::countl_zero(a.back()));
}

Limbs shifted_left(const Limbs& a, std::size_t s) {
  Limbs r(a.size() + s / 32 + 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const u64 v = u64{a[i]} << (s % 32);
    r[i + s / 32] |= static_cast<u32>(v);
    r[i + s / 32 + 1] |= static_cast<u32>(v >> 32);
  }
  trim(r);
  return r;
}

void shift_right_one(Limbs& a) {
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = (a[i] >> 1) | (i + 1 < a.size() ? a[i + 1] << 31 : 0);
  trim(a);
}

// a / b for b nonzero by shift-and-subtract, one quotient bit per step
// from the top; *rem receives a % b. Limbs only arise in solves the int64
// kernel gives up on (its intermediates stay below 2^125), so this
// favours brevity over speed.
Limbs divmod_mag(const Limbs& a, const Limbs& b, Limbs* rem) {
  Limbs r = a, q;
  if (cmp_mag(a, b) >= 0) {
    const std::size_t shift = bit_length(a) - bit_length(b);
    Limbs d = shifted_left(b, shift);
    q.assign(shift / 32 + 1, 0);
    for (std::size_t s = shift + 1; s-- > 0;) {
      if (cmp_mag(r, d) >= 0) {
        sub_mag(r, d);
        q[s / 32] |= u32{1} << (s % 32);
      }
      shift_right_one(d);
    }
    trim(q);
  }
  if (rem != nullptr) *rem = std::move(r);
  return q;
}

// |v| for limbs of at most 128 bits.
u128 to_u128(const Limbs& a) {
  u128 m = 0;
  for (std::size_t i = a.size(); i-- > 0;) m = (m << 32) | a[i];
  return m;
}

// Euclid in 128 bits until both fit in 64.
u128 gcd_u128(u128 a, u128 b) {
  while (b != 0) {
    if (a >> 64 == 0 && b >> 64 == 0)
      return std::gcd(static_cast<u64>(a), static_cast<u64>(b));
    const u128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

constexpr u128 kTwo127 = u128{1} << 127;

}  // namespace

BigInt BigInt::from_i128(i128 v) {
  BigInt r;
  if (static_cast<u128>(v) != kTwo127) {  // -2^127 is the one not inline
    r.small_ = v;
  } else {
    r.small_ = -1;
    r.mag_ = limbs_of(kTwo127);
  }
  return r;
}

BigInt::Limbs BigInt::magnitude() const {
  if (!is_small()) return mag_;
  return limbs_of(static_cast<u128>(small_ < 0 ? -small_ : small_));
}

BigInt BigInt::from_sign_mag(int sign, Limbs mag) {
  if (mag.size() <= 4 && to_u128(mag) < kTwo127) {
    const auto m = static_cast<i128>(to_u128(mag));
    return from_i128(sign < 0 ? -m : m);
  }
  BigInt r;
  r.small_ = sign < 0 ? -1 : 1;
  r.mag_ = std::move(mag);
  return r;
}

BigInt BigInt::operator-() const {
  BigInt r = *this;
  r.small_ = -small_;  // |small_| < 2^127: never overflows
  return r;
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  i128 r = 0;
  if (a.is_small() && b.is_small() &&
      !__builtin_add_overflow(a.small_, b.small_, &r))
    return BigInt::from_i128(r);
  const int sa = a.sign(), sb = b.sign();
  Limbs ma = a.magnitude(), mb = b.magnitude();
  if (sa == sb) return BigInt::from_sign_mag(sa, add_mag(ma, mb));
  if (cmp_mag(ma, mb) >= 0) {
    sub_mag(ma, mb);
    return BigInt::from_sign_mag(sa, std::move(ma));
  }
  sub_mag(mb, ma);
  return BigInt::from_sign_mag(sb, std::move(mb));
}

BigInt operator-(const BigInt& a, const BigInt& b) {
  i128 r = 0;
  if (a.is_small() && b.is_small() &&
      !__builtin_sub_overflow(a.small_, b.small_, &r))
    return BigInt::from_i128(r);
  return a + -b;
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  i128 r = 0;
  if (a.is_small() && b.is_small() &&
      !__builtin_mul_overflow(a.small_, b.small_, &r))
    return BigInt::from_i128(r);
  return BigInt::from_sign_mag(a.sign() * b.sign(),
                               mul_mag(a.magnitude(), b.magnitude()));
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  PF_CHECK_MSG(b.sign() != 0, "BigInt division by zero");
  if (a.is_small() && b.is_small())
    return BigInt::from_i128(a.small_ / b.small_);
  return BigInt::from_sign_mag(
      a.sign() * b.sign(), divmod_mag(a.magnitude(), b.magnitude(), nullptr));
}

BigInt gcd(const BigInt& a, const BigInt& b) {
  if (a.is_small() && b.is_small()) {
    auto abs = [](i128 v) { return static_cast<u128>(v < 0 ? -v : v); };
    return BigInt::from_i128(
        static_cast<i128>(gcd_u128(abs(a.small_), abs(b.small_))));
  }
  // Euclid on magnitudes until both fit in 128 bits.
  Limbs x = a.magnitude(), y = b.magnitude();
  while ((x.size() > 4 || y.size() > 4) && !y.empty()) {
    Limbs r;
    divmod_mag(x, y, &r);
    x = std::move(y);
    y = std::move(r);
  }
  if (x.size() <= 4 && y.size() <= 4)
    x = limbs_of(gcd_u128(to_u128(x), to_u128(y)));
  return BigInt::from_sign_mag(1, std::move(x));
}

int compare(const BigInt& a, const BigInt& b) {
  if (a.is_small() && b.is_small())
    return a.small_ < b.small_ ? -1 : (a.small_ > b.small_ ? 1 : 0);
  const int sa = a.sign(), sb = b.sign();
  if (sa != sb) return sa < sb ? -1 : 1;
  // Same sign, and one side is not inline, so neither is zero.
  return sa * cmp_mag(a.magnitude(), b.magnitude());
}

}  // namespace pf::lp
