//===- support/CheckedEntry.h - Exact entry arithmetic ----------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry arithmetic for the exact solvers that run on machine words first:
/// the lexmin tableau (ilp/LexMin) and the batch Fourier-Motzkin step
/// (poly/ConstraintSystem). Each operation is overloaded for the two entry
/// types and reports overflow by returning false: a BigInt step never
/// overflows, an int64_t one is checked, and a result that leaves int64
/// abandons the int64 run (its value is then garbage and never read) so
/// the caller reruns on BigInt. The gcd row normalizer, normalizeByGcd,
/// also serves the callers that hold BigInt rows only.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SUPPORT_CHECKEDENTRY_H
#define PLUTOPP_SUPPORT_CHECKEDENTRY_H

#include "support/BigInt.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace pluto {
namespace checked {

inline bool isZero(const BigInt &V) { return V.isZero(); }
inline bool isZero(int64_t V) { return V == 0; }
inline bool isPositive(const BigInt &V) { return V.isPositive(); }
inline bool isPositive(int64_t V) { return V > 0; }
inline bool isNegative(const BigInt &V) { return V.isNegative(); }
inline bool isNegative(int64_t V) { return V < 0; }
inline bool isOne(const BigInt &V) { return V.isOne(); }
inline bool isOne(int64_t V) { return V == 1; }

inline bool mulOk(const BigInt &A, const BigInt &B, BigInt &Out) {
  Out = A * B;
  return true;
}
inline bool mulOk(int64_t A, int64_t B, int64_t &Out) {
  return !__builtin_mul_overflow(A, B, &Out);
}
inline bool addOk(const BigInt &A, const BigInt &B, BigInt &Out) {
  Out = A + B;
  return true;
}
inline bool addOk(int64_t A, int64_t B, int64_t &Out) {
  return !__builtin_add_overflow(A, B, &Out);
}
inline bool subOk(const BigInt &A, const BigInt &B, BigInt &Out) {
  Out = A - B;
  return true;
}
inline bool subOk(int64_t A, int64_t B, int64_t &Out) {
  return !__builtin_sub_overflow(A, B, &Out);
}
inline bool negOk(const BigInt &A, BigInt &Out) {
  Out = -A;
  return true;
}
inline bool negOk(int64_t A, int64_t &Out) {
  return !__builtin_sub_overflow(int64_t(0), A, &Out);
}
/// Non-negative gcd; gcd(0, 0) is 0.
inline bool gcdOk(const BigInt &A, const BigInt &B, BigInt &Out) {
  Out = BigInt::gcd(A, B);
  return true;
}
inline bool gcdOk(int64_t A, int64_t B, int64_t &Out) {
  auto Abs = [](int64_t V) {
    return V < 0 ? ~static_cast<uint64_t>(V) + 1 : static_cast<uint64_t>(V);
  };
  uint64_t X = Abs(A), Y = Abs(B);
  while (Y != 0) {
    uint64_t T = X % Y;
    X = Y;
    Y = T;
  }
  // gcd(INT64_MIN, 0) is 2^63, one past the int64 range.
  if (X > static_cast<uint64_t>(INT64_MAX))
    return false;
  Out = static_cast<int64_t>(X);
  return true;
}
inline bool divExactOk(const BigInt &A, const BigInt &B, BigInt &Out) {
  Out = A.divExact(B);
  return true;
}
inline bool divExactOk(int64_t A, int64_t B, int64_t &Out) {
  assert(B != 0 && "division by zero");
  if (A == INT64_MIN && B == -1)
    return false;
  assert(A % B == 0 && "divExact with non-divisible operands");
  Out = A / B;
  return true;
}
/// Converts an input entry, negated when Negate is set.
inline bool convertOk(const BigInt &V, bool Negate, BigInt &Out) {
  Out = Negate ? -V : V;
  return true;
}
inline bool convertOk(const BigInt &V, bool Negate, int64_t &Out) {
  if (!V.fitsInt64())
    return false;
  Out = V.toInt64();
  return !Negate || negOk(Out, Out);
}

/// Divides Row by the gcd of its entries (no-op on a zero row), which keeps
/// coefficients small. False only when an int64 step overflows.
template <typename T> bool normalizeByGcd(std::vector<T> &Row) {
  T G(0);
  for (const T &V : Row)
    if (!isZero(V) && !gcdOk(G, V, G))
      return false;
  if (isZero(G) || isOne(G))
    return true;
  for (T &V : Row)
    if (!isZero(V) && !divExactOk(V, G, V))
      return false;
  return true;
}

} // namespace checked
} // namespace pluto

#endif // PLUTOPP_SUPPORT_CHECKEDENTRY_H
