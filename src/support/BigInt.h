//===- support/BigInt.h - Arbitrary-precision integers ----------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sign-magnitude arbitrary-precision integer used throughout the polyhedral
/// machinery (Fourier-Motzkin elimination, the lexmin simplex and Farkas
/// multiplier elimination can all overflow 64-bit intermediates). This plays
/// the role GMP plays for PipLib/PolyLib in the original Pluto tool-chain.
///
/// Representation (the isl_int / LLVM-APInt pattern): values that fit in a
/// signed 64-bit integer are stored inline with overflow-checked fast paths
/// for every arithmetic operation; only values outside the int64 range fall
/// back to a little-endian vector of 32-bit limbs. The fast paths are inline
/// here; the limb paths live out of line in BigInt.cpp. The representation
/// is canonical — the limb form is used *iff* the value does not fit in
/// int64 — so comparisons and hashing never need cross-representation paths
/// for equal values, and in-range results of big-value arithmetic demote
/// back to the inline form. In practice polyhedral coefficients are tiny, so
/// the fast paths make the substrate allocation-free on the hot paths.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SUPPORT_BIGINT_H
#define PLUTOPP_SUPPORT_BIGINT_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pluto {

/// Arbitrary-precision signed integer.
///
/// Division follows C semantics (truncation toward zero); floorDiv/ceilDiv
/// provide the rounding variants polyhedral code generation needs.
class BigInt {
public:
  BigInt() : Small(0), IsSmall(true), Sign(0) {}
  BigInt(long long V) : Small(V), IsSmall(true), Sign(0) {}

  /// Parses a base-10 literal with optional leading '-'. Asserts on malformed
  /// input (this is an internal type; inputs are trusted).
  static BigInt fromString(const std::string &S);

  bool isZero() const { return IsSmall ? Small == 0 : Sign == 0; }
  bool isNegative() const { return IsSmall ? Small < 0 : Sign < 0; }
  bool isPositive() const { return IsSmall ? Small > 0 : Sign > 0; }
  bool isOne() const { return IsSmall && Small == 1; }
  bool isMinusOne() const { return IsSmall && Small == -1; }

  /// Returns true iff the value fits in a signed 64-bit integer. Because the
  /// representation is canonical this is exactly the inline-form test.
  bool fitsInt64() const { return IsSmall; }
  /// Converts to int64; asserts that the value fits.
  int64_t toInt64() const {
    assert(IsSmall && "BigInt does not fit in int64");
    return Small;
  }

  BigInt operator-() const {
    if (IsSmall && Small != INT64_MIN)
      return BigInt(-Small);
    return negSlow();
  }
  BigInt abs() const { return isNegative() ? -*this : *this; }

  BigInt operator+(const BigInt &RHS) const {
    int64_t R = 0;
    if (IsSmall && RHS.IsSmall && !__builtin_add_overflow(Small, RHS.Small, &R))
      return BigInt(R);
    return addSlow(RHS);
  }
  BigInt operator-(const BigInt &RHS) const {
    int64_t R = 0;
    if (IsSmall && RHS.IsSmall && !__builtin_sub_overflow(Small, RHS.Small, &R))
      return BigInt(R);
    return addSlow(-RHS);
  }
  BigInt operator*(const BigInt &RHS) const {
    int64_t R = 0;
    if (IsSmall && RHS.IsSmall && !__builtin_mul_overflow(Small, RHS.Small, &R))
      return BigInt(R);
    return mulSlow(RHS);
  }
  /// Truncating division (C semantics). Asserts RHS != 0.
  BigInt operator/(const BigInt &RHS) const {
    assert(!RHS.isZero() && "division by zero");
    // INT64_MIN / -1 is the single overflowing int64 quotient.
    if (IsSmall && RHS.IsSmall && !(Small == INT64_MIN && RHS.Small == -1))
      return BigInt(Small / RHS.Small);
    return divSlow(RHS);
  }
  /// Remainder with C semantics: (a/b)*b + a%b == a.
  BigInt operator%(const BigInt &RHS) const {
    assert(!RHS.isZero() && "division by zero");
    // x % -1 is 0; testing it first keeps INT64_MIN % -1 from trapping.
    if (IsSmall && RHS.IsSmall)
      return BigInt(RHS.Small == -1 ? 0 : Small % RHS.Small);
    return modSlow(RHS);
  }

  BigInt &operator+=(const BigInt &RHS) { return *this = *this + RHS; }
  BigInt &operator-=(const BigInt &RHS) { return *this = *this - RHS; }
  BigInt &operator*=(const BigInt &RHS) { return *this = *this * RHS; }
  BigInt &operator/=(const BigInt &RHS) { return *this = *this / RHS; }

  /// Floor division: rounds toward negative infinity.
  BigInt floorDiv(const BigInt &RHS) const {
    assert(!RHS.isZero() && "division by zero");
    if (IsSmall && RHS.IsSmall && !(Small == INT64_MIN && RHS.Small == -1)) {
      // Q only reaches INT64_MIN with R == 0, so the adjustment cannot
      // overflow.
      int64_t Q = Small / RHS.Small, R = Small % RHS.Small;
      return BigInt(R != 0 && (R < 0) != (RHS.Small < 0) ? Q - 1 : Q);
    }
    return roundedDivSlow(RHS, /*Up=*/false);
  }
  /// Ceiling division: rounds toward positive infinity.
  BigInt ceilDiv(const BigInt &RHS) const {
    assert(!RHS.isZero() && "division by zero");
    if (IsSmall && RHS.IsSmall && !(Small == INT64_MIN && RHS.Small == -1)) {
      // Q only reaches INT64_MAX with R == 0, so the adjustment cannot
      // overflow.
      int64_t Q = Small / RHS.Small, R = Small % RHS.Small;
      return BigInt(R != 0 && (R < 0) == (RHS.Small < 0) ? Q + 1 : Q);
    }
    return roundedDivSlow(RHS, /*Up=*/true);
  }
  /// Remainder of floor division, *this - floorDiv(RHS) * RHS: it takes
  /// the sign of RHS (in [0, RHS) for a positive RHS, (RHS, 0] otherwise).
  BigInt floorMod(const BigInt &RHS) const;

  /// Exact division; asserts that RHS divides this exactly.
  BigInt divExact(const BigInt &RHS) const {
    BigInt Q = *this / RHS;
    assert((Q * RHS == *this) && "divExact with non-divisible operands");
    return Q;
  }

  bool operator==(const BigInt &RHS) const {
    if (IsSmall && RHS.IsSmall)
      return Small == RHS.Small;
    return compareSlow(RHS) == 0;
  }
  bool operator!=(const BigInt &RHS) const { return !(*this == RHS); }
  bool operator<(const BigInt &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const BigInt &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const BigInt &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const BigInt &RHS) const { return compare(RHS) >= 0; }

  /// Three-way comparison: negative, zero or positive.
  int compare(const BigInt &RHS) const {
    if (IsSmall && RHS.IsSmall)
      return Small < RHS.Small ? -1 : Small > RHS.Small ? 1 : 0;
    return compareSlow(RHS);
  }

  /// Greatest common divisor (always non-negative).
  static BigInt gcd(const BigInt &A, const BigInt &B) {
    if (A.IsSmall && B.IsSmall) {
      uint64_t X = absU64(A.Small), Y = absU64(B.Small);
      while (Y != 0) {
        uint64_t T = X % Y;
        X = Y;
        Y = T;
      }
      // gcd involving INT64_MIN can be 2^63, one past the inline range.
      if (X <= static_cast<uint64_t>(INT64_MAX))
        return BigInt(static_cast<int64_t>(X));
    }
    return gcdSlow(A, B);
  }
  /// Least common multiple (always non-negative). lcm(0, x) == 0.
  static BigInt lcm(const BigInt &A, const BigInt &B);

  /// Hash of the value (equal values hash equal; representation is
  /// canonical so no cross-form mixing is needed).
  size_t hash() const {
    return IsSmall ? static_cast<size_t>(mix(static_cast<uint64_t>(Small)))
                   : hashSlow();
  }

  std::string toString() const;

private:
  /// Inline value; valid iff IsSmall.
  int64_t Small;
  /// Discriminator: true iff the value fits in int64 (canonical form).
  bool IsSmall;
  /// Limb-form sign: -1, 0 or +1. Magnitude is empty iff Sign == 0. Valid
  /// iff !IsSmall (and then never 0, since 0 fits inline).
  int8_t Sign;
  /// Little-endian 32-bit limbs; no trailing zero limbs. Valid iff !IsSmall.
  std::vector<uint32_t> Mag;

  /// Builds a limb-form value and demotes it to the inline form when it
  /// fits (maintains the canonical-representation invariant).
  static BigInt makeLarge(int Sign, std::vector<uint32_t> Mag);
  /// |Small| as an unsigned 64-bit value (handles INT64_MIN).
  static uint64_t absU64(int64_t V) {
    return V < 0 ? ~static_cast<uint64_t>(V) + 1 : static_cast<uint64_t>(V);
  }
  /// -1, 0 or +1 regardless of representation.
  int signum() const {
    if (IsSmall)
      return Small < 0 ? -1 : Small > 0 ? 1 : 0;
    return Sign;
  }
  /// Materializes the magnitude limbs (allocates for inline values; slow
  /// paths only).
  std::vector<uint32_t> magnitude() const;

  static int compareMag(const std::vector<uint32_t> &A,
                        const std::vector<uint32_t> &B);
  static std::vector<uint32_t> addMag(const std::vector<uint32_t> &A,
                                      const std::vector<uint32_t> &B);
  /// Requires |A| >= |B|.
  static std::vector<uint32_t> subMag(const std::vector<uint32_t> &A,
                                      const std::vector<uint32_t> &B);
  static std::vector<uint32_t> mulMag(const std::vector<uint32_t> &A,
                                      const std::vector<uint32_t> &B);
  /// Long division of magnitudes (Knuth's algorithm D); returns the
  /// quotient, sets Rem.
  static std::vector<uint32_t> divModMag(const std::vector<uint32_t> &A,
                                         const std::vector<uint32_t> &B,
                                         std::vector<uint32_t> &Rem);

  /// splitmix64 finalizer (the hash of an inline value).
  static uint64_t mix(uint64_t X) {
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  }

  // Out-of-line paths for limb-form operands and int64 overflow.
  BigInt negSlow() const;
  BigInt addSlow(const BigInt &RHS) const;
  BigInt mulSlow(const BigInt &RHS) const;
  BigInt divSlow(const BigInt &RHS) const;
  BigInt modSlow(const BigInt &RHS) const;
  /// floorDiv (Up = false) or ceilDiv (Up = true) through the limb paths.
  BigInt roundedDivSlow(const BigInt &RHS, bool Up) const;
  int compareSlow(const BigInt &RHS) const;
  static BigInt gcdSlow(const BigInt &A, const BigInt &B);
  size_t hashSlow() const;
};

} // namespace pluto

#endif // PLUTOPP_SUPPORT_BIGINT_H
