//===- support/BigInt.cpp - Arbitrary-precision integers ------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
//
// Overflow discipline: every inline (int64) fast path uses the compiler's
// checked-arithmetic builtins; on overflow the operands are materialized
// into limb vectors and the exact limb algorithms run. Results are demoted
// back to the inline form whenever they fit, keeping the representation
// canonical (limb form <=> value outside int64 range).
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include "support/FaultInjector.h"

#include <algorithm>
#include <new>

using namespace pluto;

BigInt BigInt::makeLarge(int S, std::vector<uint32_t> M) {
  while (!M.empty() && M.back() == 0)
    M.pop_back();
  if (M.empty())
    S = 0;

  // Demote when the value fits in int64.
  bool Fits = false;
  if (M.size() < 2)
    Fits = true;
  else if (M.size() == 2) {
    uint64_t U = (static_cast<uint64_t>(M[1]) << 32) | M[0];
    Fits = S > 0 ? U <= static_cast<uint64_t>(INT64_MAX)
                 : U <= static_cast<uint64_t>(INT64_MAX) + 1;
  }
  if (Fits) {
    uint64_t U = 0;
    if (M.size() >= 1)
      U |= M[0];
    if (M.size() >= 2)
      U |= static_cast<uint64_t>(M[1]) << 32;
    int64_t V = S < 0 ? -static_cast<int64_t>(U - 1) - 1 // Handles INT64_MIN.
                      : static_cast<int64_t>(U);
    return BigInt(V);
  }

  // The one place every limb materialization funnels through: the fault
  // site stands in for a real allocation failure under arbitrary-precision
  // blowup, which surfaces exactly like this bad_alloc would.
  if (FaultInjector::shouldFail("bigint.alloc"))
    throw std::bad_alloc();

  BigInt R;
  R.IsSmall = false;
  R.Small = 0;
  R.Sign = static_cast<int8_t>(S);
  R.Mag = std::move(M);
  return R;
}

std::vector<uint32_t> BigInt::magnitude() const {
  if (!IsSmall)
    return Mag;
  std::vector<uint32_t> M;
  uint64_t U = absU64(Small);
  while (U != 0) {
    M.push_back(static_cast<uint32_t>(U & 0xffffffffULL));
    U >>= 32;
  }
  return M;
}

BigInt BigInt::fromString(const std::string &S) {
  assert(!S.empty() && "empty integer literal");
  size_t I = 0;
  bool Neg = false;
  if (S[0] == '-' || S[0] == '+') {
    Neg = S[0] == '-';
    I = 1;
  }
  assert(I < S.size() && "sign with no digits");
  // Fast path: accumulate in unsigned 64-bit while it cannot overflow.
  uint64_t U = 0;
  bool Overflow = false;
  for (size_t J = I; J < S.size(); ++J) {
    assert(S[J] >= '0' && S[J] <= '9' && "non-digit in integer literal");
    if (__builtin_mul_overflow(U, static_cast<uint64_t>(10), &U) ||
        __builtin_add_overflow(U, static_cast<uint64_t>(S[J] - '0'), &U)) {
      Overflow = true;
      break;
    }
  }
  if (!Overflow) {
    uint64_t Limit = static_cast<uint64_t>(INT64_MAX) + (Neg ? 1 : 0);
    if (U <= Limit) {
      if (!Neg)
        return BigInt(static_cast<int64_t>(U));
      return BigInt(U == 0 ? 0 : -static_cast<int64_t>(U - 1) - 1);
    }
    // Fits in uint64 but not int64: two limbs.
    return makeLarge(Neg ? -1 : 1,
                     {static_cast<uint32_t>(U), static_cast<uint32_t>(U >> 32)});
  }
  // Slow path: limb-by-limb decimal accumulation.
  BigInt R;
  BigInt Ten(10);
  for (; I < S.size(); ++I)
    R = R * Ten + BigInt(S[I] - '0');
  return Neg ? -R : R;
}

BigInt BigInt::operator-() const {
  if (IsSmall) {
    if (Small != INT64_MIN)
      return BigInt(-Small);
    // -INT64_MIN = 2^63 does not fit: promote.
    return makeLarge(1, {0, 0x80000000u});
  }
  // The inline range is asymmetric: negating +2^63 (limb form) lands on
  // INT64_MIN, so re-canonicalize through makeLarge.
  return makeLarge(-Sign, Mag);
}

BigInt BigInt::abs() const { return isNegative() ? -*this : *this; }

int BigInt::compareMag(const std::vector<uint32_t> &A,
                       const std::vector<uint32_t> &B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  for (size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

int BigInt::compare(const BigInt &RHS) const {
  if (IsSmall && RHS.IsSmall)
    return Small < RHS.Small ? -1 : Small > RHS.Small ? 1 : 0;
  // Canonical form: a limb-form value lies strictly outside the int64 range,
  // so mixed comparisons are decided by the limb side's sign.
  if (IsSmall)
    return RHS.Sign > 0 ? -1 : 1;
  if (RHS.IsSmall)
    return Sign > 0 ? 1 : -1;
  if (Sign != RHS.Sign)
    return Sign < RHS.Sign ? -1 : 1;
  int C = compareMag(Mag, RHS.Mag);
  return Sign > 0 ? C : -C;
}

std::vector<uint32_t> BigInt::addMag(const std::vector<uint32_t> &A,
                                     const std::vector<uint32_t> &B) {
  const std::vector<uint32_t> &Lo = A.size() < B.size() ? A : B;
  const std::vector<uint32_t> &Hi = A.size() < B.size() ? B : A;
  std::vector<uint32_t> R;
  R.reserve(Hi.size() + 1);
  uint64_t Carry = 0;
  for (size_t I = 0; I < Hi.size(); ++I) {
    uint64_t S = Carry + Hi[I] + (I < Lo.size() ? Lo[I] : 0);
    R.push_back(static_cast<uint32_t>(S));
    Carry = S >> 32;
  }
  if (Carry)
    R.push_back(static_cast<uint32_t>(Carry));
  return R;
}

std::vector<uint32_t> BigInt::subMag(const std::vector<uint32_t> &A,
                                     const std::vector<uint32_t> &B) {
  assert(compareMag(A, B) >= 0 && "subMag requires |A| >= |B|");
  std::vector<uint32_t> R;
  R.reserve(A.size());
  int64_t Borrow = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    int64_t S = static_cast<int64_t>(A[I]) - Borrow -
                (I < B.size() ? static_cast<int64_t>(B[I]) : 0);
    if (S < 0) {
      S += 1LL << 32;
      Borrow = 1;
    } else {
      Borrow = 0;
    }
    R.push_back(static_cast<uint32_t>(S));
  }
  while (!R.empty() && R.back() == 0)
    R.pop_back();
  return R;
}

std::vector<uint32_t> BigInt::mulMag(const std::vector<uint32_t> &A,
                                     const std::vector<uint32_t> &B) {
  if (A.empty() || B.empty())
    return {};
  std::vector<uint32_t> R(A.size() + B.size(), 0);
  for (size_t I = 0; I < A.size(); ++I) {
    uint64_t Carry = 0;
    for (size_t J = 0; J < B.size(); ++J) {
      uint64_t Cur = R[I + J] + Carry +
                     static_cast<uint64_t>(A[I]) * static_cast<uint64_t>(B[J]);
      R[I + J] = static_cast<uint32_t>(Cur);
      Carry = Cur >> 32;
    }
    size_t K = I + B.size();
    while (Carry) {
      uint64_t Cur = R[K] + Carry;
      R[K] = static_cast<uint32_t>(Cur);
      Carry = Cur >> 32;
      ++K;
    }
  }
  while (!R.empty() && R.back() == 0)
    R.pop_back();
  return R;
}

std::vector<uint32_t> BigInt::divModMag(const std::vector<uint32_t> &A,
                                        const std::vector<uint32_t> &B,
                                        std::vector<uint32_t> &Rem) {
  assert(!B.empty() && "division by zero");
  Rem.clear();
  if (compareMag(A, B) < 0) {
    Rem = A;
    return {};
  }
  // Fast path: single-limb divisor.
  if (B.size() == 1) {
    uint64_t D = B[0];
    std::vector<uint32_t> Q(A.size(), 0);
    uint64_t R = 0;
    for (size_t I = A.size(); I-- > 0;) {
      uint64_t Cur = (R << 32) | A[I];
      Q[I] = static_cast<uint32_t>(Cur / D);
      R = Cur % D;
    }
    while (!Q.empty() && Q.back() == 0)
      Q.pop_back();
    if (R)
      Rem.push_back(static_cast<uint32_t>(R));
    return Q;
  }
  // General case: bitwise long division. O(bits * limbs) but simple and
  // exact; divisor sizes in this code base are small.
  size_t Bits = A.size() * 32;
  std::vector<uint32_t> Q(A.size(), 0);
  std::vector<uint32_t> R;
  for (size_t I = Bits; I-- > 0;) {
    // R = (R << 1) | bit I of A.
    uint32_t CarryBit = 0;
    for (size_t J = 0; J < R.size(); ++J) {
      uint32_t NewCarry = R[J] >> 31;
      R[J] = (R[J] << 1) | CarryBit;
      CarryBit = NewCarry;
    }
    if (CarryBit)
      R.push_back(1);
    uint32_t BitI = (A[I / 32] >> (I % 32)) & 1;
    if (BitI) {
      if (R.empty())
        R.push_back(0);
      R[0] |= 1;
    }
    while (!R.empty() && R.back() == 0)
      R.pop_back();
    if (compareMag(R, B) >= 0) {
      R = subMag(R, B);
      Q[I / 32] |= 1u << (I % 32);
    }
  }
  while (!Q.empty() && Q.back() == 0)
    Q.pop_back();
  Rem = R;
  return Q;
}

BigInt BigInt::addSlow(const BigInt &RHS) const {
  int SA = signum(), SB = RHS.signum();
  if (SA == 0)
    return RHS;
  if (SB == 0)
    return *this;
  std::vector<uint32_t> MA = magnitude(), MB = RHS.magnitude();
  if (SA == SB)
    return makeLarge(SA, addMag(MA, MB));
  int C = compareMag(MA, MB);
  if (C == 0)
    return BigInt();
  if (C > 0)
    return makeLarge(SA, subMag(MA, MB));
  return makeLarge(SB, subMag(MB, MA));
}

BigInt BigInt::operator+(const BigInt &RHS) const {
  if (IsSmall && RHS.IsSmall) {
    int64_t R;
    if (!__builtin_add_overflow(Small, RHS.Small, &R))
      return BigInt(R);
  }
  return addSlow(RHS);
}

BigInt BigInt::operator-(const BigInt &RHS) const {
  if (IsSmall && RHS.IsSmall) {
    int64_t R;
    if (!__builtin_sub_overflow(Small, RHS.Small, &R))
      return BigInt(R);
  }
  return addSlow(-RHS);
}

BigInt BigInt::mulSlow(const BigInt &RHS) const {
  int S = signum() * RHS.signum();
  if (S == 0)
    return BigInt();
  return makeLarge(S, mulMag(magnitude(), RHS.magnitude()));
}

BigInt BigInt::operator*(const BigInt &RHS) const {
  if (IsSmall && RHS.IsSmall) {
    int64_t R;
    if (!__builtin_mul_overflow(Small, RHS.Small, &R))
      return BigInt(R);
  }
  return mulSlow(RHS);
}

BigInt BigInt::divSlow(const BigInt &RHS) const {
  std::vector<uint32_t> Rem;
  std::vector<uint32_t> Q = divModMag(magnitude(), RHS.magnitude(), Rem);
  return makeLarge(signum() * RHS.signum(), std::move(Q));
}

BigInt BigInt::operator/(const BigInt &RHS) const {
  assert(!RHS.isZero() && "division by zero");
  if (IsSmall && RHS.IsSmall) {
    // INT64_MIN / -1 is the single overflowing int64 quotient.
    if (!(Small == INT64_MIN && RHS.Small == -1))
      return BigInt(Small / RHS.Small);
  }
  if (isZero())
    return BigInt();
  return divSlow(RHS);
}

BigInt BigInt::modSlow(const BigInt &RHS) const {
  std::vector<uint32_t> Rem;
  divModMag(magnitude(), RHS.magnitude(), Rem);
  return makeLarge(signum(), std::move(Rem));
}

BigInt BigInt::operator%(const BigInt &RHS) const {
  assert(!RHS.isZero() && "division by zero");
  if (IsSmall && RHS.IsSmall) {
    if (!(Small == INT64_MIN && RHS.Small == -1))
      return BigInt(Small % RHS.Small);
    return BigInt(); // INT64_MIN % -1 == 0.
  }
  if (isZero())
    return BigInt();
  return modSlow(RHS);
}

BigInt BigInt::floorDiv(const BigInt &RHS) const {
  assert(!RHS.isZero() && "division by zero");
  if (IsSmall && RHS.IsSmall &&
      !(Small == INT64_MIN && RHS.Small == -1)) {
    int64_t Q = Small / RHS.Small;
    int64_t R = Small % RHS.Small;
    // Q only reaches INT64_MIN with R == 0, so the adjustment cannot
    // overflow.
    if (R != 0 && ((R < 0) != (RHS.Small < 0)))
      --Q;
    return BigInt(Q);
  }
  BigInt Q = *this / RHS;
  BigInt R = *this % RHS;
  if (!R.isZero() && (R.isNegative() != RHS.isNegative()))
    Q -= BigInt(1);
  return Q;
}

BigInt BigInt::ceilDiv(const BigInt &RHS) const {
  assert(!RHS.isZero() && "division by zero");
  if (IsSmall && RHS.IsSmall &&
      !(Small == INT64_MIN && RHS.Small == -1)) {
    int64_t Q = Small / RHS.Small;
    int64_t R = Small % RHS.Small;
    // Q only reaches INT64_MAX with R == 0, so the adjustment cannot
    // overflow.
    if (R != 0 && ((R < 0) == (RHS.Small < 0)))
      ++Q;
    return BigInt(Q);
  }
  BigInt Q = *this / RHS;
  BigInt R = *this % RHS;
  if (!R.isZero() && (R.isNegative() == RHS.isNegative()))
    Q += BigInt(1);
  return Q;
}

BigInt BigInt::floorMod(const BigInt &RHS) const {
  BigInt R = *this - floorDiv(RHS) * RHS;
  assert((R.isZero() || R.isNegative() == RHS.isNegative()) &&
         "a floor remainder takes the sign of the divisor");
  return R;
}

BigInt BigInt::divExact(const BigInt &RHS) const {
  BigInt Q = *this / RHS;
  assert((Q * RHS == *this) && "divExact with non-divisible operands");
  return Q;
}

BigInt BigInt::gcd(const BigInt &A, const BigInt &B) {
  if (A.IsSmall && B.IsSmall) {
    uint64_t X = absU64(A.Small), Y = absU64(B.Small);
    while (Y != 0) {
      uint64_t T = X % Y;
      X = Y;
      Y = T;
    }
    if (X <= static_cast<uint64_t>(INT64_MAX))
      return BigInt(static_cast<int64_t>(X));
    // gcd involving INT64_MIN can be 2^63, one past the inline range.
    return makeLarge(1, {static_cast<uint32_t>(X),
                         static_cast<uint32_t>(X >> 32)});
  }
  BigInt X = A.abs(), Y = B.abs();
  while (!Y.isZero()) {
    BigInt T = X % Y;
    X = Y;
    Y = T;
  }
  return X;
}

BigInt BigInt::lcm(const BigInt &A, const BigInt &B) {
  if (A.isZero() || B.isZero())
    return BigInt();
  return (A.abs() / gcd(A, B)) * B.abs();
}

size_t BigInt::hash() const {
  // splitmix64-style mixing; limb form folds each limb in.
  auto mix = [](uint64_t X) {
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  };
  if (IsSmall)
    return static_cast<size_t>(mix(static_cast<uint64_t>(Small)));
  uint64_t H = mix(Sign < 0 ? ~0ULL : 1ULL);
  for (uint32_t L : Mag)
    H = mix(H ^ L);
  return static_cast<size_t>(H);
}

std::string BigInt::toString() const {
  if (IsSmall)
    return std::to_string(Small);
  std::string Digits;
  std::vector<uint32_t> M = Mag;
  std::vector<uint32_t> Ten = {10};
  while (!M.empty()) {
    std::vector<uint32_t> Rem;
    M = divModMag(M, Ten, Rem);
    Digits.push_back(static_cast<char>('0' + (Rem.empty() ? 0 : Rem[0])));
  }
  if (Sign < 0)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}
