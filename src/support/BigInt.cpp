//===- support/BigInt.cpp - Arbitrary-precision integers ------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
//
// The limb paths. Every int64 fast path is inline in BigInt.h and uses the
// compiler's checked-arithmetic builtins; on overflow, or for a limb-form
// operand, it calls one of the *Slow functions here, which materialize the
// operands into limb vectors and run the exact limb algorithms. Results
// are demoted back to the inline form whenever they fit, keeping the
// representation canonical (limb form <=> value outside int64 range).
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

BigInt BigInt::negSlow() const {
  // -INT64_MIN = 2^63 does not fit; negating +2^63 (limb form) lands on
  // INT64_MIN. makeLarge re-canonicalizes both.
  if (IsSmall)
    return makeLarge(1, {0, 0x80000000u});
  return makeLarge(-Sign, Mag);
}

int BigInt::compareMag(const std::vector<uint32_t> &A,
                       const std::vector<uint32_t> &B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  for (size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

int BigInt::compareSlow(const BigInt &RHS) const {
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
  // General case: Knuth's algorithm D (TAOCP vol. 2, 4.3.1) on 32-bit
  // limbs. Both operands are shifted left until the divisor's top limb has
  // its high bit set; each quotient limb estimated from the top two limbs
  // of the running remainder is then at most two too large, and the
  // two-limb test below settles all but one of those cases.
  size_t N = B.size(), M = A.size() - N;
  unsigned Shift = static_cast<unsigned>(__builtin_clz(B.back()));
  // Top 32 bits of the limb pair Hi:Lo shifted left by Shift.
  auto shifted = [Shift](uint32_t Hi, uint32_t Lo) {
    return static_cast<uint32_t>(
        ((static_cast<uint64_t>(Hi) << 32 | Lo) << Shift) >> 32);
  };
  std::vector<uint32_t> V(N), U(A.size() + 1);
  for (size_t I = N; I-- > 1;)
    V[I] = shifted(B[I], B[I - 1]);
  V[0] = B[0] << Shift;
  U[A.size()] = shifted(0, A.back());
  for (size_t I = A.size(); I-- > 1;)
    U[I] = shifted(A[I], A[I - 1]);
  U[0] = A[0] << Shift;

  const uint64_t Base = 1ULL << 32;
  std::vector<uint32_t> Q(M + 1, 0);
  for (size_t J = M + 1; J-- > 0;) {
    uint64_t Num = static_cast<uint64_t>(U[J + N]) << 32 | U[J + N - 1];
    uint64_t QHat = Num / V[N - 1], RHat = Num % V[N - 1];
    while (QHat >= Base || QHat * V[N - 2] > (RHat << 32 | U[J + N - 2])) {
      --QHat;
      RHat += V[N - 1];
      if (RHat >= Base)
        break;
    }
    // U[J..J+N] -= QHat * V.
    int64_t Borrow = 0;
    for (size_t I = 0; I < N; ++I) {
      uint64_t P = QHat * V[I];
      int64_t T = static_cast<int64_t>(U[I + J]) - Borrow -
                  static_cast<int64_t>(P & 0xffffffffULL);
      U[I + J] = static_cast<uint32_t>(T);
      Borrow = static_cast<int64_t>(P >> 32) - (T >> 32);
    }
    int64_t T = static_cast<int64_t>(U[J + N]) - Borrow;
    U[J + N] = static_cast<uint32_t>(T);
    if (T < 0) {
      // QHat was one too large: add V back.
      --QHat;
      uint64_t Carry = 0;
      for (size_t I = 0; I < N; ++I) {
        uint64_t S = static_cast<uint64_t>(U[I + J]) + V[I] + Carry;
        U[I + J] = static_cast<uint32_t>(S);
        Carry = S >> 32;
      }
      U[J + N] += static_cast<uint32_t>(Carry);
    }
    Q[J] = static_cast<uint32_t>(QHat);
  }
  while (!Q.empty() && Q.back() == 0)
    Q.pop_back();
  // The remainder is the low N limbs of U, shifted back.
  Rem.resize(N);
  for (size_t I = 0; I < N; ++I)
    Rem[I] = static_cast<uint32_t>(
        (static_cast<uint64_t>(U[I + 1]) << 32 | U[I]) >> Shift);
  while (!Rem.empty() && Rem.back() == 0)
    Rem.pop_back();
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

BigInt BigInt::mulSlow(const BigInt &RHS) const {
  int S = signum() * RHS.signum();
  if (S == 0)
    return BigInt();
  return makeLarge(S, mulMag(magnitude(), RHS.magnitude()));
}

BigInt BigInt::divSlow(const BigInt &RHS) const {
  std::vector<uint32_t> Rem;
  std::vector<uint32_t> Q = divModMag(magnitude(), RHS.magnitude(), Rem);
  return makeLarge(signum() * RHS.signum(), std::move(Q));
}

BigInt BigInt::modSlow(const BigInt &RHS) const {
  std::vector<uint32_t> Rem;
  divModMag(magnitude(), RHS.magnitude(), Rem);
  return makeLarge(signum(), std::move(Rem));
}

BigInt BigInt::roundedDivSlow(const BigInt &RHS, bool Up) const {
  BigInt Q = *this / RHS;
  BigInt R = *this % RHS;
  // With a nonzero remainder, the truncated quotient is one above the floor
  // when the remainder's sign differs from the divisor's, and one below the
  // ceiling when the signs match.
  if (!R.isZero() && (R.isNegative() == RHS.isNegative()) == Up)
    Q += BigInt(Up ? 1 : -1);
  return Q;
}

BigInt BigInt::floorMod(const BigInt &RHS) const {
  BigInt R = *this - floorDiv(RHS) * RHS;
  assert((R.isZero() || R.isNegative() == RHS.isNegative()) &&
         "a floor remainder takes the sign of the divisor");
  return R;
}

BigInt BigInt::gcdSlow(const BigInt &A, const BigInt &B) {
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

size_t BigInt::hashSlow() const {
  // Fold each limb into the mix, seeded by the sign.
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
