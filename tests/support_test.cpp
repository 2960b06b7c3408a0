//===- tests/support_test.cpp - BigInt/Rational/Matrix unit tests ---------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"
#include "support/LinearAlgebra.h"
#include "support/Matrix.h"
#include "support/Rational.h"
#include "support/Result.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>

using namespace pluto;

namespace {

TEST(BigIntTest, ConstructionAndToString) {
  EXPECT_EQ(BigInt(0).toString(), "0");
  EXPECT_EQ(BigInt(42).toString(), "42");
  EXPECT_EQ(BigInt(-42).toString(), "-42");
  EXPECT_EQ(BigInt(1234567890123456789LL).toString(), "1234567890123456789");
  EXPECT_EQ(BigInt(INT64_MIN).toString(), "-9223372036854775808");
  EXPECT_EQ(BigInt(INT64_MAX).toString(), "9223372036854775807");
}

TEST(BigIntTest, FromString) {
  EXPECT_EQ(BigInt::fromString("0"), BigInt(0));
  EXPECT_EQ(BigInt::fromString("-987654321"), BigInt(-987654321));
  BigInt Big = BigInt::fromString("123456789012345678901234567890");
  EXPECT_EQ(Big.toString(), "123456789012345678901234567890");
  EXPECT_FALSE(Big.fitsInt64());
}

TEST(BigIntTest, Int64RoundTrip) {
  for (long long V : {0LL, 1LL, -1LL, 1LL << 40, -(1LL << 40),
                      static_cast<long long>(INT64_MAX),
                      static_cast<long long>(INT64_MIN)}) {
    BigInt B(V);
    ASSERT_TRUE(B.fitsInt64());
    EXPECT_EQ(B.toInt64(), V);
  }
}

TEST(BigIntTest, ArithmeticMatchesInt64) {
  std::mt19937_64 Rng(7);
  std::uniform_int_distribution<long long> Dist(-1000000, 1000000);
  for (int I = 0; I < 2000; ++I) {
    long long A = Dist(Rng), B = Dist(Rng);
    EXPECT_EQ((BigInt(A) + BigInt(B)).toInt64(), A + B);
    EXPECT_EQ((BigInt(A) - BigInt(B)).toInt64(), A - B);
    EXPECT_EQ((BigInt(A) * BigInt(B)).toInt64(), A * B);
    if (B != 0) {
      EXPECT_EQ((BigInt(A) / BigInt(B)).toInt64(), A / B);
      EXPECT_EQ((BigInt(A) % BigInt(B)).toInt64(), A % B);
    }
  }
}

TEST(BigIntTest, LargeMultiplyDivideRoundTrip) {
  BigInt A = BigInt::fromString("340282366920938463463374607431768211456");
  BigInt B = BigInt::fromString("18446744073709551629");
  BigInt P = A * B;
  EXPECT_EQ(P / B, A);
  EXPECT_EQ(P / A, B);
  EXPECT_TRUE((P % A).isZero());
  EXPECT_EQ(P.divExact(B), A);
}

TEST(BigIntTest, FloorCeilDivision) {
  EXPECT_EQ(BigInt(7).floorDiv(BigInt(2)).toInt64(), 3);
  EXPECT_EQ(BigInt(-7).floorDiv(BigInt(2)).toInt64(), -4);
  EXPECT_EQ(BigInt(7).floorDiv(BigInt(-2)).toInt64(), -4);
  EXPECT_EQ(BigInt(-7).floorDiv(BigInt(-2)).toInt64(), 3);
  EXPECT_EQ(BigInt(7).ceilDiv(BigInt(2)).toInt64(), 4);
  EXPECT_EQ(BigInt(-7).ceilDiv(BigInt(2)).toInt64(), -3);
  EXPECT_EQ(BigInt(7).floorMod(BigInt(3)).toInt64(), 1);
  EXPECT_EQ(BigInt(-7).floorMod(BigInt(3)).toInt64(), 2);
}

TEST(BigIntTest, GcdLcm) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).toInt64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).toInt64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).toInt64(), 5);
  EXPECT_EQ(BigInt::lcm(BigInt(4), BigInt(6)).toInt64(), 12);
  EXPECT_EQ(BigInt::lcm(BigInt(0), BigInt(6)).toInt64(), 0);
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  BigInt Big = BigInt::fromString("99999999999999999999");
  EXPECT_GT(Big, BigInt(INT64_MAX));
  EXPECT_LT(-Big, BigInt(INT64_MIN));
}

// ---- Randomized oracle for the small-integer fast path ------------------
//
// The inline int64 representation promotes to limbs exactly at the int64
// overflow boundary; these tests hammer that boundary against a __int128
// oracle so the fast path is proven behavior-identical to the limb
// algorithms.

std::string int128ToString(__int128 V) {
  if (V == 0)
    return "0";
  bool Neg = V < 0;
  unsigned __int128 U =
      Neg ? ~static_cast<unsigned __int128>(V) + 1
          : static_cast<unsigned __int128>(V);
  std::string S;
  while (U != 0) {
    S.push_back(static_cast<char>('0' + static_cast<int>(U % 10)));
    U /= 10;
  }
  if (Neg)
    S.push_back('-');
  std::reverse(S.begin(), S.end());
  return S;
}

/// Draws values clustered around the int64 overflow boundary: exact
/// boundary values, small offsets from them, and uniform 64-bit noise.
int64_t boundaryValue(std::mt19937_64 &Rng) {
  std::uniform_int_distribution<int> Kind(0, 3);
  std::uniform_int_distribution<int64_t> SmallOff(0, 1000);
  switch (Kind(Rng)) {
  case 0:
    return INT64_MAX - SmallOff(Rng);
  case 1:
    return INT64_MIN + SmallOff(Rng);
  case 2: {
    // Around +-2^31..2^33: products straddle the promotion boundary.
    int64_t Base = (1LL << 31) + SmallOff(Rng) * ((1LL << 33) / 1000);
    return Rng() % 2 ? Base : -Base;
  }
  default:
    return static_cast<int64_t>(Rng());
  }
}

TEST(BigIntOracleTest, Int128CrossCheckAroundOverflowBoundary) {
  std::mt19937_64 Rng(20260806);
  for (int I = 0; I < 20000; ++I) {
    int64_t A = boundaryValue(Rng), B = boundaryValue(Rng);
    __int128 A128 = A, B128 = B;
    BigInt BA(A), BB(B);
    EXPECT_EQ((BA + BB).toString(), int128ToString(A128 + B128));
    EXPECT_EQ((BA - BB).toString(), int128ToString(A128 - B128));
    EXPECT_EQ((BA * BB).toString(), int128ToString(A128 * B128));
    EXPECT_EQ(BA.compare(BB), A < B ? -1 : A > B ? 1 : 0);
    if (B != 0) {
      EXPECT_EQ((BA / BB).toString(), int128ToString(A128 / B128));
      EXPECT_EQ((BA % BB).toString(), int128ToString(A128 % B128));
      // Floor division: truncating quotient adjusted when signs differ.
      __int128 Q = A128 / B128, R = A128 % B128;
      __int128 FQ = (R != 0 && ((R < 0) != (B128 < 0))) ? Q - 1 : Q;
      __int128 CQ = (R != 0 && ((R < 0) == (B128 < 0))) ? Q + 1 : Q;
      EXPECT_EQ(BA.floorDiv(BB).toString(), int128ToString(FQ));
      EXPECT_EQ(BA.ceilDiv(BB).toString(), int128ToString(CQ));
      EXPECT_EQ(BA.floorMod(BB).toString(), int128ToString(A128 - FQ * B128));
    }
  }
}

TEST(BigIntOracleTest, DivModGcdLcmIdentities) {
  std::mt19937_64 Rng(97);
  for (int I = 0; I < 20000; ++I) {
    int64_t A = boundaryValue(Rng), B = boundaryValue(Rng);
    BigInt BA(A), BB(B);
    if (B != 0) {
      // (a/b)*b + a%b == a (C semantics), |a%b| < |b|.
      EXPECT_EQ((BA / BB) * BB + (BA % BB), BA);
      EXPECT_LT((BA % BB).abs(), BB.abs());
    }
    BigInt G = BigInt::gcd(BA, BB);
    if (A != 0 || B != 0) {
      EXPECT_TRUE(G.isPositive());
      EXPECT_TRUE((BA % G).isZero());
      EXPECT_TRUE((BB % G).isZero());
    } else {
      EXPECT_TRUE(G.isZero());
    }
    if (A != 0 && B != 0) {
      // lcm * gcd == |a * b|.
      __int128 Prod = static_cast<__int128>(A) * B;
      if (Prod < 0)
        Prod = -Prod;
      EXPECT_EQ((BigInt::lcm(BA, BB) * G).toString(), int128ToString(Prod));
    }
  }
}

TEST(BigIntOracleTest, PromotionBoundaryExact) {
  // Exactly INT64_MAX stays inline; one past promotes; demotion comes back.
  BigInt Max(INT64_MAX), Min(INT64_MIN), One(1);
  EXPECT_TRUE(Max.fitsInt64());
  EXPECT_TRUE(Min.fitsInt64());
  BigInt MaxPlus = Max + One;
  EXPECT_FALSE(MaxPlus.fitsInt64());
  EXPECT_EQ(MaxPlus.toString(), "9223372036854775808");
  EXPECT_TRUE((MaxPlus - One).fitsInt64());
  EXPECT_EQ((MaxPlus - One).toInt64(), INT64_MAX);
  BigInt MinMinus = Min - One;
  EXPECT_FALSE(MinMinus.fitsInt64());
  EXPECT_EQ(MinMinus.toString(), "-9223372036854775809");
  EXPECT_TRUE((MinMinus + One).fitsInt64());
  EXPECT_EQ((MinMinus + One).toInt64(), INT64_MIN);
  // Negation of INT64_MIN promotes; re-negation demotes.
  BigInt NegMin = -Min;
  EXPECT_FALSE(NegMin.fitsInt64());
  EXPECT_EQ(NegMin.toString(), "9223372036854775808");
  EXPECT_EQ(-NegMin, Min);
  EXPECT_EQ(Min.abs(), NegMin);
  // INT64_MIN / -1 and % -1 (the one overflowing int64 division).
  EXPECT_EQ((Min / BigInt(-1)), NegMin);
  EXPECT_TRUE((Min % BigInt(-1)).isZero());
  // gcd(INT64_MIN, 0) == 2^63 does not fit int64.
  BigInt G = BigInt::gcd(Min, BigInt(0));
  EXPECT_FALSE(G.fitsInt64());
  EXPECT_EQ(G.toString(), "9223372036854775808");
  EXPECT_EQ(BigInt::gcd(Min, Min), NegMin);
}

TEST(BigIntOracleTest, StringParsedBigValueIdentities) {
  // Values far beyond 128 bits: check algebraic identities and exact
  // decimal round-trips against string-parsed references.
  std::mt19937_64 Rng(1234);
  std::uniform_int_distribution<int> Len(20, 60);
  std::uniform_int_distribution<int> Digit(0, 9);
  for (int I = 0; I < 200; ++I) {
    std::string SA = "1", SB = "2"; // Nonzero leading digits.
    for (int J = Len(Rng); J-- > 0;)
      SA.push_back(static_cast<char>('0' + Digit(Rng)));
    for (int J = Len(Rng); J-- > 0;)
      SB.push_back(static_cast<char>('0' + Digit(Rng)));
    BigInt A = BigInt::fromString(SA);
    BigInt B = BigInt::fromString(SB);
    EXPECT_EQ(A.toString(), SA);
    EXPECT_EQ(B.toString(), SB);
    EXPECT_EQ((A + B) - B, A);
    EXPECT_EQ((A * B).divExact(B), A);
    EXPECT_EQ((A * B) % A, BigInt(0));
    EXPECT_EQ((-A).abs(), A);
    BigInt Q = A / B, R = A % B;
    EXPECT_EQ(Q * B + R, A);
    EXPECT_LT(R.abs(), B.abs());
    BigInt G = BigInt::gcd(A * B, B);
    EXPECT_TRUE((B % G).isZero());
    // Mixed small/large arithmetic demotes correctly.
    EXPECT_EQ((A + BigInt(1)) - A, BigInt(1));
    EXPECT_TRUE(((A + BigInt(1)) - A).fitsInt64());
  }
}

/// Builds a value from 32-bit limbs given most significant first.
BigInt fromLimbs(const std::vector<uint32_t> &Limbs, bool Neg) {
  BigInt V(0);
  for (uint32_t L : Limbs)
    V = V * BigInt(1LL << 32) + BigInt(static_cast<long long>(L));
  return Neg ? -V : V;
}

/// Checks a / b and a % b by the division identity: q*b + r == a,
/// |r| < |b|, r zero or of a's sign, and q zero or of sign(a)*sign(b).
void expectDivisionIdentity(const BigInt &A, const BigInt &B) {
  BigInt Q = A / B, R = A % B;
  EXPECT_EQ(Q * B + R, A) << A.toString() << " / " << B.toString();
  EXPECT_LT(R.abs(), B.abs()) << A.toString() << " % " << B.toString();
  EXPECT_TRUE(R.isZero() || R.isNegative() == A.isNegative())
      << A.toString() << " % " << B.toString();
  EXPECT_TRUE(Q.isZero() || Q.isNegative() != (A.isNegative() ==
                                               B.isNegative()))
      << A.toString() << " / " << B.toString();
}

TEST(BigIntOracleTest, MultiLimbDivision) {
  // Random 2-8-limb operands of both signs reach the general case of the
  // limb division. Limbs are drawn from the extremes as often as not, so
  // the quotient-digit correction and add-back steps run too; operands of
  // at most three limbs are also checked against __int128.
  std::mt19937_64 Rng(1717);
  std::uniform_int_distribution<int> NumLimbs(2, 8), Kind(0, 7);
  auto limb = [&]() -> uint32_t {
    switch (Kind(Rng)) {
    case 0:
      return 0;
    case 1:
      return 0xffffffffu;
    case 2:
      return 0x80000000u;
    case 3:
      return 1;
    default:
      return static_cast<uint32_t>(Rng());
    }
  };
  for (int I = 0; I < 4000; ++I) {
    std::vector<uint32_t> LA(NumLimbs(Rng)), LB(NumLimbs(Rng));
    for (uint32_t &L : LA)
      L = limb();
    for (uint32_t &L : LB)
      L = limb();
    LA[0] |= 1; // Keep the intended limb counts.
    LB[0] |= 1;
    bool NegA = Rng() % 2, NegB = Rng() % 2;
    BigInt A = fromLimbs(LA, NegA), B = fromLimbs(LB, NegB);
    expectDivisionIdentity(A, B);
    expectDivisionIdentity(A * B + B.abs() - BigInt(1), B);
    if (LA.size() <= 3 && LB.size() <= 3) {
      __int128 A128 = 0, B128 = 0;
      for (uint32_t L : LA)
        A128 = A128 * (static_cast<__int128>(1) << 32) + L;
      for (uint32_t L : LB)
        B128 = B128 * (static_cast<__int128>(1) << 32) + L;
      A128 = NegA ? -A128 : A128;
      B128 = NegB ? -B128 : B128;
      EXPECT_EQ((A / B).toString(), int128ToString(A128 / B128));
      EXPECT_EQ((A % B).toString(), int128ToString(A128 % B128));
    }
  }
  // Operands whose first quotient digit is overestimated by one and needs
  // the add-back step (Hacker's Delight, divmnu64 test cases).
  expectDivisionIdentity(fromLimbs({0x80000000u, 0, 3}, false),
                         fromLimbs({0x20000000u, 0, 1}, false));
  expectDivisionIdentity(fromLimbs({0x7fffffffu, 0x80000000u, 0, 0}, false),
                         fromLimbs({0x80000000u, 0, 1}, false));
  expectDivisionIdentity(fromLimbs({0x8000u, 0, 0xfffeu, 0}, false),
                         fromLimbs({0x8000u, 0, 0xffffu}, false));
  EXPECT_EQ(fromLimbs({0x80000000u, 0, 3}, false) /
                fromLimbs({0x20000000u, 0, 1}, false),
            BigInt(3));
}

TEST(RationalTest, Normalization) {
  Rational R(BigInt(4), BigInt(-6));
  EXPECT_EQ(R.num().toInt64(), -2);
  EXPECT_EQ(R.den().toInt64(), 3);
  EXPECT_EQ(Rational(BigInt(0), BigInt(-7)).den().toInt64(), 1);
}

TEST(RationalTest, Arithmetic) {
  Rational Half(BigInt(1), BigInt(2));
  Rational Third(BigInt(1), BigInt(3));
  EXPECT_EQ((Half + Third).toString(), "5/6");
  EXPECT_EQ((Half - Third).toString(), "1/6");
  EXPECT_EQ((Half * Third).toString(), "1/6");
  EXPECT_EQ((Half / Third).toString(), "3/2");
  EXPECT_TRUE((Half - Half).isZero());
}

TEST(RationalTest, FloorCeilFract) {
  Rational R(BigInt(-7), BigInt(2));
  EXPECT_EQ(R.floor().toInt64(), -4);
  EXPECT_EQ(R.ceil().toInt64(), -3);
  EXPECT_EQ(R.fract().toString(), "1/2");
  EXPECT_TRUE(Rational(5).isInteger());
  EXPECT_FALSE(R.isInteger());
}

TEST(MatrixTest, Basics) {
  IntMatrix M = {{1, 2}, {3, 4}};
  EXPECT_EQ(M.numRows(), 2u);
  EXPECT_EQ(M.numCols(), 2u);
  EXPECT_EQ(M(1, 0).toInt64(), 3);
  IntMatrix T = M.transpose();
  EXPECT_EQ(T(0, 1).toInt64(), 3);
  IntMatrix P = M * IntMatrix::identity(2);
  EXPECT_EQ(P, M);
}

TEST(MatrixTest, Product) {
  IntMatrix A = {{1, 2}, {3, 4}};
  IntMatrix B = {{5, 6}, {7, 8}};
  IntMatrix P = A * B;
  IntMatrix Want = {{19, 22}, {43, 50}};
  EXPECT_EQ(P, Want);
}

/// The schoolbook product, every term included.
template <typename T> Matrix<T> naiveProduct(const Matrix<T> &A,
                                             const Matrix<T> &B) {
  Matrix<T> R(A.numRows(), B.numCols());
  for (unsigned I = 0; I < A.numRows(); ++I)
    for (unsigned J = 0; J < B.numCols(); ++J)
      for (unsigned K = 0; K < A.numCols(); ++K)
        R(I, J) = R(I, J) + A(I, K) * B(K, J);
  return R;
}

/// A random Rows x Cols matrix with about ZeroPercent% zero entries (whole
/// zero rows among them) and the rest drawn from Draw.
template <typename T, typename DrawFn>
Matrix<T> zeroHeavy(std::mt19937_64 &Rng, unsigned Rows, unsigned Cols,
                    unsigned ZeroPercent, DrawFn Draw) {
  Matrix<T> M(Rows, Cols);
  std::uniform_int_distribution<unsigned> Pct(0, 99);
  for (unsigned I = 0; I < Rows; ++I) {
    if (Pct(Rng) < 10)
      continue;
    for (unsigned J = 0; J < Cols; ++J)
      if (Pct(Rng) >= ZeroPercent)
        M(I, J) = Draw();
  }
  return M;
}

TEST(MatrixTest, SparseProductMatchesNaiveProduct) {
  std::mt19937_64 Rng(2424);
  std::uniform_int_distribution<unsigned> Dim(1, 9), Zero(50, 95);
  std::uniform_int_distribution<long long> Small(-5, 5), Num(-40, 40),
      Den(1, 12);
  std::uniform_int_distribution<int> Kind(0, 3);
  auto bigInt = [&] {
    BigInt V(Small(Rng));
    // Every fourth entry needs limbs: the product then takes the limb path.
    return Kind(Rng) == 0 ? V * BigInt(INT64_MAX) * BigInt(Small(Rng)) : V;
  };
  auto rational = [&] { return Rational(BigInt(Num(Rng)), BigInt(Den(Rng))); };
  for (unsigned Round = 0; Round < 300; ++Round) {
    unsigned M = Dim(Rng), K = Dim(Rng), N = Dim(Rng);
    IntMatrix A = zeroHeavy<BigInt>(Rng, M, K, Zero(Rng), bigInt);
    IntMatrix B = zeroHeavy<BigInt>(Rng, K, N, Zero(Rng), bigInt);
    EXPECT_EQ(A * B, naiveProduct(A, B)) << "round " << Round;
    RatMatrix RA = zeroHeavy<Rational>(Rng, M, K, Zero(Rng), rational);
    RatMatrix RB = zeroHeavy<Rational>(Rng, K, N, Zero(Rng), rational);
    EXPECT_EQ(RA * RB, naiveProduct(RA, RB)) << "round " << Round;
  }
}

TEST(MatrixTest, InsertColumnsAndRows) {
  IntMatrix M = {{1, 2}, {3, 4}};
  M.insertZeroColumns(1, 2);
  EXPECT_EQ(M.numCols(), 4u);
  EXPECT_EQ(M(0, 0).toInt64(), 1);
  EXPECT_EQ(M(0, 1).toInt64(), 0);
  EXPECT_EQ(M(0, 3).toInt64(), 2);
  M.insertRow(1, {BigInt(9), BigInt(9), BigInt(9), BigInt(9)});
  EXPECT_EQ(M.numRows(), 3u);
  EXPECT_EQ(M(1, 0).toInt64(), 9);
  M.removeRow(1);
  EXPECT_EQ(M(1, 0).toInt64(), 3);
}

TEST(LinearAlgebraTest, Rank) {
  EXPECT_EQ(rank(IntMatrix({{1, 0}, {0, 1}})), 2u);
  EXPECT_EQ(rank(IntMatrix({{1, 2}, {2, 4}})), 1u);
  EXPECT_EQ(rank(IntMatrix({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})), 2u);
  EXPECT_EQ(rank(IntMatrix(0, 3)), 0u);
}

TEST(LinearAlgebraTest, Inverse) {
  RatMatrix M = toRational(IntMatrix({{2, 1}, {1, 1}}));
  auto Inv = inverse(M);
  ASSERT_TRUE(Inv.has_value());
  RatMatrix P = M * *Inv;
  EXPECT_EQ(P, RatMatrix::identity(2));
  EXPECT_FALSE(inverse(toRational(IntMatrix({{1, 2}, {2, 4}}))).has_value());
}

TEST(LinearAlgebraTest, OrthogonalComplementOfEmptyIsIdentity) {
  IntMatrix H(0, 3);
  EXPECT_EQ(orthogonalComplement(H), IntMatrix::identity(3));
}

TEST(LinearAlgebraTest, OrthogonalComplementProperties) {
  // H = span{(1,0,0)}; complement must have rank 2, rows orthogonal to H.
  IntMatrix H = {{1, 0, 0}};
  IntMatrix Perp = orthogonalComplement(H);
  EXPECT_EQ(Perp.numRows(), 2u);
  for (unsigned R = 0; R < Perp.numRows(); ++R) {
    BigInt Dot(0);
    for (unsigned C = 0; C < 3; ++C)
      Dot += Perp(R, C) * H(0, C);
    EXPECT_TRUE(Dot.isZero());
  }
}

TEST(LinearAlgebraTest, OrthogonalComplementSkewedRow) {
  // The classic time-skewing case: H = {(1,1)}. Complement is rank 1 and
  // orthogonal to (1,1): proportional to (1,-1).
  IntMatrix H = {{1, 1}};
  IntMatrix Perp = orthogonalComplement(H);
  ASSERT_EQ(Perp.numRows(), 1u);
  EXPECT_TRUE((Perp(0, 0) + Perp(0, 1)).isZero());
  EXPECT_FALSE(Perp(0, 0).isZero());
}

TEST(LinearAlgebraTest, FullRowSpaceHasEmptyComplement) {
  IntMatrix H = {{1, 0}, {1, 1}};
  EXPECT_EQ(orthogonalComplement(H).numRows(), 0u);
}

TEST(LinearAlgebraTest, IsLinearlyIndependent) {
  IntMatrix M = {{1, 0, 0}, {0, 1, 0}};
  EXPECT_TRUE(isLinearlyIndependent(M, {BigInt(0), BigInt(0), BigInt(1)}));
  EXPECT_FALSE(isLinearlyIndependent(M, {BigInt(2), BigInt(-3), BigInt(0)}));
}

TEST(LinearAlgebraTest, NormalizeByGcd) {
  std::vector<BigInt> Row = {BigInt(4), BigInt(-6), BigInt(8)};
  normalizeByGcd(Row);
  EXPECT_EQ(Row[0].toInt64(), 2);
  EXPECT_EQ(Row[1].toInt64(), -3);
  EXPECT_EQ(Row[2].toInt64(), 4);
  std::vector<BigInt> Zero = {BigInt(0), BigInt(0)};
  normalizeByGcd(Zero); // Must not crash or change values.
  EXPECT_TRUE(Zero[0].isZero());
}

TEST(ResultTest, ValueAndError) {
  Result<int> Ok(42);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(*Ok, 42);
  Result<int> Bad = Err("boom");
  ASSERT_FALSE(Bad);
  EXPECT_EQ(Bad.error(), "boom");
}

} // namespace
