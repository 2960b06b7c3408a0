//===- tests/ilp_test.cpp - LexMin solver unit tests ----------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "ilp/LexMin.h"
#include "observe/PassStats.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>

using namespace pluto;
using namespace pluto::ilp;

namespace {

IntMatrix rows(std::initializer_list<std::initializer_list<long long>> R,
               unsigned Cols) {
  IntMatrix M(Cols);
  for (const auto &Row : R) {
    std::vector<BigInt> V;
    for (long long X : Row)
      V.push_back(BigInt(X));
    M.addRow(std::move(V));
  }
  return M;
}

std::vector<long long> pt(const LexMinResult &R) {
  std::vector<long long> V;
  for (const BigInt &B : R.Point)
    V.push_back(B.toInt64());
  return V;
}

TEST(LexMinTest, UnconstrainedIsZero) {
  LexMinResult R = lexMinNonNeg(IntMatrix(3), IntMatrix(3), 2);
  ASSERT_TRUE(R.feasible());
  EXPECT_EQ(pt(R), (std::vector<long long>{0, 0}));
}

TEST(LexMinTest, SingleLowerBound) {
  // x0 >= 5.
  LexMinResult R = lexMinNonNeg(rows({{1, -5}}, 2), IntMatrix(2), 1);
  ASSERT_TRUE(R.feasible());
  EXPECT_EQ(pt(R), (std::vector<long long>{5}));
}

TEST(LexMinTest, SumConstraintPushesToSecondCoordinate) {
  // x0 + x1 >= 3: lexmin is (0, 3).
  LexMinResult R = lexMinNonNeg(rows({{1, 1, -3}}, 3), IntMatrix(3), 2);
  ASSERT_TRUE(R.feasible());
  EXPECT_EQ(pt(R), (std::vector<long long>{0, 3}));
}

TEST(LexMinTest, LexOrderPrefersEarlyCoordinates) {
  // x0 + x1 >= 3 and x0 <= 1: lexmin (0,3) still; adding x1 <= 2 forces
  // x0 >= 1 -> (1, 2).
  IntMatrix I = rows({{1, 1, -3}, {-1, 0, 1}, {0, -1, 2}}, 3);
  LexMinResult R = lexMinNonNeg(I, IntMatrix(3), 2);
  ASSERT_TRUE(R.feasible());
  EXPECT_EQ(pt(R), (std::vector<long long>{1, 2}));
}

TEST(LexMinTest, Infeasible) {
  // x0 <= 2 and x0 >= 5.
  IntMatrix I = rows({{-1, 2}, {1, -5}}, 2);
  LexMinResult R = lexMinNonNeg(I, IntMatrix(2), 1);
  EXPECT_EQ(R.Status, SolveStatus::Infeasible);
}

TEST(LexMinTest, EqualityConstraints) {
  // x0 + x1 == 4, x0 - x1 == 2 -> (3, 1).
  IntMatrix E = rows({{1, 1, -4}, {1, -1, -2}}, 3);
  LexMinResult R = lexMinNonNeg(IntMatrix(3), E, 2);
  ASSERT_TRUE(R.feasible());
  EXPECT_EQ(pt(R), (std::vector<long long>{3, 1}));
}

TEST(LexMinTest, IntegralityGomoryCut) {
  // 2*x0 >= 3 -> rational min 1.5, integer min 2.
  LexMinResult R = lexMinNonNeg(rows({{2, -3}}, 2), IntMatrix(2), 1);
  ASSERT_TRUE(R.feasible());
  EXPECT_EQ(pt(R), (std::vector<long long>{2}));
}

TEST(LexMinTest, IntegralityAcrossCoordinates) {
  // 2*x0 + 2*x1 == 5 has no integer solution.
  IntMatrix E = rows({{2, 2, -5}}, 3);
  LexMinResult R = lexMinNonNeg(IntMatrix(3), E, 2);
  EXPECT_EQ(R.Status, SolveStatus::Infeasible);
}

TEST(LexMinTest, RationallyFeasibleIntegerInfeasible) {
  // 1 <= 3*x0 <= 2 has the rational point 1/2 but no integer point.
  IntMatrix I = rows({{3, -1}, {-3, 2}}, 2);
  LexMinResult R = lexMinNonNeg(I, IntMatrix(2), 1);
  EXPECT_EQ(R.Status, SolveStatus::Infeasible);
}

TEST(LexMinTest, MixedCutProblem) {
  // x0 + 2*x1 >= 7, 3*x0 + x1 >= 8, integer lexmin:
  // x0 = 0 -> x1 >= max(ceil(7/2), 8) = 8 -> (0, 8).
  IntMatrix I = rows({{1, 2, -7}, {3, 1, -8}}, 3);
  LexMinResult R = lexMinNonNeg(I, IntMatrix(3), 2);
  ASSERT_TRUE(R.feasible());
  EXPECT_EQ(pt(R), (std::vector<long long>{0, 8}));
}

TEST(LexMinTest, KnapsackStyle) {
  // 5*x0 + 3*x1 == 11: integer solutions (1, 2) (x0=1,x1=2). Lexmin x0:
  // x0=1 is the smallest feasible (x0=0 -> 3*x1=11 infeasible).
  IntMatrix E = rows({{5, 3, -11}}, 3);
  LexMinResult R = lexMinNonNeg(IntMatrix(3), E, 2);
  ASSERT_TRUE(R.feasible());
  EXPECT_EQ(pt(R), (std::vector<long long>{1, 2}));
}

TEST(LexMinTest, PlutoShapedSystem) {
  // A miniature of the paper's objective (5): variables (u, w, c1, c2),
  // legality c1 + c2 >= 1, bounding u + w - c2 >= 0, u + w - c1 >= 0.
  // Lexmin drives u, then w, to 0 ... but w >= c_i then forces w >= 1 when
  // u = 0; solver should find (0, 1, 0, 1): c1 = 0, c2 = 1 satisfies all.
  IntMatrix I = rows({{0, 0, 1, 1, -1},   // c1 + c2 >= 1
                      {1, 1, 0, -1, 0},   // u + w - c2 >= 0
                      {1, 1, -1, 0, 0}},  // u + w - c1 >= 0
                     5);
  LexMinResult R = lexMinNonNeg(I, IntMatrix(5), 4);
  ASSERT_TRUE(R.feasible());
  EXPECT_EQ(pt(R), (std::vector<long long>{0, 1, 0, 1}));
}

/// Runs one cold lexmin under a fresh stats sink; returns the sink's
/// (lexmin_calls, simplex_pivots, gomory_cuts).
std::vector<uint64_t> solveCounts(const IntMatrix &Ineqs, unsigned NumVars,
                                  LexMinResult &Out) {
  PassStats Stats;
  setActiveStats(&Stats);
  Out = lexMinNonNeg(Ineqs, IntMatrix(NumVars + 1), NumVars);
  setActiveStats(nullptr);
  return {Stats.get(Counter::LexMinCalls), Stats.get(Counter::SimplexPivots),
          Stats.get(Counter::GomoryCuts)};
}

TEST(LexMinStatsTest, SolveWithoutPivotReportsZeroPivots) {
  // x0 <= 5: the origin is already feasible, so no pivot runs.
  LexMinResult R;
  EXPECT_EQ(solveCounts(rows({{-1, 5}}, 2), 1, R),
            (std::vector<uint64_t>{1, 0, 0}));
  ASSERT_TRUE(R.feasible());
  EXPECT_EQ(pt(R), (std::vector<long long>{0}));
}

TEST(LexMinStatsTest, PivotCountIsExact) {
  // x0 >= 5 and x1 >= 3: one pivot repairs each row.
  LexMinResult R;
  EXPECT_EQ(solveCounts(rows({{1, 0, -5}, {0, 1, -3}}, 3), 2, R),
            (std::vector<uint64_t>{1, 2, 0}));
  EXPECT_EQ(pt(R), (std::vector<long long>{5, 3}));
  // 2*x0 >= 3: one pivot reaches x0 = 3/2, the Gomory cut q/2 - 1/2 >= 0
  // on the new non-basic q takes a second one to reach x0 = 2.
  EXPECT_EQ(solveCounts(rows({{2, -3}}, 2), 1, R),
            (std::vector<uint64_t>{1, 2, 1}));
  EXPECT_EQ(pt(R), (std::vector<long long>{2}));
}

TEST(LexMinStatsTest, PivotCapCountsOnlyRealPivots) {
  SolveLimits One;
  One.MaxPivots = 1;
  ScopedSolveLimits Guard(One);
  // One pivot fits the cap of one; a second one does not.
  EXPECT_TRUE(lexMinNonNeg(rows({{1, -5}}, 2), IntMatrix(2), 1).feasible());
  EXPECT_EQ(lexMinNonNeg(rows({{1, 0, -5}, {0, 1, -3}}, 3), IntMatrix(3), 2)
                .Status,
            SolveStatus::Aborted);
}

TEST(IntegerFeasibilityTest, FreeVariables) {
  // x0 <= -3 (free sign): point exists.
  IntMatrix I = rows({{-1, -3}}, 2);
  std::vector<BigInt> W;
  EXPECT_NE(integerFeasibility(I, IntMatrix(2), 1, &W), Feasibility::Empty);
  ASSERT_EQ(W.size(), 1u);
  EXPECT_LE(W[0].toInt64(), -3);
}

TEST(IntegerFeasibilityTest, EmptyStrip) {
  // 1 <= 2*x0 <= 1 over free x0: x0 = 1/2 only -> integer empty.
  IntMatrix I = rows({{2, -1}, {-2, 1}}, 2);
  EXPECT_EQ(integerFeasibility(I, IntMatrix(2), 1), Feasibility::Empty);
}

TEST(IntegerFeasibilityTest, DependencePolyhedronShape) {
  // Pairs (i, i') with 0 <= i, i' <= N - 1, i' = i + 1, N >= 2 (vars:
  // i, i', N). This is the 1-d uniform-dependence polyhedron; nonempty.
  IntMatrix I = rows({{1, 0, 0, 0},    // i >= 0
                      {-1, 0, 1, -1},  // i <= N-1
                      {0, 1, 0, 0},    // i' >= 0
                      {0, -1, 1, -1},  // i' <= N-1
                      {0, 0, 1, -2}},  // N >= 2
                     4);
  IntMatrix E = rows({{-1, 1, 0, -1}}, 4); // i' - i - 1 == 0
  std::vector<BigInt> W;
  EXPECT_NE(integerFeasibility(I, E, 3, &W), Feasibility::Empty);
  EXPECT_EQ(W[1].toInt64(), W[0].toInt64() + 1);
}

TEST(IntegerFeasibilityTest, ContradictoryEqualities) {
  IntMatrix E = rows({{1, 1, -4}, {1, 1, -5}}, 3);
  EXPECT_EQ(integerFeasibility(IntMatrix(3), E, 2), Feasibility::Empty);
}

//===----------------------------------------------------------------------===//
// Randomized oracle: the solver against brute-force enumeration
//===----------------------------------------------------------------------===//

/// splitmix64: a fixed, platform-independent stream per seed.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  long long range(long long Lo, long long Hi) {
    return Lo + static_cast<long long>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }

private:
  uint64_t State;
};

/// A random system over NumVars variables whose points are searched in the
/// box [Lo, Hi]^NumVars. Each row is built around a random box point P:
/// small coefficients a with constant -a.P + r, so the row passes near P
/// and cuts the box somewhere. With Big set, each row's coefficients are
/// scaled by its own K in [2^40, 2^56] (and its slack r by up to 2K), so
/// coefficients reach 2^58 and constants 2^62: the products of two rows'
/// scales leave int64, in tableau numerators and row denominators alike.
/// (Perturbing big coefficients individually gives relaxations whose
/// vertices have ~100-bit denominators; Gomory cuts then need thousands
/// of rounds, which is the method's known weakness, not a wrong answer.)
struct RandomSystem {
  unsigned NumVars = 0;
  IntMatrix Ineqs, Eqs;
};

RandomSystem randomSystem(Rng &R, unsigned NumVars, long long Lo,
                          long long Hi, bool Big) {
  RandomSystem S;
  S.NumVars = NumVars;
  unsigned N = NumVars;
  S.Ineqs = IntMatrix(N + 1);
  S.Eqs = IntMatrix(N + 1);
  BigInt K(1);
  auto row = [&](bool Equality) {
    std::vector<long long> P(N);
    for (long long &X : P)
      X = R.range(Lo, Hi);
    if (Big)
      K = BigInt(1LL << R.range(40, 56)) + BigInt(R.range(0, 1000));
    std::vector<BigInt> Row(N + 1);
    BigInt AtP(0);
    for (unsigned I = 0; I < N; ++I) {
      Row[I] = BigInt(R.range(-3, 3)) * K;
      AtP += Row[I] * BigInt(P[I]);
    }
    // Equalities hold at P (or miss it by one); inequalities leave P a
    // slack in [-K, 2K].
    BigInt Slack = Equality ? BigInt(R.range(0, 3) == 0 ? 1 : 0)
                            : BigInt(R.range(-1, 2)) * K +
                                  BigInt(R.range(-2, 2));
    Row[N] = Slack - AtP;
    return Row;
  };
  unsigned NumIneqs = static_cast<unsigned>(R.range(1, 5));
  unsigned NumEqs = static_cast<unsigned>(R.range(0, 2));
  for (unsigned I = 0; I < NumIneqs; ++I)
    S.Ineqs.addRow(row(false));
  for (unsigned I = 0; I < NumEqs; ++I)
    S.Eqs.addRow(row(true));
  return S;
}

/// Appends Lo <= x_i <= Hi for every variable.
IntMatrix withBox(IntMatrix M, unsigned NumVars, long long Lo, long long Hi) {
  for (unsigned I = 0; I < NumVars; ++I) {
    std::vector<BigInt> L(NumVars + 1), U(NumVars + 1);
    L[I] = BigInt(1);
    L[NumVars] = BigInt(-Lo);
    U[I] = BigInt(-1);
    U[NumVars] = BigInt(Hi);
    M.addRow(std::move(L));
    M.addRow(std::move(U));
  }
  return M;
}

bool satisfies(const IntMatrix &Ineqs, const IntMatrix &Eqs,
               const std::vector<BigInt> &X) {
  auto eval = [&](const std::vector<BigInt> &Row) {
    BigInt V = Row[X.size()];
    for (size_t I = 0; I < X.size(); ++I)
      V += Row[I] * X[I];
    return V;
  };
  for (unsigned R = 0; R < Ineqs.numRows(); ++R)
    if (eval(Ineqs.row(R)).isNegative())
      return false;
  for (unsigned R = 0; R < Eqs.numRows(); ++R)
    if (!eval(Eqs.row(R)).isZero())
      return false;
  return true;
}

/// The lexicographically smallest point of [Lo, Hi]^NumVars satisfying the
/// rows, or nothing.
std::optional<std::vector<BigInt>> bruteLexMin(const IntMatrix &Ineqs,
                                               const IntMatrix &Eqs,
                                               unsigned NumVars, long long Lo,
                                               long long Hi) {
  std::vector<BigInt> X(NumVars, BigInt(Lo));
  std::function<bool(unsigned)> search = [&](unsigned I) {
    if (I == NumVars)
      return satisfies(Ineqs, Eqs, X);
    for (long long V = Lo; V <= Hi; ++V) {
      X[I] = BigInt(V);
      if (search(I + 1))
        return true;
    }
    return false;
  };
  if (search(0))
    return X;
  return std::nullopt;
}

TEST(LexMinOracleTest, MatchesBruteForceOnRandomSystems) {
  const long long Hi = 5;
  unsigned Feasible = 0, Infeasible = 0;
  for (uint64_t Seed = 1; Seed <= 600; ++Seed) {
    Rng R(Seed);
    bool Big = Seed % 3 == 0;
    RandomSystem S = randomSystem(R, static_cast<unsigned>(R.range(2, 4)), 0, Hi, Big);
    IntMatrix Ineqs = withBox(S.Ineqs, S.NumVars, 0, Hi);
    auto Expected = bruteLexMin(Ineqs, S.Eqs, S.NumVars, 0, Hi);
    LexMinResult Got = lexMinNonNeg(Ineqs, S.Eqs, S.NumVars);
    ASSERT_NE(Got.Status, SolveStatus::Aborted) << "seed " << Seed;
    ASSERT_EQ(Got.feasible(), Expected.has_value()) << "seed " << Seed;
    if (Expected) {
      EXPECT_EQ(Got.Point, *Expected) << "seed " << Seed;
      ++Feasible;
    } else {
      ++Infeasible;
    }
  }
  // Both verdicts must be well represented for the oracle to mean much.
  EXPECT_GE(Feasible, 100u);
  EXPECT_GE(Infeasible, 100u);
}

TEST(LexMinOracleTest, BigCoefficientsTakeTheLimbPath) {
  // The big family must actually leave int64 inside the tableau: a
  // product of two coefficients near 2^45 alone needs ~90 bits.
  Rng R(3);
  RandomSystem S = randomSystem(R, 2, 0, 5, /*Big=*/true);
  bool AnyLarge = false;
  for (unsigned I = 0; I < S.Ineqs.numRows(); ++I)
    for (const BigInt &V : S.Ineqs.row(I))
      AnyLarge |= !(V * V).fitsInt64();
  EXPECT_TRUE(AnyLarge);
}

TEST(LexMinOracleTest, BigCoefficientFamilyRerunsOnBigInt) {
  // The Seed % 3 == 0 family above leaves int64 inside the tableau, so its
  // cold solves rerun on BigInt; the small-coefficient family never does.
  PassStats Big, Small;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    Rng R(Seed);
    bool IsBig = Seed % 3 == 0;
    RandomSystem S =
        randomSystem(R, static_cast<unsigned>(R.range(2, 4)), 0, 5, IsBig);
    setActiveStats(IsBig ? &Big : &Small);
    lexMinNonNeg(withBox(S.Ineqs, S.NumVars, 0, 5), S.Eqs, S.NumVars);
    setActiveStats(nullptr);
  }
  EXPECT_GT(Big.get(Counter::LexMinBigIntReruns), 0u);
  EXPECT_EQ(Small.get(Counter::LexMinBigIntReruns), 0u);
  EXPECT_EQ(Big.get(Counter::LexMinCalls), 20u);
}

TEST(LexMinOracleTest, IntegerFeasibilityMatchesBruteForce) {
  const long long B = 3;
  unsigned Empty = 0, NonEmpty = 0;
  for (uint64_t Seed = 1001; Seed <= 1600; ++Seed) {
    Rng R(Seed);
    RandomSystem S = randomSystem(R, static_cast<unsigned>(R.range(2, 4)), -B, B, Seed % 3 == 0);
    IntMatrix Ineqs = withBox(S.Ineqs, S.NumVars, -B, B);
    bool Expected =
        bruteLexMin(Ineqs, S.Eqs, S.NumVars, -B, B).has_value();
    std::vector<BigInt> W;
    Feasibility Got = integerFeasibility(Ineqs, S.Eqs, S.NumVars, &W);
    ASSERT_NE(Got, Feasibility::Unknown) << "seed " << Seed;
    ASSERT_EQ(Got == Feasibility::HasPoint, Expected) << "seed " << Seed;
    if (Expected) {
      EXPECT_TRUE(satisfies(Ineqs, S.Eqs, W)) << "seed " << Seed;
      ++NonEmpty;
    } else {
      ++Empty;
    }
  }
  EXPECT_GE(Empty, 100u);
  EXPECT_GE(NonEmpty, 100u);
}

TEST(LexMinOracleTest, WarmSolveWithMatchesColdSolve) {
  const long long Hi = 5;
  for (uint64_t Seed = 2001; Seed <= 2200; ++Seed) {
    Rng R(Seed);
    unsigned N = static_cast<unsigned>(R.range(2, 4));
    RandomSystem S = randomSystem(R, N, 0, Hi, Seed % 3 == 0);
    RandomSystem Extra = randomSystem(R, N, 0, Hi, Seed % 3 == 0);
    IntMatrix Base = withBox(S.Ineqs, N, 0, Hi);
    LexMinSolver Solver;
    Solver.setBase(Base, S.Eqs, N);
    // Query the base alone, then each extra row alone and all of them: the
    // first call solves the base, the later ones start from its snapshot.
    std::vector<IntMatrix> Queries(1, IntMatrix(N + 1));
    for (unsigned I = 0; I < Extra.Ineqs.numRows(); ++I) {
      IntMatrix One(N + 1);
      One.addRow(Extra.Ineqs.row(I));
      Queries.push_back(std::move(One));
    }
    Queries.push_back(Extra.Ineqs);
    for (const IntMatrix &Q : Queries) {
      IntMatrix All = Base;
      for (unsigned I = 0; I < Q.numRows(); ++I)
        All.addRow(Q.row(I));
      LexMinResult Cold = lexMinNonNeg(All, S.Eqs, N);
      LexMinResult Warm = Solver.solveWith(Q);
      ASSERT_EQ(Warm.Status, Cold.Status) << "seed " << Seed;
      EXPECT_EQ(Warm.Point, Cold.Point) << "seed " << Seed;
    }
  }
}

//===----------------------------------------------------------------------===//
// The int64 tableau: each overflow reruns the solve on BigInt
//===----------------------------------------------------------------------===//

/// Runs Solve under a fresh stats sink; returns its BigInt reruns.
uint64_t bigIntReruns(const std::function<void()> &Solve) {
  PassStats Stats;
  setActiveStats(&Stats);
  Solve();
  setActiveStats(nullptr);
  EXPECT_EQ(Stats.get(Counter::LexMinCalls), 1u);
  return Stats.get(Counter::LexMinBigIntReruns);
}

TEST(Int64TableauTest, FirstPivotProductOverflowReruns) {
  // x0 + x1 >= 1 and x0 - x1 + 3 >= 0, each scaled by K = 2^40. Every
  // entry fits int64, but the first pivot (first row, column x1, pivot K)
  // multiplies the second row's entry K by K: 2^80. Lexmin (0, 1).
  const long long K = 1LL << 40;
  IntMatrix I = withBox(rows({{K, K, -K}, {K, -K, 3 * K}}, 3), 2, 0, 5);
  LexMinResult R;
  EXPECT_EQ(bigIntReruns([&] { R = lexMinNonNeg(I, IntMatrix(3), 2); }), 1u);
  ASSERT_TRUE(R.feasible());
  EXPECT_EQ(pt(R), (std::vector<long long>{0, 1}));
  EXPECT_EQ(R.Point, *bruteLexMin(I, IntMatrix(3), 2, 0, 5));
}

TEST(Int64TableauTest, ShiftEntryOverflowReruns) {
  // 2^62 (x0 + x1) + x2 >= 0 with x0 >= 1 and x1 <= -1: every coefficient
  // fits, but the shift column's entry -(2^62 + 2^62 + 1) does not. With
  // the row that asks for 2^62 (x0 + x1) + x2 <= -1 as well the system is
  // empty.
  const long long P = 1LL << 62;
  IntMatrix I = withBox(rows({{P, P, 1, 0}, {1, 0, 0, -1}, {0, -1, 0, -1}}, 4),
                        3, -2, 2);
  std::vector<BigInt> W;
  Feasibility F = Feasibility::Unknown;
  EXPECT_EQ(bigIntReruns([&] {
              F = integerFeasibility(I, IntMatrix(4), 3, &W);
            }),
            1u);
  ASSERT_TRUE(bruteLexMin(I, IntMatrix(4), 3, -2, 2).has_value());
  ASSERT_EQ(F, Feasibility::HasPoint);
  EXPECT_TRUE(satisfies(I, IntMatrix(4), W));

  I.addRow({BigInt(-P), BigInt(-P), BigInt(-1), BigInt(-1)});
  EXPECT_EQ(bigIntReruns([&] {
              F = integerFeasibility(I, IntMatrix(4), 3);
            }),
            1u);
  EXPECT_FALSE(bruteLexMin(I, IntMatrix(4), 3, -2, 2).has_value());
  EXPECT_EQ(F, Feasibility::Empty);
}

TEST(Int64TableauTest, Int64MinNegationDoesNotWrap) {
  // x0 + INT64_MIN >= 0: the pivot negates the constant, and -INT64_MIN
  // is 2^63, one past int64. A wrapped negation would give x0 = INT64_MIN.
  IntMatrix I = rows({{1, INT64_MIN}}, 2);
  LexMinResult R;
  EXPECT_EQ(bigIntReruns([&] { R = lexMinNonNeg(I, IntMatrix(2), 1); }), 1u);
  ASSERT_TRUE(R.feasible());
  ASSERT_EQ(R.Point.size(), 1u);
  EXPECT_EQ(R.Point[0], BigInt::fromString("9223372036854775808"));

  // INT64_MIN x0 + INT64_MIN == 0, so x0 = -1: the equality's negated twin
  // row does not fit int64.
  IntMatrix E = rows({{INT64_MIN, INT64_MIN}}, 2);
  std::vector<BigInt> W;
  Feasibility F = Feasibility::Unknown;
  EXPECT_EQ(bigIntReruns([&] {
              F = integerFeasibility(IntMatrix(2), E, 1, &W);
            }),
            1u);
  ASSERT_EQ(F, Feasibility::HasPoint);
  EXPECT_EQ(W, std::vector<BigInt>{BigInt(-1)});
}

//===----------------------------------------------------------------------===//
// Warm band solves: int64 snapshots, overflowed queries answered cold
//===----------------------------------------------------------------------===//

/// Counters of one warm query, and its answer.
struct WarmQuery {
  LexMinResult Result;
  uint64_t Calls, Reruns, WarmStarts;
};

WarmQuery warmQuery(LexMinSolver &Solver, const IntMatrix &Extra) {
  PassStats Stats;
  setActiveStats(&Stats);
  WarmQuery Q{Solver.solveWith(Extra), 0, 0, 0};
  setActiveStats(nullptr);
  Q.Calls = Stats.get(Counter::LexMinCalls);
  Q.Reruns = Stats.get(Counter::LexMinBigIntReruns);
  Q.WarmStarts = Stats.get(Counter::LexMinWarmStarts);
  return Q;
}

IntMatrix concat(IntMatrix A, const IntMatrix &B) {
  for (unsigned R = 0; R < B.numRows(); ++R)
    A.addRow(B.row(R));
  return A;
}

TEST(WarmInt64Test, OverflowedBaseAnswersEveryQueryCold) {
  // FirstPivotProductOverflowReruns' system as a band base: its first
  // pivot multiplies K by K = 2^40, so the snapshot run overflows. Every
  // query is then a cold solve over base + extras, whose int64 run makes
  // the same first pivot and reruns on BigInt.
  const long long K = 1LL << 40;
  IntMatrix Base = withBox(rows({{K, K, -K}, {K, -K, 3 * K}}, 3), 2, 0, 5);
  IntMatrix NoEqs(3);
  std::vector<IntMatrix> Queries = {IntMatrix(3), rows({{1, 0, -1}}, 3),
                                    rows({{0, -1, 0}, {-1, 0, 0}}, 3),
                                    IntMatrix(3)};
  LexMinSolver Solver;
  Solver.setBase(Base, NoEqs, 2);
  for (size_t I = 0; I < Queries.size(); ++I) {
    IntMatrix All = concat(Base, Queries[I]);
    LexMinResult Cold = lexMinNonNeg(All, NoEqs, 2);
    WarmQuery Q = warmQuery(Solver, Queries[I]);
    ASSERT_EQ(Q.Result.Status, Cold.Status) << "query " << I;
    EXPECT_EQ(Q.Result.Point, Cold.Point) << "query " << I;
    auto Brute = bruteLexMin(All, NoEqs, 2, 0, 5);
    ASSERT_EQ(Q.Result.feasible(), Brute.has_value()) << "query " << I;
    if (Brute) {
      EXPECT_EQ(Q.Result.Point, *Brute) << "query " << I;
    }
    // The base's abandoned run counts once, with the first query; each
    // query's cold solve counts its own BigInt rerun.
    EXPECT_EQ(Q.Reruns, I == 0 ? 2u : 1u) << "query " << I;
    EXPECT_EQ(Q.Calls, 1u) << "query " << I;
    EXPECT_EQ(Q.WarmStarts, 0u) << "query " << I;
  }
}

TEST(WarmInt64Test, OneOverflowingQueryRerunsAndTheNextIsWarm) {
  // Base x0 + x1 >= 3 in [0, 5]^2, lexmin (0, 3): its snapshot reads x1 as
  // 3 - x0 + s. The extra row 2^62 x1 - 2^62 >= 0 fits int64, but
  // rewriting it into that basis multiplies 2^62 by the constant 3.
  const long long P = 1LL << 62;
  IntMatrix Base = withBox(rows({{1, 1, -3}}, 3), 2, 0, 5);
  IntMatrix NoEqs(3);
  LexMinSolver Solver;
  Solver.setBase(Base, NoEqs, 2);

  WarmQuery First = warmQuery(Solver, IntMatrix(3));
  ASSERT_TRUE(First.Result.feasible());
  EXPECT_EQ(pt(First.Result), (std::vector<long long>{0, 3}));
  EXPECT_EQ(First.Reruns, 0u);
  EXPECT_EQ(First.Calls, 2u); // The base solve, then the query.

  IntMatrix Big = rows({{0, P, -P}}, 3);
  LexMinResult Cold = lexMinNonNeg(concat(Base, Big), NoEqs, 2);
  WarmQuery Over = warmQuery(Solver, Big);
  ASSERT_TRUE(Over.Result.feasible());
  EXPECT_EQ(Over.Result.Point, Cold.Point);
  EXPECT_EQ(pt(Over.Result), (std::vector<long long>{0, 3}));
  // The warm run is abandoned (one rerun) and the cold solve answers it;
  // its first pivot meets the same 2^62 * 3, so it reruns on BigInt too.
  EXPECT_EQ(Over.Reruns, 2u);
  EXPECT_EQ(Over.Calls, 1u);
  EXPECT_EQ(Over.WarmStarts, 0u);

  // The snapshot is untouched: the next query resumes from it.
  WarmQuery Next = warmQuery(Solver, rows({{1, 0, -1}}, 3));
  ASSERT_TRUE(Next.Result.feasible());
  EXPECT_EQ(pt(Next.Result), (std::vector<long long>{1, 2}));
  EXPECT_EQ(Next.Reruns, 0u);
  EXPECT_EQ(Next.Calls, 1u);
  EXPECT_EQ(Next.WarmStarts, 1u);
}

} // namespace
