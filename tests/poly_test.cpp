//===- tests/poly_test.cpp - ConstraintSystem unit tests ------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "poly/ConstraintSystem.h"
#include "observe/PassStats.h"

#include <gtest/gtest.h>

using namespace pluto;

namespace {

/// 0 <= x0, x1 <= 9 square.
ConstraintSystem square() {
  ConstraintSystem CS(2);
  CS.addLowerBound(0, 0);
  CS.addUpperBound(0, 9);
  CS.addLowerBound(1, 0);
  CS.addUpperBound(1, 9);
  return CS;
}

TEST(ConstraintSystemTest, EmptinessBasic) {
  ConstraintSystem CS = square();
  EXPECT_FALSE(CS.isIntegerEmpty());
  CS.addIneq({1, 0, -100}); // x0 >= 100 contradicts x0 <= 9.
  EXPECT_TRUE(CS.isIntegerEmpty());
}

TEST(ConstraintSystemTest, EmptinessIntegerExact) {
  // 1 <= 2*x0 <= 1: rational point only.
  ConstraintSystem CS(1);
  CS.addIneq({2, -1});
  CS.addIneq({-2, 1});
  EXPECT_TRUE(CS.isIntegerEmpty());
}

TEST(ConstraintSystemTest, ImpliesIneq) {
  ConstraintSystem CS = square();
  // x0 <= 20 is implied; x0 <= 5 is not.
  EXPECT_TRUE(CS.impliesIneq({BigInt(-1), BigInt(0), BigInt(20)}));
  EXPECT_FALSE(CS.impliesIneq({BigInt(-1), BigInt(0), BigInt(5)}));
}

TEST(ConstraintSystemTest, FourierMotzkinProjection) {
  // Triangle 0 <= x1 <= x0 <= 9; projecting out x1 gives 0 <= x0 <= 9.
  ConstraintSystem CS(2);
  CS.addIneq({0, 1, 0});   // x1 >= 0
  CS.addIneq({1, -1, 0});  // x0 >= x1
  CS.addIneq({-1, 0, 9});  // x0 <= 9
  CS.projectOut(1, 1);
  EXPECT_EQ(CS.numVars(), 1u);
  EXPECT_FALSE(CS.isIntegerEmpty());
  EXPECT_TRUE(CS.impliesIneq({BigInt(1), BigInt(0)}));   // x0 >= 0
  EXPECT_TRUE(CS.impliesIneq({BigInt(-1), BigInt(9)}));  // x0 <= 9
  EXPECT_FALSE(CS.impliesIneq({BigInt(1), BigInt(-1)})); // x0 >= 1 not implied
}

TEST(ConstraintSystemTest, EqualitySubstitutionProjection) {
  // x1 == 2*x0 + 1, 0 <= x1 <= 9: eliminating x1 must give 2*x0+1 in [0,9],
  // i.e. x0 in [0, 4] over the integers.
  ConstraintSystem CS(2);
  CS.addEq({2, -1, 1});
  CS.addIneq({0, 1, 0});
  CS.addIneq({0, -1, 9});
  CS.projectOut(1, 1);
  EXPECT_EQ(CS.numVars(), 1u);
  EXPECT_TRUE(CS.impliesIneq({BigInt(1), BigInt(0)}));
  EXPECT_TRUE(CS.impliesIneq({BigInt(-1), BigInt(4)}));
  EXPECT_FALSE(CS.impliesIneq({BigInt(-1), BigInt(3)}));
}

TEST(ConstraintSystemTest, NormalizeTightensByGcd) {
  // 2*x0 >= 3 normalizes to x0 >= 2 (ceil tightening via floor of -3/2).
  ConstraintSystem CS(1);
  CS.addIneq({2, -3});
  ASSERT_TRUE(CS.normalize());
  EXPECT_TRUE(CS.impliesIneq({BigInt(1), BigInt(-2)}));
}

TEST(ConstraintSystemTest, NormalizeDetectsContradiction) {
  // Trivially false rows collapse to one -1 >= 0; the system stays empty.
  ConstraintSystem CS(1);
  CS.addIneq({0, -1}); // 0*x - 1 >= 0.
  CS.addIneq({1, 0});
  CS.addIneq({0, -5});
  EXPECT_FALSE(CS.normalize());
  ASSERT_EQ(CS.numIneqs(), 2u);
  EXPECT_EQ(CS.ineqs().row(0), (std::vector<BigInt>{BigInt(0), BigInt(-1)}));
  EXPECT_TRUE(CS.isIntegerEmpty());

  ConstraintSystem CS2(1);
  CS2.addEq({2, -1}); // 2*x == 1: gcd does not divide constant.
  EXPECT_FALSE(CS2.normalize());
}

TEST(ConstraintSystemTest, FourierMotzkinOverflowRerunsOnBigInt) {
  // K x - K y >= 0 and -K x + (K+1) z >= 0 over (x, y, z), K = 2^40:
  // every entry fits int64, but eliminating x sums K times each row, which
  // is (0, -K^2, K (K+1), 0) before its gcd K is divided out. K^2 = 2^80
  // wraps to 0 in int64, so the int64 run must be abandoned and the batch
  // rerun on BigInt, giving -K y + (K+1) z >= 0.
  const long long K = 1LL << 40;
  ConstraintSystem CS(3);
  CS.addIneq({K, -K, 0, 0});
  CS.addIneq({-K, 0, K + 1, 0});
  PassStats Stats;
  setActiveStats(&Stats);
  CS.projectOut(0, 1);
  setActiveStats(nullptr);
  ASSERT_EQ(CS.numVars(), 2u);
  ASSERT_EQ(CS.numIneqs(), 1u);
  EXPECT_EQ(CS.ineqs().row(0),
            (std::vector<BigInt>{BigInt(-K), BigInt(K + 1), BigInt(0)}));
  // Only the run that answers is counted.
  EXPECT_EQ(Stats.get(Counter::FmEliminations), 1u);
  EXPECT_EQ(Stats.get(Counter::FmRowsGenerated), 1u);

  // An entry past int64 goes to BigInt rows at once: 2^70 x - y >= 0 and
  // z - x >= 0 give 2^70 z - y >= 0.
  BigInt Big = BigInt::fromString("1180591620717411303424"); // 2^70
  ConstraintSystem Wide(3);
  Wide.addIneq({Big, BigInt(-1), BigInt(0), BigInt(0)});
  Wide.addIneq({-1, 0, 1, 0});
  Wide.projectOut(0, 1);
  ASSERT_EQ(Wide.numIneqs(), 1u);
  EXPECT_EQ(Wide.ineqs().row(0),
            (std::vector<BigInt>{BigInt(-1), Big, BigInt(0)}));
}

TEST(ConstraintSystemTest, ProjectionOfEmptySetStaysEmpty) {
  // {x - 1 >= 0, -x >= 0, 0 <= y <= 5} is empty; so is its projection.
  ConstraintSystem CS(2);
  CS.addIneq({1, 0, -1});
  CS.addIneq({-1, 0, 0});
  CS.addLowerBound(1, 0);
  CS.addUpperBound(1, 5);
  CS.projectOut(0, 1);
  EXPECT_EQ(CS.numVars(), 1u);
  EXPECT_TRUE(CS.isIntegerEmpty());
}

TEST(ConstraintSystemTest, NormalizeDeduplicates) {
  ConstraintSystem CS(1);
  CS.addIneq({1, 0});
  CS.addIneq({1, 0});
  CS.addIneq({2, 0});
  ASSERT_TRUE(CS.normalize());
  EXPECT_EQ(CS.numIneqs(), 1u);
}

TEST(ConstraintSystemTest, GistDropsImpliedConstraints) {
  ConstraintSystem CS = square();
  ConstraintSystem Context(2);
  Context.addLowerBound(0, 0);
  Context.addUpperBound(0, 9);
  CS.gist(Context);
  // Only the x1 bounds should remain.
  EXPECT_EQ(CS.numIneqs(), 2u);
}

TEST(ConstraintSystemTest, RemoveRedundant) {
  ConstraintSystem CS(1);
  CS.addIneq({1, 0});   // x >= 0
  CS.addIneq({1, 5});   // x >= -5 (redundant)
  CS.addIneq({-1, 9});  // x <= 9
  CS.removeRedundant();
  EXPECT_EQ(CS.numIneqs(), 2u);
}

TEST(ConstraintSystemTest, InsertDims) {
  ConstraintSystem CS(2);
  CS.addIneq({1, -1, 3});
  CS.insertDims(1, 2);
  EXPECT_EQ(CS.numVars(), 4u);
  EXPECT_EQ(CS.ineqs()(0, 0).toInt64(), 1);
  EXPECT_EQ(CS.ineqs()(0, 1).toInt64(), 0);
  EXPECT_EQ(CS.ineqs()(0, 2).toInt64(), 0);
  EXPECT_EQ(CS.ineqs()(0, 3).toInt64(), -1);
  EXPECT_EQ(CS.ineqs()(0, 4).toInt64(), 3);
}

TEST(ConstraintSystemTest, IntersectionAndAppend) {
  ConstraintSystem A(1), B(1);
  A.addLowerBound(0, 2);
  B.addUpperBound(0, 5);
  ConstraintSystem C = ConstraintSystem::intersection(A, B);
  EXPECT_FALSE(C.isIntegerEmpty());
  EXPECT_TRUE(C.impliesIneq({BigInt(1), BigInt(-2)}));
  EXPECT_TRUE(C.impliesIneq({BigInt(-1), BigInt(5)}));
}

TEST(ConstraintSystemTest, ProjectionOfParametricTriangle) {
  // { (i, j, N) : 0 <= i <= j <= N }: projecting out j leaves 0 <= i <= N.
  ConstraintSystem CS(3);
  CS.addIneq({1, 0, 0, 0});  // i >= 0
  CS.addIneq({-1, 1, 0, 0}); // j >= i
  CS.addIneq({0, -1, 1, 0}); // j <= N
  CS.projectOut(1, 1);
  EXPECT_TRUE(CS.impliesIneq({BigInt(-1), BigInt(1), BigInt(0)})); // i <= N
  EXPECT_TRUE(CS.impliesIneq({BigInt(1), BigInt(0), BigInt(0)}));  // i >= 0
}

/// The gist without shortcuts: each inequality, in order, is dropped when
/// one impliesIneq query says the context plus the remaining rows imply it.
ConstraintSystem referenceGist(const ConstraintSystem &CS,
                               const ConstraintSystem &Context) {
  unsigned N = CS.numVars();
  std::vector<std::vector<BigInt>> Rows;
  for (unsigned R = 0; R < CS.numIneqs(); ++R)
    Rows.push_back(CS.ineqs().row(R));
  for (size_t R = 0; R < Rows.size();) {
    ConstraintSystem Probe = Context;
    for (size_t I = 0; I < Rows.size(); ++I)
      if (I != R)
        Probe.addIneq(Rows[I]);
    for (unsigned I = 0; I < CS.numEqs(); ++I)
      Probe.addEq(CS.eqs().row(I));
    if (Probe.impliesIneq(Rows[R]))
      Rows.erase(Rows.begin() + static_cast<long>(R));
    else
      ++R;
  }
  ConstraintSystem Out(N);
  for (auto &Row : Rows)
    Out.addIneq(std::move(Row));
  for (unsigned I = 0; I < CS.numEqs(); ++I)
    Out.addEq(CS.eqs().row(I));
  return Out;
}

TEST(ConstraintSystemTest, GistMatchesOneQueryPerRowReference) {
  uint64_t State = 0x5eed;
  auto next = [&](long long Lo, long long Hi) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return Lo + static_cast<long long>((State >> 33) %
                                       static_cast<uint64_t>(Hi - Lo + 1));
  };
  unsigned Shortcut = 0, Queried = 0;
  for (unsigned Trial = 0; Trial < 300; ++Trial) {
    unsigned N = static_cast<unsigned>(next(2, 3));
    auto randomRow = [&] {
      std::vector<BigInt> Row(N + 1);
      for (unsigned I = 0; I < N; ++I)
        Row[I] = BigInt(next(-2, 2));
      Row[N] = BigInt(next(-6, 6));
      return Row;
    };
    ConstraintSystem Context(N);
    for (unsigned V = 0; V < N; ++V) {
      Context.addLowerBound(V, next(-4, 0));
      Context.addUpperBound(V, next(0, 4));
    }
    if (next(0, 1))
      Context.addIneq(randomRow());

    ConstraintSystem CS(N);
    std::vector<std::vector<BigInt>> Pool;
    unsigned NumRows = static_cast<unsigned>(next(2, 7));
    for (unsigned R = 0; R < NumRows; ++R) {
      std::vector<BigInt> Row;
      switch (next(0, 4)) {
      case 0: // A duplicate of an earlier row.
        Row = Pool.empty() ? randomRow() : Pool[next(0, Pool.size() - 1)];
        break;
      case 1: // Dominated by an earlier row: same coefficients, looser.
        Row = Pool.empty() ? randomRow() : Pool[next(0, Pool.size() - 1)];
        Row[N] += BigInt(next(1, 3));
        break;
      case 2: // Implied by (or equal to) a context row.
        Row = Context.ineqs().row(
            static_cast<unsigned>(next(0, Context.numIneqs() - 1)));
        Row[N] += BigInt(next(0, 2));
        break;
      default:
        Row = randomRow();
      }
      Pool.push_back(Row);
      CS.addIneq(std::move(Row));
    }
    if (next(0, 3) == 0) {
      std::vector<BigInt> Eq = randomRow();
      Eq[N] = BigInt(0);
      CS.addEq(std::move(Eq));
    }

    PassStats Stats;
    setActiveStats(&Stats);
    ConstraintSystem Got = CS;
    Got.gist(Context);
    setActiveStats(nullptr);
    Queried += static_cast<unsigned>(Stats.get(Counter::RedundancyChecks));
    Shortcut += CS.numIneqs() -
                static_cast<unsigned>(Stats.get(Counter::RedundancyChecks));

    ConstraintSystem Want = referenceGist(CS, Context);
    EXPECT_EQ(Got.ineqs(), Want.ineqs()) << "trial " << Trial << "\n"
                                         << CS.toString() << "context:\n"
                                         << Context.toString();
    EXPECT_EQ(Got.eqs(), Want.eqs()) << "trial " << Trial;
  }
  // Both paths must be exercised.
  EXPECT_GT(Shortcut, 100u);
  EXPECT_GT(Queried, 100u);
}

TEST(ConstraintSystemTest, ToStringSmoke) {
  ConstraintSystem CS(2);
  CS.addIneq({1, -2, 3});
  CS.addEq({0, 1, -1});
  std::string S = CS.toString({"i", "j"});
  EXPECT_NE(S.find("i - 2j + 3 >= 0"), std::string::npos);
  EXPECT_NE(S.find("j - 1 == 0"), std::string::npos);
}

} // namespace
