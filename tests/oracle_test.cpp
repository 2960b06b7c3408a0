//===- tests/oracle_test.cpp - Solver/analysis vs. brute force ------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Differential oracles for the mathematical substrates:
//  - lexMinNonNeg vs. exhaustive enumeration over a bounded box, on random
//    integer systems (exercises the dual simplex + Gomory cuts);
//  - Fourier-Motzkin projection soundness (every feasible point projects
//    into the computed shadow) and integer emptiness consistency;
//  - dependence-analysis completeness: on concrete problem sizes, every
//    conflicting ordered instance pair must be contained in some
//    dependence-polyhedron edge of the right kind.
//
//===----------------------------------------------------------------------===//

#include "deps/Dependences.h"
#include "ilp/LexMin.h"
#include "parser/Parser.h"
#include "poly/ConstraintSystem.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>

using namespace pluto;

namespace {

//===----------------------------------------------------------------------===//
// LexMin vs brute force
//===----------------------------------------------------------------------===//

/// Membership of an integer point in Ax + b >= 0.
bool satisfies(const IntMatrix &Ineqs, const std::vector<long long> &P) {
  unsigned N = static_cast<unsigned>(P.size());
  for (unsigned R = 0; R < Ineqs.numRows(); ++R) {
    BigInt V = Ineqs(R, N);
    for (unsigned C = 0; C < N; ++C)
      V += Ineqs(R, C) * BigInt(P[C]);
    if (V.isNegative())
      return false;
  }
  return true;
}

class LexMinOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(LexMinOracle, MatchesEnumeration) {
  std::mt19937 Rng(GetParam());
  auto pick = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  const unsigned NVars = 3;
  const long long Box = 6;
  IntMatrix Ineqs(NVars + 1);
  // Random rows.
  unsigned NumRows = 3 + (Rng() % 3);
  for (unsigned R = 0; R < NumRows; ++R) {
    std::vector<BigInt> Row;
    for (unsigned C = 0; C < NVars; ++C)
      Row.push_back(BigInt(pick(-3, 3)));
    Row.push_back(BigInt(pick(-4, 8)));
    Ineqs.addRow(std::move(Row));
  }
  // Box: x_i <= Box (x_i >= 0 is implicit in the solver).
  for (unsigned C = 0; C < NVars; ++C) {
    std::vector<BigInt> Row(NVars + 1, BigInt(0));
    Row[C] = BigInt(-1);
    Row[NVars] = BigInt(Box);
    Ineqs.addRow(std::move(Row));
  }

  // Brute force lexmin over [0, Box]^3.
  std::optional<std::vector<long long>> Want;
  for (long long X = 0; X <= Box && !Want; ++X)
    for (long long Y = 0; Y <= Box && !Want; ++Y)
      for (long long Z = 0; Z <= Box && !Want; ++Z)
        if (satisfies(Ineqs, {X, Y, Z}))
          Want = std::vector<long long>{X, Y, Z};

  ilp::LexMinResult Got = ilp::lexMinNonNeg(Ineqs, IntMatrix(NVars + 1),
                                            NVars);
  if (!Want) {
    EXPECT_FALSE(Got.feasible());
    return;
  }
  ASSERT_TRUE(Got.feasible());
  for (unsigned C = 0; C < NVars; ++C)
    EXPECT_EQ(Got.Point[C].toInt64(), (*Want)[C]) << "coordinate " << C;
}

INSTANTIATE_TEST_SUITE_P(Random, LexMinOracle,
                         ::testing::Range(1u, 61u));

//===----------------------------------------------------------------------===//
// Fourier-Motzkin soundness
//===----------------------------------------------------------------------===//

class FmOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(FmOracle, ProjectionIsSound) {
  std::mt19937 Rng(GetParam() * 131 + 7);
  auto pick = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  const long long Box = 5;
  ConstraintSystem CS(3);
  for (unsigned C = 0; C < 3; ++C) {
    CS.addLowerBound(C, 0);
    CS.addUpperBound(C, Box);
  }
  unsigned Extra = 2 + (Rng() % 3);
  for (unsigned R = 0; R < Extra; ++R) {
    std::vector<BigInt> Row;
    for (unsigned C = 0; C < 3; ++C)
      Row.push_back(BigInt(pick(-2, 2)));
    Row.push_back(BigInt(pick(-2, 6)));
    CS.addIneq(std::move(Row));
  }
  ConstraintSystem Full = CS;
  ConstraintSystem Proj = CS;
  Proj.projectOut(2, 1); // Eliminate z.

  // Soundness: every feasible (x, y, z) gives (x, y) in the projection.
  // Completeness over the integers is not guaranteed by FM (rational
  // shadow), but soundness must be exact.
  for (long long X = 0; X <= Box; ++X)
    for (long long Y = 0; Y <= Box; ++Y) {
      bool Feasible3 = false;
      for (long long Z = 0; Z <= Box && !Feasible3; ++Z)
        Feasible3 = satisfies(Full.ineqs(), {X, Y, Z});
      bool InShadow = satisfies(Proj.ineqs(), {X, Y});
      if (Feasible3)
        EXPECT_TRUE(InShadow) << "(" << X << "," << Y << ") lost";
    }
  // Emptiness consistency: if the 3-d set has integer points, the shadow
  // must not be integer-empty.
  bool Any = false;
  for (long long X = 0; X <= Box && !Any; ++X)
    for (long long Y = 0; Y <= Box && !Any; ++Y)
      for (long long Z = 0; Z <= Box && !Any; ++Z)
        Any = satisfies(Full.ineqs(), {X, Y, Z});
  EXPECT_EQ(Full.isIntegerEmpty(), !Any);
}

INSTANTIATE_TEST_SUITE_P(Random, FmOracle, ::testing::Range(1u, 41u));

//===----------------------------------------------------------------------===//
// Dependence-analysis completeness
//===----------------------------------------------------------------------===//

/// Instance of a statement: its iteration vector.
using Instance = std::vector<long long>;

/// Enumerates a statement's domain for a concrete parameter value.
std::vector<Instance> enumerateDomain(const Statement &St, long long NVal,
                                      unsigned NumParams) {
  std::vector<Instance> Out;
  unsigned M = St.numIters();
  Instance Cur(M, 0);
  // Iterate the bounding box [-1, N+2]^M and filter by the domain rows.
  std::function<void(unsigned)> Rec = [&](unsigned D) {
    if (D == M) {
      std::vector<long long> Full = Cur;
      for (unsigned P = 0; P < NumParams; ++P)
        Full.push_back(NVal);
      if (satisfies(St.Domain.ineqs(), Full)) {
        bool EqOk = true;
        for (unsigned R = 0; R < St.Domain.eqs().numRows() && EqOk; ++R) {
          BigInt V = St.Domain.eqs()(R, St.Domain.numVars());
          for (unsigned C = 0; C < St.Domain.numVars(); ++C)
            V += St.Domain.eqs()(R, C) * BigInt(Full[C]);
          EqOk = V.isZero();
        }
        if (EqOk)
          Out.push_back(Cur);
      }
      return;
    }
    for (long long V = -1; V <= NVal + 2; ++V) {
      Cur[D] = V;
      Rec(D + 1);
    }
  };
  Rec(0);
  return Out;
}

/// Evaluates an access function at an instance.
std::vector<long long> evalAccess(const Access &A, const Instance &I,
                                  long long NVal, unsigned NumParams) {
  std::vector<long long> Idx;
  for (unsigned R = 0; R < A.Map.numRows(); ++R) {
    BigInt V = A.Map(R, A.Map.numCols() - 1);
    for (unsigned C = 0; C < I.size(); ++C)
      V += A.Map(R, C) * BigInt(I[C]);
    for (unsigned P = 0; P < NumParams; ++P)
      V += A.Map(R, static_cast<unsigned>(I.size()) + P) * BigInt(NVal);
    Idx.push_back(V.toInt64());
  }
  return Idx;
}

/// True if (S, T) lies in the dependence polyhedron of D.
bool inDepPoly(const Dependence &D, const Instance &S, const Instance &T,
               long long NVal, unsigned NumParams) {
  std::vector<long long> P = S;
  P.insert(P.end(), T.begin(), T.end());
  for (unsigned I = 0; I < NumParams; ++I)
    P.push_back(NVal);
  if (!satisfies(D.Poly.ineqs(), P))
    return false;
  for (unsigned R = 0; R < D.Poly.eqs().numRows(); ++R) {
    BigInt V = D.Poly.eqs()(R, D.Poly.numVars());
    for (unsigned C = 0; C < D.Poly.numVars(); ++C)
      V += D.Poly.eqs()(R, C) * BigInt(P[C]);
    if (!V.isZero())
      return false;
  }
  return true;
}

struct DepCase {
  const char *Name;
  const char *Src;
};

class DepCompleteness : public ::testing::TestWithParam<DepCase> {};

TEST_P(DepCompleteness, EveryConflictCovered) {
  ParseResult Parsed = parseSourceDiags(GetParam().Src);
  ASSERT_TRUE(Parsed.ok()) << joinDiagnostics(Parsed.Diags);
  Program Prog = Parsed.Program->Prog;
  for (const std::string &Pm : Prog.ParamNames)
    Prog.addContextBound(Pm, 4);
  DepOptions DO;
  DO.IncludeInputDeps = false;
  DependenceGraph G = computeDependences(Prog, DO);

  const long long NVal = 6;
  unsigned NP = Prog.numParams();

  std::vector<std::vector<Instance>> Instances;
  for (const Statement &St : Prog.Stmts)
    Instances.push_back(enumerateDomain(St, NVal, NP));

  // For every conflicting ordered pair of instances (textual execution
  // order, at least one write), some legality edge must contain it.
  auto execBefore = [&](unsigned SI, const Instance &A, unsigned TI,
                        const Instance &B) {
    unsigned Common = Prog.commonLoopDepth(Prog.Stmts[SI], Prog.Stmts[TI]);
    for (unsigned L = 0; L < Common; ++L) {
      if (A[L] != B[L])
        return A[L] < B[L];
    }
    if (SI != TI)
      return Prog.textuallyBefore(Prog.Stmts[SI], Prog.Stmts[TI]);
    return false; // Same instance.
  };

  for (unsigned SI = 0; SI < Prog.Stmts.size(); ++SI)
    for (unsigned TI = 0; TI < Prog.Stmts.size(); ++TI)
      for (const Instance &A : Instances[SI])
        for (const Instance &B : Instances[TI]) {
          if (!execBefore(SI, A, TI, B))
            continue;
          for (unsigned AI = 0; AI < Prog.Stmts[SI].Accesses.size(); ++AI)
            for (unsigned BI = 0; BI < Prog.Stmts[TI].Accesses.size();
                 ++BI) {
              const Access &AA = Prog.Stmts[SI].Accesses[AI];
              const Access &AB = Prog.Stmts[TI].Accesses[BI];
              if (AA.Array != AB.Array || (!AA.IsWrite && !AB.IsWrite))
                continue;
              if (evalAccess(AA, A, NVal, NP) !=
                  evalAccess(AB, B, NVal, NP))
                continue;
              // A conflicting ordered pair: must be covered.
              bool Covered = false;
              for (const Dependence &D : G.Deps) {
                if (!D.isLegalityDep() || D.SrcStmt != SI ||
                    D.DstStmt != TI || D.SrcAcc != AI || D.DstAcc != BI)
                  continue;
                if (inDepPoly(D, A, B, NVal, NP)) {
                  Covered = true;
                  break;
                }
              }
              EXPECT_TRUE(Covered)
                  << "uncovered conflict S" << SI << "->S" << TI
                  << " accesses " << AI << "/" << BI;
              if (!Covered)
                return; // One detailed failure is enough.
            }
        }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, DepCompleteness,
    ::testing::Values(
        DepCase{"sweep", "for (i = 1; i < N; i++) { for (j = 1; j < N; "
                         "j++) { a[i][j] = a[i - 1][j] + a[i][j - 1]; } }"},
        DepCase{"jacobi",
                "for (t = 0; t < T; t++) { for (i = 2; i < N - 1; i++) { "
                "b[i] = a[i - 1] + a[i + 1]; } for (j = 2; j < N - 1; j++) "
                "{ a[j] = b[j]; } }"},
        DepCase{"lu", "for (k = 0; k < N; k++) { for (j = k + 1; j < N; "
                      "j++) { a[k][j] = a[k][j] / a[k][k]; } for (i = k + "
                      "1; i < N; i++) { for (j = k + 1; j < N; j++) { "
                      "a[i][j] = a[i][j] - a[i][k] * a[k][j]; } } }"},
        DepCase{"seq", "for (i = 0; i < N; i++) { c[i] = a[i]; }\n"
                       "for (j = 0; j < N; j++) { d[j] = c[j] + c[j]; }"}),
    [](const ::testing::TestParamInfo<DepCase> &I) {
      return std::string(I.param.Name);
    });

} // namespace
