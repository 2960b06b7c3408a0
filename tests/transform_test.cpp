//===- tests/transform_test.cpp - Pluto algorithm unit tests --------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Validates the transformation framework against the transformations the
// paper publishes: Jacobi-1d time skewing by 2 with a relative shift of S2
// (Fig. 3), the LU band (Sec. 5.2), MVT ij/ji fusion via input-dependence
// bounding (Sec. 7), and structural properties (bands, parallelism,
// legality) on the other kernels. The Farkas systems built on the
// equality-compressed dependence polyhedra are checked against the
// textbook formulation with a multiplier pair per equality, and the cone
// product against a fresh multiplier elimination per form.
//
//===----------------------------------------------------------------------===//

#include "transform/PlutoTransform.h"

#include "driver/Kernels.h"
#include "observe/PassStats.h"
#include "parser/Parser.h"
#include "transform/FarkasConstraints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace pluto;
namespace fs = std::filesystem;

namespace {

struct Pipeline {
  Program Prog;
  DependenceGraph DG;
  Schedule Sched;
};

Pipeline run(const char *Src, bool InputDeps = true) {
  Pipeline P;
  ParseResult Parsed = parseSourceDiags(Src);
  EXPECT_TRUE(Parsed.ok()) << joinDiagnostics(Parsed.Diags);
  P.Prog = Parsed.Program->Prog;
  for (const std::string &Param : P.Prog.ParamNames)
    P.Prog.addContextBound(Param, 4);
  DepOptions DO;
  DO.IncludeInputDeps = InputDeps;
  P.DG = computeDependences(P.Prog, DO);
  auto Sched = computeSchedule(P.Prog, P.DG);
  EXPECT_TRUE(Sched) << (Sched ? "" : Sched.error());
  P.Sched = *Sched;
  return P;
}

std::vector<long long> rowOf(const Schedule &S, unsigned Stmt, unsigned R) {
  std::vector<long long> V;
  const IntMatrix &M = S.StmtRows[Stmt];
  for (unsigned C = 0; C < M.numCols(); ++C)
    V.push_back(M(R, C).toInt64());
  return V;
}

/// Full legality oracle: every legality dep strongly satisfied at some row,
/// weakly legal at all earlier rows.
bool isLegal(Pipeline &P) {
  DependenceGraph Copy = P.DG;
  Schedule Sched = P.Sched;
  return analyzeSchedule(P.Prog, Copy, Sched);
}

TEST(TransformTest, MatMulPermutableBand) {
  // Input deps off (the original Pluto's default): with them on, every
  // hyperplane of matmul has a parametric reuse distance (u = 1), so the
  // cost function cannot discriminate and tie-breaking decides everything.
  Pipeline P = run(kernels::MatMul, /*InputDeps=*/false);
  ASSERT_EQ(P.Sched.numRows(), 3u);
  // The identity transformation: i and j are communication-free, k carries
  // the reduction; the innermost-first tie-break keeps the original order.
  EXPECT_EQ(rowOf(P.Sched, 0, 0), (std::vector<long long>{1, 0, 0, 0}));
  EXPECT_EQ(rowOf(P.Sched, 0, 1), (std::vector<long long>{0, 1, 0, 0}));
  EXPECT_EQ(rowOf(P.Sched, 0, 2), (std::vector<long long>{0, 0, 1, 0}));
  // One fully permutable band of width 3.
  auto Bands = P.Sched.bands();
  ASSERT_EQ(Bands.size(), 1u);
  EXPECT_EQ(Bands[0].Start, 0u);
  EXPECT_EQ(Bands[0].Width, 3u);
  // i and j are parallel; k carries the reduction dependence.
  EXPECT_TRUE(P.Sched.Rows[0].IsParallel);
  EXPECT_TRUE(P.Sched.Rows[1].IsParallel);
  EXPECT_FALSE(P.Sched.Rows[2].IsParallel);
  EXPECT_TRUE(isLegal(P));
}

TEST(TransformTest, Sweep2DPermutableBand) {
  Pipeline P = run(kernels::Sweep2D, /*InputDeps=*/false);
  ASSERT_EQ(P.Sched.numRows(), 2u);
  // Both orders are cost-equivalent (constant dependence distances); the
  // innermost-first tie-break keeps the original (i, j) order.
  EXPECT_EQ(rowOf(P.Sched, 0, 0), (std::vector<long long>{1, 0, 0}));
  EXPECT_EQ(rowOf(P.Sched, 0, 1), (std::vector<long long>{0, 1, 0}));
  auto Bands = P.Sched.bands();
  ASSERT_EQ(Bands.size(), 1u);
  EXPECT_EQ(Bands[0].Width, 2u);
  // Both loops carry a dependence: pipelined parallelism only.
  EXPECT_FALSE(P.Sched.Rows[0].IsParallel);
  EXPECT_FALSE(P.Sched.Rows[1].IsParallel);
  EXPECT_TRUE(isLegal(P));
}

TEST(TransformTest, Jacobi1DPaperTransformation) {
  // Paper Fig. 3: c1 = t for both statements; c2 = 2t+i for S1 and
  // 2t+j+1 for S2 (skew by two, relative shift of one).
  Pipeline P = run(kernels::Jacobi1D, /*InputDeps=*/false);
  ASSERT_GE(P.Sched.numRows(), 2u);
  EXPECT_EQ(rowOf(P.Sched, 0, 0), (std::vector<long long>{1, 0, 0}));
  EXPECT_EQ(rowOf(P.Sched, 1, 0), (std::vector<long long>{1, 0, 0}));
  EXPECT_EQ(rowOf(P.Sched, 0, 1), (std::vector<long long>{2, 1, 0}));
  EXPECT_EQ(rowOf(P.Sched, 1, 1), (std::vector<long long>{2, 1, 1}));
  // Rows 0 and 1 form one permutable band (tilable: Fig. 3(c)).
  auto Bands = P.Sched.bands();
  ASSERT_GE(Bands.size(), 1u);
  EXPECT_EQ(Bands[0].Start, 0u);
  EXPECT_EQ(Bands[0].Width, 2u);
  EXPECT_FALSE(P.Sched.Rows[0].IsParallel);
  EXPECT_FALSE(P.Sched.Rows[1].IsParallel);
  EXPECT_TRUE(isLegal(P));
}

TEST(TransformTest, JacobiWithInputDepsStillLegal) {
  Pipeline P = run(kernels::Jacobi1D, /*InputDeps=*/true);
  EXPECT_TRUE(isLegal(P));
  auto Bands = P.Sched.bands();
  ASSERT_GE(Bands.size(), 1u);
  EXPECT_EQ(Bands[0].Width, 2u);
}

TEST(TransformTest, LUBandOfThree) {
  Pipeline P = run(kernels::LU, /*InputDeps=*/false);
  // Three rows in a single permutable band; S1 (2-d) is naturally sunk into
  // the 3-d fully permutable space (paper Sec. 5.2 / Sec. 7).
  ASSERT_GE(P.Sched.numRows(), 3u);
  auto Bands = P.Sched.bands();
  ASSERT_GE(Bands.size(), 1u);
  EXPECT_EQ(Bands[0].Start, 0u);
  EXPECT_EQ(Bands[0].Width, 3u);
  // The paper's exact transformation (Sec. 5.2): S1 gets (k, j, k) - the
  // 2-d statement naturally sunk into the 3-d band - and S2 gets (k, j, i).
  EXPECT_EQ(rowOf(P.Sched, 0, 0), (std::vector<long long>{1, 0, 0}));
  EXPECT_EQ(rowOf(P.Sched, 0, 1), (std::vector<long long>{0, 1, 0}));
  EXPECT_EQ(rowOf(P.Sched, 0, 2), (std::vector<long long>{1, 0, 0}));
  EXPECT_EQ(rowOf(P.Sched, 1, 0), (std::vector<long long>{1, 0, 0, 0}));
  EXPECT_EQ(rowOf(P.Sched, 1, 1), (std::vector<long long>{0, 0, 1, 0}));
  EXPECT_EQ(rowOf(P.Sched, 1, 2), (std::vector<long long>{0, 1, 0, 0}));
  // k carries dependences; j is communication-free inside a k iteration.
  EXPECT_FALSE(P.Sched.Rows[0].IsParallel);
  EXPECT_TRUE(P.Sched.Rows[1].IsParallel);
  EXPECT_TRUE(isLegal(P));
}

TEST(TransformTest, MVTFusesIJwithJI) {
  Pipeline P = run(kernels::MVT, /*InputDeps=*/true);
  ASSERT_GE(P.Sched.numRows(), 2u);
  // Paper Sec. 7 (MVT): fusion of the first MV with the *permuted* second
  // MV so the RAR distance on A becomes 0 for both c1 and c2: S0 keeps
  // (i, j), S1 becomes (j, i). Both statements then read A row-major
  // (stride 1) at every fused point.
  EXPECT_EQ(rowOf(P.Sched, 0, 0), (std::vector<long long>{1, 0, 0}));
  EXPECT_EQ(rowOf(P.Sched, 1, 0), (std::vector<long long>{0, 1, 0}));
  EXPECT_EQ(rowOf(P.Sched, 0, 1), (std::vector<long long>{0, 1, 0}));
  EXPECT_EQ(rowOf(P.Sched, 1, 1), (std::vector<long long>{1, 0, 0}));
  // The RAR on A has zero components along both hyperplanes.
  bool CheckedRAR = false;
  for (const Dependence &D : P.DG.Deps) {
    if (D.Kind != DepKind::Input || D.SrcStmt == D.DstStmt)
      continue;
    EXPECT_TRUE(zeroAt(D, P.Sched, 0));
    EXPECT_TRUE(zeroAt(D, P.Sched, 1));
    CheckedRAR = true;
  }
  EXPECT_TRUE(CheckedRAR);
  // Fusion trades synchronization-free parallelism for one degree of
  // pipelined parallelism: no row is fully parallel.
  EXPECT_FALSE(P.Sched.Rows[0].IsParallel);
  EXPECT_FALSE(P.Sched.Rows[1].IsParallel);
  auto Bands = P.Sched.bands();
  ASSERT_GE(Bands.size(), 1u);
  EXPECT_EQ(Bands[0].Width, 2u);
  EXPECT_TRUE(isLegal(P));
}

TEST(TransformTest, MVTWithoutInputDepsDoesNotFuse) {
  // Without RAR bounding there is no incentive to permute S1: both
  // statements get synchronization-free outer parallelism instead.
  Pipeline P = run(kernels::MVT, /*InputDeps=*/false);
  bool AnyParallel = false;
  for (const RowInfo &R : P.Sched.Rows)
    AnyParallel |= R.IsParallel;
  EXPECT_TRUE(AnyParallel);
  EXPECT_TRUE(isLegal(P));
}

TEST(TransformTest, Seidel2DSkewedBand) {
  Pipeline P = run(kernels::Seidel2D, /*InputDeps=*/false);
  ASSERT_GE(P.Sched.numRows(), 3u);
  auto Bands = P.Sched.bands();
  ASSERT_GE(Bands.size(), 1u);
  // All three dimensions tilable after skewing (paper Sec. 7, Gauss-Seidel).
  EXPECT_EQ(Bands[0].Width, 3u);
  // The paper's transformation: "skews the two space dimensions by a
  // factor of one and two, respectively, w.r.t. time":
  // (t, t+i, 2t+i+j).
  EXPECT_EQ(rowOf(P.Sched, 0, 0), (std::vector<long long>{1, 0, 0, 0}));
  EXPECT_EQ(rowOf(P.Sched, 0, 1), (std::vector<long long>{1, 1, 0, 0}));
  EXPECT_EQ(rowOf(P.Sched, 0, 2), (std::vector<long long>{2, 1, 1, 0}));
  EXPECT_FALSE(P.Sched.Rows[0].IsParallel);
  EXPECT_FALSE(P.Sched.Rows[1].IsParallel);
  EXPECT_TRUE(isLegal(P));
}

TEST(TransformTest, FdtdSingleBandOfThree) {
  Pipeline P = run(kernels::Fdtd2D, /*InputDeps=*/false);
  // Paper Sec. 7: three tiling hyperplanes, all in one band (fully
  // permutable); shifting + fusion + time skewing.
  auto Bands = P.Sched.bands();
  ASSERT_GE(Bands.size(), 1u);
  EXPECT_EQ(Bands[0].Start, 0u);
  EXPECT_EQ(Bands[0].Width, 3u);
  EXPECT_TRUE(isLegal(P));
  // All statements fused: no scalar dimension separates them before the
  // band (row 0..2 are loop rows).
  EXPECT_FALSE(P.Sched.Rows[0].IsScalar);
  EXPECT_FALSE(P.Sched.Rows[1].IsScalar);
  EXPECT_FALSE(P.Sched.Rows[2].IsScalar);
}

TEST(TransformTest, SequencePairGetsDistributedOrFused) {
  // Producer-consumer with reversed access: fusion possible with shift 0;
  // check legality either way.
  Pipeline P = run("for (i = 0; i < N; i++) { c[i] = a[i]; }\n"
                   "for (j = 0; j < N; j++) { d[j] = c[j] * 2.0; }");
  EXPECT_TRUE(isLegal(P));
}

TEST(TransformTest, IndependentLoopsCutIntoSccs) {
  Pipeline P = run("for (i = 0; i < N; i++) { a[i] = 1.0; }\n"
                   "for (i = 0; i < N; i++) { a[i] = a[i] + 2.0; }\n",
                   /*InputDeps=*/false);
  EXPECT_TRUE(isLegal(P));
}

TEST(TransformTest, ForcedScheduleAnalysisDetectsIllegal) {
  ParseResult Parsed = parseSourceDiags(kernels::Sweep2D);
  ASSERT_TRUE(Parsed.ok());
  Program Prog = Parsed.Program->Prog;
  Prog.addContextBound("N", 4);
  DepOptions DO;
  DO.IncludeInputDeps = false;
  DependenceGraph DG = computeDependences(Prog, DO);
  // Loop reversal (-1, 0), (0, -1) is illegal for the forward sweep.
  Schedule Bad;
  Bad.StmtRows.push_back(IntMatrix({{-1, 0, 0}, {0, -1, 0}}));
  Bad.Rows.resize(2);
  EXPECT_FALSE(analyzeSchedule(Prog, DG, Bad));
  // Identity is legal.
  Schedule Good;
  Good.StmtRows.push_back(IntMatrix({{1, 0, 0}, {0, 1, 0}}));
  Good.Rows.resize(2);
  EXPECT_TRUE(analyzeSchedule(Prog, DG, Good));
}

TEST(TransformTest, ForcedLimLamStyleScheduleIsLegalForJacobi) {
  // The paper's comparison: Lim/Lam's maximally independent time partitions
  // (2, -1) / (3, -1) for imperfect Jacobi (Sec. 7). Verify our analysis
  // accepts it as legal (it is) - it is the cost that differs.
  ParseResult Parsed = parseSourceDiags(kernels::Jacobi1D);
  ASSERT_TRUE(Parsed.ok());
  Program Prog = Parsed.Program->Prog;
  Prog.addContextBound("N", 8);
  Prog.addContextBound("T", 8);
  DepOptions DO;
  DO.IncludeInputDeps = false;
  DependenceGraph DG = computeDependences(Prog, DO);
  Schedule LimLam;
  // S1: 2t - i ... the published partitions are phi = (2t+i), (2t+i+1)?
  // Use the time partitions from Sec. 7: S1: 2t - i?? The known legal pair
  // for this code is phi_S1 = 2t + i, phi_S2 = 2t + j + 1 (also our c2) and
  // an independent second partition 3t + i / 3t + j + 1:
  LimLam.StmtRows.push_back(IntMatrix({{2, 1, 0}, {3, 1, 0}}));
  LimLam.StmtRows.push_back(IntMatrix({{2, 1, 1}, {3, 1, 1}}));
  LimLam.Rows.resize(2);
  // The two partitions leave the same-point anti dependence (S0 reads
  // a[i-1], S1 overwrites it at the same schedule point) unordered; the
  // statement-ordering dimension completes the schedule.
  appendTextualOrderRow(Prog, LimLam);
  EXPECT_TRUE(analyzeSchedule(Prog, DG, LimLam));
}

TEST(TransformTest, DeltaRowMatchesEval) {
  Pipeline P = run(kernels::Sweep2D, /*InputDeps=*/false);
  // deltaRow on a concrete dependence must agree with direct evaluation.
  const Dependence &D = P.DG.Deps.front();
  std::vector<BigInt> Row = deltaRow(D, P.Sched, 0);
  // Pick s = (2,3), t = (3,3) (the level-1 flow): delta = phi(t) - phi(s).
  std::vector<BigInt> Point = {BigInt(2), BigInt(3), BigInt(3), BigInt(3),
                               BigInt(10)};
  BigInt Acc = Row[Row.size() - 1];
  for (unsigned I = 0; I < Point.size(); ++I)
    Acc += Row[I] * Point[I];
  BigInt Direct =
      P.Sched.evalRow(D.DstStmt, 0, {BigInt(3), BigInt(3)}) -
      P.Sched.evalRow(D.SrcStmt, 0, {BigInt(2), BigInt(3)});
  EXPECT_EQ(Acc, Direct);
}

/// D with each equality e == 0 of its polyhedron split into e >= 0 and
/// -e >= 0: FarkasDomain finds nothing to substitute there, so the Farkas
/// systems of the copy are the textbook ones, with a multiplier pair per
/// equality.
Dependence splitEqualities(const Dependence &D) {
  Dependence Split = D;
  Split.Poly = ConstraintSystem(D.Poly.numVars());
  for (unsigned R = 0; R < D.Poly.numIneqs(); ++R)
    Split.Poly.addIneq(D.Poly.ineqs().row(R));
  for (unsigned R = 0; R < D.Poly.numEqs(); ++R) {
    std::vector<BigInt> Row = D.Poly.eqs().row(R);
    Split.Poly.addIneq(Row);
    for (BigInt &V : Row)
      V = -V;
    Split.Poly.addIneq(std::move(Row));
  }
  return Split;
}

/// True iff every integer point of By satisfies every row of Of.
bool impliesAll(const ConstraintSystem &By, const ConstraintSystem &Of) {
  for (unsigned R = 0; R < Of.numIneqs(); ++R)
    if (!By.impliesIneq(Of.ineqs().row(R)))
      return false;
  for (unsigned R = 0; R < Of.numEqs(); ++R) {
    std::vector<BigInt> Row = Of.eqs().row(R);
    if (!By.impliesIneq(Row))
      return false;
    for (BigInt &V : Row)
      V = -V;
    if (!By.impliesIneq(Row))
      return false;
  }
  return true;
}

/// The units the Farkas tests sweep: examples/*.c, the 15 Kernels.h
/// kernels and a strided unit, as (name, source) pairs.
std::vector<std::pair<std::string, std::string>> farkasUnits() {
  std::vector<std::pair<std::string, std::string>> Units;
  std::vector<fs::path> Examples;
  for (const auto &E : fs::directory_iterator(PLUTOPP_EXAMPLES_DIR))
    if (E.path().extension() == ".c")
      Examples.push_back(E.path());
  std::sort(Examples.begin(), Examples.end());
  for (const fs::path &P : Examples) {
    std::ifstream In(P);
    std::stringstream SS;
    SS << In.rdbuf();
    Units.emplace_back(P.filename().string(), SS.str());
  }
  for (const auto &[Name, Src] : kernels::All)
    Units.emplace_back(Name, Src);
  // Non-unit subscript coefficients: the access equalities of the
  // dependences carried by i and of the one into b[k] from a[2*k] have no
  // +-1 coefficient, so they keep their multiplier pairs; the one into
  // b[k] from a[k] substitutes k through a -1 coefficient.
  Units.emplace_back("strided", "for (i = 0; i < N; i++)\n"
                                "  for (j = 0; j < N; j++)\n"
                                "    a[2*i+3*j] = a[2*i+3*j+6] + 1.0;\n"
                                "for (k = 0; k < N; k++)\n"
                                "  b[k] = a[2*k] + a[k];\n");
  return Units;
}

/// Src parsed, with every parameter bounded below by 4.
Program parseBounded(const std::string &Src) {
  ParseResult Parsed = parseSourceDiags(Src);
  EXPECT_TRUE(Parsed.ok()) << joinDiagnostics(Parsed.Diags);
  if (!Parsed.ok())
    return Program();
  Program Prog = Parsed.Program->Prog;
  for (const std::string &Param : Prog.ParamNames)
    Prog.addContextBound(Param, 4);
  return Prog;
}

std::string depName(const std::string &Unit, const Dependence &D) {
  return Unit + ": " + depKindName(D.Kind) + " S" +
         std::to_string(D.SrcStmt) + " -> S" + std::to_string(D.DstStmt) +
         " at level " + std::to_string(D.CarryLevel);
}

TEST(FarkasTest, CompressedSystemsMatchSplitEqualityFormulation) {
  unsigned Systems = 0, KeptEqualities = 0;
  for (const auto &[Name, Src] : farkasUnits()) {
    Program Prog = parseBounded(Src);
    DependenceGraph DG = computeDependences(Prog);
    VarLayout Layout(Prog);
    FarkasConeCache Cones;
    for (const Dependence &D : DG.Deps) {
      FarkasDomain Dom(D, Cones);
      Dependence Split = splitEqualities(D);
      FarkasDomain SplitDom(Split, Cones);
      ASSERT_EQ(SplitDom.Poly.numVars(), D.Poly.numVars());
      KeptEqualities += Dom.Poly.numEqs();
      std::vector<std::pair<ConstraintSystem, ConstraintSystem>> Pairs;
      if (D.isLegalityDep())
        Pairs.emplace_back(legalityConstraints(Dom, Prog, Layout),
                           legalityConstraints(SplitDom, Prog, Layout));
      Pairs.emplace_back(boundingConstraints(Dom, Prog, Layout),
                         boundingConstraints(SplitDom, Prog, Layout));
      for (const auto &[Compressed, Textbook] : Pairs) {
        ++Systems;
        EXPECT_TRUE(impliesAll(Compressed, Textbook) &&
                    impliesAll(Textbook, Compressed))
            << depName(Name, D);
      }
    }
  }
  EXPECT_GT(Systems, 500u);
  EXPECT_GT(KeptEqualities, 0u) << "no equality kept its multiplier pair";
}

/// The per-form Farkas elimination the cone product replaces: the form's
/// coefficient-matching system over [layout | multipliers] on Dom.Poly,
/// with the multipliers projected out.
ConstraintSystem eliminatePerForm(const FarkasDomain &Dom,
                                  const IntMatrix &FormCoeffs,
                                  unsigned NumLayoutVars) {
  const ConstraintSystem &Poly = Dom.Poly;
  unsigned NY = Poly.numVars();
  IntMatrix Form = Dom.FormMap * FormCoeffs;
  unsigned NumIneq = Poly.numIneqs(), NumEq = Poly.numEqs();
  // Multipliers: lambda0, one per inequality, a +/- pair per equality.
  unsigned NumLambda = 1 + NumIneq + 2 * NumEq;
  unsigned V = NumLayoutVars + NumLambda, L0 = NumLayoutVars;
  ConstraintSystem Sys(V);
  for (unsigned X = 0; X <= NY; ++X) {
    std::vector<BigInt> Row(V + 1, BigInt(0));
    for (unsigned C = 0; C < NumLayoutVars; ++C)
      Row[C] = -Form(X, C);
    Row[V] = -Form(X, NumLayoutVars);
    if (X == NY)
      Row[L0] = BigInt(1);
    for (unsigned K = 0; K < NumIneq; ++K)
      Row[L0 + 1 + K] = Poly.ineqs()(K, X);
    for (unsigned E = 0; E < NumEq; ++E) {
      Row[L0 + 1 + NumIneq + 2 * E] = Poly.eqs()(E, X);
      Row[L0 + 2 + NumIneq + 2 * E] = -Poly.eqs()(E, X);
    }
    Sys.addEq(std::move(Row));
  }
  for (unsigned K = 0; K < NumLambda; ++K) {
    std::vector<BigInt> Row(V + 1, BigInt(0));
    Row[L0 + K] = BigInt(1);
    Sys.addIneq(std::move(Row));
  }
  Sys.projectOut(NumLayoutVars, NumLambda);
  Sys.normalize();
  return Sys;
}

TEST(FarkasTest, ConeProductMatchesPerFormElimination) {
  unsigned Forms = 0, InputForms = 0;
  for (const auto &[Name, Src] : farkasUnits()) {
    Program Prog = parseBounded(Src);
    DependenceGraph DG = computeDependences(Prog);
    VarLayout Layout(Prog);
    FarkasConeCache Cones;
    for (const Dependence &D : DG.Deps) {
      FarkasDomain Dom(D, Cones);
      // Bounding (both directions for an input dependence), then legality.
      std::vector<IntMatrix> Fs = boundingForms(D, Prog, Layout);
      InputForms += D.Kind == DepKind::Input ? Fs.size() : 0;
      if (D.isLegalityDep())
        Fs.push_back(legalityForm(D, Prog, Layout));
      for (unsigned F = 0; F < Fs.size(); ++F) {
        ++Forms;
        ConstraintSystem Product =
            farkasEliminate(Dom, Fs[F], Layout.numVars());
        ConstraintSystem Reference =
            eliminatePerForm(Dom, Fs[F], Layout.numVars());
        EXPECT_TRUE(impliesAll(Product, Reference) &&
                    impliesAll(Reference, Product))
            << depName(Name, D) << ", form " << F;
      }
    }
  }
  EXPECT_GT(Forms, 600u);
  EXPECT_GT(InputForms, 0u);
}

TEST(FarkasTest, ScheduleComputesOneConePerDistinctPolyhedron) {
  Program Prog = parseBounded(kernels::Seidel2D);
  DependenceGraph DG = computeDependences(Prog);
  FarkasConeCache Cones;
  PassStats ConeStats;
  setActiveStats(&ConeStats);
  for (const Dependence &D : DG.Deps)
    FarkasDomain Dom(D, Cones); // Adds its polyhedron's cone to Cones.
  setActiveStats(nullptr);
  EXPECT_EQ(DG.Deps.size(), 72u);
  EXPECT_EQ(Cones.size(), 26u);
  // The search builds those cones once each, over all of its bands, and
  // runs no other multiplier elimination.
  PassStats SchedStats;
  setActiveStats(&SchedStats);
  auto Sched = computeSchedule(Prog, DG);
  setActiveStats(nullptr);
  ASSERT_TRUE(Sched) << Sched.error();
  EXPECT_GT(ConeStats.get(Counter::FmEliminations), 0u);
  EXPECT_EQ(SchedStats.get(Counter::FmEliminations),
            ConeStats.get(Counter::FmEliminations));
}

} // namespace
