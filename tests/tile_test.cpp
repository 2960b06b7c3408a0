//===- tests/tile_test.cpp - Tiling / wavefront unit tests ----------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Validates Algorithm 1 (supernode domains and scatterings), Theorem 1's
// consequences (tile-space legality checked via the interpreter elsewhere),
// Algorithm 2 (tile-space wavefront), multi-level tiling, and the Section
// 5.4 intra-tile reordering.
//
//===----------------------------------------------------------------------===//

#include "tile/Tiling.h"

#include "deps/Dependences.h"
#include "driver/Kernels.h"
#include "parser/Parser.h"
#include "transform/PlutoTransform.h"

#include <gtest/gtest.h>

using namespace pluto;

namespace {

struct Built {
  Program Prog;
  DependenceGraph DG;
  Schedule Sched;
  Scop Sc;
};

Built build(const char *Src, bool InputDeps = false) {
  Built B;
  ParseResult P = parseSourceDiags(Src);
  EXPECT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  B.Prog = P.Program->Prog;
  for (const std::string &Pm : B.Prog.ParamNames)
    B.Prog.addContextBound(Pm, 4);
  DepOptions DO;
  DO.IncludeInputDeps = InputDeps;
  B.DG = computeDependences(B.Prog, DO);
  auto S = computeSchedule(B.Prog, B.DG);
  EXPECT_TRUE(S) << (S ? "" : S.error());
  B.Sched = *S;
  B.Sc = buildScop(B.Prog, B.Sched);
  return B;
}

TEST(TileTest, BuildScopPreservesScheduleRows) {
  Built B = build(kernels::MatMul);
  ASSERT_EQ(B.Sc.Stmts.size(), 1u);
  const ScopStmt &St = B.Sc.Stmts[0];
  EXPECT_EQ(St.Scatter.numRows(), B.Sched.numRows());
  // Columns: 3 iters + 1 param + 1 const.
  EXPECT_EQ(St.Scatter.numCols(), 5u);
  // Identity rows.
  EXPECT_EQ(St.Scatter(0, 0).toInt64(), 1);
  EXPECT_EQ(St.Scatter(1, 1).toInt64(), 1);
  EXPECT_EQ(St.Scatter(2, 2).toInt64(), 1);
  EXPECT_EQ(St.OrigIterPos, (std::vector<unsigned>{0, 1, 2}));
}

TEST(TileTest, TileBandAddsSupernodes) {
  Built B = build(kernels::MatMul);
  auto Bands = B.Sc.bands();
  ASSERT_EQ(Bands.size(), 1u);
  ASSERT_EQ(Bands[0].Width, 3u);
  Schedule::Band TB = tileBand(B.Sc, Bands[0], {32, 32, 32});
  const ScopStmt &St = B.Sc.Stmts[0];
  // 3 supernode iterators prepended.
  EXPECT_EQ(St.IterNames.size(), 6u);
  EXPECT_EQ(St.OrigIterPos, (std::vector<unsigned>{3, 4, 5}));
  // 3 new scattering rows, 6 total.
  EXPECT_EQ(St.Scatter.numRows(), 6u);
  EXPECT_EQ(B.Sc.numRows(), 6u);
  // Domain gained 2 constraints per tiled row.
  EXPECT_EQ(St.Domain.numIneqs(), 6u + 6u);
  // The new tile band is at the front with width 3.
  EXPECT_EQ(TB.Start, 0u);
  EXPECT_EQ(TB.Width, 3u);
  // Tile rows inherit parallelism of their hyperplanes (i, j parallel).
  EXPECT_TRUE(B.Sc.Rows[0].IsParallel);
  EXPECT_TRUE(B.Sc.Rows[1].IsParallel);
  EXPECT_FALSE(B.Sc.Rows[2].IsParallel);
}

TEST(TileTest, TileShapeConstraintSemantics) {
  // For phi = i with tile size 4: 4*zT <= i <= 4*zT + 3, i.e. the domain
  // pins zT = floor(i / 4). Verify with concrete points via emptiness.
  Built B = build("for (i = 0; i < N; i++) { a[i] = 1.0; }");
  auto Bands = B.Sc.bands();
  // Width-1 band: tile explicitly.
  ASSERT_EQ(Bands.size(), 1u);
  tileBand(B.Sc, Bands[0], {4});
  const ScopStmt &St = B.Sc.Stmts[0];
  // Vars: [zT, i, N]. Point (zT=2, i=9): 4*2 <= 9 <= 11 -> inside.
  ConstraintSystem In = St.Domain;
  In.addEq({1, 0, 0, -2});
  In.addEq({0, 1, 0, -9});
  In.addEq({0, 0, 1, -20});
  EXPECT_FALSE(In.isIntegerEmpty());
  // Point (zT=1, i=9): 4 <= 9 <= 7 fails -> outside.
  ConstraintSystem Out = St.Domain;
  Out.addEq({1, 0, 0, -1});
  Out.addEq({0, 1, 0, -9});
  Out.addEq({0, 0, 1, -20});
  EXPECT_TRUE(Out.isIntegerEmpty());
}

TEST(TileTest, TileAllBandsSkipsNarrowBands) {
  // A single loop (band width 1) is not tiled with the default MinWidth=2.
  Built B = build("for (i = 0; i < N; i++) { a[i] = a[i] * 2.0; }");
  unsigned RowsBefore = B.Sc.numRows();
  auto TBs = tileAllBands(B.Sc, 32);
  EXPECT_TRUE(TBs.empty());
  EXPECT_EQ(B.Sc.numRows(), RowsBefore);
}

TEST(TileTest, WavefrontTransformsTileSpace) {
  Built B = build(kernels::Jacobi1D);
  auto Bands = B.Sc.bands();
  ASSERT_GE(Bands.size(), 1u);
  ASSERT_EQ(Bands[0].Width, 2u);
  Schedule::Band TB = tileBand(B.Sc, Bands[0], {16, 16});
  ASSERT_TRUE(TB.HasSequentialRow);
  IntMatrix Before = B.Sc.Stmts[0].Scatter;
  ASSERT_TRUE(wavefrontBand(B.Sc, TB, 1));
  const IntMatrix &After = B.Sc.Stmts[0].Scatter;
  // Row 0 became row0 + row1; row 1 unchanged and now parallel.
  for (unsigned C = 0; C < After.numCols(); ++C) {
    EXPECT_EQ(After(0, C), Before(0, C) + Before(1, C));
    EXPECT_EQ(After(1, C), Before(1, C));
  }
  EXPECT_FALSE(B.Sc.Rows[TB.Start].IsParallel);
  EXPECT_TRUE(B.Sc.Rows[TB.Start + 1].IsParallel);
}

TEST(TileTest, WavefrontSkipsBandsWithParallelRow) {
  Built B = build(kernels::MatMul);
  auto Bands = B.Sc.bands();
  Schedule::Band TB = tileBand(B.Sc, Bands[0], {8, 8, 8});
  // Tile band has parallel members (i, j): no wavefront needed.
  EXPECT_FALSE(wavefrontBand(B.Sc, TB, 1));
}

TEST(TileTest, TwoDegreeWavefront) {
  Built B = build(kernels::Seidel2D);
  auto Bands = B.Sc.bands();
  ASSERT_EQ(Bands[0].Width, 3u);
  Schedule::Band TB = tileBand(B.Sc, Bands[0], {8, 8, 8});
  ASSERT_TRUE(wavefrontBand(B.Sc, TB, 2));
  EXPECT_FALSE(B.Sc.Rows[TB.Start].IsParallel);
  EXPECT_TRUE(B.Sc.Rows[TB.Start + 1].IsParallel);
  EXPECT_TRUE(B.Sc.Rows[TB.Start + 2].IsParallel);
}

TEST(TileTest, MultiLevelTiling) {
  Built B = build(kernels::MatMul);
  auto Bands = B.Sc.bands();
  Schedule::Band L1 = tileBand(B.Sc, Bands[0], {32, 32, 32});
  Schedule::Band L2 = tileBand(B.Sc, L1, {4, 4, 4});
  EXPECT_EQ(B.Sc.numRows(), 9u);
  EXPECT_EQ(B.Sc.Stmts[0].IterNames.size(), 9u);
  EXPECT_EQ(L2.Start, 0u);
  EXPECT_EQ(L2.Width, 3u);
  // Three distinct band ids now exist.
  auto NewBands = B.Sc.bands();
  EXPECT_EQ(NewBands.size(), 3u);
}

TEST(TileTest, ReorderForVectorizationMovesParallelRowInnermost) {
  Built B = build(kernels::MatMul);
  // Band (i, j, k): j is parallel and should move innermost, k middle.
  ASSERT_TRUE(reorderForVectorization(B.Sc));
  const IntMatrix &Sc = B.Sc.Stmts[0].Scatter;
  // New row order: i, k, j.
  EXPECT_EQ(Sc(0, 0).toInt64(), 1);
  EXPECT_EQ(Sc(1, 2).toInt64(), 1);
  EXPECT_EQ(Sc(2, 1).toInt64(), 1);
  EXPECT_TRUE(B.Sc.Rows[2].IsVector);
  EXPECT_TRUE(B.Sc.Rows[2].IsParallel);
}

TEST(TileTest, ReorderNoopWithoutParallelRows) {
  Built B = build(kernels::Sweep2D);
  EXPECT_FALSE(reorderForVectorization(B.Sc));
}

TEST(TileTest, IdentityScheduleReproducesTextualOrder) {
  ParseResult P = parseSourceDiags(kernels::Jacobi1D);
  ASSERT_TRUE(P.ok());
  Schedule S = identitySchedule(P.Program->Prog);
  // 2*maxdepth+1 = 5 rows; scalar rows at 0, 2, 4.
  ASSERT_EQ(S.numRows(), 5u);
  EXPECT_TRUE(S.Rows[0].IsScalar);
  EXPECT_FALSE(S.Rows[1].IsScalar);
  EXPECT_TRUE(S.Rows[2].IsScalar);
  // S0 slot at depth 1 is 0, S1 slot is 1.
  EXPECT_EQ(S.StmtRows[0](2, 2).toInt64(), 0);
  EXPECT_EQ(S.StmtRows[1](2, 2).toInt64(), 1);
  // Loop rows select t then the space iterator.
  EXPECT_EQ(S.StmtRows[0](1, 0).toInt64(), 1);
  EXPECT_EQ(S.StmtRows[0](3, 1).toInt64(), 1);
}

} // namespace
