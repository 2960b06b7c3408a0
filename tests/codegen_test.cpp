//===- tests/codegen_test.cpp - Code generation & equivalence tests -------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// The central oracle: for every kernel and every pipeline configuration,
// interpreting the generated (transformed, tiled, wavefronted) loop AST must
// produce the same array contents as interpreting the original program.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"

#include "codegen/CEmitter.h"
#include "driver/Driver.h"
#include "driver/Kernels.h"
#include "runtime/Interpreter.h"
#include "Session.h"

#include <gtest/gtest.h>

using namespace pluto;

namespace {

using ExtentMap = std::map<std::string, std::vector<long long>>;

/// Runs Ast over freshly initialized tensors; returns final array state.
std::map<std::string, Tensor> runAst(const Program &Prog, const CgNode &Ast,
                                     const ExtentMap &Extents,
                                     const std::map<std::string, long long> &Params,
                                     const std::map<std::string, double> &Syms) {
  Interpreter I;
  I.allocate(Prog, Extents);
  unsigned Seed = 1;
  for (auto &[Name, T] : I.Arrays)
    T.fillPattern(Seed++);
  I.Params = Params;
  I.SymConsts = Syms;
  auto R = I.run(Prog, Ast);
  EXPECT_TRUE(R) << (R ? "" : R.error());
  return I.Arrays;
}

void expectSameTensors(const std::map<std::string, Tensor> &A,
                       const std::map<std::string, Tensor> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (const auto &[Name, TA] : A) {
    const Tensor &TB = B.at(Name);
    ASSERT_EQ(TA.Data.size(), TB.Data.size()) << Name;
    for (size_t I = 0; I < TA.Data.size(); ++I) {
      double X = TA.Data[I], Y = TB.Data[I];
      double Tol = 1e-9 * (1.0 + std::max(std::abs(X), std::abs(Y)));
      ASSERT_NEAR(X, Y, Tol) << Name << "[" << I << "]";
    }
  }
}

/// Full-pipeline equivalence check for one kernel and option set. With
/// Guards, the lowered Scop is scanned again in guard mode (generateAst
/// without separation) and that AST is checked instead.
void checkEquivalence(const char *Src, const PlutoOptions &Opts,
                      const ExtentMap &Extents,
                      const std::map<std::string, long long> &Params,
                      const std::map<std::string, double> &Syms = {},
                      bool Guards = false) {
  Pipeline S = session(Src, Opts);
  auto Res = S.lowered();
  ASSERT_TRUE(Res) << Res.error();
  const Program &Prog = (*Res)->program();
  auto Orig = S.originalAst(Prog);
  ASSERT_TRUE(Orig) << Orig.error();
  CgNodePtr Guarded = Guards ? guardModeAst(**Res) : nullptr;
  auto Want = runAst(Prog, **Orig, Extents, Params, Syms);
  auto Got = runAst(Prog, Guarded ? *Guarded : *(*Res)->Ast, Extents,
                    Params, Syms);
  expectSameTensors(Want, Got);
}

PlutoOptions withTile(unsigned Size, bool Wavefront = true) {
  PlutoOptions O;
  O.Tile = Size > 0;
  O.TileSize = Size ? Size : 32;
  O.Parallelize = Wavefront;
  return O;
}

TEST(CodegenTest, OriginalMatMulMatchesDirectComputation) {
  Pipeline S = session(kernels::MatMul);
  auto P = S.parsed();
  ASSERT_TRUE(P) << P.error();
  const Program &Prog = (*P)->Prog;
  auto Ast = S.originalAst(Prog);
  ASSERT_TRUE(Ast) << Ast.error();
  long long N = 7;
  auto Out = runAst(Prog, **Ast, {{"a", {N, N}}, {"b", {N, N}},
                                  {"c", {N, N}}},
                    {{"N", N}}, {});
  // Reference: recompute with the same initial fill.
  Interpreter Ref;
  Ref.allocate(Prog, {{"a", {N, N}}, {"b", {N, N}}, {"c", {N, N}}});
  unsigned Seed = 1;
  for (auto &[Name, T] : Ref.Arrays)
    T.fillPattern(Seed++);
  auto &A = Ref.Arrays["a"], &B = Ref.Arrays["b"], &C = Ref.Arrays["c"];
  for (long long I = 0; I < N; ++I)
    for (long long J = 0; J < N; ++J)
      for (long long K = 0; K < N; ++K)
        C.at({I, J}) += A.at({I, K}) * B.at({K, J});
  for (long long I = 0; I < N * N; ++I)
    EXPECT_DOUBLE_EQ(Out["c"].Data[static_cast<size_t>(I)],
                     C.Data[static_cast<size_t>(I)]);
}

TEST(CodegenTest, MatMulTiledEquivalent) {
  checkEquivalence(kernels::MatMul, withTile(4),
                   {{"a", {13, 13}}, {"b", {13, 13}}, {"c", {13, 13}}},
                   {{"N", 13}});
}

TEST(CodegenTest, MatMulUntiledEquivalent) {
  checkEquivalence(kernels::MatMul, withTile(0),
                   {{"a", {9, 9}}, {"b", {9, 9}}, {"c", {9, 9}}},
                   {{"N", 9}});
}

TEST(CodegenTest, Jacobi1DTransformedEquivalent) {
  checkEquivalence(kernels::Jacobi1D, withTile(0),
                   {{"a", {20}}, {"b", {20}}}, {{"T", 9}, {"N", 20}});
}

TEST(CodegenTest, Jacobi1DTiledWavefrontEquivalent) {
  checkEquivalence(kernels::Jacobi1D, withTile(4),
                   {{"a", {25}}, {"b", {25}}}, {{"T", 11}, {"N", 25}});
}

TEST(CodegenTest, Sweep2DTiledEquivalent) {
  checkEquivalence(kernels::Sweep2D, withTile(3), {{"a", {14, 14}}},
                   {{"N", 14}});
}

TEST(CodegenTest, LUTiledWavefrontEquivalent) {
  checkEquivalence(kernels::LU, withTile(4), {{"a", {12, 12}}}, {{"N", 12}});
}

TEST(CodegenTest, MVTFusedEquivalent) {
  checkEquivalence(kernels::MVT, withTile(4),
                   {{"a", {10, 10}}, {"x1", {10}}, {"x2", {10}},
                    {"y1", {10}}, {"y2", {10}}},
                   {{"N", 10}});
}

TEST(CodegenTest, Seidel2DTiledWavefrontEquivalent) {
  checkEquivalence(kernels::Seidel2D, withTile(3), {{"a", {12, 12}}},
                   {{"T", 5}, {"N", 12}});
}

TEST(CodegenTest, Fdtd2DEquivalent) {
  checkEquivalence(kernels::Fdtd2D, withTile(4),
                   {{"ex", {9, 10}}, {"ey", {10, 9}}, {"hz", {9, 9}},
                    {"fict", {6}}},
                   {{"tmax", 6}, {"nx", 9}, {"ny", 9}},
                   {{"coeff1", 0.5}, {"coeff2", 0.7}});
}

TEST(CodegenTest, SecondLevelTilingEquivalent) {
  PlutoOptions O = withTile(3);
  O.SecondLevelTile = true;
  O.L2TileSize = 2;
  checkEquivalence(kernels::MatMul, O,
                   {{"a", {11, 11}}, {"b", {11, 11}}, {"c", {11, 11}}},
                   {{"N", 11}});
}

TEST(CodegenTest, GuardModeEquivalent) {
  checkEquivalence(kernels::Jacobi1D, withTile(4), {{"a", {18}}, {"b", {18}}},
                   {{"T", 7}, {"N", 18}}, {}, /*Guards=*/true);
}

TEST(CodegenTest, NoVectorizeEquivalent) {
  PlutoOptions O = withTile(4);
  O.Vectorize = false;
  checkEquivalence(kernels::LU, O, {{"a", {11, 11}}}, {{"N", 11}});
}

TEST(CodegenTest, EmitterProducesCompilableLookingSource) {
  Pipeline S = session(kernels::Jacobi1D, withTile(4));
  auto Res = S.lowered();
  ASSERT_TRUE(Res) << Res.error();
  EmitOptions EO;
  EO.Extents = {{"a", {"N"}}, {"b", {"N"}}};
  std::string C = emitC((*Res)->program(), *(*Res)->Ast, EO);
  EXPECT_NE(C.find("#define S0(t, i)"), std::string::npos);
  EXPECT_NE(C.find("#define S1(t, j)"), std::string::npos);
  // Arrays appear in first-appearance order: b (written by S0) then a.
  EXPECT_NE(C.find("void kernel(double *restrict b_, double *restrict a_, "
                   "long long T, long long N)"),
            std::string::npos);
  EXPECT_NE(C.find("for (long long c1"), std::string::npos);
  EXPECT_NE(C.find("floord"), std::string::npos);
}

TEST(CodegenTest, ParallelPragmaEmittedForMatMul) {
  Pipeline S = session(kernels::MatMul, withTile(8));
  auto Res = S.lowered();
  ASSERT_TRUE(Res) << Res.error();
  EmitOptions EO;
  EO.Extents = {{"a", {"N", "N"}}, {"b", {"N", "N"}}, {"c", {"N", "N"}}};
  std::string C = emitC((*Res)->program(), *(*Res)->Ast, EO);
  EXPECT_NE(C.find("#pragma omp parallel for"), std::string::npos);
}

// Parameterized equivalence sweep: kernel x problem size x tile size.
struct SweepCase {
  const char *Name;
  const char *Src;
  unsigned TileSize;
  long long Size;
};

class EquivalenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EquivalenceSweep, TransformedMatchesOriginal) {
  const SweepCase &C = GetParam();
  long long N = C.Size;
  ExtentMap Extents;
  std::map<std::string, long long> Params;
  std::map<std::string, double> Syms;
  std::string Src = C.Src;
  if (Src == kernels::MatMul) {
    Extents = {{"a", {N, N}}, {"b", {N, N}}, {"c", {N, N}}};
    Params = {{"N", N}};
  } else if (Src == kernels::Jacobi1D) {
    Extents = {{"a", {N}}, {"b", {N}}};
    Params = {{"T", N / 2}, {"N", N}};
  } else if (Src == kernels::LU) {
    Extents = {{"a", {N, N}}};
    Params = {{"N", N}};
  } else if (Src == kernels::Seidel2D) {
    Extents = {{"a", {N, N}}};
    Params = {{"T", 4}, {"N", N}};
  } else if (Src == kernels::MVT) {
    Extents = {{"a", {N, N}}, {"x1", {N}}, {"x2", {N}}, {"y1", {N}},
               {"y2", {N}}};
    Params = {{"N", N}};
  }
  checkEquivalence(C.Src, withTile(C.TileSize), Extents, Params, Syms);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, EquivalenceSweep,
    ::testing::Values(
        SweepCase{"matmul_t2_n8", kernels::MatMul, 2, 8},
        SweepCase{"matmul_t5_n17", kernels::MatMul, 5, 17},
        SweepCase{"jacobi_t3_n15", kernels::Jacobi1D, 3, 15},
        SweepCase{"jacobi_t8_n33", kernels::Jacobi1D, 8, 33},
        SweepCase{"lu_t3_n10", kernels::LU, 3, 10},
        SweepCase{"lu_t5_n16", kernels::LU, 5, 16},
        SweepCase{"seidel_t4_n13", kernels::Seidel2D, 4, 13},
        SweepCase{"mvt_t3_n11", kernels::MVT, 3, 11},
        SweepCase{"mvt_t6_n14", kernels::MVT, 6, 14}),
    [](const ::testing::TestParamInfo<SweepCase> &I) {
      return std::string(I.param.Name);
    });

} // namespace
