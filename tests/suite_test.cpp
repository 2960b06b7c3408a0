//===- tests/suite_test.cpp - Generality sweep over the kernel suite ------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// The paper positions the framework as fully automatic for ARBITRARY affine
// loop nests. This suite runs the complete pipeline over the extended
// kernel collection (polybench-style shapes beyond Section 7's five) and
// checks, for each: the schedule passes the independent legality oracle,
// at least one permutable band exists where expected, and the generated
// code is semantically equivalent to the original under tiling and
// wavefronting.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/Kernels.h"
#include "runtime/Interpreter.h"
#include "Session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

using namespace pluto;

namespace {

struct SuiteCase {
  const char *Name;
  const char *Src;
  std::map<std::string, std::vector<long long>> Extents;
  std::map<std::string, long long> Params;
  bool InputDeps;
  unsigned ExpectBandWidth; ///< Minimum width of the first band.
};

std::vector<SuiteCase> cases() {
  long long N = 9, M = 6, T = 4;
  return {
      {"jacobi2d",
       kernels::Jacobi2D,
       {{"a", {N, N}}, {"b", {N, N}}},
       {{"T", T}, {"N", N}},
       false,
       3},
      {"gemver",
       kernels::Gemver,
       {{"a", {N, N}},
        {"aa", {N, N}},
        {"u1", {N}},
        {"v1", {N}},
        {"u2", {N}},
        {"v2", {N}},
        {"x", {N}},
        {"y", {N}},
        {"z", {N}},
        {"w", {N}},
        {"alpha", {1}},
        {"beta", {1}}},
       {{"N", N}},
       true,
       1},
      {"trmm",
       kernels::Trmm,
       {{"a", {N, N}}, {"b", {N, N}}},
       {{"N", N}},
       false,
       2},
      {"syrk",
       kernels::Syrk,
       {{"a", {N, N}}, {"c", {N, N}}},
       {{"N", N}},
       false,
       3},
      {"doitgen",
       kernels::Doitgen,
       {{"a", {N, N, M}}, {"sum", {N, N, M}}, {"c4", {M, M}}},
       {{"N", N}, {"M", M}},
       false,
       2},
      {"atax",
       kernels::Atax,
       {{"a", {N, N}}, {"x", {N}}, {"y", {N}}, {"tmp", {N}}},
       {{"N", N}},
       true,
       1},
  };
}

class KernelSuite : public ::testing::TestWithParam<SuiteCase> {};

TEST_P(KernelSuite, FullPipelineLegalAndEquivalent) {
  const SuiteCase &C = GetParam();
  PlutoOptions Opts;
  Opts.TileSize = 3;
  Opts.IncludeInputDeps = C.InputDeps;
  Pipeline Session = session(C.Src, Opts);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;

  // Independent legality oracle.
  {
    DependenceGraph DG = R.DG;
    Schedule S = R.Sched;
    EXPECT_TRUE(analyzeSchedule(R.program(), DG, S));
  }
  // Band expectation (pre-tiling schedule).
  auto Bands = R.Sched.bands();
  ASSERT_FALSE(Bands.empty());
  EXPECT_GE(Bands[0].Width, C.ExpectBandWidth) << "first band too narrow";

  // Equivalence: original vs transformed under the interpreter.
  auto Orig = Session.originalAst(R.program());
  ASSERT_TRUE(Orig) << Orig.error();
  auto runWith = [&](const CgNode &Ast) {
    Interpreter I;
    I.allocate(R.program(), C.Extents);
    unsigned S = 1;
    for (auto &[Name, T] : I.Arrays)
      T.fillPattern(S++);
    I.Params = C.Params;
    auto Ok = I.run(R.program(), Ast);
    EXPECT_TRUE(Ok) << (Ok ? "" : Ok.error());
    return I.Arrays;
  };
  auto Want = runWith(**Orig);
  auto Got = runWith(*R.Ast);
  for (const auto &[Name, TW] : Want) {
    const Tensor &TG = Got.at(Name);
    ASSERT_EQ(TW.Data.size(), TG.Data.size()) << Name;
    for (size_t I = 0; I < TW.Data.size(); ++I)
      ASSERT_NEAR(TW.Data[I], TG.Data[I],
                  1e-9 * (1.0 + std::fabs(TW.Data[I])))
          << Name << "[" << I << "]";
  }
}

TEST_P(KernelSuite, ToolchainIsFast) {
  // Paper Sec. 7: "within a fraction of a second" for the transformation;
  // "a few seconds" end to end. Give generous slack for slow CI hosts.
  const SuiteCase &C = GetParam();
  PlutoOptions Opts;
  Opts.TileSize = 32;
  Opts.IncludeInputDeps = C.InputDeps;
  auto T0 = std::chrono::steady_clock::now();
  Pipeline Session = session(C.Src, Opts);
  auto R = Session.lowered();
  auto T1 = std::chrono::steady_clock::now();
  ASSERT_TRUE(R) << R.error();
  EXPECT_LT(std::chrono::duration<double>(T1 - T0).count(), 30.0);
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelSuite, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<SuiteCase> &I) {
                           return std::string(I.param.Name);
                         });

} // namespace
