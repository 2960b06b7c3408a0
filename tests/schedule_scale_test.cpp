//===- tests/schedule_scale_test.cpp - Scheduler scaling paths ------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Covers the hundred-statement scaling machinery: the deterministic stress
// generator, the equivalence contract (clustered decomposition +
// warm-started lexmin produce byte-identical transforms to the exact
// monolithic path on the example kernels, the driver/Kernels.h kernels and
// the designed stress corpus), the concat-stitch path for structurally
// heterogeneous clusters, the observability counters, and the explicit
// handling of ilp::SolveStatus::Aborted in both dependence analysis
// (conservative keep) and hyperplane search (hard diagnostic, never
// misreported as infeasible).
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "deps/Dependences.h"
#include "driver/Driver.h"
#include "driver/Kernels.h"
#include "ilp/LexMin.h"
#include "observe/PassStats.h"
#include "runtime/Interpreter.h"
#include "support/StressGen.h"
#include "transform/PlutoTransform.h"
#include "Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#ifndef PLUTOPP_EXAMPLES_DIR
#error "PLUTOPP_EXAMPLES_DIR must be defined by the build"
#endif

using namespace pluto;
namespace fs = std::filesystem;

namespace {

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<fs::path> exampleKernels() {
  std::vector<fs::path> Out;
  for (const auto &E : fs::directory_iterator(PLUTOPP_EXAMPLES_DIR))
    if (E.path().extension() == ".c")
      Out.push_back(E.path());
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Schedule + loop nest of the full pipeline with the scaling fast paths
/// on or off; everything else at defaults.
struct Lowered {
  std::string Sched;
  std::string Nest;
};

Lowered lower(const std::string &Src, bool FastPaths) {
  Pipeline Session = session(Src);
  auto P = Session.parsed();
  auto D = Session.dependences();
  EXPECT_TRUE(D) << D.error();
  if (!D)
    return {};
  DependenceGraph DG = **D;
  TransformOptions TO;
  TO.FastPaths = FastPaths;
  auto S = computeSchedule((*P)->Prog, DG, TO);
  EXPECT_TRUE(S) << S.error();
  if (!S)
    return {};
  auto R = Session.lowerSchedule(**P, std::move(DG), std::move(*S));
  EXPECT_TRUE(R) << R.error();
  if (!R)
    return {};
  return {R->Sched.toString(R->program()),
          emitLoopNest(R->program(), *R->Ast)};
}

//===----------------------------------------------------------------------===//
// Stress-program generator
//===----------------------------------------------------------------------===//

TEST(StressGenTest, DeterministicAndSized) {
  for (unsigned N : {1u, 2u, 10u, 25u, 50u, 100u}) {
    std::string A = generateStressProgram(N, 42);
    std::string B = generateStressProgram(N, 42);
    EXPECT_EQ(A, B) << "same (size, seed) must be byte-identical";
    ParseResult P = parseSourceDiags(A);
    ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
    EXPECT_EQ(P.Program->Prog.Stmts.size(), N);
    EXPECT_EQ(P.Program->Prog.ParamNames, std::vector<std::string>{"N"});
  }
  EXPECT_NE(generateStressProgram(25, 1), generateStressProgram(25, 2));
}

TEST(StressGenTest, EveryPatternSchedules) {
  // Seeds chosen freely; any generated program must go through the whole
  // pipeline and pass the independent legality oracle.
  for (unsigned long long Seed : {1ULL, 2ULL, 3ULL}) {
    std::string Src = generateStressProgram(10, Seed);
    SCOPED_TRACE("seed " + std::to_string(Seed) + " program:\n" + Src);
    Pipeline Session = session(Src);
    auto Res = Session.lowered();
    ASSERT_TRUE(Res) << Res.error();
    const PlutoResult &R = **Res;
    DependenceGraph DG = R.DG;
    Schedule S = R.Sched;
    EXPECT_TRUE(analyzeSchedule(R.program(), DG, S));
  }
}

//===----------------------------------------------------------------------===//
// Fast paths == exact path
//===----------------------------------------------------------------------===//

TEST(ScheduleEquivalenceTest, ExampleKernelsAreByteIdentical) {
  std::vector<std::pair<std::string, std::string>> Units;
  for (const fs::path &K : exampleKernels())
    Units.emplace_back(K.filename().string(), readFile(K));
  for (const auto &[Name, Src] : kernels::All)
    Units.emplace_back(Name, Src);
  for (const auto &[Name, Src] : Units) {
    SCOPED_TRACE(Name);
    Lowered Fast = lower(Src, true);
    Lowered Exact = lower(Src, false);
    EXPECT_EQ(Fast.Sched, Exact.Sched);
    EXPECT_EQ(Fast.Nest, Exact.Nest);
  }
}

TEST(ScheduleEquivalenceTest, StressProgramsAreByteIdentical) {
  // 25 statements is ~10 clusters; the exact arm solves one joint ILP over
  // all of them, so keep the sizes test-friendly (E9's 50/100-statement
  // points live in bench_schedule). StressGen-10 seeds 1-16 are the golden
  // corpus's stress units.
  struct Case {
    unsigned Size;
    unsigned long long Seed;
  };
  std::vector<Case> Cases;
  for (unsigned long long Seed = 1; Seed <= 16; ++Seed)
    Cases.push_back({10, Seed});
  Cases.push_back({25, 1});
  for (const auto &C : Cases) {
    std::string Src = generateStressProgram(C.Size, C.Seed);
    SCOPED_TRACE("size " + std::to_string(C.Size) + " seed " +
                 std::to_string(C.Seed) + " program:\n" + Src);
    Lowered Fast = lower(Src, true);
    Lowered Exact = lower(Src, false);
    EXPECT_EQ(Fast.Sched, Exact.Sched);
    EXPECT_EQ(Fast.Nest, Exact.Nest);
  }
}

TEST(ScheduleEquivalenceTest, FiftyStatementsScheduleIsLegal) {
  // Too big to A/B against the exact arm in a unit test; check the fast
  // schedule against the independent legality oracle instead.
  std::string Src = generateStressProgram(50, 3);
  Pipeline Session = session(Src);
  auto Res = Session.lowered();
  ASSERT_TRUE(Res) << Res.error();
  const PlutoResult &R = **Res;
  DependenceGraph DG = R.DG;
  Schedule S = R.Sched;
  EXPECT_TRUE(analyzeSchedule(R.program(), DG, S));
}

//===----------------------------------------------------------------------===//
// Heterogeneous clusters: concat stitch + semantics
//===----------------------------------------------------------------------===//

TEST(ScheduleStitchTest, HeterogeneousClustersRunCorrectly) {
  // A 1-d cluster next to a 2-d stencil cluster: different loop-row
  // counts, so the aligned interleave is impossible and the scheduler must
  // take the concat stitch (leading cluster-ordinal scalar row plus
  // zero-padded blocks). Validate semantics end to end.
  const char *Src = "for (i0 = 0; i0 < N; i0++) {\n"
                    "  v[i0] = v[i0] * 0.5 + 1.0;\n"
                    "}\n"
                    "for (i1 = 1; i1 < N; i1++) {\n"
                    "  for (j1 = 1; j1 < N; j1++) {\n"
                    "    S[i1][j1] = S[i1 - 1][j1] + S[i1][j1 - 1];\n"
                    "  }\n"
                    "}\n";
  Pipeline Session = session(Src);
  auto Res = Session.lowered();
  ASSERT_TRUE(Res) << Res.error();
  const PlutoResult &R = **Res;

  DependenceGraph DG = R.DG;
  Schedule S = R.Sched;
  EXPECT_TRUE(analyzeSchedule(R.program(), DG, S));

  auto Orig = Session.originalAst(R.program());
  ASSERT_TRUE(Orig) << Orig.error();
  const long long N = 9;
  std::map<std::string, std::vector<long long>> Extents;
  for (const ArrayInfo &A : R.program().Arrays)
    Extents[A.Name] = std::vector<long long>(A.Rank, N);
  auto runWith = [&](const CgNode &Ast) {
    Interpreter I;
    I.allocate(R.program(), Extents);
    unsigned Seed = 1;
    for (auto &[Name, T] : I.Arrays)
      T.fillPattern(Seed++);
    I.Params = {{"N", N}};
    auto Ok = I.run(R.program(), Ast);
    EXPECT_TRUE(Ok) << (Ok ? "" : Ok.error());
    return I.Arrays;
  };
  auto Want = runWith(**Orig);
  auto Got = runWith(*R.Ast);
  for (const auto &[Name, TW] : Want) {
    const Tensor &TG = Got.at(Name);
    ASSERT_EQ(TW.Data.size(), TG.Data.size());
    for (size_t I = 0; I < TW.Data.size(); ++I)
      ASSERT_NEAR(TW.Data[I], TG.Data[I],
                  1e-9 * (1.0 + std::fabs(TW.Data[I])))
          << Name << "[" << I << "]";
  }
}

//===----------------------------------------------------------------------===//
// Aborted solves
//===----------------------------------------------------------------------===//

TEST(AbortHandlingTest, ScheduleSurfacesAbortAsDiagnostic) {
  // Deps are computed under normal budgets; only the hyperplane search
  // runs starved. With every fast path off the first findHyperplane must
  // go to the exact solver, abort, and report it - not fold the abort into
  // "no hyperplane exists" (which would silently cut the band).
  ParseResult P = parseSourceDiags(generateStressProgram(4, 1));
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  Program Prog = P.Program->Prog;
  DependenceGraph DG = computeDependences(Prog);

  TransformOptions Exact;
  Exact.FastPaths = false;

  ilp::SolveLimits Tiny;
  Tiny.MaxPivots = 1;
  Tiny.MaxCuts = 0;
  ilp::ScopedSolveLimits Guard(Tiny);
  auto S = computeSchedule(Prog, DG, Exact);
  ASSERT_FALSE(S);
  EXPECT_NE(S.error().find("aborted"), std::string::npos) << S.error();
  EXPECT_NE(S.error().find("budget"), std::string::npos) << S.error();
}

TEST(AbortHandlingTest, DepAnalysisKeepsCandidatesOnAbort) {
  ParseResult P =
      parseSourceDiags(readFile(fs::path(PLUTOPP_EXAMPLES_DIR) / "lu.c"));
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  DependenceGraph Ref = computeDependences(P.Program->Prog);

  PassStats Stats;
  setActiveStats(&Stats);
  ilp::SolveLimits Tiny;
  Tiny.MaxPivots = 1;
  Tiny.MaxCuts = 0;
  DependenceGraph Starved = [&] {
    ilp::ScopedSolveLimits Guard(Tiny);
    return computeDependences(P.Program->Prog);
  }();
  setActiveStats(nullptr);

  // Unknown feasibility must err on the side of keeping the dependence:
  // the starved graph over-approximates the real one and says so.
  EXPECT_GE(Starved.Deps.size(), Ref.Deps.size());
  EXPECT_GT(Stats.get(Counter::DepKeptOnAbort), 0u);
}

//===----------------------------------------------------------------------===//
// Observability
//===----------------------------------------------------------------------===//

TEST(ScheduleStatsTest, WarmStartsAndClusterHistogram) {
  PassStats Stats;
  setActiveStats(&Stats);
  Pipeline Session = session(generateStressProgram(25, 1));
  auto R = Session.lowered();
  setActiveStats(nullptr);
  ASSERT_TRUE(R) << R.error();

  // The stress clusters are 2-d, so a band's second row resumes the
  // tableau its first row solved.
  EXPECT_GT(Stats.get(Counter::LexMinWarmStarts), 0u);

  // Stress clusters have 1 or 2 statements; both histogram buckets fill.
  EXPECT_GT(Stats.ClustersOfSize[0].load(), 0u);
  EXPECT_GT(Stats.ClustersOfSize[1].load(), 0u);
  for (unsigned B = 2; B < MaxClusterSizes; ++B)
    EXPECT_EQ(Stats.ClustersOfSize[B].load(), 0u);

  EXPECT_NE(Stats.toJson().find("\"clusters_by_size\""), std::string::npos);
  EXPECT_NE(Stats.toText().find("scheduler clusters by statement count"),
            std::string::npos);
}

} // namespace
