//===- tests/deps_test.cpp - Dependence analysis unit tests ---------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "deps/Dependences.h"

#include "driver/Kernels.h"
#include "parser/Parser.h"
#include "service/Pipeline.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

using namespace pluto;

namespace {

Program parse(const char *Src) {
  ParseResult P = parseSourceDiags(Src);
  EXPECT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  Program Prog = P.Program->Prog;
  for (const std::string &Param : Prog.ParamNames)
    Prog.addContextBound(Param, 4); // Parameters are "large" (paper Sec. 7).
  return Prog;
}

unsigned countDeps(const DependenceGraph &G, DepKind K) {
  unsigned N = 0;
  for (const Dependence &D : G.Deps)
    N += D.Kind == K;
  return N;
}

bool hasDep(const DependenceGraph &G, DepKind K, unsigned Src, unsigned Dst,
            unsigned Level) {
  for (const Dependence &D : G.Deps)
    if (D.Kind == K && D.SrcStmt == Src && D.DstStmt == Dst &&
        D.CarryLevel == Level)
      return true;
  return false;
}

TEST(DepsTest, MatMulSelfDeps) {
  Program Prog = parse(kernels::MatMul);
  DepOptions Opts;
  Opts.IncludeInputDeps = false;
  DependenceGraph G = computeDependences(Prog, Opts);
  // c[i][j] read&write: the access equality pins i and j, so the only
  // carrying loop is k (level 3): one flow, one anti, one output.
  EXPECT_TRUE(hasDep(G, DepKind::Flow, 0, 0, 3));
  EXPECT_TRUE(hasDep(G, DepKind::Anti, 0, 0, 3));
  EXPECT_TRUE(hasDep(G, DepKind::Output, 0, 0, 3));
  EXPECT_FALSE(hasDep(G, DepKind::Flow, 0, 0, 1));
  EXPECT_FALSE(hasDep(G, DepKind::Flow, 0, 0, 2));
  EXPECT_EQ(G.numLegalityDeps(), 3u);
}

TEST(DepsTest, MatMulInputDeps) {
  Program Prog = parse(kernels::MatMul);
  DependenceGraph G = computeDependences(Prog);
  // a[i][k] and b[k][j] self-RAR exist (reuse along j and i respectively).
  EXPECT_GE(countDeps(G, DepKind::Input), 2u);
}

TEST(DepsTest, Sweep2DUniformDeps) {
  Program Prog = parse(kernels::Sweep2D);
  DepOptions Opts;
  Opts.IncludeInputDeps = false;
  DependenceGraph G = computeDependences(Prog, Opts);
  // a[i][j] = a[i-1][j] + a[i][j-1]: flow carried at level 1 (from i-1) and
  // at level 2 (from j-1). Reads only touch lexically earlier cells, so no
  // anti/output dependences exist.
  EXPECT_TRUE(hasDep(G, DepKind::Flow, 0, 0, 1));
  EXPECT_TRUE(hasDep(G, DepKind::Flow, 0, 0, 2));
  EXPECT_EQ(countDeps(G, DepKind::Anti), 0u);
  EXPECT_EQ(countDeps(G, DepKind::Output), 0u);
  EXPECT_EQ(G.numLegalityDeps(), 2u);
}

TEST(DepsTest, Jacobi1DInterStatement) {
  Program Prog = parse(kernels::Jacobi1D);
  DepOptions Opts;
  Opts.IncludeInputDeps = false;
  DependenceGraph G = computeDependences(Prog, Opts);
  // S0 writes b, S1 reads b in the same time step: loop-independent flow.
  EXPECT_TRUE(hasDep(G, DepKind::Flow, 0, 1, 0));
  // S1 writes a, S0 reads a in a later time step: flow carried at level 1.
  EXPECT_TRUE(hasDep(G, DepKind::Flow, 1, 0, 1));
  // S0 reads a then S1 overwrites it: anti dependence exists.
  EXPECT_GE(countDeps(G, DepKind::Anti), 1u);
  // The two statements form one SCC (producer-consumer cycle).
  EXPECT_EQ(G.numSccs(2), 1u);
}

TEST(DepsTest, JacobiDepPolyhedronIsExact) {
  Program Prog = parse(kernels::Jacobi1D);
  DepOptions Opts;
  Opts.IncludeInputDeps = false;
  DependenceGraph G = computeDependences(Prog, Opts);
  // The loop-independent S0 -> S1 flow on b must force i_s == j_t: check
  // the polyhedron implies it (columns: t_s, i_s, t_t, j_t, T, N, 1).
  for (const Dependence &D : G.Deps) {
    if (!(D.Kind == DepKind::Flow && D.SrcStmt == 0 && D.DstStmt == 1 &&
          D.CarryLevel == 0))
      continue;
    EXPECT_TRUE(D.Poly.impliesIneq({BigInt(0), BigInt(1), BigInt(0),
                                    BigInt(-1), BigInt(0), BigInt(0),
                                    BigInt(0)}));
    EXPECT_TRUE(D.Poly.impliesIneq({BigInt(0), BigInt(-1), BigInt(0),
                                    BigInt(1), BigInt(0), BigInt(0),
                                    BigInt(0)}));
    return;
  }
  FAIL() << "loop-independent flow S0 -> S1 not found";
}

TEST(DepsTest, MVTOnlyInterStatementDepIsInput) {
  Program Prog = parse(kernels::MVT);
  DependenceGraph G = computeDependences(Prog);
  // Cross-statement legality deps must not exist (x1/x2/y1/y2 disjoint);
  // the RAR on a is the only S0 <-> S1 edge (paper Section 7, MVT).
  bool SawCrossInput = false;
  for (const Dependence &D : G.Deps) {
    if (D.SrcStmt == D.DstStmt)
      continue;
    EXPECT_EQ(D.Kind, DepKind::Input)
        << depKindName(D.Kind) << " S" << D.SrcStmt << "->S" << D.DstStmt;
    SawCrossInput = true;
  }
  EXPECT_TRUE(SawCrossInput);
  // Without legality edges between them the statements are separate SCCs.
  EXPECT_EQ(G.numSccs(2), 2u);
}

TEST(DepsTest, SeidelDeps) {
  Program Prog = parse(kernels::Seidel2D);
  DepOptions Opts;
  Opts.IncludeInputDeps = false;
  DependenceGraph G = computeDependences(Prog, Opts);
  // In-place 9-point stencil: flow deps carried at all three levels.
  EXPECT_TRUE(hasDep(G, DepKind::Flow, 0, 0, 1));
  EXPECT_TRUE(hasDep(G, DepKind::Flow, 0, 0, 2));
  EXPECT_TRUE(hasDep(G, DepKind::Flow, 0, 0, 3));
}

TEST(DepsTest, FdtdHasInterStatementFlow) {
  Program Prog = parse(kernels::Fdtd2D);
  DepOptions Opts;
  Opts.IncludeInputDeps = false;
  DependenceGraph G = computeDependences(Prog, Opts);
  // ey written by S0/S1, read by S3; hz written by S3, read by S1/S2.
  EXPECT_TRUE(hasDep(G, DepKind::Flow, 1, 3, 0));
  EXPECT_TRUE(hasDep(G, DepKind::Flow, 3, 1, 1));
  // All four statements end up in one SCC through the t-carried cycle.
  EXPECT_EQ(G.numSccs(4), 1u);
}

TEST(DepsTest, IndependentStatementsNoDeps) {
  Program Prog =
      parse("for (i = 0; i < N; i++) { a[i] = 1.0; }\n"
            "for (i = 0; i < N; i++) { b[i] = 2.0; }");
  DepOptions Opts;
  Opts.IncludeInputDeps = false;
  DependenceGraph G = computeDependences(Prog, Opts);
  EXPECT_EQ(G.Deps.size(), 0u);
  EXPECT_EQ(G.numSccs(2), 2u);
}

TEST(DepsTest, SequentialReusePair) {
  // S0 writes c[], S1 reads it: classic producer-consumer.
  Program Prog = parse("for (i = 0; i < N; i++) { c[i] = a[i]; }\n"
                       "for (j = 0; j < N; j++) { d[j] = c[j]; }");
  DepOptions Opts;
  Opts.IncludeInputDeps = false;
  DependenceGraph G = computeDependences(Prog, Opts);
  ASSERT_EQ(G.Deps.size(), 1u);
  EXPECT_EQ(G.Deps[0].Kind, DepKind::Flow);
  EXPECT_EQ(G.Deps[0].CarryLevel, 0u); // No common loops.
  EXPECT_EQ(G.numSccs(2), 2u);
}

TEST(DepsTest, SccTopologicalOrder) {
  // S0 -> S1 -> S2 chain: SCC ids must be 0, 1, 2.
  Program Prog = parse("for (i = 0; i < N; i++) { a[i] = 1.0; }\n"
                       "for (i = 0; i < N; i++) { b[i] = a[i]; }\n"
                       "for (i = 0; i < N; i++) { c[i] = b[i]; }");
  DepOptions Opts;
  Opts.IncludeInputDeps = false;
  DependenceGraph G = computeDependences(Prog, Opts);
  std::vector<unsigned> Ids = G.sccIds(3);
  EXPECT_EQ(Ids, (std::vector<unsigned>{0, 1, 2}));
}

TEST(DepsTest, SatisfiedDepsLeaveScc) {
  Program Prog = parse(kernels::Jacobi1D);
  DepOptions Opts;
  Opts.IncludeInputDeps = false;
  DependenceGraph G = computeDependences(Prog, Opts);
  EXPECT_EQ(G.numSccs(2), 1u);
  for (Dependence &D : G.Deps)
    D.SatisfiedAtRow = 0; // Pretend everything is satisfied.
  EXPECT_EQ(G.numSccs(2), 2u);
}

/// The number of threads in this process, or 0 where /proc is missing.
size_t threadCount() {
  std::error_code Ec;
  std::filesystem::directory_iterator It("/proc/self/task", Ec);
  return Ec ? 0 : std::distance(It, std::filesystem::directory_iterator());
}

TEST(DepsTest, CompilesRunOnTheCallingThread) {
  // A compile starts no thread of its own. It runs on a fresh thread here
  // because an OpenMP runtime gives every new initial thread its own pool.
  const char *const All[] = {
      kernels::Jacobi1D, kernels::Fdtd2D,     kernels::LU,
      kernels::MVT,      kernels::Seidel2D,   kernels::MatMul,
      kernels::Sweep2D,  kernels::Jacobi2D,   kernels::Gemver,
      kernels::Trmm,     kernels::Syrk,       kernels::Doitgen,
      kernels::Atax,     kernels::DotProduct, kernels::MatVecT,
  };
  size_t Before = 0, After = 0;
  std::vector<std::string> Errors;
  std::thread Caller([&] {
    Before = threadCount();
    for (const char *Src : All) {
      Pipeline P = Pipeline::create().takeValue();
      P.setSource(Src);
      if (auto C = P.emitted(); !C)
        Errors.push_back(C.error());
    }
    After = threadCount();
  });
  Caller.join();
  if (Before == 0)
    GTEST_SKIP() << "no /proc/self/task";
  EXPECT_TRUE(Errors.empty()) << Errors.front();
  EXPECT_LE(After, Before);
}

} // namespace
