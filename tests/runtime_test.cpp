//===- tests/runtime_test.cpp - Interpreter & JIT tests -------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"

#include "driver/Driver.h"
#include "driver/Kernels.h"
#include "runtime/Jit.h"
#include "Session.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sys/stat.h>
#include <unistd.h>

using namespace pluto;

namespace {

TEST(TensorTest, Indexing) {
  Tensor T = Tensor::zeros({3, 4});
  EXPECT_EQ(T.numElems(), 12);
  T.at({2, 3}) = 7.5;
  EXPECT_DOUBLE_EQ(T.Data[11], 7.5);
  T.at({0, 1}) = -1.0;
  EXPECT_DOUBLE_EQ(T.Data[1], -1.0);
}

TEST(TensorTest, FillPatternDeterministic) {
  Tensor A = Tensor::zeros({100}), B = Tensor::zeros({100});
  A.fillPattern(3);
  B.fillPattern(3);
  EXPECT_EQ(A.Data, B.Data);
  B.fillPattern(4);
  EXPECT_NE(A.Data, B.Data);
}

TEST(InterpreterTest, EvaluatesSimpleLoopAst) {
  // for (c1 = 0; c1 <= 4; c1++) S0(c1): a[i] = i * 2.
  ParseResult P = parseSourceDiags("for (i = 0; i < N; i++) { a[i] = i * 2; }");
  ASSERT_TRUE(P.ok());
  auto Ast = Pipeline::create()->originalAst(P.Program->Prog);
  ASSERT_TRUE(Ast) << Ast.error();
  Interpreter I;
  I.allocate(P.Program->Prog, {{"a", {5}}});
  I.Params = {{"N", 5}};
  auto R = I.run(P.Program->Prog, **Ast);
  ASSERT_TRUE(R) << R.error();
  for (long long K = 0; K < 5; ++K)
    EXPECT_DOUBLE_EQ(I.Arrays["a"].Data[static_cast<size_t>(K)],
                     2.0 * static_cast<double>(K));
}

TEST(InterpreterTest, CompoundAssignAndCalls) {
  ParseResult P = parseSourceDiags(
      "for (i = 0; i < N; i++) { s[0] += sqrt(a[i]) * 2.0; }");
  ASSERT_TRUE(P.ok());
  auto Ast = Pipeline::create()->originalAst(P.Program->Prog);
  ASSERT_TRUE(Ast) << Ast.error();
  Interpreter I;
  I.allocate(P.Program->Prog, {{"s", {1}}, {"a", {4}}});
  for (int K = 0; K < 4; ++K)
    I.Arrays["a"].Data[K] = static_cast<double>(K * K);
  I.Params = {{"N", 4}};
  ASSERT_TRUE(I.run(P.Program->Prog, **Ast));
  // sum of 2*sqrt(k^2) = 2*(0+1+2+3) = 12.
  EXPECT_DOUBLE_EQ(I.Arrays["s"].Data[0], 12.0);
}

TEST(InterpreterTest, ReportsOutOfBounds) {
  ParseResult P =
      parseSourceDiags("for (i = 0; i < N; i++) { a[i + 1] = 0.0; }");
  ASSERT_TRUE(P.ok());
  auto Ast = Pipeline::create()->originalAst(P.Program->Prog);
  Interpreter I;
  I.allocate(P.Program->Prog, {{"a", {4}}});
  I.Params = {{"N", 4}}; // a[4] is out of bounds.
  auto R = I.run(P.Program->Prog, **Ast);
  EXPECT_FALSE(R);
  EXPECT_NE(R.error().find("out of bounds"), std::string::npos);
}

TEST(InterpreterTest, ReportsUnknownSymbol) {
  ParseResult P =
      parseSourceDiags("for (i = 0; i < N; i++) { a[i] = q * 2.0; }");
  ASSERT_TRUE(P.ok()); // q is a SymConst.
  auto Ast = Pipeline::create()->originalAst(P.Program->Prog);
  Interpreter I;
  I.allocate(P.Program->Prog, {{"a", {4}}});
  I.Params = {{"N", 4}};
  // SymConsts left empty: evaluation must fail cleanly.
  auto R = I.run(P.Program->Prog, **Ast);
  EXPECT_FALSE(R);
}

TEST(JitTest, CompileAndRunMatMul) {
  if (!CompiledKernel::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  PlutoOptions Opts;
  Opts.TileSize = 8;
  Opts.IncludeInputDeps = false;
  Pipeline Session = session(kernels::MatMul, Opts);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;
  EmitOptions EO;
  EO.Extents = {{"a", {"N", "N"}}, {"b", {"N", "N"}}, {"c", {"N", "N"}}};
  auto K = CompiledKernel::compile(emitC(R.program(), *R.Ast, EO));
  ASSERT_TRUE(K) << (K ? "" : K.error());

  long long N = 20;
  std::vector<double> A(N * N), B(N * N), C(N * N, 0.0);
  for (long long I = 0; I < N * N; ++I) {
    A[I] = static_cast<double>(I % 7);
    B[I] = static_cast<double>(I % 5);
  }
  // Array order in Program: c (written first), a, b.
  std::vector<double *> Arrays;
  for (const ArrayInfo &Ai : R.program().Arrays) {
    if (Ai.Name == "a")
      Arrays.push_back(A.data());
    else if (Ai.Name == "b")
      Arrays.push_back(B.data());
    else
      Arrays.push_back(C.data());
  }
  K->call(Arrays, {N}, {});
  // Spot-check against a direct computation.
  for (long long I = 0; I < N; I += 7)
    for (long long J = 0; J < N; J += 5) {
      double Want = 0;
      for (long long L = 0; L < N; ++L)
        Want += A[I * N + L] * B[L * N + J];
      EXPECT_DOUBLE_EQ(C[I * N + J], Want) << I << "," << J;
    }
}

TEST(JitTest, HonorsTmpdirAndCleansUpWithoutShell) {
  if (!CompiledKernel::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  // Point TMPDIR at a fresh directory (with a trailing slash, which the
  // JIT must tolerate) and check the kernel builds inside it and that its
  // temp dir is removed on destruction.
  char Base[] = "/tmp/plutopp-tmpdir-XXXXXX";
  ASSERT_NE(mkdtemp(Base), nullptr);
  std::string BaseDir = Base;
  ASSERT_EQ(setenv("TMPDIR", (BaseDir + "/").c_str(), 1), 0);
  std::string KernelDir;
  {
    auto K = CompiledKernel::compile(
        "void kernel_entry(double **a, const long long *p, const double *c)"
        " { (void)a; (void)p; (void)c; }");
    unsetenv("TMPDIR");
    ASSERT_TRUE(K) << (K ? "" : K.error());
    KernelDir = K->dir();
    EXPECT_EQ(KernelDir.rfind(BaseDir + "/plutopp-", 0), 0u) << KernelDir;
    struct stat St;
    EXPECT_EQ(stat(KernelDir.c_str(), &St), 0);
    EXPECT_TRUE(S_ISDIR(St.st_mode));
  }
  // reset() ran in the destructor: the kernel dir is gone, the TMPDIR
  // directory itself untouched.
  struct stat St;
  EXPECT_NE(stat(KernelDir.c_str(), &St), 0);
  EXPECT_EQ(stat(BaseDir.c_str(), &St), 0);
  rmdir(Base);
}

TEST(JitTest, CompileErrorIsReported) {
  if (!CompiledKernel::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  auto K = CompiledKernel::compile("this is not C");
  ASSERT_FALSE(K);
  EXPECT_NE(K.error().find("compilation of generated code failed"),
            std::string::npos);
  // The captured compiler output, exit status and command line all ride
  // along so a failure is debuggable from the message alone.
  EXPECT_NE(K.error().find("exit status"), std::string::npos) << K.error();
  EXPECT_NE(K.error().find("error"), std::string::npos) << K.error();
  EXPECT_NE(K.error().find("command: "), std::string::npos) << K.error();
}

// The measurement harness under a scripted clock: the Run body "takes"
// 100 s the first time it executes and 1 s afterwards - the shape of the
// historical bias, where OpenMP pool spin-up and first-touch faults land
// entirely in the first execution.
namespace {
struct FakeTimedRun {
  double Clock = 0.0;
  unsigned Calls = 0;
  MeasureOptions options(unsigned Warmup, unsigned Reps) {
    MeasureOptions MO;
    MO.Warmup = Warmup;
    MO.Reps = Reps;
    MO.Threads = 1;
    MO.Now = [this] { return Clock; };
    return MO;
  }
  std::function<void()> run() {
    return [this] { Clock += (Calls++ == 0) ? 100.0 : 1.0; };
  }
};
} // namespace

TEST(MeasureTest, WarmupAbsorbsNoisyFirstRep) {
  // Regression for the timing bias: with one warm-up execution the 100x
  // slower first run never enters the samples.
  FakeTimedRun F;
  Measurement M = measureRun(F.run(), nullptr, F.options(1, 3));
  ASSERT_EQ(M.RepSeconds.size(), 3u);
  for (double S : M.RepSeconds)
    EXPECT_DOUBLE_EQ(S, 1.0);
  EXPECT_DOUBLE_EQ(M.MedianSeconds, 1.0);
  EXPECT_EQ(F.Calls, 4u); // 1 warmup + 3 reps
}

TEST(MeasureTest, MedianDiscardsOutlierWithoutWarmup) {
  // Even with warmup explicitly disabled, median-of-K keeps the stray
  // 100 s rep out of the reported number (min would too, but would also
  // hide systematic noise; mean would average the outlier in).
  FakeTimedRun F;
  Measurement M = measureRun(F.run(), nullptr, F.options(0, 3));
  ASSERT_EQ(M.RepSeconds.size(), 3u);
  EXPECT_DOUBLE_EQ(M.RepSeconds[0], 100.0); // raw samples stay honest
  EXPECT_DOUBLE_EQ(M.RepSeconds[1], 1.0);
  EXPECT_DOUBLE_EQ(M.MedianSeconds, 1.0);
}

TEST(MeasureTest, EvenRepCountAveragesMiddlePair) {
  // Reps: 100, 1, 1, 1 -> sorted middle pair (1, 1) -> median 1. Then a
  // hand-built spread 1..4 via per-call increments checks the mean of the
  // middle two.
  double Clock = 0.0;
  unsigned Calls = 0;
  MeasureOptions MO;
  MO.Warmup = 0;
  MO.Reps = 4;
  MO.Threads = 1;
  MO.Now = [&Clock] { return Clock; };
  Measurement M = measureRun(
      [&] { Clock += static_cast<double>(++Calls); }, nullptr, MO);
  ASSERT_EQ(M.RepSeconds.size(), 4u);
  // Reps took 1, 2, 3, 4 seconds; median = (2 + 3) / 2.
  EXPECT_DOUBLE_EQ(M.MedianSeconds, 2.5);
}

TEST(MeasureTest, ResetRunsOutsideTimedRegion) {
  // Reset advances the clock by 50 s before every execution, yet no rep
  // may include it: each rep still reads exactly 1 s.
  double Clock = 0.0;
  MeasureOptions MO;
  MO.Warmup = 1;
  MO.Reps = 3;
  MO.Threads = 1;
  MO.Now = [&Clock] { return Clock; };
  unsigned Resets = 0;
  Measurement M = measureRun([&] { Clock += 1.0; },
                             [&] {
                               Clock += 50.0;
                               ++Resets;
                             },
                             MO);
  EXPECT_EQ(Resets, 4u); // before the warmup and before every rep
  for (double S : M.RepSeconds)
    EXPECT_DOUBLE_EQ(S, 1.0);
  EXPECT_DOUBLE_EQ(M.MedianSeconds, 1.0);
}

TEST(JitTest, JitMatchesInterpreterOnJacobi) {
  if (!CompiledKernel::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  PlutoOptions Opts;
  Opts.TileSize = 8;
  Opts.IncludeInputDeps = false;
  Pipeline Session = session(kernels::Jacobi1D, Opts);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;
  EmitOptions EO;
  EO.Extents = {{"a", {"N"}}, {"b", {"N"}}};
  auto K = CompiledKernel::compile(emitC(R.program(), *R.Ast, EO));
  ASSERT_TRUE(K) << (K ? "" : K.error());

  long long N = 50, T = 9;
  // Interpreter run.
  Interpreter I;
  I.allocate(R.program(), {{"a", {N}}, {"b", {N}}});
  unsigned Seed = 1;
  for (auto &[Name, Tn] : I.Arrays)
    Tn.fillPattern(Seed++);
  std::map<std::string, std::vector<double>> Init;
  for (auto &[Name, Tn] : I.Arrays)
    Init[Name] = Tn.Data;
  I.Params = {{"T", T}, {"N", N}};
  ASSERT_TRUE(I.run(R.program(), *R.Ast));

  // JIT run on identical inputs.
  std::vector<std::vector<double>> Bufs;
  std::vector<double *> Arrays;
  for (const ArrayInfo &Ai : R.program().Arrays) {
    Bufs.push_back(Init[Ai.Name]);
  }
  for (auto &B : Bufs)
    Arrays.push_back(B.data());
  K->call(Arrays, {T, N}, {});

  unsigned Idx = 0;
  for (const ArrayInfo &Ai : R.program().Arrays) {
    const std::vector<double> &Want = I.Arrays[Ai.Name].Data;
    const std::vector<double> &Got = Bufs[Idx++];
    ASSERT_EQ(Want.size(), Got.size());
    for (size_t E = 0; E < Want.size(); ++E)
      EXPECT_NEAR(Want[E], Got[E], 1e-9) << Ai.Name << "[" << E << "]";
  }
}

} // namespace
