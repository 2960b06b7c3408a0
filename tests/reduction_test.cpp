//===- tests/reduction_test.cpp - Reduction-aware parallelization ---------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Reduction cycles (self flow+output dependences of `+=`-style statements
// whose rhs never reads the target) are tagged in the dependence graph,
// relaxed by the parallelism detector - a loop that only carries such
// cycles is parallel under a `reduction(...)` clause - and surfaced by the
// emitter as OpenMP clauses: plain `reduction(+:s)` for hoisted scalars,
// 4.5 array sections `reduction(+:y[0:(N)])` for rank-1 targets. The
// relaxation must not weaken transform legality, detection must stay
// conservative (plain `x = x + e` form is untouched), and the generated
// code must agree with the serial interpreter (JIT-differential).
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/Kernels.h"
#include "runtime/Interpreter.h"
#include "runtime/Jit.h"
#include "Session.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace pluto;

namespace {

unsigned countReductionDeps(const DependenceGraph &DG) {
  unsigned N = 0;
  for (const Dependence &D : DG.Deps)
    N += D.IsReduction;
  return N;
}

DependenceGraph depsOf(const char *Src, bool InputDeps = true) {
  ParseResult P = parseSourceDiags(Src);
  EXPECT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  DepOptions DO;
  DO.IncludeInputDeps = InputDeps;
  return computeDependences(P.Program->Prog, DO);
}

//===----------------------------------------------------------------------===//
// Detection: what is (and is not) a reduction
//===----------------------------------------------------------------------===//

TEST(ReductionDetect, DotProductSelfDepsAreTagged) {
  DependenceGraph DG = depsOf(kernels::DotProduct);
  EXPECT_GE(countReductionDeps(DG), 1u);
  for (const Dependence &D : DG.Deps)
    if (D.IsReduction) {
      EXPECT_EQ(D.RedOp, '+');
      EXPECT_EQ(D.SrcStmt, D.DstStmt);
      EXPECT_NE(D.Kind, DepKind::Input);
    }
}

TEST(ReductionDetect, PlainAssignFormIsNotTagged) {
  // The paper-suite atax spells its accumulations `y[j] = y[j] + e`: the
  // rhs reads the target, so detection must conservatively leave it alone.
  EXPECT_EQ(countReductionDeps(depsOf(kernels::Atax)), 0u);
}

TEST(ReductionDetect, RhsReadingTargetIsNotTagged) {
  // `s += a[i] * s` is not associative-combinable: rhs reads the target.
  EXPECT_EQ(countReductionDeps(depsOf("for (i = 0; i < N; i++) {\n"
                                      "  s += a[i] * s;\n"
                                      "}\n")),
            0u);
}

TEST(ReductionDetect, HighRankTargetIsNotTagged) {
  // Rank-2 targets have no array-section clause story yet: stay serial.
  EXPECT_EQ(countReductionDeps(depsOf("for (i = 0; i < N; i++) {\n"
                                      "  for (j = 0; j < N; j++) {\n"
                                      "    c[0][0] += a[i][j];\n"
                                      "  }\n"
                                      "}\n")),
            0u);
}

TEST(ReductionDetect, MinusAndTimesOpsCarryTheirOperator) {
  DependenceGraph DG = depsOf("for (i = 0; i < N; i++) {\n"
                              "  s -= a[i];\n"
                              "}\n");
  ASSERT_GE(countReductionDeps(DG), 1u);
  for (const Dependence &D : DG.Deps)
    if (D.IsReduction) {
      EXPECT_EQ(D.RedOp, '-');
    }
}

//===----------------------------------------------------------------------===//
// Scheduling: the relaxation creates parallelism but not illegality
//===----------------------------------------------------------------------===//

TEST(ReductionSchedule, DotProductLoopIsParallelWithClause) {
  Pipeline Session = session(kernels::DotProduct);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;
  bool Found = false;
  for (const auto &Row : R.Sched.Rows)
    if (Row.IsParallel && !Row.Reductions.empty()) {
      Found = true;
      ASSERT_EQ(Row.Reductions.size(), 1u);
      EXPECT_EQ(Row.Reductions[0].Op, '+');
      EXPECT_EQ(Row.Reductions[0].Array, "s");
    }
  EXPECT_TRUE(Found) << "no reduction-parallel row in the schedule";
  // The relaxation is pragma-deep only: the schedule itself still honors
  // the reduction dependence, so the independent legality oracle passes.
  DependenceGraph DG = R.DG;
  Schedule S = R.Sched;
  EXPECT_TRUE(analyzeSchedule(R.program(), DG, S));
}

TEST(ReductionSchedule, WithoutRelaxationDotProductSerializes) {
  // Strip the tags and re-run parallelism detection: the loop must fall
  // back to sequential, proving the clause is what buys the parallelism.
  Pipeline Session = session(kernels::DotProduct);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;
  DependenceGraph DG = R.DG;
  for (Dependence &D : DG.Deps)
    D.IsReduction = false;
  Schedule S = R.Sched;
  detectParallelism(R.program(), DG, S);
  for (const auto &Row : S.Rows)
    EXPECT_FALSE(Row.IsParallel && S.Rows.size() == 1);
}

//===----------------------------------------------------------------------===//
// Emission: clauses, scalar hoisting, array sections
//===----------------------------------------------------------------------===//

TEST(ReductionEmit, ScalarClauseAndHoistedLocal) {
  Pipeline Session = session(kernels::DotProduct);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;
  EmitOptions EO;
  EO.Extents = {{"a", {"N"}}, {"b", {"N"}}};
  std::string C = emitC(R.program(), *R.Ast, EO);
  EXPECT_NE(C.find("reduction(+:s)"), std::string::npos) << C;
  // The scalar rides a function-local, not the usual deref macro, so the
  // clause names a real variable.
  EXPECT_NE(C.find("double s = *s_;"), std::string::npos) << C;
  EXPECT_NE(C.find("*s_ = s;"), std::string::npos) << C;
  EXPECT_EQ(C.find("#define s "), std::string::npos) << C;
}

TEST(ReductionEmit, RankOneTargetUsesArraySection) {
  PlutoOptions Opts;
  Opts.Tile = false; // Untiled, the reduction loop itself gets the pragma.
  Pipeline Session = session(kernels::MatVecT, Opts);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;
  EmitOptions EO;
  EO.Extents = {{"y", {"N"}}, {"a", {"N", "N"}}, {"x", {"N"}}};
  std::string C = emitC(R.program(), *R.Ast, EO);
  EXPECT_NE(C.find("#pragma omp parallel for"), std::string::npos) << C;
  EXPECT_NE(C.find("reduction(+:y[0:(N)])"), std::string::npos) << C;
}

TEST(ReductionEmit, SerialOutputUnchangedForPlainKernels) {
  // No reduction in matmul (`c = c + e` form): byte contract intact, no
  // clause ever appears.
  Pipeline Session = session(kernels::MatMul);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;
  EmitOptions EO;
  EO.Extents = {{"a", {"N", "N"}}, {"b", {"N", "N"}}, {"c", {"N", "N"}}};
  std::string C = emitC(R.program(), *R.Ast, EO);
  EXPECT_EQ(C.find("reduction("), std::string::npos);
}

//===----------------------------------------------------------------------===//
// JIT-differential: parallel reduction code agrees with the serial oracle
//===----------------------------------------------------------------------===//

struct DiffCase {
  const char *Name;
  const char *Src;
  std::map<std::string, std::vector<std::string>> SymExtents;
  std::map<std::string, std::vector<long long>> Extents;
  std::map<std::string, long long> Params;
};

void runDifferential(const DiffCase &C) {
  if (!CompiledKernel::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  Pipeline Session = session(C.Src);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;
  EmitOptions EO;
  EO.Extents = C.SymExtents;
  std::string Code = emitC(R.program(), *R.Ast, EO);
  auto K = CompiledKernel::compile(Code);
  ASSERT_TRUE(K) << (K ? "" : K.error()) << "\n" << Code;

  // Serial oracle: the interpreter on the original program order.
  auto Orig = Session.originalAst(R.program());
  ASSERT_TRUE(Orig) << Orig.error();
  Interpreter I;
  I.allocate(R.program(), C.Extents);
  unsigned Seed = 1;
  for (auto &[Name, Tn] : I.Arrays)
    Tn.fillPattern(Seed++);
  std::map<std::string, std::vector<double>> Init;
  for (auto &[Name, Tn] : I.Arrays)
    Init[Name] = Tn.Data;
  I.Params = C.Params;
  ASSERT_TRUE(I.run(R.program(), **Orig));

  // JIT run of the transformed, clause-carrying code on identical inputs.
  std::vector<std::vector<double>> Bufs;
  for (const ArrayInfo &Ai : R.program().Arrays)
    Bufs.push_back(Init[Ai.Name]);
  std::vector<double *> Arrays;
  for (auto &B : Bufs)
    Arrays.push_back(B.data());
  std::vector<long long> Params;
  for (const std::string &P : R.program().ParamNames)
    Params.push_back(C.Params.at(P));
  K->call(Arrays, Params, {});

  unsigned Idx = 0;
  for (const ArrayInfo &Ai : R.program().Arrays) {
    const std::vector<double> &Want = I.Arrays[Ai.Name].Data;
    const std::vector<double> &Got = Bufs[Idx++];
    ASSERT_EQ(Want.size(), Got.size()) << Ai.Name;
    // Reassociation tolerance: parallel reduction order differs.
    for (size_t E = 0; E < Want.size(); ++E)
      ASSERT_NEAR(Want[E], Got[E], 1e-7 * (1.0 + std::fabs(Want[E])))
          << C.Name << ": " << Ai.Name << "[" << E << "]";
  }
}

TEST(ReductionDifferential, DotProduct) {
  runDifferential({"dotprod",
                   kernels::DotProduct,
                   {{"a", {"N"}}, {"b", {"N"}}},
                   {{"s", {}}, {"a", {257}}, {"b", {257}}},
                   {{"N", 257}}});
}

TEST(ReductionDifferential, MatVecT) {
  runDifferential({"matvect",
                   kernels::MatVecT,
                   {{"y", {"N"}}, {"a", {"N", "N"}}, {"x", {"N"}}},
                   {{"y", {33}}, {"a", {33, 33}}, {"x", {33}}},
                   {{"N", 33}}});
}

} // namespace
