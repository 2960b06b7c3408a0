//===- tests/observe_test.cpp - Diagnostics subsystem tests ---------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Covers src/observe (PassStats + Trace collection, JSON rendering, the
// zero-overhead-off contract) and the driver bugfix regressions that ride
// on the same machinery: identical context for original/transformed ASTs
// and per-band parallel-pragma placement.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/Kernels.h"
#include "observe/PassStats.h"
#include "observe/Trace.h"
#include "Session.h"

#include <gtest/gtest.h>

using namespace pluto;

namespace {

/// Counts loops carrying a parallel pragma in the whole tree.
unsigned countParallelLoops(const CgNode &N) {
  unsigned C = (N.K == CgNode::Kind::Loop && N.Parallel) ? 1 : 0;
  for (const CgNodePtr &Ch : N.Children)
    if (Ch)
      C += countParallelLoops(*Ch);
  return C;
}

/// Maximum number of parallel-pragma loops on any root-to-leaf path.
unsigned maxParallelOnPath(const CgNode &N) {
  unsigned Here = (N.K == CgNode::Kind::Loop && N.Parallel) ? 1 : 0;
  unsigned Deepest = 0;
  for (const CgNodePtr &Ch : N.Children)
    if (Ch)
      Deepest = std::max(Deepest, maxParallelOnPath(*Ch));
  return Here + Deepest;
}

std::string emitWithDefaultExtents(const PlutoResult &R) {
  EmitOptions EO;
  std::string DefaultExtent =
      R.program().ParamNames.empty() ? "1024" : R.program().ParamNames[0];
  for (const ArrayInfo &A : R.program().Arrays)
    EO.Extents[A.Name] = std::vector<std::string>(A.Rank, DefaultExtent);
  EO.SymConsts = R.Parsed.SymConsts;
  return emitC(R.program(), *R.Ast, EO);
}

TEST(PassStatsTest, DisabledCollectsNothing) {
  ASSERT_EQ(activeStats(), nullptr);
  Pipeline Session = session(kernels::MatMul);
  auto R = Session.lowered();
  ASSERT_TRUE(R) << R.error();
  // Nothing was installed, so a fresh sink stays all-zero.
  PassStats S;
  for (unsigned C = 0; C < static_cast<unsigned>(Counter::NumCounters); ++C)
    EXPECT_EQ(S.get(static_cast<Counter>(C)), 0u);
  for (unsigned P = 0; P < static_cast<unsigned>(Pass::NumPasses); ++P)
    EXPECT_EQ(S.seconds(static_cast<Pass>(P)), 0.0);
}

TEST(PassStatsTest, FullPipelinePopulatesEveryLayer) {
  PassStats S;
  Trace T;
  setActiveStats(&S);
  setActiveTrace(&T);
  Pipeline Session = session(kernels::MatMul);
  auto R = Session.lowered();
  setActiveStats(nullptr);
  setActiveTrace(nullptr);
  ASSERT_TRUE(R) << R.error();

  // Timers: every pass ran and took measurable (steady_clock) time.
  for (Pass P : {Pass::Parse, Pass::Deps, Pass::Schedule, Pass::Tile,
                 Pass::Codegen})
    EXPECT_GT(S.seconds(P), 0.0) << passName(P);

  // One counter from each instrumented layer.
  EXPECT_GT(S.get(Counter::LexMinCalls), 0u);
  EXPECT_GT(S.get(Counter::SimplexPivots), 0u);
  EXPECT_GT(S.get(Counter::FmEliminations), 0u);
  EXPECT_GT(S.get(Counter::FmRowsGenerated), 0u);
  EXPECT_GT(S.get(Counter::EmptinessTests), 0u);
  EXPECT_GT(S.get(Counter::DepCandidates), 0u);
  EXPECT_GT(S.get(Counter::HyperplanesFound), 0u);
  EXPECT_GT(S.get(Counter::BandsTiled), 0u);
  EXPECT_GT(S.get(Counter::LoopsParallel), 0u);

  // Matmul: 3 hyperplanes, no cuts; deps are flow (c) + inputs (a, b).
  EXPECT_EQ(S.get(Counter::HyperplanesFound), 3u);
  EXPECT_EQ(S.get(Counter::SccCuts), 0u);
  EXPECT_GT(S.get(Counter::DepFlow), 0u);
  EXPECT_GT(S.get(Counter::DepInput), 0u);

  // The trace recorded hyperplanes and tiling decisions.
  bool SawTransform = false, SawTile = false;
  for (const TraceEvent &E : T.events()) {
    SawTransform |= E.Stage == "transform";
    SawTile |= E.Stage == "tile";
  }
  EXPECT_TRUE(SawTransform);
  EXPECT_TRUE(SawTile);
}

TEST(PassStatsTest, ClearResets) {
  PassStats S;
  setActiveStats(&S);
  count(Counter::LexMinCalls, 7);
  countDepAtLevel(2);
  setActiveStats(nullptr);
  EXPECT_EQ(S.get(Counter::LexMinCalls), 7u);
  S.clear();
  EXPECT_EQ(S.get(Counter::LexMinCalls), 0u);
  EXPECT_EQ(S.toJson().find("\"lexmin_calls\": 7"), std::string::npos);
}

TEST(PassStatsTest, JsonHasDocumentedShape) {
  PassStats S;
  Trace T;
  setActiveStats(&S);
  setActiveTrace(&T);
  Pipeline Session = session(kernels::Jacobi1D);
  auto R = Session.lowered();
  setActiveStats(nullptr);
  setActiveTrace(nullptr);
  ASSERT_TRUE(R) << R.error();

  std::string J = S.toJson(&T);
  // Top-level members.
  EXPECT_NE(J.find("\"passes\""), std::string::npos);
  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\"deps_by_level\""), std::string::npos);
  EXPECT_NE(J.find("\"trace\""), std::string::npos);
  // Every pass key with a seconds member.
  for (unsigned P = 0; P < static_cast<unsigned>(Pass::NumPasses); ++P)
    EXPECT_NE(J.find(std::string("\"") + passName(static_cast<Pass>(P)) +
                     "\": {\"seconds\": "),
              std::string::npos);
  // Every counter key.
  for (unsigned C = 0; C < static_cast<unsigned>(Counter::NumCounters); ++C)
    EXPECT_NE(J.find(std::string("\"") +
                     counterName(static_cast<Counter>(C)) + "\": "),
              std::string::npos);
  // Without a trace the member is absent.
  EXPECT_EQ(S.toJson().find("\"trace\""), std::string::npos);
}

TEST(TraceTest, JsonEscapesMessages) {
  Trace T;
  T.record("test", "a \"quoted\"\nmessage\\");
  std::string J = T.toJson();
  EXPECT_NE(J.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(J.find("\\n"), std::string::npos);
  EXPECT_NE(J.find("\\\\"), std::string::npos);

  // Every byte that starts no well-formed UTF-8 sequence becomes U+FFFD: a
  // lone lead byte, the two bytes of a truncated sequence, the two bytes of
  // an overlong '/'. A valid 'é' passes through unchanged.
  T.record("test", "\xC3|\xE2\x82|\xC0\xAF|\xC3\xA9");
  J = T.toJson();
  const std::string R = "\xEF\xBF\xBD";
  EXPECT_NE(J.find(R + "|" + R + R + "|" + R + R + "|\xC3\xA9"),
            std::string::npos)
      << J;
}

//===----------------------------------------------------------------------===//
// Regression: Pipeline::originalAst must see the same ParamMin context as
// the optimizing stages (it used to build the reference AST unbounded).
//===----------------------------------------------------------------------===//

TEST(DriverContextTest, OriginalAstUsesParamMinContext) {
  // min(N, 3) in an upper bound: under the default context N >= 4 the
  // parametric bound is redundant and codegen drops it; unbounded it must
  // stay. This makes the applied context directly visible in the AST.
  const char *Src = "for (i = 0; i < min(N, 3); i++) { x[i] = x[i] + 1.0; }";
  ParseResult P = parseSourceDiags(Src);
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);

  PlutoOptions Opts;
  auto Session = Pipeline::create(Opts);
  ASSERT_TRUE(Session) << Session.error();
  auto DefaultAst = Session->originalAst(P.Program->Prog);
  ASSERT_TRUE(DefaultAst) << DefaultAst.error();

  // Reference: the same build from a program bounded by hand.
  Program Bounded = P.Program->Prog;
  for (const std::string &Name : Bounded.ParamNames)
    Bounded.addContextBound(Name, Opts.ParamMin);
  auto BoundedAst = Session->originalAst(Bounded);
  ASSERT_TRUE(BoundedAst) << BoundedAst.error();

  // Control: a genuinely unbounded identity build (the old behavior).
  Schedule Ident = identitySchedule(P.Program->Prog);
  Scop Sc = buildScop(P.Program->Prog, Ident);
  auto UnboundedAst = generateAst(Sc, CodeGenOptions());
  ASSERT_TRUE(UnboundedAst) << UnboundedAst.error();
  simplifyAst(*UnboundedAst);

  EmitOptions EO;
  EO.Extents["x"] = {"N"};
  std::string Default = emitC(P.Program->Prog, **DefaultAst, EO);
  std::string Ref = emitC(Bounded, **BoundedAst, EO);
  std::string Unbounded = emitC(P.Program->Prog, **UnboundedAst, EO);

  // The kernel discriminates (the context visibly simplifies the bound)...
  ASSERT_NE(Ref, Unbounded);
  // ...and originalAst is on the bounded side of that divide.
  EXPECT_EQ(Default, Ref);
}

TEST(DriverContextTest, OriginalAstIdempotentOnBoundedPrograms) {
  // suite_test passes the lowered program, which already carries the
  // context; re-applying it must not change the result (duplicates
  // normalize away).
  PlutoOptions Opts;
  Pipeline Session = session(kernels::Jacobi1D, Opts);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;
  auto Once = Session.originalAst(R.program());
  ASSERT_TRUE(Once) << Once.error();

  Program Twice = R.program();
  for (const std::string &Name : Twice.ParamNames)
    Twice.addContextBound(Name, Opts.ParamMin);
  auto Again = Session.originalAst(Twice);
  ASSERT_TRUE(Again) << Again.error();

  EmitOptions EO;
  EO.Extents["a"] = {"N"};
  EO.Extents["b"] = {"N"};
  EO.SymConsts = R.Parsed.SymConsts;
  EXPECT_EQ(emitC(R.program(), **Once, EO), emitC(Twice, **Again, EO));
}

//===----------------------------------------------------------------------===//
// Regression: parallel-pragma placement is per band, not one global pick.
//===----------------------------------------------------------------------===//

TEST(DriverPragmaTest, MultiBandForcedScheduleGetsPragmaPerBand) {
  // Two independent single-loop statements under a forced schedule that
  // puts them in different bands separated by a scalar row:
  //   row 0: S0 -> i, S1 -> 0   (band 0, parallel)
  //   row 1: S0 -> 0, S1 -> 1   (scalar)
  //   row 2: S0 -> 0, S1 -> j   (band 1, parallel)
  // In S1's subtree row 0 is equality-determined (a Let, not a loop), so a
  // single global pick at row 0 would leave S1's j loop without a pragma.
  const char *Src = "for (i = 0; i < N; i++) { x[i] = x[i] + 1.0; }\n"
                    "for (j = 0; j < N; j++) { y[j] = y[j] + 2.0; }\n";
  ParseResult P = parseSourceDiags(Src);
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  DepOptions DO;
  DependenceGraph DG = computeDependences(P.Program->Prog, DO);

  Schedule Sched;
  Sched.StmtRows.resize(2);
  // S0: [coeff_i | c0] per row.
  Sched.StmtRows[0] = IntMatrix(2);
  Sched.StmtRows[0].addRow({BigInt(1), BigInt(0)}); // i
  Sched.StmtRows[0].addRow({BigInt(0), BigInt(0)}); // 0
  Sched.StmtRows[0].addRow({BigInt(0), BigInt(0)}); // 0
  Sched.StmtRows[1] = IntMatrix(2);
  Sched.StmtRows[1].addRow({BigInt(0), BigInt(0)}); // 0
  Sched.StmtRows[1].addRow({BigInt(0), BigInt(1)}); // 1
  Sched.StmtRows[1].addRow({BigInt(1), BigInt(0)}); // j
  RowInfo R0;
  R0.IsScalar = false;
  R0.IsParallel = true;
  R0.BandId = 0;
  RowInfo R1;
  R1.IsScalar = true;
  R1.BandId = -1;
  RowInfo R2;
  R2.IsScalar = false;
  R2.IsParallel = true;
  R2.BandId = 1;
  Sched.Rows = {R0, R1, R2};

  PlutoOptions Opts;
  Opts.Tile = false;
  Opts.Vectorize = false;
  auto Session = Pipeline::create(Opts);
  ASSERT_TRUE(Session) << Session.error();
  auto R = Session->lowerSchedule(std::move(*P.Program), std::move(DG),
                                  std::move(Sched));
  ASSERT_TRUE(R) << R.error();

  // Both statements' loops carry a pragma, on disjoint paths.
  EXPECT_EQ(countParallelLoops(*R->Ast), 2u);
  EXPECT_EQ(maxParallelOnPath(*R->Ast), 1u);
  std::string Code = emitWithDefaultExtents(*R);
  size_t FirstPragma = Code.find("#pragma omp parallel for");
  ASSERT_NE(FirstPragma, std::string::npos);
  EXPECT_NE(Code.find("#pragma omp parallel for", FirstPragma + 1),
            std::string::npos);
}

TEST(DriverPragmaTest, NestedBandPicksCollapseToOutermostPragma) {
  // Tiled matmul has a tile band and a point band, each with parallel
  // rows. Per-band picks plus the nested-pragma suppression must yield
  // exactly one `parallel for` on any path (no nested parallel regions).
  Pipeline Session = session(kernels::MatMul);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;
  EXPECT_GE(countParallelLoops(*R.Ast), 1u);
  EXPECT_EQ(maxParallelOnPath(*R.Ast), 1u);
}

TEST(DriverPragmaTest, ExplicitPragmaRowsAreRespected) {
  // generateAst puts pragmas on exactly the rows it is given: the untiled
  // matmul, lowered without the per-band picks, gets one on row 0 only.
  PlutoOptions Opts;
  Opts.Parallelize = false;
  Opts.Tile = false;
  Opts.Vectorize = false;
  Pipeline Session = session(kernels::MatMul, Opts);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  EXPECT_EQ(countParallelLoops(*(*Lowered)->Ast), 0u);
  CodeGenOptions CG;
  CG.ParallelPragmaRows = {0};
  auto Ast = generateAst((*Lowered)->Sc, CG);
  ASSERT_TRUE(Ast) << Ast.error();
  EXPECT_EQ(countParallelLoops(**Ast), 1u);
}

} // namespace
