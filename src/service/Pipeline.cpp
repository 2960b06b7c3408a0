//===- service/Pipeline.cpp - Staged compilation sessions -----------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Owns the stage implementations of the paper's Figure 5 flow.
//
//===----------------------------------------------------------------------===//

#include "service/Pipeline.h"

#include "observe/PassStats.h"
#include "observe/Trace.h"
#include "service/Hash.h"
#include "service/Version.h"
#include "support/Budget.h"

#include <new>
#include <optional>

using namespace pluto;

//===----------------------------------------------------------------------===//
// Budget enforcement
//===----------------------------------------------------------------------===//

// Budgeted hot loops bail out fast when the active budget trips, leaving
// their artifact garbage; the stage accessors call this at every stage
// boundary to detect the sticky flag (re-checking the wall clock, so even
// a stage that charges little work cannot overrun a deadline by more than
// one stage) and turn the garbage into a classified error before the next
// stage consumes it.
static bool budgetTripped() {
  Budget *B = activeBudget();
  if (!B)
    return false;
  B->checkWall();
  return B->exhausted();
}

static std::string budgetMessage() {
  Budget *B = activeBudget();
  const char *Why = B && B->reason() ? B->reason() : "resource";
  return std::string("resource budget exhausted (") + Why + " limit)";
}

//===----------------------------------------------------------------------===//
// Lowering helpers (pragma placement, loop report)
//===----------------------------------------------------------------------===//

/// Chooses the pragma row inside one run of schedule rows [Start, End):
/// the outermost parallel loop row, preferring one that is not the
/// vectorized row when possible. Returns -1 when the run has none.
static int pickPragmaRow(const Scop &Sc, unsigned Start, unsigned End) {
  int First = -1, FirstNonVector = -1;
  for (unsigned Row = Start; Row < End; ++Row) {
    if (Sc.Rows[Row].IsScalar || !Sc.Rows[Row].IsParallel)
      continue;
    if (First < 0)
      First = static_cast<int>(Row);
    if (FirstNonVector < 0 && !Sc.Rows[Row].IsVector)
      FirstNonVector = static_cast<int>(Row);
  }
  return FirstNonVector >= 0 ? FirstNonVector : First;
}

/// Parallel pragma placement: one pragma row per permutable band (plus any
/// band-less row runs a forced schedule may carry), not one globally. With
/// multiple bands - every post-SCC-cut or tiled schedule - a single global
/// pick would leave later bands' parallel loops without a pragma in the
/// subtrees where the picked row is equality-determined (a Let, not a
/// loop). Nested picks are legal: codegen keeps only the outermost pragma
/// on each root-to-leaf path (dropNestedParallelPragmas).
static void pickParallelPragmaRows(const Scop &Sc, CodeGenOptions &CG) {
  std::vector<bool> Covered(Sc.numRows(), false);
  for (const Schedule::Band &B : Sc.bands()) {
    for (unsigned Row = B.Start; Row < B.Start + B.Width; ++Row)
      Covered[Row] = true;
    int Pick = pickPragmaRow(Sc, B.Start, B.Start + B.Width);
    if (Pick >= 0)
      CG.ParallelPragmaRows.insert(static_cast<unsigned>(Pick));
  }
  // Rows outside every band (forced schedules with no band metadata):
  // treat each maximal run of uncovered non-scalar rows as a band.
  for (unsigned Row = 0; Row < Sc.numRows(); ++Row) {
    if (Covered[Row] || Sc.Rows[Row].IsScalar)
      continue;
    unsigned End = Row;
    while (End < Sc.numRows() && !Covered[End] && !Sc.Rows[End].IsScalar)
      ++End;
    int Pick = pickPragmaRow(Sc, Row, End);
    if (Pick >= 0)
      CG.ParallelPragmaRows.insert(static_cast<unsigned>(Pick));
    Row = End;
  }
}

/// Counts and traces the final loop class of every row (classifyLoops()).
static void reportLoops(const Scop &Sc) {
  Trace *T = activeTrace();
  if (!activeStats() && !T)
    return;
  std::vector<LoopClass> Classes = classifyLoops(Sc);
  for (unsigned Row = 0; Row < Sc.numRows(); ++Row) {
    if (Classes[Row] == LoopClass::Scalar)
      continue;
    const char *Class;
    if (Classes[Row] == LoopClass::Parallel) {
      count(Counter::LoopsParallel);
      if (!Sc.Rows[Row].Reductions.empty()) {
        count(Counter::ReductionParallelLoops);
        Class = "parallel (reduction)";
      } else {
        Class = "parallel";
      }
    } else if (Classes[Row] == LoopClass::Pipeline) {
      count(Counter::LoopsPipeline);
      Class = "pipeline";
    } else {
      count(Counter::LoopsSequential);
      Class = "sequential";
    }
    if (T)
      T->record("driver", "row " + std::to_string(Row) + ": " + Class +
                              (Sc.Rows[Row].IsVector ? " (vectorized)" : ""));
  }
}

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

Pipeline::Pipeline(PlutoOptions O)
    : Opts(std::move(O)), Fp(Opts.fingerprint()) {}

Result<Pipeline> Pipeline::create(PlutoOptions Opts) {
  if (auto V = Opts.validate(); !V)
    return Err(V.error());
  return Pipeline(std::move(Opts));
}

void Pipeline::setSource(std::string Source) {
  Src = std::move(Source);
  FailStatus = StatusCode::Internal;
  SrcDiags.clear();
  ParsedArt.reset();
  DepsArt.reset();
  SchedArt.reset();
  LoweredArt.reset();
  EmittedArt.reset();
}

Result<const ParsedProgram *> Pipeline::parsed() {
  if (ParsedArt) {
    count(Counter::StageReuses);
    return static_cast<const ParsedProgram *>(&*ParsedArt);
  }
  ScopedPassTimer Timer(Pass::Parse);
  ParseResult P = parseSourceDiags(Src);
  SrcDiags = P.Diags;
  count(Counter::ParserErrors, errorCount(SrcDiags));
  if (budgetTripped()) {
    // The parser stopped early; neither the partial program nor its
    // diagnostics describe the whole input, so classify as exhaustion,
    // not source-error.
    FailStatus = StatusCode::ResourceExhausted;
    return Err(budgetMessage());
  }
  if (!P.Program) {
    FailStatus = StatusCode::SourceError;
    return Err(joinDiagnostics(SrcDiags));
  }
  for (const std::string &Pm : P.Program->Prog.ParamNames)
    P.Program->Prog.addContextBound(Pm, Opts.ParamMin);
  ParsedArt = std::move(*P.Program);
  return static_cast<const ParsedProgram *>(&*ParsedArt);
}

Result<const DependenceGraph *> Pipeline::dependences() {
  if (DepsArt) {
    count(Counter::StageReuses);
    return static_cast<const DependenceGraph *>(&*DepsArt);
  }
  auto P = parsed();
  if (!P)
    return Err(P.error());
  DepOptions DO;
  DO.IncludeInputDeps = Opts.IncludeInputDeps;
  ScopedPassTimer Timer(Pass::Deps);
  DepsArt = computeDependences((*P)->Prog, DO);
  if (budgetTripped()) {
    DepsArt.reset();
    FailStatus = StatusCode::ResourceExhausted;
    return Err(budgetMessage());
  }
  return static_cast<const DependenceGraph *>(&*DepsArt);
}

Result<const Schedule *> Pipeline::scheduled() {
  if (SchedArt) {
    count(Counter::StageReuses);
    return static_cast<const Schedule *>(&*SchedArt);
  }
  auto D = dependences();
  if (!D)
    return Err(D.error());
  ScopedPassTimer Timer(Pass::Schedule);
  // computeSchedule records per-edge satisfaction levels into the graph;
  // the memoized DepsArt carries them afterwards, as does the DG member of
  // the lowered PlutoResult.
  auto S = computeSchedule(ParsedArt->Prog, *DepsArt);
  if (budgetTripped()) {
    // Exhaustion wins over whatever the truncated search produced (a
    // garbage schedule or a spurious abort).
    FailStatus = StatusCode::ResourceExhausted;
    return Err(budgetMessage());
  }
  if (!S) {
    // Any scheduling-search failure on a parseable program (budget abort,
    // no legal affine schedule) is the schedule-abort class.
    FailStatus = StatusCode::ScheduleAbort;
    return Err(S.error());
  }
  SchedArt = std::move(*S);
  return static_cast<const Schedule *>(&*SchedArt);
}

Result<const PlutoResult *> Pipeline::lowered() {
  if (LoweredArt) {
    count(Counter::StageReuses);
    return static_cast<const PlutoResult *>(&*LoweredArt);
  }
  auto S = scheduled();
  if (!S)
    return Err(S.error());
  // Lowering consumes its inputs; feed it copies so the parse/deps/schedule
  // artifacts stay memoized for re-lowering.
  auto L = lowerSchedule(*ParsedArt, *DepsArt, *SchedArt);
  if (budgetTripped()) {
    FailStatus = StatusCode::ResourceExhausted;
    return Err(budgetMessage());
  }
  if (!L)
    return Err(L.error());
  LoweredArt = std::move(*L);
  // The moves left the Scop pointing at lowerSchedule()'s local program;
  // point it at the memoized one, so generateAst() can scan it again.
  LoweredArt->Sc.Prog = &LoweredArt->program();
  return static_cast<const PlutoResult *>(&*LoweredArt);
}

Result<const std::string *> Pipeline::emitted() {
  if (EmittedArt) {
    count(Counter::StageReuses);
    return static_cast<const std::string *>(&*EmittedArt);
  }
  auto L = lowered();
  if (!L)
    return Err(L.error());
  EmittedArt = emit(**L);
  return static_cast<const std::string *>(&*EmittedArt);
}

std::string Pipeline::emit(const PlutoResult &R) {
  EmitOptions EO;
  std::string DefaultExtent =
      R.program().ParamNames.empty() ? "1024" : R.program().ParamNames[0];
  for (const ArrayInfo &A : R.program().Arrays)
    EO.Extents[A.Name] = std::vector<std::string>(A.Rank, DefaultExtent);
  EO.SymConsts = R.Parsed.SymConsts;
  return emitC(R.program(), *R.Ast, EO);
}

Result<std::string>
Pipeline::runBudgeted(const BudgetLimits &Limits,
                      const std::function<Result<std::string>()> &Step) {
  std::optional<Budget> B;
  std::optional<ScopedBudget> Install;
  if (!Limits.unlimited()) {
    B.emplace(Limits);
    Install.emplace(&*B);
  }
  // A real allocation failure anywhere in Step is the memory budget's hard
  // form; both classify as resource-exhausted.
  std::optional<Result<std::string>> R;
  try {
    R = Step();
    if (budgetTripped()) {
      // Exhaustion wins over whatever Step made of a truncated pass
      // (lowerSchedule() has no stage boundary of its own to notice it).
      FailStatus = StatusCode::ResourceExhausted;
      R = Err(budgetMessage());
    }
  } catch (const std::bad_alloc &) {
    FailStatus = StatusCode::ResourceExhausted;
    R = Err("out of memory");
  }
  if (*R)
    return std::move(*R);
  if (FailStatus == StatusCode::ResourceExhausted)
    count(Counter::BudgetExhausted);
  return Err(detail::encodeStatusError(FailStatus, R->error()));
}

std::string Pipeline::canonicalizeSource(const std::string &Source) {
  std::string Out;
  Out.reserve(Source.size());
  std::string Line;
  auto flushLine = [&] {
    while (!Line.empty() && (Line.back() == ' ' || Line.back() == '\t'))
      Line.pop_back();
    Out += Line;
    Out += '\n';
    Line.clear();
  };
  for (char C : Source) {
    if (C == '\r')
      continue;
    if (C == '\n')
      flushLine();
    else
      Line += C;
  }
  if (!Line.empty())
    flushLine();
  // Trim leading/trailing blank lines.
  size_t Begin = 0;
  while (Begin < Out.size() && Out[Begin] == '\n')
    ++Begin;
  size_t End = Out.size();
  while (End > Begin + 1 && Out[End - 1] == '\n' && Out[End - 2] == '\n')
    --End;
  return Out.substr(Begin, End - Begin);
}

std::string Pipeline::cacheKey(const std::string &Source) const {
  Sha256 H;
  H.update(canonicalizeSource(Source));
  H.update("\x1f", 1);
  H.update(Fp);
  H.update("\x1f", 1);
  H.update(ToolchainVersion, sizeof(ToolchainVersion) - 1);
  return H.hexDigest();
}

CompileResponse Pipeline::compileRequest(const CompileRequest &Req) {
  CompileResponse Resp;
  Resp.Name = Req.Name;
  // Fingerprint comparison, not field-wise equality: the fingerprint
  // deliberately looks through fields the pipeline ignores
  // (PlutoOptions::normalized()) - e.g. WavefrontDegrees when Parallelize
  // is off. Such requests are legitimately served by this session.
  if (Req.Opts != Opts && Req.Opts.fingerprint() != Fp) {
    Resp.Status = StatusCode::BadRequest;
    Resp.Error = "request options do not match this session's options "
                 "(create a session with the request's options, or use "
                 "compileRequests())";
    return Resp;
  }
  Resp.Key = cacheKey(Req.Source);
  setSource(Req.Source);

  // The compute path tags its StatusCode onto the error string so the
  // classification survives the single-flight handoff: a coalesced waiter
  // receives the leader's tagged error, not its own session state. The
  // request's budget covers the cold compile only (cache hits are never
  // charged).
  bool RanCold = false;
  auto Cold = [&]() -> Result<std::string> {
    RanCold = true;
    return runBudgeted(Req.Budget, [&]() -> Result<std::string> {
      auto E = emitted();
      if (!E)
        return Err(E.error());
      return **E;
    });
  };
  Result<std::string> R =
      Cache ? Cache->getOrCompute(Resp.Key, Cold) : Cold();
  if (!R) {
    auto [St, Msg] = detail::decodeStatusError(R.error());
    Resp.Status = St;
    Resp.Error = Msg;
    if (St == StatusCode::SourceError) {
      // Populate the structured diagnostics: from this session when it ran
      // the parse itself, by re-parsing (cheap, frontend-only) when the
      // failure was coalesced from another session.
      if (!SrcDiags.empty())
        Resp.Diags = SrcDiags;
      else
        Resp.Diags = parseSourceDiags(Req.Source).Diags;
    }
    return Resp;
  }
  Resp.Status = StatusCode::Ok;
  Resp.EmittedC = std::move(*R);
  Resp.CacheHit = !RanCold;
  return Resp;
}

Result<PlutoResult> Pipeline::lowerSchedule(ParsedProgram Parsed,
                                            DependenceGraph DG,
                                            Schedule Sched) const {
  PlutoResult R;
  R.Parsed = std::move(Parsed);
  R.DG = std::move(DG);
  R.Sched = std::move(Sched);

  {
    ScopedPassTimer Timer(Pass::Tile);
    R.Sc = buildScop(R.Parsed.Prog, R.Sched);

    if (Opts.Tile) {
      std::vector<Schedule::Band> TileBands =
          tileAllBands(R.Sc, Opts.TileSize, /*MinWidth=*/2);
      if (Opts.SecondLevelTile) {
        // Tile the tile-space bands again, innermost (largest start) first so
        // recorded starts stay valid while rows are inserted.
        for (auto It = TileBands.rbegin(); It != TileBands.rend(); ++It) {
          std::vector<unsigned> Sizes(It->Width, Opts.L2TileSize);
          tileBand(R.Sc, *It, Sizes);
        }
      }
    }

    if (Opts.Parallelize && Opts.Tile) {
      // Wavefront the outermost TILE band when it lacks a parallel loop
      // (Algorithm 2). The wavefront is a tile-space transformation: applied
      // to untiled point loops it would serialize along a diagonal with poor
      // locality, so without tiling we rely on existing parallel rows only.
      std::vector<Schedule::Band> Bands = R.Sc.bands();
      if (!Bands.empty())
        wavefrontBand(R.Sc, Bands.front(), Opts.WavefrontDegrees);
    }

    if (Opts.Vectorize)
      reorderForVectorization(R.Sc);
  }

  CodeGenOptions CG;
  if (Opts.Parallelize) {
    pickParallelPragmaRows(R.Sc, CG);
    if (Trace *T = activeTrace())
      for (unsigned Row : CG.ParallelPragmaRows)
        T->record("driver",
                  "omp parallel for pragma on row " + std::to_string(Row));
  }
  reportLoops(R.Sc);

  ScopedPassTimer Timer(Pass::Codegen);
  auto Ast = generateAst(R.Sc, CG);
  if (!Ast)
    return Err(Ast.error());
  R.Ast = std::move(*Ast);
  simplifyAst(R.Ast);
  return R;
}

Result<CgNodePtr> Pipeline::originalAst(const Program &Prog) const {
  // Apply the same context assumption the optimizing path uses, so the
  // reference AST is specialized for an identical parameter space. The
  // caller's program may already carry the bounds (the parse stage adds
  // them in place); normalize() collapses the duplicates.
  Program Bounded = Prog;
  for (const std::string &P : Bounded.ParamNames)
    Bounded.addContextBound(P, Opts.ParamMin);
  Bounded.Context.normalize();
  Schedule Ident = identitySchedule(Bounded);
  Scop Sc = buildScop(Bounded, Ident);
  CodeGenOptions CG;
  auto Ast = generateAst(Sc, CG);
  if (!Ast)
    return Ast;
  simplifyAst(*Ast);
  return Ast;
}
