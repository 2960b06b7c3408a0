//===- service/Pipeline.h - Staged compilation sessions ---------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the toolchain: a Pipeline is a compilation
/// session that owns one validated, fingerprinted PlutoOptions set and
/// exposes the paper's Figure 5 stages
///
///   parse -> dependences -> schedule -> lower (tile/wavefront/vectorize +
///   codegen) -> emit
///
/// as lazy, memoized accessors over one source unit. Asking for a late
/// stage computes (and keeps) every earlier artifact; asking again reuses
/// the memoized artifact (counted as stage_reuses in PassStats), and
/// setSource() invalidates the session. This is the seam autotuning-style
/// clients use to re-lower one parsed+analyzed kernel under many emit
/// configurations without re-running the frontend.
///
/// compileRequest() is the one-shot path batch and CLI traffic take: it
/// consults an attached ResultCache under the content-addressed key
///   sha256(canonical source \x1f options fingerprint \x1f toolchain version)
/// and only runs the stages on a miss. Canonicalization (CRLF -> LF,
/// trailing-whitespace strip, outer blank-line trim) makes cosmetically
/// different copies of one kernel share a cache entry; cached and cold
/// compiles are byte-identical by construction (the cache stores the exact
/// emitted unit).
///
/// A Pipeline is single-threaded (batch and daemon workers create one per
/// request); the attached ResultCache is the shared, thread-safe component. See service/Batch.h
/// for the concurrent driver on top.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SERVICE_PIPELINE_H
#define PLUTOPP_SERVICE_PIPELINE_H

#include "driver/Driver.h"
#include "service/CompileService.h"
#include "service/ResultCache.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace pluto {

class Pipeline {
public:
  /// Validates Opts (PlutoOptions::validate()) and builds a session around
  /// them; the fingerprint is computed once here.
  static Result<Pipeline> create(PlutoOptions Opts = PlutoOptions());

  const PlutoOptions &options() const { return Opts; }
  const std::string &optionsFingerprint() const { return Fp; }

  /// Shares a result cache with this session; compileRequest() consults
  /// it.
  void attachCache(std::shared_ptr<ResultCache> C) { Cache = std::move(C); }
  const std::shared_ptr<ResultCache> &cache() const { return Cache; }

  //===--------------------------------------------------------------------===//
  // Staged session API
  //===--------------------------------------------------------------------===//

  /// Begins a session over Source, dropping all memoized artifacts.
  void setSource(std::string Source);
  const std::string &source() const { return Src; }

  /// Frontend diagnostics of the current session's source, populated by the
  /// parse stage (empty before parsed() runs, or when the input is clean).
  /// When parsing fails the parse-stage error string is these joined with
  /// newlines; this accessor exposes the structured form (line:col spans)
  /// for rendering and machine reports.
  const std::vector<Diagnostic> &diagnostics() const { return SrcDiags; }

  /// Stage accessors: each computes missing predecessors on demand and
  /// memoizes its artifact for the lifetime of the session. The returned
  /// pointers stay valid until the next setSource().
  Result<const ParsedProgram *> parsed();
  Result<const DependenceGraph *> dependences();
  Result<const Schedule *> scheduled();
  Result<const PlutoResult *> lowered();
  /// Emitted C under the service emit policy (emit()).
  Result<const std::string *> emitted();

  /// The service emit policy: function "kernel", every array with square
  /// parametric extents from the first parameter (1024 without
  /// parameters) - the CLI default - and the frontend's symbolic
  /// constants.
  static std::string emit(const PlutoResult &R);

  /// The one budget runner: runs Step - calls into this session's stages,
  /// or lowerSchedule() - under a fresh budget built from Limits (none when
  /// Limits is unlimited). compileRequest() and the tuner's schedule groups
  /// and variants all run through it. Returns Step's value, or an error
  /// tagged with its StatusCode (detail::encodeStatusError): the failed
  /// stage's class (source-error, schedule-abort, internal), or
  /// resource-exhausted - "resource budget exhausted (<reason> limit)"
  /// when the budget tripped, re-checking the wall clock once Step
  /// returns, and "out of memory" when Step threw std::bad_alloc. Each
  /// resource-exhausted outcome counts budget_exhausted.
  Result<std::string>
  runBudgeted(const BudgetLimits &Limits,
              const std::function<Result<std::string>()> &Step);

  /// One-shot compile of Req through the attached cache (cold compile
  /// when no cache is attached), reporting through the service's
  /// StatusCode taxonomy. Resets the session to Req.Source. Req.Opts must
  /// match this session's options fingerprint (callers with heterogeneous
  /// option sets create a session per request - see compileRequests()); a
  /// mismatch is a bad-request response. The cold compile runs under
  /// runBudgeted(Req.Budget). On source-error the response carries every
  /// recovered frontend diagnostic, even when the failure was coalesced
  /// onto another session's in-flight compile.
  CompileResponse compileRequest(const CompileRequest &Req);

  /// The content-addressed key compileRequest() would use for Source
  /// under this session's options.
  std::string cacheKey(const std::string &Source) const;

  /// Whitespace/line-ending canonicalization applied before keying.
  static std::string canonicalizeSource(const std::string &Source);

  //===--------------------------------------------------------------------===//
  // Hooks outside the linear session
  //===--------------------------------------------------------------------===//

  /// Applies the post-schedule stages to an externally built schedule (the
  /// paper Section 7 forced-transformation baselines). Pure with respect
  /// to the session: memoized artifacts are untouched.
  Result<PlutoResult> lowerSchedule(ParsedProgram Parsed, DependenceGraph DG,
                                    Schedule Sched) const;

  /// Builds the untransformed-program AST (identity 2d+1 schedule) under
  /// this session's ParamMin context.
  Result<CgNodePtr> originalAst(const Program &Prog) const;

private:
  explicit Pipeline(PlutoOptions O);

  PlutoOptions Opts;
  std::string Fp;
  std::shared_ptr<ResultCache> Cache;

  std::string Src;
  /// Classification of the most recent stage failure (parse ->
  /// source-error, schedule -> schedule-abort, anything else -> internal);
  /// reset by setSource().
  StatusCode FailStatus = StatusCode::Internal;
  std::vector<Diagnostic> SrcDiags;
  std::optional<ParsedProgram> ParsedArt;
  std::optional<DependenceGraph> DepsArt;
  std::optional<Schedule> SchedArt;
  std::optional<PlutoResult> LoweredArt;
  std::optional<std::string> EmittedArt;
};

} // namespace pluto

#endif // PLUTOPP_SERVICE_PIPELINE_H
