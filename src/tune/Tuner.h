//===- tune/Tuner.h - Empirical autotuning over the option space -*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The empirical autotuner: explore() enumerates PlutoOptions variants over
/// a declarative SearchSpace (tile sizes, second-level tiling, fusion and
/// wavefront degrees) and dedupes semantically identical sets through the
/// normalized options fingerprint. Variants that agree on fusion and
/// param_min (a schedule group) share one parse, dependence analysis and
/// schedule; each distinct variant is then lowered and emitted once from
/// its group's artifacts, under its own resource budget and with its own
/// status (one aborting variant never kills the search), and its unit goes
/// into the shared result cache under the key a compile of the same
/// options would use. explore() ranks the variants with static features
/// (tune/Features.h) so only a small front is ever run, and JIT-measures
/// that front with the bias-controlled harness of runtime/Jit.h (warmup,
/// median-of-K, pinned thread count) behind a differential-vs-interpreter
/// correctness gate. The paper (Section 6.3) picks tile sizes and unroll
/// factors "based on empirical evidence"; this subsystem is that loop made
/// mechanical.
///
/// The search is observable end to end: every variant's fate lands in a
/// versioned JSON trace (TuneResult::traceJson(), "tune_schema": 1) and in
/// the PassStats counters tune_variants_{enumerated,pruned,measured,errors}.
/// Surfaced as `plutopp --tune[=spec]` and the plutod "tune" op.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_TUNE_TUNER_H
#define PLUTOPP_TUNE_TUNER_H

#include "runtime/Jit.h"
#include "service/CompileService.h"
#include "service/ResultCache.h"
#include "tune/Features.h"

#include <memory>
#include <string>
#include <vector>

namespace pluto {
namespace tune {

/// The declarative variant space explore() enumerates: the cross product of
/// every axis. Each axis folds into PlutoOptions on top of TuneOptions::Base;
/// an empty axis means "keep the base value" (a single point). The magic
/// value 0 turns an axis' feature off entirely: an untiled variant, no
/// second level, no parallelization. Redundant combinations (an L2 size
/// under an untiled variant, a wavefront degree without parallelism)
/// enumerate but collapse onto one fingerprint and are explored once.
struct SearchSpace {
  /// L1 tile sizes; 0 = untiled.
  std::vector<unsigned> TileSizes = {0, 16, 32, 64};
  /// L2 tile-size multipliers; 0 = single-level tiling only.
  std::vector<unsigned> L2TileSizes = {0, 8};
  /// Wavefront degrees; 0 = no parallelization at all.
  std::vector<unsigned> WavefrontDegrees = {0, 1, 2};
  /// IncludeInputDeps toggles (the paper's locality-driven fusion input:
  /// read-after-read dependences pull statements together).
  std::vector<bool> Fusion = {};
  /// Vectorize toggles.
  std::vector<bool> Vectorize = {};
};

/// Everything that controls one explore() run besides the space itself.
struct TuneOptions {
  /// Base option set every axis folds into; also enumerated verbatim as
  /// variant 0 and always force-included in the measured front, so the
  /// winner can never be slower than the default configuration.
  PlutoOptions Base;
  /// The one problem size measured: every array extent and every integer
  /// parameter takes this value (arrays are allocated as dense n^rank
  /// tensors for both the interpreter reference and the JIT run).
  unsigned ProblemSize = 64;
  /// Measurement discipline (warmup, reps, thread pinning, fake clock).
  MeasureOptions Measure;
  /// At most this many variants are JIT-measured (the prune front). The
  /// base variant rides on top when it would otherwise be cut.
  unsigned MaxMeasure = 6;
  /// False skips JIT measurement entirely (static exploration: enumerate,
  /// lower, extract features, rank). The winner is then the best-scored
  /// variant. A measured variant is gated by a differential check against
  /// the interpreter running the ORIGINAL program (identity schedule): a
  /// variant whose JIT output diverges is an error, never a winner.
  bool RunMeasurements = true;
  /// Result cache every lowered variant's unit is inserted into (plutod
  /// hands its own cache in; the CLI its configured one), so a later
  /// compile of the winner's options is a hit. Null = no caching.
  std::shared_ptr<ResultCache> Cache;
  /// Resource budget of each schedule group's front end and of each
  /// variant's lowering (service taxonomy: an exhausted variant is
  /// resource-exhausted, not a search failure). Fully unlimited budgets
  /// are replaced by a default 10 s wall ceiling, so one runaway variant
  /// (two-level tiling can blow up codegen on skewed stencils) degrades
  /// instead of hanging the search; set any explicit limit to override.
  BudgetLimits Budget;
};

/// The fate of one enumerated option set.
struct TuneVariant {
  unsigned Id = 0;
  PlutoOptions Opts;
  /// Normalized canonical encoding (PlutoOptions::fingerprint()).
  std::string Fingerprint;
  /// Id of the earlier variant this one is fingerprint-identical to, or -1
  /// when this is the canonical occurrence. Duplicates are accounted but
  /// never separately compiled, scored or measured.
  int DuplicateOf = -1;
  StatusCode Status = StatusCode::Ok;
  std::string Error;
  /// Content-addressed cache key of the compiled unit (ok variants).
  std::string Key;
  VariantFeatures Features;
  double Score = 0.0;
  bool Pruned = false;   ///< ranked below the measured front
  bool Measured = false; ///< JIT-compiled, gated and timed
  Measurement Time;      ///< valid iff Measured
};

/// What explore() hands back: per-variant fates, the winner, and the trace.
struct TuneResult {
  /// Ok when the search ran (individual variants may still have failed);
  /// a non-ok status means the search itself could not start (source
  /// error, bad base options).
  StatusCode Status = StatusCode::Ok;
  std::string Error;
  std::vector<Diagnostic> Diags;
  std::vector<TuneVariant> Variants; ///< in enumeration order
  /// Index into Variants of the winner, or -1 when nothing compiled. With
  /// measurements on, the fastest gated variant; otherwise the best-scored
  /// compiling one.
  int WinnerId = -1;
  /// The winner's emitted C translation unit (Pipeline::emit()) and its
  /// cache key (Pipeline::cacheKey()).
  std::string WinnerC;
  std::string WinnerKey;
  /// Search accounting (also counted into PassStats).
  uint64_t Enumerated = 0; ///< option sets drawn from the space
  uint64_t Distinct = 0;   ///< distinct fingerprints among them
  uint64_t Pruned = 0;     ///< distinct variants cut by the pruner
  uint64_t Measured = 0;   ///< variants JIT-measured
  uint64_t Errors = 0;     ///< variants lost to per-variant failures
  /// Echo of the run configuration, for the trace header.
  unsigned ProblemSize = 0;
  unsigned MeasureWarmup = 0;
  unsigned MeasureReps = 0;
  unsigned MeasureThreads = 0;

  const TuneVariant *winner() const {
    return WinnerId >= 0 ? &Variants[WinnerId] : nullptr;
  }

  /// Machine-readable search trace: a versioned JSON document
  /// ("tune_schema": 1) with the accounting, every variant's options
  /// fingerprint, status, features, score and fate. Deterministic modulo
  /// timing: every timing member's name ends in "_ms" and sits on its own
  /// line, so filtering lines containing "_ms" yields a byte-reproducible
  /// document for one source + spec (and under an injected fake clock the
  /// whole document is reproducible).
  std::string traceJson() const;

  int exitCode() const { return exitCodeFor(Status); }
};

/// Parses a --tune spec string into (SS, TO): semicolon-separated
/// `key=value` entries where axis keys take comma-separated lists -
/// `tile=0,16,32` (L1 tile sizes, 0 = untiled), `l2=0,8`, `wave=0,1,2`
/// (0 = sequential), `fuse=0,1` (input-dep fusion), `vec=0,1` - and scalar
/// keys tune the run: `n=` (problem size), `reps=`, `warmup=`, `threads=`
/// (0 inherits the environment), `max-measure=`, `measure=0|1` (0 = static
/// exploration: rank by score, never JIT-run). Unknown keys and malformed
/// numbers are errors. The empty spec leaves the defaults.
Result<bool> parseSpec(const std::string &Spec, SearchSpace &SS,
                       TuneOptions &TO);

/// Runs the search over Source. Never throws; per-variant failures land in
/// the variant's Status, search-level failures in TuneResult::Status.
/// Instrumented fault site: "tune.compile" (one hit per distinct variant
/// about to be lowered; an injected failure skips that variant).
TuneResult explore(const std::string &Source, const SearchSpace &SS,
                   const TuneOptions &TO = TuneOptions());

} // namespace tune
} // namespace pluto

#endif // PLUTOPP_TUNE_TUNER_H
