//===- examples/explore_transforms.cpp - Staged API + autotuner tour ------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Uses the Pipeline session's memoized stage accessors to explore the
// paper's design space on the Gauss-Seidel kernel: inspect the
// dependence polyhedra, compare the automatic schedule with forced
// (illegal and legal) alternatives, then hand the tile/wavefront space to
// the tune::explore autotuner in static mode - enumerate, dedupe, compile,
// extract features, rank - without running a single JIT measurement. This
// is the "empirical search" hook the paper's Section 1 advertises, made
// mechanical.
//
//===----------------------------------------------------------------------===//

#include "driver/Kernels.h"
#include "service/Pipeline.h"
#include "transform/PlutoTransform.h"
#include "tune/Tuner.h"

#include <cstdio>
#include <string>

using namespace pluto;

/// Human label for one point of the search space.
static std::string describe(const PlutoOptions &O) {
  std::string S = O.Tile ? "tiled " + std::to_string(O.TileSize) : "untiled";
  if (O.Tile && O.SecondLevelTile)
    S += " l2x" + std::to_string(O.L2TileSize);
  if (O.Parallelize)
    S += " + " + std::to_string(O.WavefrontDegrees) + "-d wavefront";
  return S;
}

int main() {
  // One compilation session over the kernel: the stage accessors memoize,
  // so the dependence graph below and the schedule after it share one
  // parse.
  auto Session = Pipeline::create();
  if (!Session) {
    std::fprintf(stderr, "options error: %s\n", Session.error().c_str());
    return 1;
  }
  Session->setSource(kernels::Seidel2D);

  // Stage 1: dependence analysis.
  auto Parsed = Session->parsed();
  if (!Parsed) {
    std::fprintf(stderr, "parse error: %s\n", Parsed.error().c_str());
    return 1;
  }
  const Program &Prog = (*Parsed)->Prog;
  auto DG = Session->dependences();
  if (!DG) {
    std::fprintf(stderr, "dependence error: %s\n", DG.error().c_str());
    return 1;
  }
  std::printf("Gauss-Seidel has %zu dependence edges; the in-place stencil "
              "carries dependences at every loop level.\n\n",
              (*DG)->Deps.size());

  // Stage 2: is plain loop interchange legal? Ask the analyzer.
  {
    Schedule Interchange;
    Interchange.StmtRows.push_back(
        IntMatrix({{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}}));
    Interchange.Rows.resize(3);
    DependenceGraph Copy = **DG;
    std::printf("interchange (t, j, i) legal? %s\n",
                analyzeSchedule(Prog, Copy, Interchange) ? "yes" : "no");
  }
  {
    Schedule Reversal;
    Reversal.StmtRows.push_back(
        IntMatrix({{1, 0, 0, 0}, {0, -1, 0, 0}, {0, 0, 1, 0}}));
    Reversal.Rows.resize(3);
    DependenceGraph Copy = **DG;
    std::printf("reversal (t, -i, j) legal?   %s\n\n",
                analyzeSchedule(Prog, Copy, Reversal) ? "yes" : "no");
  }

  // Stage 3: the automatic transformation.
  auto Sched = Session->scheduled();
  if (!Sched) {
    std::fprintf(stderr, "transform error: %s\n", Sched.error().c_str());
    return 1;
  }
  std::printf("automatic transformation (skewed, fully tilable band):\n%s\n",
              (*Sched)->toString(Prog).c_str());

  // Stage 4: the tile-size/strategy search an autotuner explores, run
  // through tune::explore in static mode: every distinct option set is
  // lowered and compiled, its features extracted (loop count comes from
  // the codegen AST, not from scanning the emitted text) and scored; no
  // kernel is ever executed. Aliased points - a wavefront degree under an
  // unparallelized variant - collapse onto one fingerprint.
  tune::SearchSpace Space;
  Space.TileSizes = {0, 16, 32};
  Space.L2TileSizes = {0, 8};
  Space.WavefrontDegrees = {0, 1, 2};
  tune::TuneOptions TO;
  TO.Base.IncludeInputDeps = false;
  TO.RunMeasurements = false;
  // Per-variant resource ceiling: two-level tiling blows up codegen on
  // this skewed stencil, and a bounded search degrades those points to
  // resource-exhausted instead of hanging on them.
  TO.Budget.WallMs = 3000;

  tune::TuneResult TR = tune::explore(kernels::Seidel2D, Space, TO);
  if (TR.Status != StatusCode::Ok) {
    std::fprintf(stderr, "tune error: %s\n", TR.Error.c_str());
    return 1;
  }
  std::printf("search space: %llu enumerated, %llu distinct after "
              "fingerprint dedup\n",
              static_cast<unsigned long long>(TR.Enumerated),
              static_cast<unsigned long long>(TR.Distinct));
  for (const tune::TuneVariant &V : TR.Variants) {
    if (V.DuplicateOf >= 0)
      continue;
    if (V.Status != StatusCode::Ok) {
      // One variant's failure never aborts the search; it is reported
      // and skipped.
      std::printf("v%-2u %-28s -> skipped (%s)\n", V.Id,
                  describe(V.Opts).c_str(), statusCodeName(V.Status));
      continue;
    }
    std::printf("v%-2u %-28s -> %2llu loops, %6llu bytes, score %.2f\n",
                V.Id, describe(V.Opts).c_str(),
                static_cast<unsigned long long>(V.Features.Loops),
                static_cast<unsigned long long>(V.Features.CodeBytes),
                V.Score);
  }
  if (const tune::TuneVariant *W = TR.winner())
    std::printf("\nbest by static score: v%u (%s)\n", W->Id,
                describe(W->Opts).c_str());
  return 0;
}
