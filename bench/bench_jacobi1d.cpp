//===- bench/bench_jacobi1d.cpp - Experiments E1 & E2 (paper Fig. 6) ------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Imperfectly nested 1-d Jacobi (paper Figure 3). Reproduces:
//  - Fig. 6(a): single-core locality speedup of the Pluto-transformed,
//    L1-tiled code over the native compiler (paper: 4x-7x with icc 10.0).
//  - Fig. 6(b): parallel comparison against the two prior approaches, run
//    as forced transformations through the same tool-chain exactly like
//    the paper did:
//      * "Affine partitioning (max parallelism, no cost function)"
//        (Lim/Lam): maximally independent time partitions, here the legal
//        equivalents 2t+i / 3t+i (with the +1 shift for S2).
//      * "Scheduling-based (time tiling)" (Griebl): Feautrier schedule
//        2t / 2t+1 plus the FCO allocation 2t+i.
//    plus the inner-space-only parallelization that production compilers
//    attempt (paper: "hardly yields any parallel speedup").
//
//===----------------------------------------------------------------------===//

#include "../bench/Harness.h"
#include "driver/Kernels.h"

using namespace pluto;
using namespace pluto::bench;

int main() {
  double Scale = benchScale();
  long long N = static_cast<long long>(2000000 * Scale);
  long long T = static_cast<long long>(200 * Scale);
  if (N < 64)
    N = 64;
  if (T < 8)
    T = 8;

  Problem P;
  P.Name = "E1/E2: imperfectly nested 1-d Jacobi (paper Fig. 6)";
  P.Source = kernels::Jacobi1D;
  P.ExtentExprs = {{"a", {"N"}}, {"b", {"N"}}};
  P.Extents = {{"a", {N}}, {"b", {N}}};
  P.Params = {{"T", T}, {"N", N}};
  // S0: 3 flops per point, S1: copy (0); count 3 per (t,i).
  P.Flops = 3.0 * static_cast<double>(N - 3) * static_cast<double>(T);

  if (!CompiledKernel::compilerAvailable()) {
    std::printf("no C compiler available; skipping JIT benchmark\n");
    return 0;
  }

  // Original (runs through the same emitter: identity schedule).
  Pipeline Base = session(P.Source);
  auto Parsed = Base.parsed();
  if (!Parsed) {
    std::fprintf(stderr, "pipeline error: %s\n", Parsed.error().c_str());
    return 1;
  }
  auto OrigAst = Base.originalAst((*Parsed)->Prog);
  auto Orig = compileVariant(**Parsed, **OrigAst, P);
  if (!Orig) {
    std::fprintf(stderr, "%s\n", Orig.error().c_str());
    return 1;
  }

  VariantSet Set{P, *Orig, 32, {}};

  // Pluto, locality only (Fig. 6(a)).
  PlutoOptions TileSeq;
  TileSeq.TileSize = 256; // Paper used 256 for this kernel (Fig. 3(d)).
  TileSeq.Parallelize = false;
  TileSeq.IncludeInputDeps = false;
  Set.add("pluto (tiled, seq)", session(P.Source, TileSeq).lowered(), false);

  // Pluto, tiled + wavefront parallel (Fig. 6(b)). The forced baselines
  // below reuse this session's parse and dependences.
  PlutoOptions TilePar = TileSeq;
  TilePar.Parallelize = true;
  Pipeline Par = session(P.Source, TilePar);
  Set.add("pluto (tiled, wavefront)", Par.lowered(), true);

  // Baseline: affine partitioning, maximally independent time partitions.
  {
    std::vector<IntMatrix> Rows;
    Rows.push_back(IntMatrix({{2, 1, 0}, {3, 1, 0}})); // S0 over (t, i).
    Rows.push_back(IntMatrix({{2, 1, 1}, {3, 1, 1}})); // S1 over (t, j).
    Set.add("affine partitioning (forced)",
            lowerForced(Par, std::move(Rows), 2), true);
  }

  // Baseline: scheduling + FCO allocation (time tiling enabled).
  {
    std::vector<IntMatrix> Rows;
    Rows.push_back(IntMatrix({{2, 0, 0}, {2, 1, 0}})); // theta=2t, pi=2t+i.
    Rows.push_back(IntMatrix({{2, 0, 1}, {2, 1, 1}})); // theta=2t+1.
    Set.add("scheduling + FCO (forced)",
            lowerForced(Par, std::move(Rows), 2), true);
  }

  // Baseline: inner space parallelism only (production auto-parallelizer):
  // the identity schedule of the unbounded program, with the space-loop
  // row (i / j, row 3) marked parallel.
  {
    ParseResult Unbounded = parseSourceDiags(P.Source);
    if (Unbounded.Program) {
      PlutoResult R;
      R.Parsed = std::move(*Unbounded.Program);
      R.Sched = identitySchedule(R.Parsed.Prog);
      R.Sc = buildScop(R.Parsed.Prog, R.Sched);
      CodeGenOptions CG;
      CG.ParallelPragmaRows = {3};
      auto Ast = generateAst(R.Sc, CG);
      if (Ast) {
        simplifyAst(*Ast);
        R.Ast = std::move(*Ast);
        Set.add("inner space parallel only", &R, true);
      }
    }
  }

  runAndReport(**Parsed, P, *Orig, Set.Variants);
  return 0;
}
