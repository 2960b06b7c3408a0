//===- bench/bench_lu.cpp - Experiment E4 (paper Figs. 9 & 10) ------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// LU decomposition: the framework finds a single fully permutable band of
// width 3 (the 2-d statement is naturally sunk into the 3-d band, paper
// Sec. 5.2), giving 3-d tiles and two degrees of pipelined parallelism
// (Fig. 9). icc cannot auto-parallelize this code (paper Sec. 7). Variants:
// original, Pluto L1-tiled sequential, Pluto tiled + wavefront (1 degree),
// Pluto tiled + wavefront (2 degrees), and the inner-parallel-only
// baseline.
//
//===----------------------------------------------------------------------===//

#include "../bench/Harness.h"
#include "driver/Kernels.h"

using namespace pluto;
using namespace pluto::bench;

int main() {
  double Scale = benchScale();
  long long N = static_cast<long long>(1024 * std::cbrt(Scale));
  if (N < 64)
    N = 64;

  Problem P;
  P.Name = "E4: LU decomposition (paper Fig. 10)";
  P.Source = kernels::LU;
  P.ExtentExprs = {{"a", {"N", "N"}}};
  P.Extents = {{"a", {N, N}}};
  P.Params = {{"N", N}};
  // S0: 1 div x sum_k (N-k-1); S1: 2 x sum_k (N-k-1)^2 ~ 2N^3/3.
  double Nd = static_cast<double>(N);
  P.Flops = Nd * Nd / 2.0 + 2.0 * Nd * Nd * Nd / 3.0;

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

  VariantSet Set{P, *Orig, 36, {}};

  PlutoOptions TileSeq;
  // Rough model, like the paper's thumb rule: three TxT tiles should fit
  // L2 (2 MiB here) -> T = 128. The paper used 32 for a 32 KiB L1.
  TileSeq.TileSize = 128;
  TileSeq.Parallelize = false;
  TileSeq.IncludeInputDeps = false;
  Set.add("pluto (3-d tiled, seq)", session(P.Source, TileSeq).lowered(),
          false);

  // Ablation: the paper's L1-sized tiles, far too small for this host.
  PlutoOptions Tile32 = TileSeq;
  Tile32.TileSize = 32;
  Set.add("pluto (tile 32, ablation)", session(P.Source, Tile32).lowered(),
          false);

  PlutoOptions TilePar1 = TileSeq;
  TilePar1.Parallelize = true;
  TilePar1.WavefrontDegrees = 1;
  Set.add("pluto (tiled, 1-d pipeline)", session(P.Source, TilePar1).lowered(),
          true);

  PlutoOptions TilePar2 = TileSeq;
  TilePar2.Parallelize = true;
  TilePar2.WavefrontDegrees = 2;
  Set.add("pluto (tiled, 2-d pipeline)", session(P.Source, TilePar2).lowered(),
          true);

  runAndReport(**Parsed, P, *Orig, Set.Variants);
  return 0;
}
