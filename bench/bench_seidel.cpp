//===- bench/bench_seidel.cpp - Experiment E6 (paper Fig. 13) -------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// 3-d Gauss-Seidel successive over-relaxation (time loop over an in-place
// 9-point 2-d stencil). The framework skews both space dimensions w.r.t.
// time, making all three dimensions tilable; one or two degrees of
// pipelined parallelism can then be extracted (paper: the 1-d pipeline
// wins in practice due to simpler code). Paper setup: Nx = Ny = 2000,
// T = 1000.
//
//===----------------------------------------------------------------------===//

#include "../bench/Harness.h"
#include "driver/Kernels.h"

using namespace pluto;
using namespace pluto::bench;

int main() {
  double Scale = benchScale();
  long long N = static_cast<long long>(1500 * std::sqrt(Scale));
  long long T = static_cast<long long>(50 * Scale);
  if (N < 48)
    N = 48;
  if (T < 6)
    T = 6;

  Problem P;
  P.Name = "E6: 3-d Gauss-Seidel SOR (paper Fig. 13)";
  P.Source = kernels::Seidel2D;
  P.ExtentExprs = {{"a", {"N", "N"}}};
  P.Extents = {{"a", {N, N}}};
  P.Params = {{"T", T}, {"N", N}};
  P.Flops = 10.0 * static_cast<double>(N - 2) * static_cast<double>(N - 2) *
            static_cast<double>(T);

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
  TileSeq.TileSize = 32;
  TileSeq.Parallelize = false;
  TileSeq.IncludeInputDeps = false;
  Set.add("pluto (3-d tiled, seq)", session(P.Source, TileSeq).lowered(),
          false);

  PlutoOptions Pipe1 = TileSeq;
  Pipe1.Parallelize = true;
  Pipe1.WavefrontDegrees = 1;
  Set.add("pluto (tiled, 1-d pipeline)", session(P.Source, Pipe1).lowered(),
          true);

  PlutoOptions Pipe2 = TileSeq;
  Pipe2.Parallelize = true;
  Pipe2.WavefrontDegrees = 2;
  Set.add("pluto (tiled, 2-d pipeline)", session(P.Source, Pipe2).lowered(),
          true);

  runAndReport(**Parsed, P, *Orig, Set.Variants);
  return 0;
}
