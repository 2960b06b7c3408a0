//===- bench/bench_fdtd2d.cpp - Experiment E3 (paper Fig. 8) --------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// 2-d FDTD (paper Figure 7): four imperfectly nested statements; the
// framework finds one fully permutable band of three hyperplanes
// (shift + fusion + time skewing). Paper setup: nx = ny = 2000, tmax = 500.
// Variants: original, Pluto tiled sequential (Fig. 8(a)), Pluto tiled +
// wavefront parallel (Fig. 8(b)), and the inner-space-only parallelization
// (paper: "hardly yields any parallel speedup").
//
//===----------------------------------------------------------------------===//

#include "../bench/Harness.h"
#include "driver/Kernels.h"

using namespace pluto;
using namespace pluto::bench;

int main() {
  double Scale = benchScale();
  long long NX = static_cast<long long>(1000 * std::sqrt(Scale));
  long long TMAX = static_cast<long long>(100 * Scale);
  if (NX < 32)
    NX = 32;
  if (TMAX < 8)
    TMAX = 8;
  long long NY = NX;

  Problem P;
  P.Name = "E3: 2-d FDTD (paper Fig. 8)";
  P.Source = kernels::Fdtd2D;
  P.ExtentExprs = {{"ex", {"nx", "ny + 1"}},
                   {"ey", {"nx + 1", "ny"}},
                   {"hz", {"nx", "ny"}},
                   {"fict", {"tmax"}}};
  P.Extents = {{"ex", {NX, NY + 1}},
               {"ey", {NX + 1, NY}},
               {"hz", {NX, NY}},
               {"fict", {TMAX}}};
  P.Params = {{"tmax", TMAX}, {"nx", NX}, {"ny", NY}};
  P.Consts = {{"coeff1", 0.5}, {"coeff2", 0.7}};
  // Per time step: S1 ~3*(nx-1)*ny, S2 ~3*nx*(ny-1), S3 ~5*(nx-1)*(ny-1).
  P.Flops = static_cast<double>(TMAX) *
            (3.0 * (NX - 1) * NY + 3.0 * NX * (NY - 1) +
             5.0 * (NX - 1) * (NY - 1));

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

  PlutoOptions TileSeq;
  TileSeq.TileSize = 32; // Best of a 16..128 sweep on this host.
  TileSeq.Parallelize = false;
  TileSeq.IncludeInputDeps = false;
  Set.add("pluto (tiled, seq)", session(P.Source, TileSeq).lowered(), false);

  PlutoOptions TilePar = TileSeq;
  TilePar.Parallelize = true;
  Set.add("pluto (tiled, wavefront)", session(P.Source, TilePar).lowered(),
          true);

  runAndReport(**Parsed, P, *Orig, Set.Variants);
  return 0;
}
