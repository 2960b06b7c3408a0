//===- bench/bench_mvt.cpp - Experiments E5 & E8 (paper Fig. 12) ----------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// MVT (paper Figure 11): x1 += A y1; x2 += A^T y2, N = 8000. The input
// (RAR) dependence on A drives fusion of the first MV with the permuted
// second one (reuse distance on A becomes 0 for both hyperplanes), trading
// synchronization-free parallelism for one degree of pipelined parallelism.
// Variants:
//   - unfused + synchronization-free parallel (what approaches without
//     input dependences do: each MV parallelized separately; A not reused),
//   - fused ij with ij (forced; paper: "does not exploit reuse on A"),
//   - pluto (fused ij with ji, tiled, pipelined),
//   - pluto + vectorization post-pass (paper's "+syntactic transforms"
//     preview, E8).
//
//===----------------------------------------------------------------------===//

#include "../bench/Harness.h"
#include "driver/Kernels.h"

using namespace pluto;
using namespace pluto::bench;

int main() {
  double Scale = benchScale();
  long long N = static_cast<long long>(8000 * std::sqrt(Scale));
  if (N < 128)
    N = 128;

  Problem P;
  P.Name = "E5/E8: MVT, x1 += A y1; x2 += A^T y2 (paper Fig. 12)";
  P.Source = kernels::MVT;
  P.ExtentExprs = {{"a", {"N", "N"}}, {"x1", {"N"}}, {"x2", {"N"}},
                   {"y1", {"N"}}, {"y2", {"N"}}};
  P.Extents = {{"a", {N, N}}, {"x1", {N}}, {"x2", {N}}, {"y1", {N}},
               {"y2", {N}}};
  P.Params = {{"N", N}};
  P.Flops = 4.0 * static_cast<double>(N) * static_cast<double>(N);

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

  // Baseline: unfused, each MV sync-free parallel on its outer loop (what
  // techniques without input dependences produce; barrier between MVs).
  {
    PlutoOptions NoRar;
    NoRar.IncludeInputDeps = false;
    NoRar.TileSize = 64;
    Set.add("unfused, sync-free parallel", session(P.Source, NoRar).lowered(),
            true);
  }

  // Baseline: fusion of ij with ij (reuse on A not exploited; forced).
  {
    std::vector<IntMatrix> Rows;
    Rows.push_back(IntMatrix({{1, 0, 0}, {0, 1, 0}}));
    Rows.push_back(IntMatrix({{1, 0, 0}, {0, 1, 0}}));
    PlutoOptions Forced;
    Forced.TileSize = 64;
    Forced.IncludeInputDeps = true;
    Pipeline S = session(P.Source, Forced);
    Set.add("fused ij with ij (forced)", lowerForced(S, std::move(Rows), 2),
            true);
  }

  // Pluto: fused ij with ji, untiled (MVT has no blockable reuse - every
  // element of A is read exactly once after fusion; this is the fastest
  // lowering of the pluto schedule).
  {
    PlutoOptions O;
    O.Tile = false;
    O.Vectorize = false;
    Set.add("pluto (fused ij/ji)", session(P.Source, O).lowered(), true);
  }

  // Pluto: fused ij with ji, tiled, pipelined (no vectorization pass).
  {
    PlutoOptions O;
    O.TileSize = 64;
    O.Vectorize = false;
    Set.add("pluto (fused ij/ji, tiled)", session(P.Source, O).lowered(), true);
  }

  // Pluto + intra-tile reordering / vectorization (E8 preview).
  {
    PlutoOptions O;
    O.TileSize = 64;
    O.Vectorize = true;
    Set.add("pluto + vectorization pass", session(P.Source, O).lowered(), true);
  }

  runAndReport(**Parsed, P, *Orig, Set.Variants);
  return 0;
}
