//===- examples/heat_solver.cpp - End-to-end JIT example ------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// A 1-d explicit heat-equation solver (the paper's imperfectly nested
// Jacobi, Figure 3). Demonstrates the full production path a downstream
// user would take:
//   1. optimize the stencil source (time skewing + tiling + wavefront),
//   2. compile the generated OpenMP C with the system compiler,
//   3. run both versions on real data and compare result + runtime.
//
//===----------------------------------------------------------------------===//

#include "runtime/Jit.h"
#include "service/Pipeline.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

using namespace pluto;

int main() {
  const char *Source = R"(
    for (t = 0; t < T; t++) {
      for (i = 2; i < N - 1; i++) {
        b[i] = 0.333 * (a[i - 1] + a[i] + a[i + 1]);
      }
      for (j = 2; j < N - 1; j++) {
        a[j] = b[j];
      }
    }
  )";

  long long N = 400000, T = 100;

  PlutoOptions Opts;
  Opts.TileSize = 256;
  Opts.IncludeInputDeps = false;
  auto P = Pipeline::create(Opts);
  if (!P) {
    std::fprintf(stderr, "pluto error: %s\n", P.error().c_str());
    return 1;
  }
  P->setSource(Source);
  auto L = P->lowered();
  if (!L) {
    std::fprintf(stderr, "pluto error: %s\n", L.error().c_str());
    return 1;
  }
  const PlutoResult &R = **L;
  std::printf("transformation found:\n%s\n",
              R.Sched.toString(R.program()).c_str());

  if (!CompiledKernel::compilerAvailable()) {
    std::printf("no C compiler on this host; stopping after codegen.\n");
    return 0;
  }

  EmitOptions EO;
  EO.Extents = {{"a", {"N"}}, {"b", {"N"}}};
  auto Tiled = CompiledKernel::compile(emitC(R.program(), *R.Ast, EO));
  auto OrigAst = P->originalAst(R.program());
  auto Orig = CompiledKernel::compile(emitC(R.program(), **OrigAst, EO));
  if (!Tiled || !Orig) {
    std::fprintf(stderr, "compile error: %s\n",
                 (!Tiled ? Tiled.error() : Orig.error()).c_str());
    return 1;
  }

  // A hot spot in the middle of a cold rod.
  auto makeRod = [&] {
    std::vector<double> Rod(static_cast<size_t>(N), 0.0);
    for (long long I = N / 2 - 50; I < N / 2 + 50; ++I)
      Rod[static_cast<size_t>(I)] = 100.0;
    return Rod;
  };

  auto runOnce = [&](const CompiledKernel &K, std::vector<double> &A) {
    std::vector<double> B(static_cast<size_t>(N), 0.0);
    // Arrays in Program order: b first (first written), then a.
    std::vector<double *> Arrays = {B.data(), A.data()};
    auto T0 = std::chrono::steady_clock::now();
    K.call(Arrays, {T, N}, {});
    auto T1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(T1 - T0).count();
  };

  std::vector<double> A1 = makeRod(), A2 = makeRod();
  double TOrig = runOnce(*Orig, A1);
  double TTiled = runOnce(*Tiled, A2);

  double MaxDiff = 0;
  for (size_t I = 0; I < A1.size(); ++I)
    MaxDiff = std::max(MaxDiff, std::fabs(A1[I] - A2[I]));

  std::printf("heat solver, N=%lld, T=%lld time steps\n", N, T);
  std::printf("  original:     %.4f s\n", TOrig);
  std::printf("  pluto tiled:  %.4f s  (%.2fx)\n", TTiled, TOrig / TTiled);
  std::printf("  max |diff|:   %.3g  (%s)\n", MaxDiff,
              MaxDiff < 1e-9 ? "results match" : "MISMATCH");
  return MaxDiff < 1e-9 ? 0 : 1;
}
