//===- examples/quickstart.cpp - 60-second tour of the API ----------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Feed an affine C loop nest to a Pipeline session and print what every
// stage produced: dependences, the statement-wise affine transformation,
// and the final tiled OpenMP C. Build & run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "service/Pipeline.h"

#include <cstdio>

using namespace pluto;

int main() {
  const char *Source = R"(
    for (i = 0; i < N; i++) {
      for (j = 0; j < N; j++) {
        for (k = 0; k < N; k++) {
          c[i][j] = c[i][j] + a[i][k] * b[k][j];
        }
      }
    }
  )";

  PlutoOptions Opts;
  Opts.TileSize = 32;
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

  std::printf("=== input ===\n%s\n", Source);

  std::printf("=== dependences (%zu edges, %u legality) ===\n%s\n",
              R.DG.Deps.size(), R.DG.numLegalityDeps(),
              R.DG.toString(R.program()).c_str());

  std::printf("=== statement-wise transformation ===\n%s\n",
              R.Sched.toString(R.program()).c_str());

  EmitOptions EO;
  EO.Extents = {{"a", {"N", "N"}}, {"b", {"N", "N"}}, {"c", {"N", "N"}}};
  std::printf("=== generated tiled OpenMP C ===\n%s\n",
              emitC(R.program(), *R.Ast, EO).c_str());
  return 0;
}
