//===- bench/bench_schedule.cpp - Experiment E9 (scheduler scaling) -------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// The paper's scheduler was demonstrated on kernels of a handful of
// statements; this binary measures how computeSchedule scales to synthetic
// programs of 10/25/50/100 statements (support/StressGen.h) with the
// scaling fast paths (clustered decomposition, warm-started lexmin) on
// versus off. Parsing and dependence analysis run
// once per size outside the timed region; each iteration copies the
// dependence graph (satisfaction bookkeeping is mutated by the scheduler).
//
// Each repetition times one computeSchedule call (a single iteration), so
// the median over --benchmark_repetitions=15 is the per-schedule figure
// EXPERIMENTS.md section E9 reports.
//
//===----------------------------------------------------------------------===//

#include "deps/Dependences.h"
#include "driver/Driver.h"
#include "support/StressGen.h"
#include "transform/PlutoTransform.h"

#include <benchmark/benchmark.h>
#include <cassert>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace pluto;

namespace {

const unsigned Sizes[] = {10, 25, 50, 100};

/// Parsed + analyzed stress program, shared by both arms of one size.
struct Prepared {
  Program Prog;
  DependenceGraph Deps;
};

const Prepared &prepared(unsigned NumStatements) {
  static std::vector<std::unique_ptr<Prepared>> Cache;
  for (const auto &P : Cache)
    if (P->Prog.Stmts.size() == NumStatements)
      return *P;
  auto P = std::make_unique<Prepared>();
  ParseResult Parsed = parseSourceDiags(generateStressProgram(NumStatements));
  assert(Parsed.ok() && "stress program must parse");
  P->Prog = Parsed.Program->Prog;
  for (const std::string &Pm : P->Prog.ParamNames)
    P->Prog.addContextBound(Pm, 4);
  P->Deps = computeDependences(P->Prog);
  Cache.push_back(std::move(P));
  return *Cache.back();
}

void BM_Schedule(benchmark::State &State, unsigned NumStatements,
                 bool Fast) {
  const Prepared &P = prepared(NumStatements);
  TransformOptions Opts;
  Opts.FastPaths = Fast;
  for (auto _ : State) {
    DependenceGraph Copy = P.Deps;
    auto S = computeSchedule(P.Prog, Copy, Opts);
    if (!S) {
      State.SkipWithError("computeSchedule failed");
      return;
    }
    benchmark::DoNotOptimize(S->Rows.size());
  }
}

} // namespace

int main(int argc, char **argv) {
  for (unsigned N : Sizes) {
    benchmark::RegisterBenchmark(
        ("schedule_fast/stress" + std::to_string(N)).c_str(),
        [N](benchmark::State &S) { BM_Schedule(S, N, true); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(
        ("schedule_exact/stress" + std::to_string(N)).c_str(),
        [N](benchmark::State &S) { BM_Schedule(S, N, false); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
