//===- bench/bench_toolchain.cpp - Experiment E7 (tool running time) ------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// The paper claims (Sec. 7): "Our transformation framework itself runs
// quite fast - within a fraction of a second for all benchmarks considered
// here. Along with code generation time, the entire source-to-source
// transformation does not take more than a few seconds for any of the
// cases." This google-benchmark binary measures each stage per kernel:
// parsing, dependence analysis, the Pluto ILP search, and tiled OpenMP
// code generation, plus substrate micro-benchmarks (integer lexmin,
// Fourier-Motzkin projection).
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/Kernels.h"
#include "ilp/LexMin.h"
#include "observe/PassStats.h"
#include "service/Batch.h"
#include "service/Pipeline.h"

#include <benchmark/benchmark.h>
#include <memory>

using namespace pluto;

namespace {

struct NamedKernel {
  const char *Name;
  const char *Src;
};

const NamedKernel Kernels[] = {
    {"jacobi1d", kernels::Jacobi1D}, {"fdtd2d", kernels::Fdtd2D},
    {"lu", kernels::LU},             {"mvt", kernels::MVT},
    {"seidel2d", kernels::Seidel2D}, {"matmul", kernels::MatMul},
};

Program parsedProgram(const char *Src) {
  ParseResult P = parseSourceDiags(Src);
  assert(P.ok() && "kernel must parse");
  Program Prog = P.Program->Prog;
  for (const std::string &Pm : Prog.ParamNames)
    Prog.addContextBound(Pm, 4);
  return Prog;
}

void BM_Parse(benchmark::State &State, const char *Src) {
  for (auto _ : State) {
    ParseResult P = parseSourceDiags(Src);
    benchmark::DoNotOptimize(P);
  }
}

void BM_Dependences(benchmark::State &State, const char *Src) {
  Program Prog = parsedProgram(Src);
  for (auto _ : State) {
    DependenceGraph G = computeDependences(Prog);
    benchmark::DoNotOptimize(G.Deps.size());
  }
}

void BM_Transform(benchmark::State &State, const char *Src) {
  Program Prog = parsedProgram(Src);
  DependenceGraph G = computeDependences(Prog);
  for (auto _ : State) {
    DependenceGraph Copy = G;
    auto S = computeSchedule(Prog, Copy);
    benchmark::DoNotOptimize(S.hasValue());
  }
}

/// The same work with a PassStats sink installed. Compare against
/// transform/<kernel> to measure the observability overhead; the stats-OFF
/// number is the contract (transform_* must not regress when no sink is
/// installed - every count site is then a relaxed null-check), and the
/// stats-ON delta here is expected to stay in the low single-digit
/// percents because counting happens at aggregation boundaries.
void BM_TransformStatsOn(benchmark::State &State, const char *Src) {
  Program Prog = parsedProgram(Src);
  DependenceGraph G = computeDependences(Prog);
  PassStats Stats;
  setActiveStats(&Stats);
  for (auto _ : State) {
    DependenceGraph Copy = G;
    auto S = computeSchedule(Prog, Copy);
    benchmark::DoNotOptimize(S.hasValue());
  }
  setActiveStats(nullptr);
  benchmark::DoNotOptimize(Stats.get(Counter::LexMinCalls));
}

void BM_EndToEnd(benchmark::State &State, const char *Src) {
  PlutoOptions Opts;
  Opts.TileSize = 32;
  for (auto _ : State) {
    Pipeline P = Pipeline::create(Opts).takeValue();
    P.setSource(Src);
    auto R = P.lowered();
    benchmark::DoNotOptimize(R.hasValue());
  }
}

void BM_LexMinSmall(benchmark::State &State) {
  // The matmul-shaped first-hyperplane ILP.
  IntMatrix I(7);
  auto row = [&](std::initializer_list<long long> R) {
    std::vector<BigInt> V;
    for (long long X : R)
      V.push_back(BigInt(X));
    I.addRow(std::move(V));
  };
  row({0, 0, 1, 0, 0, 0, 0});
  row({1, 0, -1, 0, 0, 0, 0});
  row({4, 1, -3, 0, 0, 0, 0});
  row({0, 0, 1, 1, 1, 0, -1});
  for (auto _ : State) {
    auto R = ilp::lexMinNonNeg(I, IntMatrix(7), 6);
    benchmark::DoNotOptimize(R.feasible());
  }
}

void BM_FourierMotzkin(benchmark::State &State) {
  // Project a 6-d dependence-polyhedron-shaped system down to 2 dims.
  for (auto _ : State) {
    ConstraintSystem CS(6);
    for (unsigned V = 0; V < 6; ++V) {
      CS.addLowerBound(V, 0);
      CS.addUpperBound(V, 100);
    }
    CS.addIneq({1, -1, 0, 0, 0, 0, 0});
    CS.addIneq({0, 1, -1, 0, 0, 1, 0});
    CS.addEq({1, 0, 0, -1, 0, 0, -1});
    CS.projectOut(2, 4);
    benchmark::DoNotOptimize(CS.numIneqs());
  }
}

/// Arithmetic on coefficients that fit int64 (the inline fast path): the
/// mix FM row combination performs — mul, add, gcd, exact division,
/// comparison.
void BM_BigIntSmallOps(benchmark::State &State) {
  std::vector<BigInt> Vals;
  for (long long I = 0; I < 64; ++I)
    Vals.push_back(BigInt((I % 2 ? -1 : 1) * (I * 977 + 3)));
  for (auto _ : State) {
    BigInt Acc(0);
    for (size_t I = 0; I + 1 < Vals.size(); ++I) {
      BigInt P = Vals[I] * Vals[I + 1];
      Acc += P - Vals[I];
      BigInt G = BigInt::gcd(P, Vals[I + 1]);
      benchmark::DoNotOptimize(P.divExact(G) < Acc);
    }
    benchmark::DoNotOptimize(Acc.isZero());
  }
}

/// The same operation mix on ~128-bit values (the limb-vector fallback):
/// the gap between this and small_ops is the price the old representation
/// paid on every coefficient.
void BM_BigIntBigOps(benchmark::State &State) {
  std::vector<BigInt> Vals;
  BigInt Base = BigInt::fromString("170141183460469231731687303715884105727");
  for (long long I = 0; I < 64; ++I)
    Vals.push_back(I % 2 ? -(Base + BigInt(I)) : Base + BigInt(I));
  for (auto _ : State) {
    BigInt Acc(0);
    for (size_t I = 0; I + 1 < Vals.size(); ++I) {
      BigInt P = Vals[I] * Vals[I + 1];
      Acc += P - Vals[I];
      BigInt G = BigInt::gcd(P, Vals[I + 1]);
      benchmark::DoNotOptimize(P.divExact(G) < Acc);
    }
    benchmark::DoNotOptimize(Acc.isZero());
  }
}

std::vector<CompileRequest> kernelCorpus() {
  std::vector<CompileRequest> Reqs;
  for (const NamedKernel &K : Kernels)
    Reqs.push_back({K.Name, K.Src, PlutoOptions(), BudgetLimits()});
  return Reqs;
}

/// Cold compilation of the whole kernel corpus through the service layer
/// (fresh cache every iteration): the baseline the warm number divides.
void BM_ServiceBatchCold(benchmark::State &State, unsigned Threads) {
  std::vector<CompileRequest> Reqs = kernelCorpus();
  for (auto _ : State) {
    BatchOptions BO;
    BO.Jobs = Threads;
    BO.Cache = std::make_shared<ResultCache>();
    auto R = compileRequests(Reqs, BO);
    benchmark::DoNotOptimize(R.front().ok());
  }
}

/// Warm-cache recompilation of the corpus: every unit served by key
/// lookup. The acceptance bar is >= 10x faster than batch_cold (in
/// practice it is orders of magnitude).
void BM_ServiceBatchWarm(benchmark::State &State) {
  std::vector<CompileRequest> Reqs = kernelCorpus();
  BatchOptions BO;
  BO.Cache = std::make_shared<ResultCache>();
  auto Seed = compileRequests(Reqs, BO); // populate once
  assert(Seed.front().ok());
  benchmark::DoNotOptimize(Seed.front().ok());
  for (auto _ : State) {
    auto R = compileRequests(Reqs, BO);
    benchmark::DoNotOptimize(R.front().ok());
  }
}

} // namespace

int main(int argc, char **argv) {
  for (const NamedKernel &K : Kernels) {
    benchmark::RegisterBenchmark(
        (std::string("parse/") + K.Name).c_str(),
        [Src = K.Src](benchmark::State &S) { BM_Parse(S, Src); });
    benchmark::RegisterBenchmark(
        (std::string("dependences/") + K.Name).c_str(),
        [Src = K.Src](benchmark::State &S) { BM_Dependences(S, Src); });
    benchmark::RegisterBenchmark(
        (std::string("transform/") + K.Name).c_str(),
        [Src = K.Src](benchmark::State &S) { BM_Transform(S, Src); });
    benchmark::RegisterBenchmark(
        (std::string("transform_stats_on/") + K.Name).c_str(),
        [Src = K.Src](benchmark::State &S) { BM_TransformStatsOn(S, Src); });
    benchmark::RegisterBenchmark(
        (std::string("end_to_end_codegen/") + K.Name).c_str(),
        [Src = K.Src](benchmark::State &S) { BM_EndToEnd(S, Src); });
  }
  benchmark::RegisterBenchmark(
      "service/batch_cold",
      [](benchmark::State &S) { BM_ServiceBatchCold(S, 1); });
  benchmark::RegisterBenchmark(
      "service/batch_cold_jobs4",
      [](benchmark::State &S) { BM_ServiceBatchCold(S, 4); });
  benchmark::RegisterBenchmark("service/batch_warm", BM_ServiceBatchWarm);
  benchmark::RegisterBenchmark("substrate/lexmin_small", BM_LexMinSmall);
  benchmark::RegisterBenchmark("substrate/fourier_motzkin",
                               BM_FourierMotzkin);
  benchmark::RegisterBenchmark("substrate/bigint_small_ops",
                               BM_BigIntSmallOps);
  benchmark::RegisterBenchmark("substrate/bigint_big_ops", BM_BigIntBigOps);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
