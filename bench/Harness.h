//===- bench/Harness.h - Shared benchmark harness ---------------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the figure-reproduction benchmarks (DESIGN.md
/// experiments E1-E8): compile original/transformed/baseline variants with
/// the system compiler (the paper's source-to-source methodology), verify
/// them against the original on the full problem, time them across thread
/// counts, and print paper-style GFLOPS tables.
///
/// Problem sizes can be scaled with PLUTOPP_BENCH_SCALE (default 1.0) to
/// match the host; thread counts with PLUTOPP_BENCH_THREADS (e.g. "1,2,4").
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_BENCH_HARNESS_H
#define PLUTOPP_BENCH_HARNESS_H

#include "../tests/Session.h"
#include "runtime/Jit.h"
#include "service/Pipeline.h"
#include "transform/PlutoTransform.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <omp.h>
#include <string>
#include <vector>

namespace pluto {
namespace bench {

inline double benchScale() {
  const char *S = std::getenv("PLUTOPP_BENCH_SCALE");
  return S ? std::atof(S) : 1.0;
}

inline std::vector<int> benchThreads() {
  const char *S = std::getenv("PLUTOPP_BENCH_THREADS");
  std::vector<int> T;
  if (S) {
    int V = 0;
    for (const char *P = S;; ++P) {
      if (*P >= '0' && *P <= '9')
        V = V * 10 + (*P - '0');
      else {
        if (V)
          T.push_back(V);
        V = 0;
        if (!*P)
          break;
      }
    }
  }
  if (T.empty())
    T = {1, 2, 4};
  return T;
}

/// One benchmark problem instance.
struct Problem {
  std::string Name;
  std::string Source;
  /// Extent expressions for emitC (array -> dims in parameter names).
  std::map<std::string, std::vector<std::string>> ExtentExprs;
  /// Numeric extents for buffer allocation.
  std::map<std::string, std::vector<long long>> Extents;
  std::map<std::string, long long> Params;
  std::map<std::string, double> Consts;
  /// Total floating-point operations of one kernel execution.
  double Flops = 0;
};

/// A compiled variant plus metadata.
struct Variant {
  std::string Name;
  CompiledKernel Kernel;
  bool Parallel = false; ///< Worth sweeping threads.
};

inline std::vector<double *> allocBuffers(
    const Program &Prog, const Problem &P,
    std::vector<std::vector<double>> &Storage) {
  Storage.clear();
  std::vector<double *> Ptrs;
  unsigned Seed = 1;
  for (const ArrayInfo &A : Prog.Arrays) {
    long long N = 1;
    auto It = P.Extents.find(A.Name);
    if (It != P.Extents.end())
      for (long long E : It->second)
        N *= E;
    std::vector<double> Buf(static_cast<size_t>(N));
    unsigned X = Seed++ * 2654435761u + 17;
    for (double &V : Buf) {
      X = X * 1664525u + 1013904223u;
      V = static_cast<double>((X >> 16) % 64) / 8.0;
    }
    Storage.push_back(std::move(Buf));
  }
  for (auto &Buf : Storage)
    Ptrs.push_back(Buf.data());
  return Ptrs;
}

inline std::vector<long long> paramVector(const Program &Prog,
                                          const Problem &P) {
  std::vector<long long> V;
  for (const std::string &Name : Prog.ParamNames)
    V.push_back(P.Params.at(Name));
  return V;
}

inline std::vector<double> constVector(const std::vector<std::string> &Names,
                                       const Problem &P) {
  std::vector<double> V;
  for (const std::string &Name : Names) {
    auto It = P.Consts.find(Name);
    V.push_back(It != P.Consts.end() ? It->second : 1.0);
  }
  return V;
}

/// Compiles one AST of the parsed program into a callable kernel.
inline Result<CompiledKernel> compileVariant(const ParsedProgram &PP,
                                             const CgNode &Ast,
                                             const Problem &P) {
  EmitOptions EO;
  EO.Extents = P.ExtentExprs;
  EO.SymConsts = PP.SymConsts;
  std::string C = emitC(PP.Prog, Ast, EO);
  return CompiledKernel::compile(C);
}

/// Verifies Variant output against the original kernel on the full problem.
inline bool verify(const ParsedProgram &PP, const CompiledKernel &Orig,
                   const CompiledKernel &Var, const Problem &P) {
  std::vector<std::vector<double>> S1, S2;
  std::vector<double *> A1 = allocBuffers(PP.Prog, P, S1);
  std::vector<double *> A2 = allocBuffers(PP.Prog, P, S2);
  std::vector<long long> PV = paramVector(PP.Prog, P);
  std::vector<double> CV = constVector(PP.SymConsts, P);
  omp_set_num_threads(1);
  Orig.call(A1, PV, CV);
  Var.call(A2, PV, CV);
  for (size_t B = 0; B < S1.size(); ++B)
    for (size_t I = 0; I < S1[B].size(); ++I) {
      double X = S1[B][I], Y = S2[B][I];
      double Tol = 1e-6 * (1.0 + std::max(std::fabs(X), std::fabs(Y)));
      if (std::fabs(X - Y) > Tol) {
        std::fprintf(stderr,
                     "  VERIFY FAIL: array %zu elem %zu: %g vs %g\n", B, I,
                     X, Y);
        return false;
      }
    }
  return true;
}

/// Times one call (best of Reps). Buffers are reinitialized to the identical
/// pseudo-random contents before every rep (outside the timed region) so
/// each rep runs the kernel on the same input: timing the previous rep's
/// output would measure an already-converged/steady state instead.
inline double timeKernel(const ParsedProgram &PP, const CompiledKernel &K,
                         const Problem &P, int Threads, int Reps = 3) {
  std::vector<std::vector<double>> Storage;
  std::vector<long long> PV = paramVector(PP.Prog, P);
  std::vector<double> CV = constVector(PP.SymConsts, P);
  omp_set_num_threads(Threads);
  double Best = 1e30;
  for (int I = 0; I < Reps; ++I) {
    std::vector<double *> A = allocBuffers(PP.Prog, P, Storage);
    auto T0 = std::chrono::steady_clock::now();
    K.call(A, PV, CV);
    auto T1 = std::chrono::steady_clock::now();
    Best = std::min(Best, std::chrono::duration<double>(T1 - T0).count());
  }
  return Best;
}

/// Prints the paper-style table: one row per variant, one column per thread
/// count (sequential variants only at 1 thread), GFLOPS and speedup over
/// the original.
inline void runAndReport(const ParsedProgram &PP, const Problem &P,
                         const CompiledKernel &Orig,
                         std::vector<Variant> &Variants) {
  std::vector<int> Threads = benchThreads();
  std::printf("\n== %s ==\n", P.Name.c_str());
  std::printf("problem:");
  for (const auto &[K, V] : P.Params)
    std::printf(" %s=%lld", K.c_str(), V);
  std::printf("  (%.3g GFLOP/run; host cores: %d)\n", P.Flops / 1e9,
              omp_get_num_procs());
  double BaseTime = timeKernel(PP, Orig, P, 1);
  std::printf("%-28s %8s %10s %10s %9s\n", "variant", "threads", "time(s)",
              "GFLOPS", "speedup");
  std::printf("%-28s %8d %10.4f %10.3f %9.2fx\n", "original (cc -O3)", 1,
              BaseTime, P.Flops / BaseTime / 1e9, 1.0);
  for (Variant &V : Variants) {
    std::vector<int> Sweep = V.Parallel ? Threads : std::vector<int>{1};
    for (int T : Sweep) {
      double Time = timeKernel(PP, V.Kernel, P, T);
      std::printf("%-28s %8d %10.4f %10.3f %9.2fx\n", V.Name.c_str(), T,
                  Time, P.Flops / Time / 1e9, BaseTime / Time);
    }
  }
}

/// The verified variants of one problem, in the order they were added.
struct VariantSet {
  const Problem &P;
  const CompiledKernel &Orig;
  /// Column width of the variant names in the "built" lines.
  int NameWidth;
  std::vector<Variant> Variants;

  /// Compiles one lowered variant, verifies it against the original on the
  /// full problem, prints its "built" line and keeps it when it verifies.
  /// A failed lowering or compile is reported and skipped. R may point into
  /// a temporary session (`session(Src, O).lowered()`): add() is done with
  /// it when it returns.
  void add(const std::string &Name, Result<const PlutoResult *> R,
           bool Parallel) {
    if (!R) {
      std::fprintf(stderr, "%s: pipeline error: %s\n", Name.c_str(),
                   R.error().c_str());
      return;
    }
    auto K = compileVariant((*R)->Parsed, *(*R)->Ast, P);
    if (!K) {
      std::fprintf(stderr, "%s: %s\n", Name.c_str(), K.error().c_str());
      return;
    }
    bool Ok = verify((*R)->Parsed, Orig, *K, P);
    std::printf("  built %-*s verify: %s\n", NameWidth, Name.c_str(),
                Ok ? "ok" : "FAIL");
    if (Ok)
      Variants.push_back({Name, std::move(*K), Parallel});
  }

  /// The same for a result lowered outside a session (lowerForced).
  void add(const std::string &Name, const Result<PlutoResult> &R,
           bool Parallel) {
    add(Name, R ? Result<const PlutoResult *>(&*R) : Err(R.error()),
        Parallel);
  }
};

/// Forced-transformation helper: builds a schedule from per-statement row
/// matrices over the session's parsed program, appends the textual-order
/// dimension, validates it against the session's dependences, marks the
/// first BandWidth rows as one permutable band, and lowers it through the
/// same tiling/codegen stages under the session's options. This is how the
/// paper evaluates prior approaches (Sec. 7: "the transformations were
/// forced to be what those approaches would have generated").
inline Result<PlutoResult> lowerForced(Pipeline &S,
                                       std::vector<IntMatrix> Rows,
                                       unsigned BandWidth) {
  auto Parsed = S.parsed();
  if (!Parsed)
    return Err(Parsed.error());
  auto Deps = S.dependences();
  if (!Deps)
    return Err(Deps.error());
  const Program &Prog = (*Parsed)->Prog;
  DependenceGraph DG = **Deps;
  Schedule Sched;
  Sched.StmtRows = std::move(Rows);
  Sched.Rows.resize(Sched.StmtRows.empty()
                        ? 0
                        : Sched.StmtRows[0].numRows());
  appendTextualOrderRow(Prog, Sched);
  Sched.Rows.back().IsScalar = true;
  if (!analyzeSchedule(Prog, DG, Sched))
    return Err(std::string("forced schedule is illegal"));
  for (unsigned R = 0; R < BandWidth && R < Sched.numRows(); ++R)
    if (!Sched.Rows[R].IsScalar)
      Sched.Rows[R].BandId = 0;
  return S.lowerSchedule(**Parsed, std::move(DG), std::move(Sched));
}

} // namespace bench
} // namespace pluto

#endif // PLUTOPP_BENCH_HARNESS_H
