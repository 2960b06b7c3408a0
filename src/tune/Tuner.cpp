//===- tune/Tuner.cpp - Empirical autotuning over the option space --------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "tune/Tuner.h"

#include "codegen/CEmitter.h"
#include "observe/PassStats.h"
#include "runtime/Interpreter.h"
#include "service/Pipeline.h"
#include "support/FaultInjector.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <tuple>

using namespace pluto;
using namespace pluto::tune;

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

namespace {

/// Largest number a spec value may hold.
constexpr long long MaxSpecValue = 1000000000;

std::vector<std::string> splitOn(const std::string &S, char Sep) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t End = S.find(Sep, Pos);
    if (End == std::string::npos)
      End = S.size();
    Out.push_back(S.substr(Pos, End - Pos));
    Pos = End + 1;
  }
  return Out;
}

Result<std::vector<unsigned>> parseList(const std::string &Key,
                                        const std::string &Val) {
  std::vector<unsigned> Out;
  for (const std::string &Tok : splitOn(Val, ',')) {
    auto V = parseInteger(Tok, 0, MaxSpecValue);
    if (!V)
      return Err("--tune spec: bad value '" + Tok + "' for '" + Key + "'");
    Out.push_back(static_cast<unsigned>(*V));
  }
  return Out;
}

Result<std::vector<bool>> parseBoolList(const std::string &Key,
                                        const std::string &Val) {
  std::vector<bool> Out;
  for (const std::string &Tok : splitOn(Val, ',')) {
    if (Tok != "0" && Tok != "1")
      return Err("--tune spec: '" + Key + "' entries must be 0 or 1, got '" +
                 Tok + "'");
    Out.push_back(Tok == "1");
  }
  return Out;
}

} // namespace

Result<bool> pluto::tune::parseSpec(const std::string &Spec, SearchSpace &SS,
                                    TuneOptions &TO) {
  for (const std::string &Entry : splitOn(Spec, ';')) {
    if (Entry.empty())
      continue;
    size_t Eq = Entry.find('=');
    if (Eq == std::string::npos)
      return Err("--tune spec: entry '" + Entry + "' is not key=value");
    std::string Key = Entry.substr(0, Eq);
    std::string Val = Entry.substr(Eq + 1);
    if (Key == "tile" || Key == "l2" || Key == "wave") {
      auto L = parseList(Key, Val);
      if (!L)
        return Err(L.error());
      if (Key == "tile")
        SS.TileSizes = L.takeValue();
      else if (Key == "l2")
        SS.L2TileSizes = L.takeValue();
      else
        SS.WavefrontDegrees = L.takeValue();
    } else if (Key == "fuse" || Key == "vec") {
      auto L = parseBoolList(Key, Val);
      if (!L)
        return Err(L.error());
      if (Key == "fuse")
        SS.Fusion = L.takeValue();
      else
        SS.Vectorize = L.takeValue();
    } else if (Key == "measure") {
      if (Val != "0" && Val != "1")
        return Err("--tune spec: measure must be 0 or 1, got '" + Val + "'");
      TO.RunMeasurements = Val == "1";
    } else if (Key == "n" || Key == "reps" || Key == "warmup" ||
               Key == "threads" || Key == "max-measure") {
      auto Parsed = parseInteger(Val, 0, MaxSpecValue);
      if (!Parsed)
        return Err("--tune spec: bad value '" + Val + "' for '" + Key + "'");
      unsigned V = static_cast<unsigned>(*Parsed);
      if (Key == "n") {
        if (V == 0)
          return Err("--tune spec: n must be >= 1");
        TO.ProblemSize = V;
      } else if (Key == "reps") {
        if (V == 0)
          return Err("--tune spec: reps must be >= 1");
        TO.Measure.Reps = V;
      } else if (Key == "warmup") {
        TO.Measure.Warmup = V;
      } else if (Key == "threads") {
        TO.Measure.Threads = V;
      } else {
        if (V == 0)
          return Err("--tune spec: max-measure must be >= 1");
        TO.MaxMeasure = V;
      }
    } else {
      return Err("--tune spec: unknown key '" + Key + "'");
    }
  }
  if (SS.TileSizes.empty() || SS.L2TileSizes.empty() ||
      SS.WavefrontDegrees.empty())
    return Err("--tune spec: axes must not be empty lists");
  return true;
}

//===----------------------------------------------------------------------===//
// explore()
//===----------------------------------------------------------------------===//

namespace {

/// Folds one point of the space into the base option set. Redundant
/// combinations (L2 under untiled, wavefront without parallelism) are left
/// to fingerprint normalization, which collapses them onto one variant.
PlutoOptions foldPoint(const PlutoOptions &Base, bool Fuse, bool Vec,
                       unsigned Tile, unsigned L2, unsigned Wave) {
  PlutoOptions O = Base;
  O.IncludeInputDeps = Fuse;
  O.Vectorize = Vec;
  O.Tile = Tile != 0;
  if (Tile)
    O.TileSize = Tile;
  O.SecondLevelTile = L2 != 0;
  if (L2)
    O.L2TileSize = L2;
  O.Parallelize = Wave != 0;
  if (Wave)
    O.WavefrontDegrees = Wave;
  return O;
}

/// Key of the schedule-stage option subset: variants sharing it share one
/// parse + dependence + schedule computation.
std::string scheduleGroupKey(const PlutoOptions &O) {
  return std::string(O.IncludeInputDeps ? "i1;" : "i0;") + "p" +
         std::to_string(O.ParamMin);
}

/// Wall ceiling applied per variant when the caller sets no budget at all:
/// a search must degrade a runaway variant (two-level tiling can blow up
/// codegen on skewed stencils) to resource-exhausted, never hang on it.
constexpr uint64_t DefaultVariantWallMs = 10000;

/// Relative mismatch check mirroring the bench harness tolerance.
bool nearlyEqual(double A, double B) {
  double Diff = std::fabs(A - B);
  double Mag = std::max(std::fabs(A), std::fabs(B));
  return Diff <= 1e-6 * std::max(Mag, 1.0);
}

} // namespace

TuneResult pluto::tune::explore(const std::string &Source,
                                const SearchSpace &SS, const TuneOptions &TO) {
  TuneResult R;
  R.ProblemSize = TO.ProblemSize;
  R.MeasureWarmup = TO.Measure.Warmup;
  R.MeasureReps = TO.Measure.Reps;
  R.MeasureThreads = TO.Measure.Threads;

  if (auto V = TO.Base.validate(); !V) {
    R.Status = StatusCode::BadRequest;
    R.Error = "invalid base options: " + V.error();
    return R;
  }
  if (TO.ProblemSize == 0) {
    R.Status = StatusCode::BadRequest;
    R.Error = "problem size must be >= 1";
    return R;
  }

  //===--------------------------------------------------------------------===//
  // Enumerate the space (base first, then the cross product) and dedupe by
  // normalized fingerprint: aliased points are accounted but explored once.
  //===--------------------------------------------------------------------===//
  auto Axis = [](const std::vector<unsigned> &A, unsigned BaseVal) {
    return A.empty() ? std::vector<unsigned>{BaseVal} : A;
  };
  std::vector<unsigned> Tiles =
      Axis(SS.TileSizes, TO.Base.Tile ? TO.Base.TileSize : 0);
  std::vector<unsigned> L2s =
      Axis(SS.L2TileSizes, TO.Base.SecondLevelTile ? TO.Base.L2TileSize : 0);
  std::vector<unsigned> Waves = Axis(
      SS.WavefrontDegrees, TO.Base.Parallelize ? TO.Base.WavefrontDegrees : 0);
  std::vector<bool> Fuses = SS.Fusion.empty()
                                ? std::vector<bool>{TO.Base.IncludeInputDeps}
                                : SS.Fusion;
  std::vector<bool> Vecs = SS.Vectorize.empty()
                               ? std::vector<bool>{TO.Base.Vectorize}
                               : SS.Vectorize;

  std::vector<PlutoOptions> Points;
  Points.push_back(TO.Base);
  for (bool Fuse : Fuses)
    for (bool Vec : Vecs)
      for (unsigned Tile : Tiles)
        for (unsigned L2 : L2s)
          for (unsigned Wave : Waves)
            Points.push_back(foldPoint(TO.Base, Fuse, Vec, Tile, L2, Wave));

  R.Enumerated = Points.size();
  count(Counter::TuneVariantsEnumerated, R.Enumerated);

  std::map<std::string, unsigned> CanonicalByFp;
  for (unsigned I = 0; I < Points.size(); ++I) {
    TuneVariant V;
    V.Id = I;
    V.Opts = Points[I];
    V.Fingerprint = Points[I].fingerprint();
    if (auto Ok = Points[I].validate(); !Ok) {
      V.Status = StatusCode::BadRequest;
      V.Error = Ok.error();
      ++R.Errors;
    } else {
      auto It = CanonicalByFp.find(V.Fingerprint);
      if (It != CanonicalByFp.end()) {
        V.DuplicateOf = static_cast<int>(It->second);
      } else {
        CanonicalByFp.emplace(V.Fingerprint, I);
        ++R.Distinct;
      }
    }
    R.Variants.push_back(std::move(V));
  }

  // Per-variant resource ceiling: the caller's budget when one is set,
  // else a default wall ceiling - explore() must never hang on one
  // runaway variant.
  BudgetLimits VariantLimits = TO.Budget;
  if (VariantLimits.unlimited())
    VariantLimits.WallMs = DefaultVariantWallMs;

  //===--------------------------------------------------------------------===//
  // Shared frontend work: one parse + dependences + schedule per distinct
  // schedule-stage option subset; variants then lower those artifacts
  // under their own emit configuration (Pipeline::lowerSchedule).
  //===--------------------------------------------------------------------===//
  struct Group {
    Pipeline Pipe;
    StatusCode Status = StatusCode::Ok;
    std::string Error;
  };
  std::map<std::string, Group> Groups;
  for (TuneVariant &V : R.Variants) {
    if (V.Status != StatusCode::Ok || V.DuplicateOf >= 0)
      continue;
    std::string GK = scheduleGroupKey(V.Opts);
    auto It = Groups.find(GK);
    if (It == Groups.end()) {
      // V.Opts validated above, so the session exists.
      Group G{Pipeline::create(V.Opts).takeValue(), StatusCode::Ok, {}};
      G.Pipe.setSource(Source);
      auto S = G.Pipe.runBudgeted(VariantLimits, [&]() -> Result<std::string> {
        if (auto SR = G.Pipe.scheduled(); !SR)
          return Err(SR.error());
        return std::string();
      });
      if (!S) {
        std::tie(G.Status, G.Error) = detail::decodeStatusError(S.error());
        if (G.Status == StatusCode::SourceError) {
          // The parse does not depend on options: a source error in one
          // group is a source error for the whole search.
          R.Status = G.Status;
          R.Error = G.Error;
          R.Diags = G.Pipe.diagnostics();
          return R;
        }
      }
      It = Groups.emplace(GK, std::move(G)).first;
    }
    if (It->second.Status != StatusCode::Ok) {
      V.Status = It->second.Status;
      V.Error = It->second.Error;
      ++R.Errors;
    }
  }

  //===--------------------------------------------------------------------===//
  // Per-variant lowering: each distinct variant is lowered and emitted once
  // from its group's artifacts, under its own budget, and its unit is
  // inserted into the shared cache under the key a compile of the same
  // options would use. Fault site "tune.compile": one hit per distinct
  // variant about to be lowered; an injected failure skips the variant,
  // never the search.
  //===--------------------------------------------------------------------===//
  std::map<unsigned, PlutoResult> LoweredById;
  std::map<unsigned, std::string> EmittedById;
  for (TuneVariant &V : R.Variants) {
    if (V.Status != StatusCode::Ok || V.DuplicateOf >= 0)
      continue;
    if (FaultInjector::shouldFail("tune.compile")) {
      V.Status = StatusCode::ScheduleAbort;
      V.Error = "injected fault: tune.compile";
      ++R.Errors;
      continue;
    }
    Pipeline &Front = Groups.at(scheduleGroupKey(V.Opts)).Pipe;
    Pipeline VP = Pipeline::create(V.Opts).takeValue();
    std::optional<PlutoResult> Lowered;
    auto C = VP.runBudgeted(VariantLimits, [&]() -> Result<std::string> {
      auto LR = VP.lowerSchedule(**Front.parsed(), **Front.dependences(),
                                 **Front.scheduled());
      if (!LR)
        return Err(LR.error());
      Lowered = LR.takeValue();
      return Pipeline::emit(*Lowered);
    });
    if (!C) {
      std::tie(V.Status, V.Error) = detail::decodeStatusError(C.error());
      ++R.Errors;
      continue;
    }
    V.Key = VP.cacheKey(Source);
    if (TO.Cache)
      TO.Cache->insert(V.Key, *C);
    V.Features = extractFeatures(*Lowered, static_cast<uint64_t>(C->size()));
    V.Score = defaultScore(V.Features);
    LoweredById.emplace(V.Id, std::move(*Lowered));
    EmittedById.emplace(V.Id, C.takeValue());
  }

  //===--------------------------------------------------------------------===//
  // Prune: rank the survivors by score and keep the front; the base
  // variant's canonical representative always rides along so the winner is
  // never worse than the default configuration.
  //===--------------------------------------------------------------------===//
  std::vector<unsigned> Ranked;
  for (const TuneVariant &V : R.Variants)
    if (V.Status == StatusCode::Ok && V.DuplicateOf < 0)
      Ranked.push_back(V.Id);
  std::stable_sort(Ranked.begin(), Ranked.end(), [&](unsigned A, unsigned B) {
    if (R.Variants[A].Score != R.Variants[B].Score)
      return R.Variants[A].Score > R.Variants[B].Score;
    return A < B;
  });

  // The base (variant 0) is its own canonical occurrence by construction.
  bool BaseRunnable =
      !R.Variants.empty() && R.Variants[0].Status == StatusCode::Ok;
  std::vector<unsigned> Front(
      Ranked.begin(),
      Ranked.begin() + std::min<size_t>(TO.MaxMeasure, Ranked.size()));
  if (BaseRunnable &&
      std::find(Front.begin(), Front.end(), 0u) == Front.end())
    Front.push_back(0);
  for (unsigned Id : Ranked) {
    if (std::find(Front.begin(), Front.end(), Id) == Front.end()) {
      R.Variants[Id].Pruned = true;
      ++R.Pruned;
      count(Counter::TuneVariantsPruned);
    }
  }
  std::sort(Front.begin(), Front.end());

  //===--------------------------------------------------------------------===//
  // Measure the front: interpreter reference once, then per variant a JIT
  // compile, a differential gate and a bias-controlled timing run.
  //===--------------------------------------------------------------------===//
  bool Measuring = TO.RunMeasurements && !Front.empty() &&
                   CompiledKernel::compilerAvailable();
  if (Measuring) {
    // All frontend groups parse the same program; take the first live one.
    const ParsedProgram *Parsed0 = nullptr;
    const Pipeline *Pipe0 = nullptr;
    for (auto &KV : Groups)
      if (KV.second.Status == StatusCode::Ok) {
        Parsed0 = *KV.second.Pipe.parsed();
        Pipe0 = &KV.second.Pipe;
        break;
      }
    if (Parsed0) {
      const Program &Prog = Parsed0->Prog;
      long long N = static_cast<long long>(TO.ProblemSize);

      // Initial data: one deterministic pattern per array, shared by the
      // interpreter reference and every JIT run.
      std::map<std::string, std::vector<long long>> Extents;
      for (const ArrayInfo &A : Prog.Arrays)
        Extents[A.Name] = std::vector<long long>(A.Rank, N);
      std::map<std::string, Tensor> Initial;
      {
        unsigned Seed = 1;
        for (const ArrayInfo &A : Prog.Arrays) {
          Tensor T = Tensor::zeros(Extents[A.Name]);
          T.fillPattern(Seed++);
          Initial.emplace(A.Name, std::move(T));
        }
      }

      // Reference: the original program (identity schedule) interpreted
      // over the initial data.
      bool GateAvailable = false;
      Interpreter Ref;
      Ref.Arrays = Initial;
      for (const std::string &P : Prog.ParamNames)
        Ref.Params[P] = N;
      for (const std::string &C : Parsed0->SymConsts)
        Ref.SymConsts[C] = 1.5;
      if (auto OA = Pipe0->originalAst(Prog)) {
        if (auto Run = Ref.run(Prog, **OA); Run && *Run)
          GateAvailable = true;
      }

      for (unsigned Id : Front) {
        TuneVariant &V = R.Variants[Id];
        const PlutoResult &PR = LoweredById.at(Id);

        EmitOptions EO;
        EO.FunctionName = "kernel";
        EO.SymConsts = Parsed0->SymConsts;
        for (const ArrayInfo &A : Prog.Arrays)
          if (A.Rank >= 1)
            EO.Extents[A.Name] = std::vector<std::string>(
                A.Rank, std::to_string(TO.ProblemSize));
        std::string MeasurableC = emitC(PR.program(), *PR.Ast, EO);

        auto K = CompiledKernel::compile(MeasurableC);
        if (!K) {
          V.Status = StatusCode::Internal;
          V.Error = "jit: " + K.error();
          ++R.Errors;
          continue;
        }

        // Flat buffers in Program::Arrays order, reset to the shared
        // initial pattern before every (warmup or timed) execution.
        std::vector<std::vector<double>> Bufs;
        std::vector<double *> Ptrs;
        for (const ArrayInfo &A : Prog.Arrays)
          Bufs.push_back(Initial.at(A.Name).Data);
        for (auto &B : Bufs)
          Ptrs.push_back(B.data());
        std::vector<long long> Params(Prog.ParamNames.size(), N);
        std::vector<double> Consts(Parsed0->SymConsts.size(), 1.5);
        auto Reset = [&] {
          for (size_t A = 0; A < Bufs.size(); ++A)
            Bufs[A] = Initial.at(Prog.Arrays[A].Name).Data;
        };

        if (GateAvailable) {
          Reset();
          K->call(Ptrs, Params, Consts);
          std::string Mismatch;
          for (size_t A = 0; A < Bufs.size() && Mismatch.empty(); ++A) {
            const std::vector<double> &Want =
                Ref.Arrays.at(Prog.Arrays[A].Name).Data;
            for (size_t E = 0; E < Want.size(); ++E)
              if (!nearlyEqual(Bufs[A][E], Want[E])) {
                Mismatch = "differential check failed: array '" +
                           Prog.Arrays[A].Name + "' element " +
                           std::to_string(E);
                break;
              }
          }
          if (!Mismatch.empty()) {
            V.Status = StatusCode::Internal;
            V.Error = Mismatch;
            ++R.Errors;
            continue;
          }
        }

        V.Time = measureKernel(*K, Ptrs, Params, Consts, Reset, TO.Measure);
        V.Measured = true;
        ++R.Measured;
        count(Counter::TuneVariantsMeasured);
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Pick the winner: fastest measured variant; static best-score fallback
  // when nothing was measured (no compiler, measurements off).
  //===--------------------------------------------------------------------===//
  int Winner = -1;
  for (const TuneVariant &V : R.Variants) {
    if (!V.Measured)
      continue;
    if (Winner < 0 ||
        V.Time.MedianSeconds < R.Variants[Winner].Time.MedianSeconds)
      Winner = static_cast<int>(V.Id);
  }
  if (Winner < 0 && !Ranked.empty()) {
    for (unsigned Id : Ranked)
      if (R.Variants[Id].Status == StatusCode::Ok) {
        Winner = static_cast<int>(Id);
        break;
      }
  }
  R.WinnerId = Winner;
  if (Winner >= 0) {
    R.WinnerKey = R.Variants[Winner].Key;
    R.WinnerC = EmittedById.at(static_cast<unsigned>(Winner));
  } else if (R.Status == StatusCode::Ok) {
    // Nothing compiled at all: surface the first variant failure as the
    // search failure so callers get a meaningful exit code.
    R.Status = StatusCode::Internal;
    R.Error = "no variant compiled";
    for (const TuneVariant &V : R.Variants)
      if (V.Status != StatusCode::Ok && !V.Error.empty()) {
        R.Status = V.Status;
        R.Error = V.Error;
        break;
      }
  }

  if (R.Errors)
    count(Counter::TuneVariantsErrors, R.Errors);
  return R;
}

//===----------------------------------------------------------------------===//
// Trace
//===----------------------------------------------------------------------===//

std::string TuneResult::traceJson() const {
  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"tune_schema\": 1,\n";
  OS << "  \"status\": \"" << statusCodeName(Status) << "\",\n";
  OS << "  \"problem_size\": " << ProblemSize << ",\n";
  OS << "  \"warmup\": " << MeasureWarmup << ",\n";
  OS << "  \"reps\": " << MeasureReps << ",\n";
  OS << "  \"threads\": " << MeasureThreads << ",\n";
  OS << "  \"enumerated\": " << Enumerated << ",\n";
  OS << "  \"distinct\": " << Distinct << ",\n";
  OS << "  \"pruned\": " << Pruned << ",\n";
  OS << "  \"measured\": " << Measured << ",\n";
  OS << "  \"errors\": " << Errors << ",\n";
  OS << "  \"winner\": " << WinnerId << ",\n";
  if (!Error.empty())
    OS << "  \"error\": " << jsonQuote(Error) << ",\n";
  OS << "  \"variants\": [";
  for (size_t I = 0; I < Variants.size(); ++I) {
    const TuneVariant &V = Variants[I];
    OS << (I ? ",\n" : "\n");
    OS << "    {\n";
    OS << "      \"id\": " << V.Id << ",\n";
    OS << "      \"options\": " << jsonQuote(V.Fingerprint) << ",\n";
    OS << "      \"duplicate_of\": " << V.DuplicateOf << ",\n";
    OS << "      \"status\": \"" << statusCodeName(V.Status) << "\",\n";
    if (!V.Error.empty())
      OS << "      \"error\": " << jsonQuote(V.Error) << ",\n";
    if (!V.Key.empty())
      OS << "      \"key\": " << jsonQuote(V.Key) << ",\n";
    if (V.DuplicateOf < 0 && V.Status == StatusCode::Ok) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.4f", V.Score);
      OS << "      \"score\": " << Buf << ",\n";
      OS << "      \"features\": " << V.Features.toJson() << ",\n";
    }
    if (V.Measured) {
      // Timing members: "_ms"-suffixed names, one per line, so stripping
      // lines containing "_ms" yields the reproducible document.
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.6f", V.Time.MedianSeconds * 1e3);
      OS << "      \"median_ms\": " << Buf << ",\n";
      OS << "      \"reps_ms\": [";
      for (size_t E = 0; E < V.Time.RepSeconds.size(); ++E) {
        std::snprintf(Buf, sizeof(Buf), "%.6f", V.Time.RepSeconds[E] * 1e3);
        OS << (E ? ", " : "") << Buf;
      }
      OS << "],\n";
    }
    OS << "      \"pruned\": " << (V.Pruned ? "true" : "false") << ",\n";
    OS << "      \"measured\": " << (V.Measured ? "true" : "false") << "\n";
    OS << "    }";
  }
  OS << "\n  ]\n}";
  return OS.str();
}
