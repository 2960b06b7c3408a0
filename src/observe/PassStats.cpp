//===- observe/PassStats.cpp - Toolchain-wide pass statistics -------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "observe/PassStats.h"

#include "observe/Trace.h"

#include <cstdio>
#include <sstream>

using namespace pluto;

std::atomic<PassStats *> pluto::detail::ActiveStats{nullptr};

const char *pluto::passName(Pass P) {
  switch (P) {
  case Pass::Parse:
    return "parse";
  case Pass::Deps:
    return "deps";
  case Pass::Schedule:
    return "schedule";
  case Pass::Tile:
    return "tile";
  case Pass::Codegen:
    return "codegen";
  case Pass::NumPasses:
    break;
  }
  return "?";
}

const char *pluto::counterName(Counter C) {
  switch (C) {
  case Counter::LexMinCalls:
    return "lexmin_calls";
  case Counter::SimplexPivots:
    return "simplex_pivots";
  case Counter::GomoryCuts:
    return "gomory_cuts";
  case Counter::IlpAborts:
    return "ilp_aborts";
  case Counter::LexMinWarmStarts:
    return "lexmin_warm_starts";
  case Counter::LexMinBigIntReruns:
    return "lexmin_bigint_reruns";
  case Counter::FmEliminations:
    return "fm_eliminations";
  case Counter::FmRowsGenerated:
    return "fm_rows_generated";
  case Counter::FmRowsPruned:
    return "fm_rows_pruned";
  case Counter::RedundancyChecks:
    return "redundancy_checks";
  case Counter::EmptinessTests:
    return "emptiness_tests";
  case Counter::DepCandidates:
    return "dep_candidates";
  case Counter::DepFlow:
    return "dep_flow";
  case Counter::DepAnti:
    return "dep_anti";
  case Counter::DepOutput:
    return "dep_output";
  case Counter::DepInput:
    return "dep_input";
  case Counter::DepLoopIndependent:
    return "dep_loop_independent";
  case Counter::DepCarried:
    return "dep_carried";
  case Counter::DepKeptOnAbort:
    return "dep_kept_on_abort";
  case Counter::ParserErrors:
    return "parser_errors";
  case Counter::ReductionsDetected:
    return "reductions_detected";
  case Counter::HyperplanesFound:
    return "hyperplanes_found";
  case Counter::SccCuts:
    return "scc_cuts";
  case Counter::TextualOrderRows:
    return "textual_order_rows";
  case Counter::BandsTiled:
    return "bands_tiled";
  case Counter::WavefrontsApplied:
    return "wavefronts_applied";
  case Counter::VectorizedLoops:
    return "vectorized_loops";
  case Counter::CodegenPieces:
    return "codegen_pieces";
  case Counter::CodegenGuardFallbacks:
    return "codegen_guard_fallbacks";
  case Counter::LoopsParallel:
    return "loops_parallel";
  case Counter::LoopsPipeline:
    return "loops_pipeline";
  case Counter::LoopsSequential:
    return "loops_sequential";
  case Counter::ReductionParallelLoops:
    return "reduction_parallel_loops";
  case Counter::CacheHits:
    return "cache_hits";
  case Counter::CacheDiskHits:
    return "cache_disk_hits";
  case Counter::CacheMisses:
    return "cache_misses";
  case Counter::CacheEvictions:
    return "cache_evictions";
  case Counter::CacheCoalesced:
    return "cache_coalesced";
  case Counter::StageReuses:
    return "stage_reuses";
  case Counter::CacheWriteErrors:
    return "cache_write_errors";
  case Counter::JitRetries:
    return "jit_retries";
  case Counter::JitStaleDirsSwept:
    return "jit_stale_dirs_swept";
  case Counter::BudgetExhausted:
    return "budget_exhausted";
  case Counter::FaultsInjected:
    return "faults_injected";
  case Counter::TuneVariantsEnumerated:
    return "tune_variants_enumerated";
  case Counter::TuneVariantsPruned:
    return "tune_variants_pruned";
  case Counter::TuneVariantsMeasured:
    return "tune_variants_measured";
  case Counter::TuneVariantsErrors:
    return "tune_variants_errors";
  case Counter::NumCounters:
    break;
  }
  return "?";
}

void PassStats::clear() {
  for (auto &C : Counters)
    C.store(0, std::memory_order_relaxed);
  for (auto &L : DepsAtLevel)
    L.store(0, std::memory_order_relaxed);
  for (auto &C : ClustersOfSize)
    C.store(0, std::memory_order_relaxed);
  for (auto &S : PassSeconds)
    S.store(0.0, std::memory_order_relaxed);
}

std::string PassStats::toJson(const Trace *T, const std::string *Extra) const {
  std::ostringstream OS;
  // Schema version of this document (DESIGN.md section 8). Bumped to 2
  // when the version member itself plus the serve-layer extras ("server",
  // "cache", "latency_ms" in plutod metrics; shared "diagnostics"
  // serializer in reports) were introduced; consumers should reject
  // documents with a larger major version than they know.
  OS << "{\n  \"schema\": 2,\n  \"passes\": {";
  for (unsigned P = 0; P < static_cast<unsigned>(Pass::NumPasses); ++P) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6f", seconds(static_cast<Pass>(P)));
    OS << (P ? "," : "") << "\n    \"" << passName(static_cast<Pass>(P))
       << "\": {\"seconds\": " << Buf << "}";
  }
  OS << "\n  },\n  \"counters\": {";
  for (unsigned C = 0; C < static_cast<unsigned>(Counter::NumCounters); ++C)
    OS << (C ? "," : "") << "\n    \"" << counterName(static_cast<Counter>(C))
       << "\": " << get(static_cast<Counter>(C));
  OS << "\n  },\n  \"deps_by_level\": [";
  for (unsigned L = 0; L < MaxDepLevels; ++L)
    OS << (L ? ", " : "") << DepsAtLevel[L].load(std::memory_order_relaxed);
  OS << "],\n  \"clusters_by_size\": [";
  for (unsigned C = 0; C < MaxClusterSizes; ++C)
    OS << (C ? ", " : "")
       << ClustersOfSize[C].load(std::memory_order_relaxed);
  OS << "]";
  if (T)
    OS << ",\n  \"trace\": " << T->toJson();
  if (Extra && !Extra->empty())
    OS << ",\n  " << *Extra;
  OS << "\n}";
  return OS.str();
}

std::string PassStats::toText() const {
  std::ostringstream OS;
  OS << "pass timings (seconds):\n";
  for (unsigned P = 0; P < static_cast<unsigned>(Pass::NumPasses); ++P) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "  %-10s %10.6f\n",
                  passName(static_cast<Pass>(P)),
                  seconds(static_cast<Pass>(P)));
    OS << Buf;
  }
  OS << "counters:\n";
  for (unsigned C = 0; C < static_cast<unsigned>(Counter::NumCounters); ++C) {
    uint64_t V = get(static_cast<Counter>(C));
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "  %-24s %12llu\n",
                  counterName(static_cast<Counter>(C)),
                  static_cast<unsigned long long>(V));
    OS << Buf;
  }
  OS << "dependence edges by first carry level (0 = loop-independent):\n ";
  for (unsigned L = 0; L < MaxDepLevels; ++L)
    OS << " " << DepsAtLevel[L].load(std::memory_order_relaxed);
  OS << "\n";
  OS << "scheduler clusters by statement count (1.." << MaxClusterSizes
     << "+):\n ";
  for (unsigned C = 0; C < MaxClusterSizes; ++C)
    OS << " " << ClustersOfSize[C].load(std::memory_order_relaxed);
  OS << "\n";
  return OS.str();
}
