//===- tests/golden_test.cpp - Emitted C and counters pinned in the tree --===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Pins what plutopp produces on a fixed corpus to files recorded in the
// tree, so a commit that changes any of it fails here:
//   - golden/emitted_c.sha256: the sha256 of the emitted C of each unit
//     under default options;
//   - golden/sweep_c.sha256: the same under eight option sets, for a
//     corpus that adds StressGen-100 and the wide_coupled bomb;
//   - golden/counters.txt: every counter of each sweep unit's
//     default-options compile that depends only on the source and the
//     options.
// On a difference the test names the units and prints the whole
// replacement file. Only a change that means to alter the output or the
// counts replaces a file with it, in the same diff.
//
//===----------------------------------------------------------------------===//

#include "driver/Kernels.h"
#include "observe/PassStats.h"
#include "runtime/Jit.h"
#include "service/Hash.h"
#include "service/Pipeline.h"
#include "support/StressGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unistd.h>

#ifndef PLUTOPP_EXAMPLES_DIR
#error "PLUTOPP_EXAMPLES_DIR must be defined by the build"
#endif
#ifndef PLUTOPP_CORPUS_DIR
#error "PLUTOPP_CORPUS_DIR must be defined by the build"
#endif
#ifndef PLUTOPP_GOLDEN_DIR
#error "PLUTOPP_GOLDEN_DIR must be defined by the build"
#endif

using namespace pluto;
namespace fs = std::filesystem;

namespace {

using Units = std::vector<std::pair<std::string, std::string>>;

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Every unit golden/emitted_c.sha256 covers, as (name, source) in file
/// order: examples/*.c, the driver/Kernels.h kernels, StressGen-10 seeds
/// 1-16 and StressGen-25 seed 1.
Units goldenUnits() {
  std::vector<fs::path> Examples;
  for (const auto &E : fs::directory_iterator(PLUTOPP_EXAMPLES_DIR))
    if (E.path().extension() == ".c")
      Examples.push_back(E.path());
  std::sort(Examples.begin(), Examples.end());
  Units U;
  for (const fs::path &K : Examples)
    U.emplace_back("examples/" + K.filename().string(), readFile(K));
  for (const auto &[Name, Src] : kernels::All)
    U.emplace_back(std::string("kernels/") + Name, Src);
  for (unsigned Seed = 1; Seed <= 16; ++Seed)
    U.emplace_back("stress10/seed" + std::to_string(Seed),
                   generateStressProgram(10, Seed));
  U.emplace_back("stress25/seed1", generateStressProgram(25, 1));
  return U;
}

/// The sweep's units: goldenUnits(), StressGen-100 seed 1 and the
/// wide_coupled bomb.
Units sweepUnits() {
  Units U = goldenUnits();
  U.emplace_back("stress100/seed1", generateStressProgram(100, 1));
  U.emplace_back("bombs/wide_coupled.c",
                 readFile(PLUTOPP_CORPUS_DIR "/bombs/wide_coupled.c"));
  return U;
}

/// The sweep's option sets, as plutopp flags; "" is the defaults.
const char *const OptionSets[] = {
    "",
    "--no-tile",
    "--no-parallel",
    "--tile-size=16",
    "--wavefront-degrees=2",
    "--no-vectorize --no-parallel",
    "--tile-size=16 --param-min=8",
    "--l2tile --max-memory-mb=2048",
};

/// The non-comment lines of golden/File.
std::multiset<std::string> recordedLines(const std::string &File) {
  std::multiset<std::string> Lines;
  std::ifstream In(std::string(PLUTOPP_GOLDEN_DIR "/") + File);
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty() && Line[0] != '#')
      Lines.insert(Line);
  return Lines;
}

/// Expects golden/File to hold exactly Lines, given as (unit, line). On a
/// difference, names the units whose line is not recorded and prints the
/// replacement file: Header, then every line.
void expectGolden(
    const std::string &File, const std::string &Header,
    const std::vector<std::pair<std::string, std::string>> &Lines) {
  std::multiset<std::string> Recorded = recordedLines(File);
  std::string Replacement = Header, Differing;
  for (const auto &[Unit, Line] : Lines) {
    Replacement += Line + "\n";
    auto It = Recorded.find(Line);
    if (It == Recorded.end())
      Differing += "  " + Unit + "\n";
    else
      Recorded.erase(It);
  }
  EXPECT_TRUE(Differing.empty() && Recorded.empty())
      << "tests/golden/" << File << " differs for:\n"
      << Differing << Recorded.size()
      << " recorded lines are no longer produced\nreplacement file:\n"
      << Replacement;
}

/// The counters of S that depend only on the source and the options, as
/// space-separated name=value fields: every counter before the service
/// layer's (the cache, stage reuse, robustness and tune counters follow
/// it), then the two histograms. The pass timers are left out.
std::string countsLine(const PassStats &S) {
  std::string Line;
  for (unsigned C = 0; C < static_cast<unsigned>(Counter::CacheHits); ++C)
    Line += std::string(C ? " " : "") + counterName(static_cast<Counter>(C)) +
            "=" + std::to_string(S.get(static_cast<Counter>(C)));
  auto histogram = [&Line](const char *Name, const auto &Buckets) {
    Line += std::string(" ") + Name + "=";
    for (size_t B = 0; B < std::size(Buckets); ++B)
      Line += (B ? "," : "") + std::to_string(Buckets[B].load());
  };
  histogram("deps_by_level", S.DepsAtLevel);
  histogram("clusters_by_size", S.ClustersOfSize);
  return Line;
}

// Unlike service_test's identity tests, which compare two code paths of
// one build, this pins the emitted C of a fixed corpus to digests
// recorded in the tree.
TEST(GoldenTest, EmittedCMatchesRecordedDigests) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  std::vector<std::pair<std::string, std::string>> Lines;
  for (const auto &[Name, Src] : goldenUnits()) {
    CompileRequest Req;
    Req.Name = Name;
    Req.Source = Src;
    CompileResponse R = P->compileRequest(Req);
    ASSERT_EQ(R.Status, StatusCode::Ok) << Name << ": " << R.Error;
    Lines.emplace_back(Name, sha256Hex(R.EmittedC) + "  " + Name);
  }
  expectGolden(
      "emitted_c.sha256",
      "# sha256 of the C that plutopp emits under default options, one unit\n"
      "# a line; checked by golden_test GoldenTest.\n",
      Lines);
}

// The identity contract of a change that means to keep the output: the
// emitted C of 40 units under eight option sets (320 compiles), and every
// deterministic counter of the default-options compiles. A change that
// only skips solver work moves golden/counters.txt and nothing else.
TEST(GoldenTest, OptionSweepMatchesRecordedDigestsAndCounts) {
  Units U = sweepUnits();
  std::vector<std::pair<std::string, std::string>> Digests, Counts;
  for (const char *Set : OptionSets) {
    PlutoOptions Opts;
    BudgetLimits Budget;
    std::istringstream Flags(Set);
    for (std::string Flag; Flags >> Flag;) {
      auto Applied = parseOptionFlag(Flag, Opts, Budget);
      ASSERT_TRUE(Applied && *Applied) << "not an option flag: " << Flag;
    }
    auto P = Pipeline::create(Opts);
    ASSERT_TRUE(P.hasValue()) << P.error();
    std::string Label = *Set ? Set : "default";
    for (const auto &[Name, Src] : U) {
      CompileRequest Req;
      Req.Name = Name;
      Req.Source = Src;
      Req.Opts = Opts;
      Req.Budget = Budget;
      PassStats Stats;
      setActiveStats(&Stats);
      CompileResponse R = P->compileRequest(Req);
      setActiveStats(nullptr);
      ASSERT_EQ(R.Status, StatusCode::Ok)
          << Name << " [" << Label << "]: " << R.Error;
      std::string Unit = Name + " [" + Label + "]";
      Digests.emplace_back(Unit, sha256Hex(R.EmittedC) + "  " + Unit);
      if (!*Set)
        Counts.emplace_back(Name, Name + "  " + countsLine(Stats));
    }
  }
  expectGolden("sweep_c.sha256",
               "# sha256 of the C that plutopp emits for each unit under each\n"
               "# option set; checked by golden_test GoldenTest.\n",
               Digests);
#ifdef NDEBUG
  // With asserts on, the code generator's sharing asserts make counted
  // solver calls of their own, so the counts hold in NDEBUG builds only.
  expectGolden("counters.txt",
               "# The deterministic counters of each unit's default-options\n"
               "# compile; checked by golden_test GoldenTest.\n",
               Counts);
#endif
}

// The emitted C of every example and Kernels.h unit must get past the
// system compiler: plutopp once exited 0 on doitgen while its loop counter
// c4 shadowed the array c4 and cc rejected the unit.
TEST(GoldenTest, EmittedCPassesTheCompiler) {
  if (!CompiledKernel::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  const char *Tmp = std::getenv("TMPDIR");
  std::string Dir = std::string(Tmp && *Tmp ? Tmp : "/tmp") +
                    "/plutopp_golden_test_" + std::to_string(getpid());
  fs::create_directories(Dir);
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  for (const auto &[Name, Src] : goldenUnits()) {
    if (!Name.starts_with("examples/") && !Name.starts_with("kernels/"))
      continue;
    CompileRequest Req;
    Req.Name = Name;
    Req.Source = Src;
    CompileResponse R = P->compileRequest(Req);
    ASSERT_EQ(R.Status, StatusCode::Ok) << Name << ": " << R.Error;
    std::string Unit = Dir + "/unit.c", Log = Dir + "/cc.log";
    std::ofstream(Unit, std::ios::binary) << R.EmittedC;
    std::string Cmd =
        "cc -fsyntax-only -fopenmp '" + Unit + "' > '" + Log + "' 2>&1";
    EXPECT_EQ(std::system(Cmd.c_str()), 0) << Name << ":\n" << readFile(Log);
  }
  fs::remove_all(Dir);
}

} // namespace
