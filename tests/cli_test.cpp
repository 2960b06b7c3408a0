//===- tests/cli_test.cpp - plutopp CLI end-to-end tests ------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Drives the installed tools/plutopp binary as a subprocess on the
// examples/ kernels: exit codes, emitted-C shape (and that it compiles,
// when a system compiler exists), and the --report=json document; plus
// the option checks tools/plutoctl makes before it contacts a daemon and
// its input/--out-dir handling against an in-process daemon.
//
//===----------------------------------------------------------------------===//

#include "runtime/Jit.h"
#include "serve/Server.h"

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#ifndef PLUTOPP_CLI_PATH
#error "PLUTOPP_CLI_PATH must be defined by the build"
#endif
#ifndef PLUTOCTL_PATH
#error "PLUTOCTL_PATH must be defined by the build"
#endif
#ifndef PLUTOPP_EXAMPLES_DIR
#error "PLUTOPP_EXAMPLES_DIR must be defined by the build"
#endif

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Stdout;
};

/// Runs `<Tool> <args>` capturing stdout; stderr goes to the test log.
/// popen gives no portable stderr capture, so tests that need the report
/// use --out (which moves the report to stdout).
RunResult runTool(const std::string &Tool, const std::string &Args) {
  RunResult R;
  std::string Cmd = Tool + " " + Args;
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return R;
  std::array<char, 4096> Buf;
  size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), P)) > 0)
    R.Stdout.append(Buf.data(), N);
  int Status = pclose(P);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

RunResult runCli(const std::string &Args) {
  return runTool(PLUTOPP_CLI_PATH, Args);
}

std::string examplePath(const std::string &Name) {
  return std::string(PLUTOPP_EXAMPLES_DIR) + "/" + Name;
}

std::string tempPath(const std::string &Suffix) {
  const char *Tmp = std::getenv("TMPDIR");
  std::string Dir = (Tmp && *Tmp) ? Tmp : "/tmp";
  return Dir + "/plutopp_cli_test_" + std::to_string(getpid()) + Suffix;
}

//===----------------------------------------------------------------------===//
// A minimal recursive-descent JSON validator: enough to check the report
// is well-formed and to read top-level numeric fields.
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  const std::string &S;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\n' ||
                              S[Pos] == '\t' || S[Pos] == '\r'))
      ++Pos;
  }
  bool literal(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(Pos, N, L) != 0)
      return false;
    Pos += N;
    return true;
  }
  bool string() {
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing quote
    return true;
  }
  bool number() {
    size_t Start = Pos;
    if (Pos < S.size() && (S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    return Pos > Start;
  }
  bool value() {
    skipWs();
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
  bool object() {
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return false;
      ++Pos;
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    skipWs();
    if (Pos >= S.size() || S[Pos] != '}')
      return false;
    ++Pos;
    return true;
  }
  bool array() {
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    skipWs();
    if (Pos >= S.size() || S[Pos] != ']')
      return false;
    ++Pos;
    return true;
  }
};

/// True when S is well-formed UTF-8 (RFC 3629): no stray continuation
/// byte, no truncated or overlong sequence, no surrogate, nothing above
/// U+10FFFF.
bool validUtf8(const std::string &S) {
  for (size_t I = 0; I < S.size();) {
    unsigned char Lead = S[I++];
    if (Lead < 0x80)
      continue;
    int Extra = Lead >= 0xF0 ? 3 : Lead >= 0xE0 ? 2 : Lead >= 0xC0 ? 1 : -1;
    if (Extra < 0 || Lead > 0xF4)
      return false;
    uint32_t Cp = Lead & (0x3F >> Extra);
    for (int K = 0; K < Extra; ++K, ++I) {
      if (I >= S.size() || (static_cast<unsigned char>(S[I]) & 0xC0) != 0x80)
        return false;
      Cp = Cp << 6 | (S[I] & 0x3F);
    }
    const uint32_t Min[] = {0, 0x80, 0x800, 0x10000};
    if (Cp < Min[Extra] || Cp > 0x10FFFF || (Cp >= 0xD800 && Cp <= 0xDFFF))
      return false;
  }
  return true;
}

/// Reads the numeric value following `"Key": ` (first occurrence).
double numberAfterKey(const std::string &J, const std::string &Key) {
  size_t At = J.find("\"" + Key + "\": ");
  if (At == std::string::npos)
    return -1.0;
  return std::atof(J.c_str() + At + Key.size() + 4);
}

TEST(CliTest, EmitsParallelOpenMpC) {
  for (const char *K : {"matmul.c", "jacobi1d.c", "lu.c", "mvt.c",
                        "seidel2d.c"}) {
    RunResult R = runCli("--tile --parallel " + examplePath(K));
    EXPECT_EQ(R.ExitCode, 0) << K;
    EXPECT_NE(R.Stdout.find("for ("), std::string::npos) << K;
    EXPECT_NE(R.Stdout.find("#pragma omp parallel for"), std::string::npos)
        << K;
  }
}

TEST(CliTest, NoParallelSuppressesPragmas) {
  RunResult R = runCli("--no-parallel " + examplePath("matmul.c"));
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Stdout.find("#pragma omp parallel for"), std::string::npos);
}

TEST(CliTest, ErrorExitCodes) {
  EXPECT_EQ(runCli("/nonexistent/input.c").ExitCode, 1);
  // An unknown flag is a bad request, like every other option error.
  EXPECT_EQ(runCli("--frobnicate " + examplePath("matmul.c")).ExitCode, 2);
  // Invalid restricted-C input is the "bad input" class of error: exit 2,
  // with a source-located diagnostic on stderr.
  std::string Bad = tempPath("_bad.c");
  {
    std::ofstream Out(Bad);
    Out << "while (1) { a[i] = 0.0; }\n";
  }
  EXPECT_EQ(runCli(Bad).ExitCode, 2);
  std::remove(Bad.c_str());
  EXPECT_EQ(runCli("--help").ExitCode, 0);
  // A directory is not an input: it cannot be opened, like a missing file.
  std::string Dir = std::string(PLUTOPP_EXAMPLES_DIR) + "/";
  RunResult R = runCli(Dir + " 2>&1");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stdout.find("cannot open '" + Dir + "'"), std::string::npos)
      << R.Stdout;
}

// One compile of a file with three distinct problems must surface all
// three (error recovery), each with its line:col span, both as stderr
// text with caret snippets and as structured entries in the JSON
// report's "diagnostics" array - and exit 2.
TEST(CliTest, MultiErrorSourceReportsEveryDiagnostic) {
  std::string Bad = tempPath("_bad3.c");
  {
    std::ofstream Out(Bad);
    Out << "for (i = 0; i < N; i++) {\n"
           "  a[i] = ;\n"
           "  b[i] @ 1.0;\n"
           "  c[i] = a[i] +;\n"
           "}\n";
  }
  RunResult R = runCli("--report=json " + Bad + " 2>&1");
  EXPECT_EQ(R.ExitCode, 2);
  // Every line's problem is reported with its span (recovery kept going).
  EXPECT_NE(R.Stdout.find("line 2, col"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("line 3, col"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("line 4, col"), std::string::npos) << R.Stdout;
  // Caret snippets point into the offending source line.
  EXPECT_NE(R.Stdout.find("^"), std::string::npos);
  // The JSON report carries structured entries.
  EXPECT_NE(R.Stdout.find("\"diagnostics\": ["), std::string::npos);
  EXPECT_NE(R.Stdout.find("\"line\": 2"), std::string::npos);
  EXPECT_NE(R.Stdout.find("\"severity\": \"error\""), std::string::npos);
  std::remove(Bad.c_str());
}

// The lexer reports non-ASCII source one byte at a time; the JSON report
// that quotes those bytes must still be valid UTF-8.
TEST(CliTest, ReportOfNonAsciiSourceIsValidUtf8) {
  std::string Bad = tempPath("_utf8.c");
  {
    std::ofstream Out(Bad);
    Out << "for (i = 0; i < N; i++) { a[i] = \xC3\xA9; }\n";
  }
  RunResult R = runCli("--report=json " + Bad);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_TRUE(JsonChecker(R.Stdout).valid()) << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"diagnostics\": ["), std::string::npos);
  EXPECT_TRUE(validUtf8(R.Stdout)) << R.Stdout;
  std::remove(Bad.c_str());
}

// A clean compile's JSON report still has the (empty) diagnostics array,
// so consumers can key on it unconditionally.
TEST(CliTest, CleanReportHasEmptyDiagnosticsArray) {
  std::string Out = tempPath("_clean.c");
  RunResult R =
      runCli("--out=" + Out + " --report=json " + examplePath("matmul.c"));
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("\"diagnostics\": []"), std::string::npos)
      << R.Stdout;
  std::remove(Out.c_str());
}

// Regression for the unvalidated-zero-tile-size path: option validation
// (PlutoOptions::validate() via the service layer) must fail fast with
// exit code 2 - the options class of error - before a degenerate supernode
// is ever constructed, and before inputs are even read.
TEST(CliTest, InvalidOptionsExitCode2) {
  EXPECT_EQ(runCli("--tile-size=0 " + examplePath("matmul.c")).ExitCode, 2);
  // Rejected even when tiling is off: the option set itself is invalid.
  EXPECT_EQ(runCli("--no-tile --tile-size=0 " + examplePath("matmul.c"))
                .ExitCode,
            2);
  EXPECT_EQ(runCli("--l2tile-size=0 " + examplePath("matmul.c")).ExitCode, 2);
  EXPECT_EQ(runCli("--param-min=-3 " + examplePath("matmul.c")).ExitCode, 2);
  // Validation happens before input I/O: a nonexistent file with bad
  // options still reports the options error (2), not the I/O error (1).
  EXPECT_EQ(runCli("--tile-size=0 /nonexistent/input.c").ExitCode, 2);
  // Values that do not parse, or do not fit the field, are bad requests
  // too: nothing is truncated, wrapped or clamped into range.
  for (const char *Flag :
       {"--tile-size=banana", "--tile-size=4294967301", "--tile-size=-1",
        "--timeout-ms=-5", "--wavefront-degrees=0", "--tile-size="})
    EXPECT_EQ(runCli(std::string(Flag) + " " + examplePath("matmul.c"))
                  .ExitCode,
              2)
        << Flag;
  EXPECT_EQ(runCli("--wavefront-degrees=2 " + examplePath("matmul.c"))
                .ExitCode,
            0);
}

// plutoctl parses the same option table and validates before it connects:
// with no daemon behind --socket, an option error still exits 2 (a bad
// request), while a valid option set gets as far as the connection (1).
TEST(CliTest, PlutoctlRejectsBadOptionsBeforeConnecting) {
  std::string Socket = "--retries=1 --socket=" + tempPath("_no_daemon.sock");
  auto Exit = [&](const std::string &Args) {
    return runTool(PLUTOCTL_PATH, Socket + " " + Args + " < /dev/null")
        .ExitCode;
  };
  EXPECT_EQ(Exit("--tile-size=-1"), 2);
  EXPECT_EQ(Exit("--tile-size=0"), 2);
  EXPECT_EQ(Exit("--frobnicate"), 2);
  EXPECT_EQ(Exit("--tile-size=16 --timeout-ms=100"), 1);
}

// Both clients print the same generated help lines for the option table.
TEST(CliTest, PlutoppAndPlutoctlShareOptionHelp) {
  std::string Pp = runCli("--help").Stdout;
  std::string Ctl = runTool(PLUTOCTL_PATH, "--help").Stdout;
  for (const char *Line : {"  --tile-size=N                   tile size (32)\n",
                           "  --wavefront-degrees=N", "  --timeout-ms=N",
                           "/ --no-include-input-deps\n"}) {
    EXPECT_NE(Pp.find(Line), std::string::npos) << Line;
    EXPECT_NE(Ctl.find(Line), std::string::npos) << Line;
  }
}

TEST(CliTest, OutFlagWritesFileAndFreesStdout) {
  std::string Out = tempPath("_matmul_tiled.c");
  RunResult R = runCli("--out=" + Out + " " + examplePath("matmul.c"));
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Stdout, ""); // No report requested: stdout stays empty.
  std::ifstream In(Out);
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_NE(SS.str().find("#pragma omp parallel for"), std::string::npos);
  std::remove(Out.c_str());
}

TEST(CliTest, ReportJsonIsWellFormedWithLivePassData) {
  std::string Out = tempPath("_report_kernel.c");
  RunResult R = runCli("--tile --parallel --report=json --out=" + Out +
                       " " + examplePath("matmul.c"));
  ASSERT_EQ(R.ExitCode, 0);
  std::remove(Out.c_str());
  const std::string &J = R.Stdout;

  ASSERT_TRUE(JsonChecker(J).valid()) << J;
  // The documented members.
  for (const char *Key : {"passes", "counters", "deps_by_level", "trace"})
    EXPECT_NE(J.find(std::string("\"") + Key + "\""), std::string::npos)
        << Key;
  // Non-zero timers for all five passes.
  for (const char *P : {"parse", "deps", "schedule", "tile", "codegen"}) {
    size_t At = J.find(std::string("\"") + P + "\": {\"seconds\": ");
    ASSERT_NE(At, std::string::npos) << P;
    EXPECT_GT(std::atof(J.c_str() + At + std::strlen(P) + 16), 0.0) << P;
  }
  // Non-zero counters from every instrumented layer.
  for (const char *C : {"lexmin_calls", "simplex_pivots", "fm_eliminations",
                        "dep_candidates", "hyperplanes_found", "bands_tiled",
                        "loops_parallel"})
    EXPECT_GT(numberAfterKey(J, C), 0.0) << C;
}

TEST(CliTest, ReportTextListsPassesAndTrace) {
  std::string Out = tempPath("_report_text.c");
  RunResult R = runCli("--report --out=" + Out + " " +
                       examplePath("jacobi1d.c"));
  ASSERT_EQ(R.ExitCode, 0);
  std::remove(Out.c_str());
  EXPECT_NE(R.Stdout.find("pass timings"), std::string::npos);
  EXPECT_NE(R.Stdout.find("decision trace:"), std::string::npos);
  EXPECT_NE(R.Stdout.find("[transform]"), std::string::npos);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(CliTest, MultiFileStdoutIsBannerSeparatedInInputOrder) {
  RunResult R = runCli(examplePath("matmul.c") + " " +
                       examplePath("jacobi1d.c"));
  ASSERT_EQ(R.ExitCode, 0);
  size_t B1 = R.Stdout.find("/* ===== plutopp: ");
  size_t B2 = R.Stdout.find("/* ===== plutopp: ", B1 + 1);
  ASSERT_NE(B1, std::string::npos);
  ASSERT_NE(B2, std::string::npos);
  EXPECT_NE(R.Stdout.find("matmul.c", B1), std::string::npos);
  EXPECT_LT(R.Stdout.find("matmul.c", B1), B2); // input order preserved
  EXPECT_NE(R.Stdout.find("jacobi1d.c", B2), std::string::npos);
}

// Multi-file runs with a failing unit: the good unit still emits, stderr
// ends with the per-unit status summary (one line per unit, StatusCode
// names), and the exit code follows the aggregation table (source error
// anywhere -> 2).
TEST(CliTest, MultiFilePerUnitFailureSummary) {
  std::string Bad = tempPath("_summary_bad.c");
  {
    std::ofstream Out(Bad);
    Out << "for (i = 0; i < N; i++ {\n  a[i] = 0;\n}\n";
  }
  RunResult R = runCli(examplePath("matmul.c") + " " + Bad + " 2>&1");
  EXPECT_EQ(R.ExitCode, 2);
  // The failing batch names the failure count and each unit's status.
  EXPECT_NE(R.Stdout.find("plutopp: 1 of 2 units failed:"),
            std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find(Bad + ": source-error"), std::string::npos)
      << R.Stdout;
  // The good unit still made it to stdout, banner and all.
  EXPECT_NE(R.Stdout.find("/* ===== plutopp: "), std::string::npos);
  EXPECT_NE(R.Stdout.find("#pragma omp parallel for"), std::string::npos);
  std::remove(Bad.c_str());
}

// The JSON report schema is versioned: every document leads with
// "schema": 2 so report consumers (and the plutod metrics op, which emits
// the same document) can detect drift.
TEST(CliTest, ReportJsonCarriesSchemaVersion) {
  std::string Out = tempPath("_schema.c");
  RunResult R =
      runCli("--report=json --out=" + Out + " " + examplePath("matmul.c"));
  ASSERT_EQ(R.ExitCode, 0);
  std::remove(Out.c_str());
  EXPECT_NE(R.Stdout.find("\"schema\": 2"), std::string::npos) << R.Stdout;
  // Leads the document: before any other member.
  EXPECT_LT(R.Stdout.find("\"schema\": 2"), R.Stdout.find("\"passes\""));
}

TEST(CliTest, OutWithMultipleInputsRejected) {
  namespace fs = std::filesystem;
  RunResult R = runCli("--out=" + tempPath("_multi.c") + " " +
                       examplePath("matmul.c") + " " +
                       examplePath("jacobi1d.c"));
  EXPECT_EQ(R.ExitCode, 2);

  // Two inputs that share a stem would write one --out-dir file: both
  // clients refuse, name both inputs, and write nothing.
  std::string A = tempPath("_stem_a"), B = tempPath("_stem_b");
  fs::create_directories(A);
  fs::create_directories(B);
  fs::copy_file(examplePath("matmul.c"), A + "/k.c");
  fs::copy_file(examplePath("jacobi1d.c"), B + "/k.c");
  std::string Dir = tempPath("_stem_out");
  std::string Args = "--out-dir=" + Dir + " " + A + "/k.c " + B + "/k.c";
  std::string Socket = "--socket=" + tempPath("_no_daemon.sock") + " ";
  for (const RunResult &Run :
       {runCli(Args + " 2>&1"),
        runTool(PLUTOCTL_PATH, Socket + Args + " 2>&1")}) {
    EXPECT_EQ(Run.ExitCode, 2) << Run.Stdout;
    EXPECT_NE(Run.Stdout.find("'" + A + "/k.c' and '" + B + "/k.c'"),
              std::string::npos)
        << Run.Stdout;
  }
  EXPECT_FALSE(fs::exists(Dir));
  fs::remove_all(A);
  fs::remove_all(B);
}

// The service path end to end: concurrent batch over every example kernel
// against one persistent --cache-dir, run twice. The warm run must be
// served from the cache (counters in the JSON report) and its outputs must
// be byte-identical to the cold run's.
TEST(CliTest, BatchJobsWithPersistentCacheIsWarmAndIdentical) {
  namespace fs = std::filesystem;
  std::string CacheDir = tempPath("_cache");
  std::string OutDir1 = tempPath("_out1");
  std::string OutDir2 = tempPath("_out2");
  const char *Kernels[] = {"matmul.c", "jacobi1d.c", "lu.c", "mvt.c",
                           "seidel2d.c"};
  std::string Inputs;
  for (const char *K : Kernels)
    Inputs += " " + examplePath(K);
  std::string Common =
      "--jobs=4 --cache-dir=" + CacheDir + " --report=json";

  RunResult Cold = runCli(Common + " --out-dir=" + OutDir1 + Inputs);
  ASSERT_EQ(Cold.ExitCode, 0);
  ASSERT_TRUE(JsonChecker(Cold.Stdout).valid()) << Cold.Stdout;
  EXPECT_GE(numberAfterKey(Cold.Stdout, "cache_misses"), 5.0);
  EXPECT_EQ(numberAfterKey(Cold.Stdout, "cache_disk_hits"), 0.0);

  RunResult Warm = runCli(Common + " --out-dir=" + OutDir2 + Inputs);
  ASSERT_EQ(Warm.ExitCode, 0);
  ASSERT_TRUE(JsonChecker(Warm.Stdout).valid()) << Warm.Stdout;
  // A fresh process has an empty memory tier; all 5 units come from disk.
  EXPECT_GE(numberAfterKey(Warm.Stdout, "cache_disk_hits"), 5.0);
  EXPECT_EQ(numberAfterKey(Warm.Stdout, "cache_misses"), 0.0);

  for (const char *K : Kernels) {
    std::string Stem = fs::path(K).stem().string() + ".pluto.c";
    std::string A = readFile(OutDir1 + "/" + Stem);
    std::string B = readFile(OutDir2 + "/" + Stem);
    ASSERT_FALSE(A.empty()) << Stem;
    EXPECT_EQ(A, B) << Stem; // cached == cold, byte for byte
    EXPECT_NE(A.find("for ("), std::string::npos) << Stem;
  }
  // The persistent tier is the versioned layout of DESIGN.md section 9.
  EXPECT_TRUE(fs::is_directory(fs::path(CacheDir) / "v1"));

  std::error_code Ec;
  fs::remove_all(CacheDir, Ec);
  fs::remove_all(OutDir1, Ec);
  fs::remove_all(OutDir2, Ec);
}

// plutoctl's I/O matches plutopp's, against a live in-process daemon: an
// unreadable input exits 1 (read before the daemon is contacted), and a
// missing --out-dir is created and receives the bytes plutopp writes.
TEST(CliTest, PlutoctlInputAndOutDirMatchPlutopp) {
  namespace fs = std::filesystem;
  pluto::serve::ServerConfig Cfg;
  Cfg.SocketPath = tempPath("_ctl.sock");
  Cfg.Workers = 1;
  auto Server = pluto::serve::Server::create(Cfg);
  ASSERT_TRUE(bool(Server)) << Server.error();
  (*Server)->start();
  std::string Ctl = std::string(PLUTOCTL_PATH) + " --socket=" + Cfg.SocketPath;

  EXPECT_EQ(runCli("/nonexistent/x.c").ExitCode, 1);
  EXPECT_EQ(runTool(Ctl, "/nonexistent/x.c").ExitCode, 1);

  std::string PpDir = tempPath("_pp_out") + "/new";
  std::string CtlDir = tempPath("_ctl_out") + "/new";
  std::string Input = " " + examplePath("matmul.c");
  EXPECT_EQ(runCli("--out-dir=" + PpDir + Input).ExitCode, 0);
  EXPECT_EQ(runTool(Ctl, "--out-dir=" + CtlDir + Input).ExitCode, 0);
  std::string Want = readFile(PpDir + "/matmul.pluto.c");
  ASSERT_FALSE(Want.empty());
  EXPECT_EQ(readFile(CtlDir + "/matmul.pluto.c"), Want);

  (*Server)->drain();
  std::error_code Ec;
  fs::remove_all(fs::path(PpDir).parent_path(), Ec);
  fs::remove_all(fs::path(CtlDir).parent_path(), Ec);
}

TEST(CliTest, EmittedCodeCompiles) {
  if (!pluto::CompiledKernel::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  for (const char *K : {"matmul.c", "jacobi1d.c", "lu.c"}) {
    std::string Out = tempPath(std::string("_cc_") + K);
    RunResult R = runCli("--tile --parallel --out=" + Out + " " +
                         examplePath(K));
    ASSERT_EQ(R.ExitCode, 0) << K;
    std::string Obj = Out + ".o";
    std::string Cmd = "cc -fopenmp -std=c99 -c -o '" + Obj + "' '" + Out +
                      "' > /dev/null 2>&1";
    EXPECT_EQ(system(Cmd.c_str()), 0) << K;
    std::remove(Out.c_str());
    std::remove(Obj.c_str());
  }
}

} // namespace
