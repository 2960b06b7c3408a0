//===- tests/robustness_test.cpp - Fault-isolation & budget tests ---------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Covers the robustness layer end to end: cooperative resource budgets
// (support/Budget.h) and their classification as resource-exhausted
// through Pipeline, the deterministic FaultInjector and every site it
// instruments, degraded modes (disk-cache write path turning itself off,
// the JIT's retry-once), the wire protocol's budget fields, the
// resource-bomb corpus regressions, and the forked sandbox workers with
// their parent-side recovery paths (crash classification, watchdog kill,
// respawn, the server's crash circuit breaker).
//
//===----------------------------------------------------------------------===//

#include "observe/PassStats.h"
#include "runtime/Jit.h"
#include "serve/Protocol.h"
#include "serve/Sandbox.h"
#include "serve/Server.h"
#include "service/Pipeline.h"
#include "service/ResultCache.h"
#include "support/BigInt.h"
#include "support/Budget.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <poll.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#ifndef PLUTOPP_CORPUS_DIR
#error "PLUTOPP_CORPUS_DIR must be defined by the build"
#endif

using namespace pluto;
using namespace pluto::serve;
namespace fs = std::filesystem;

namespace {

const char *MatMul = "for (i = 0; i <= N - 1; i++)\n"
                     "  for (j = 0; j <= N - 1; j++)\n"
                     "    for (k = 0; k <= N - 1; k++)\n"
                     "      C[i][j] = C[i][j] + A[i][k] * B[k][j];\n";

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string bombSource(const char *Name) {
  return readFile(fs::path(PLUTOPP_CORPUS_DIR) / "bombs" / Name);
}

std::string tempDir(const std::string &Suffix) {
  const char *Tmp = std::getenv("TMPDIR");
  std::string Dir = (Tmp && *Tmp) ? Tmp : "/tmp";
  return Dir + "/plutopp_robust_test_" + std::to_string(getpid()) + Suffix;
}

/// Every test that arms the injector runs through this fixture so a
/// failing assertion can never leak an armed site into later tests.
class FaultFixture : public ::testing::Test {
protected:
  void SetUp() override { FaultInjector::disarm(); }
  void TearDown() override { FaultInjector::disarm(); }
};

using FaultInjectorTest = FaultFixture;
using DegradedModeTest = FaultFixture;
using SandboxTest = FaultFixture;
using IsolateServerTest = FaultFixture;

//===----------------------------------------------------------------------===//
// BudgetLimits / Budget / ScopedBudget
//===----------------------------------------------------------------------===//

TEST(BudgetTest, DefaultIsUnlimited) {
  BudgetLimits L;
  EXPECT_TRUE(L.unlimited());
  EXPECT_EQ(L.WallMs, 0u);
  EXPECT_EQ(L.MaxMemoryBytes, 0u);
  EXPECT_EQ(L.MaxWorkUnits, 0u);
}

TEST(BudgetTest, TightestMergeIsMemberWise) {
  BudgetLimits A{1000, 0, 500};
  BudgetLimits B{2000, 4096, 0};
  BudgetLimits T = BudgetLimits::tightest(A, B);
  EXPECT_EQ(T.WallMs, 1000u);          // min of two bounds
  EXPECT_EQ(T.MaxMemoryBytes, 4096u);  // 0 (unlimited) loses to any bound
  EXPECT_EQ(T.MaxWorkUnits, 500u);
  // Merging with fully-unlimited is the identity, both ways.
  BudgetLimits U;
  T = BudgetLimits::tightest(A, U);
  EXPECT_EQ(T.WallMs, A.WallMs);
  EXPECT_EQ(T.MaxMemoryBytes, A.MaxMemoryBytes);
  EXPECT_EQ(T.MaxWorkUnits, A.MaxWorkUnits);
  EXPECT_TRUE(BudgetLimits::tightest(U, U).unlimited());
}

TEST(BudgetTest, WorkLimitTripsStickyWithReason) {
  BudgetLimits L;
  L.MaxWorkUnits = 10;
  Budget B(L);
  EXPECT_TRUE(B.charge(5));
  EXPECT_TRUE(B.charge(5)); // exactly at the limit: still fine
  EXPECT_FALSE(B.charge(1));
  EXPECT_TRUE(B.exhausted());
  EXPECT_STREQ(B.reason(), "work");
  // Sticky: once tripped, every further charge fails instantly.
  EXPECT_FALSE(B.charge(1));
  EXPECT_FALSE(B.chargeMemory(1));
}

TEST(BudgetTest, MemoryLimitTripsWithReason) {
  BudgetLimits L;
  L.MaxMemoryBytes = 1024;
  Budget B(L);
  EXPECT_TRUE(B.chargeMemory(1024));
  EXPECT_FALSE(B.chargeMemory(1));
  EXPECT_TRUE(B.exhausted());
  EXPECT_STREQ(B.reason(), "memory");
  EXPECT_GE(B.memoryUsed(), 1025u);
}

TEST(BudgetTest, WallClockTrips) {
  BudgetLimits L;
  L.WallMs = 10;
  Budget B(L);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(B.checkWall());
  EXPECT_TRUE(B.exhausted());
  EXPECT_STREQ(B.reason(), "wall-clock");
}

TEST(BudgetTest, FirstTripReasonWins) {
  Budget B{BudgetLimits{}};
  EXPECT_FALSE(B.exhausted());
  EXPECT_EQ(B.reason(), nullptr);
  B.trip("work");
  B.trip("memory");
  EXPECT_STREQ(B.reason(), "work");
}

TEST(BudgetTest, ScopedBudgetInstallsAndRestores) {
  EXPECT_EQ(activeBudget(), nullptr);
  EXPECT_TRUE(budgetCharge(1000000)); // no budget installed: free pass
  EXPECT_FALSE(budgetExhausted());
  BudgetLimits L;
  L.MaxWorkUnits = 4;
  Budget B(L);
  {
    ScopedBudget Install(&B);
    EXPECT_EQ(activeBudget(), &B);
    EXPECT_TRUE(budgetCharge(4));
    EXPECT_FALSE(budgetCharge(1));
    EXPECT_TRUE(budgetExhausted());
    {
      ScopedBudget Uninstall(nullptr); // explicit uninstall for a scope
      EXPECT_EQ(activeBudget(), nullptr);
      EXPECT_TRUE(budgetCharge(1));
    }
    EXPECT_EQ(activeBudget(), &B);
  }
  EXPECT_EQ(activeBudget(), nullptr);
}

//===----------------------------------------------------------------------===//
// StatusCode taxonomy: names, exit codes, aggregation
//===----------------------------------------------------------------------===//

TEST(StatusCodeTest, NamesRoundTrip) {
  const StatusCode All[] = {
      StatusCode::Ok,           StatusCode::BadRequest,
      StatusCode::SourceError,  StatusCode::ScheduleAbort,
      StatusCode::Internal,     StatusCode::Overloaded,
      StatusCode::ResourceExhausted};
  for (StatusCode S : All) {
    auto Back = statusCodeFromName(statusCodeName(S));
    ASSERT_TRUE(Back.has_value()) << statusCodeName(S);
    EXPECT_EQ(*Back, S);
  }
  EXPECT_STREQ(statusCodeName(StatusCode::ResourceExhausted),
               "resource-exhausted");
  EXPECT_FALSE(statusCodeFromName("no-such-status").has_value());
}

TEST(StatusCodeTest, ExitCodeTable) {
  EXPECT_EQ(exitCodeFor(StatusCode::Ok), 0);
  EXPECT_EQ(exitCodeFor(StatusCode::BadRequest), 2);
  EXPECT_EQ(exitCodeFor(StatusCode::SourceError), 2);
  EXPECT_EQ(exitCodeFor(StatusCode::ScheduleAbort), 1);
  EXPECT_EQ(exitCodeFor(StatusCode::Internal), 1);
  EXPECT_EQ(exitCodeFor(StatusCode::Overloaded), 3);
  EXPECT_EQ(exitCodeFor(StatusCode::ResourceExhausted), 4);
}

TEST(StatusCodeTest, AggregatePrecedence) {
  // Documented precedence: 2 (bad input) > 1 (internal) > 4 (over budget)
  // > 3 (overloaded) > 0.
  const int Order[] = {2, 1, 4, 3, 0};
  for (size_t I = 0; I < 5; ++I)
    for (size_t J = 0; J < 5; ++J) {
      int Want = Order[std::min(I, J)];
      EXPECT_EQ(aggregateExitCodes(Order[I], Order[J]), Want)
          << Order[I] << " vs " << Order[J];
    }
}

//===----------------------------------------------------------------------===//
// FaultInjector: spec parsing, hit semantics, counters
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectorTest, DisarmedIsFreeAndSilent) {
  EXPECT_FALSE(FaultInjector::armed());
  EXPECT_FALSE(FaultInjector::shouldFail("cache.disk_write"));
  EXPECT_EQ(FaultInjector::hits("cache.disk_write"), 0u);
  EXPECT_TRUE(FaultInjector::allHits().empty());
}

TEST_F(FaultInjectorTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultInjector::arm("site:"));
  EXPECT_FALSE(FaultInjector::arm(":3"));
  EXPECT_FALSE(FaultInjector::arm("site:0"));
  EXPECT_FALSE(FaultInjector::arm("site:x"));
  EXPECT_FALSE(FaultInjector::armed()); // failed arms left it disarmed
  EXPECT_TRUE(FaultInjector::arm(""));  // empty spec is an explicit disarm
  EXPECT_FALSE(FaultInjector::armed());
}

TEST_F(FaultInjectorTest, NthHitSemantics) {
  ASSERT_TRUE(FaultInjector::arm("a.site:2"));
  EXPECT_FALSE(FaultInjector::shouldFail("a.site")); // hit 1
  EXPECT_TRUE(FaultInjector::shouldFail("a.site"));  // hit 2 fails
  EXPECT_FALSE(FaultInjector::shouldFail("a.site")); // hit 3 passes again
  EXPECT_EQ(FaultInjector::hits("a.site"), 3u);
  EXPECT_FALSE(FaultInjector::shouldFail("other.site")); // unarmed site
  EXPECT_EQ(FaultInjector::hits("other.site"), 0u);
}

TEST_F(FaultInjectorTest, DefaultIsFirstHitAndStarIsEvery) {
  ASSERT_TRUE(FaultInjector::arm("one,every:*"));
  EXPECT_TRUE(FaultInjector::shouldFail("one"));
  EXPECT_FALSE(FaultInjector::shouldFail("one"));
  EXPECT_TRUE(FaultInjector::shouldFail("every"));
  EXPECT_TRUE(FaultInjector::shouldFail("every"));
  auto All = FaultInjector::allHits();
  ASSERT_EQ(All.size(), 2u);
  EXPECT_EQ(All[0].first, "one");
  EXPECT_EQ(All[0].second, 2u);
  EXPECT_EQ(All[1].first, "every");
  EXPECT_EQ(All[1].second, 2u);
}

TEST_F(FaultInjectorTest, InjectedFailuresFeedPassStats) {
  PassStats Stats;
  setActiveStats(&Stats);
  ASSERT_TRUE(FaultInjector::arm("counted:*"));
  (void)FaultInjector::shouldFail("counted");
  (void)FaultInjector::shouldFail("counted");
  setActiveStats(nullptr);
  EXPECT_EQ(Stats.get(Counter::FaultsInjected), 2u);
}

//===----------------------------------------------------------------------===//
// Resource-bomb corpus: pathological inputs must exhaust their budget
// deterministically (work units, not wall clock) instead of spinning.
//===----------------------------------------------------------------------===//

TEST(ResourceBombTest, DeepNestExhaustsWorkBudget) {
  std::string Src = bombSource("deep_nest.c");
  ASSERT_FALSE(Src.empty());
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  CompileRequest Req;
  Req.Name = "deep_nest.c";
  Req.Source = Src;
  Req.Budget.MaxWorkUnits = 200000;
  CompileResponse R = P->compileRequest(Req);
  EXPECT_EQ(R.Status, StatusCode::ResourceExhausted);
  EXPECT_NE(R.Error.find("work limit"), std::string::npos) << R.Error;
  EXPECT_TRUE(R.EmittedC.empty());
}

TEST(ResourceBombTest, WideCoupledExhaustsWorkBudget) {
  std::string Src = bombSource("wide_coupled.c");
  ASSERT_FALSE(Src.empty());
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  CompileRequest Req;
  Req.Name = "wide_coupled.c";
  Req.Source = Src;
  Req.Budget.MaxWorkUnits = 20000;
  CompileResponse R = P->compileRequest(Req);
  EXPECT_EQ(R.Status, StatusCode::ResourceExhausted);
  EXPECT_NE(R.Error.find("work limit"), std::string::npos) << R.Error;
}

TEST(ResourceBombTest, MemoryBudgetTripsOnBomb) {
  std::string Src = bombSource("wide_coupled.c");
  ASSERT_FALSE(Src.empty());
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  CompileRequest Req;
  Req.Name = "wide_coupled.c";
  Req.Source = Src;
  Req.Budget.MaxMemoryBytes = 1ull << 20;
  CompileResponse R = P->compileRequest(Req);
  EXPECT_EQ(R.Status, StatusCode::ResourceExhausted);
  EXPECT_NE(R.Error.find("memory limit"), std::string::npos) << R.Error;
}

TEST(ResourceBombTest, BudgetCountsExhaustionInPassStats) {
  std::string Src = bombSource("deep_nest.c");
  ASSERT_FALSE(Src.empty());
  PassStats Stats;
  setActiveStats(&Stats);
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  CompileRequest Req;
  Req.Name = "deep_nest.c";
  Req.Source = Src;
  Req.Budget.MaxWorkUnits = 200000;
  CompileResponse R = P->compileRequest(Req);
  setActiveStats(nullptr);
  EXPECT_EQ(R.Status, StatusCode::ResourceExhausted);
  EXPECT_GE(Stats.get(Counter::BudgetExhausted), 1u);
}

// fm_rows_generated counts the FM row pairs actually formed: a step the
// budget stops early adds only its share, so the counter stays within the
// work budget and follows it.
TEST(ResourceBombTest, FmRowsGeneratedStaysWithinTheWorkBudget) {
  std::string Src = bombSource("deep_nest.c");
  ASSERT_FALSE(Src.empty());
  std::vector<uint64_t> Generated;
  for (uint64_t W : {100000ull, 1000000ull}) {
    PassStats Stats;
    setActiveStats(&Stats);
    auto P = Pipeline::create();
    ASSERT_TRUE(P.hasValue());
    CompileRequest Req;
    Req.Name = "deep_nest.c";
    Req.Source = Src;
    Req.Budget.MaxWorkUnits = W;
    CompileResponse R = P->compileRequest(Req);
    setActiveStats(nullptr);
    EXPECT_EQ(R.Status, StatusCode::ResourceExhausted) << W;
    EXPECT_LE(Stats.get(Counter::FmRowsGenerated), W);
    Generated.push_back(Stats.get(Counter::FmRowsGenerated));
  }
  EXPECT_NE(Generated[0], Generated[1]);
}

// A wall budget ends the compile soon after its deadline. Fourier-Motzkin
// charges its row pairs in chunks, so the deadline is seen within a few
// hundred pairs, and no further Farkas system is built once it is; what is
// left is freeing the elimination's int64 rows. Sanitizer builds run too
// slowly for a time bound.
TEST(ResourceBombTest, WallBudgetReturnsSoonAfterTheDeadline) {
  std::string Src = bombSource("deep_nest.c");
  ASSERT_FALSE(Src.empty());
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  CompileRequest Req;
  Req.Name = "deep_nest.c";
  Req.Source = Src;
  Req.Budget.WallMs = 500;
  auto T0 = std::chrono::steady_clock::now();
  CompileResponse R = P->compileRequest(Req);
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_EQ(R.Status, StatusCode::ResourceExhausted);
  EXPECT_NE(R.Error.find("wall-clock"), std::string::npos) << R.Error;
  EXPECT_GE(Ms, 500);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // 500 ms plus a quarter: this test's overshoot measured 36-42 ms, and
  // 170-190 ms when the budget was charged once per lower row.
  EXPECT_LE(Ms, 625);
#endif
}

TEST(ResourceBombTest, GenerousBudgetNeverChangesTheOutput) {
  auto P1 = Pipeline::create();
  ASSERT_TRUE(P1.hasValue());
  CompileRequest Plain;
  Plain.Name = "matmul.c";
  Plain.Source = MatMul;
  CompileResponse R1 = P1->compileRequest(Plain);
  ASSERT_EQ(R1.Status, StatusCode::Ok);

  auto P2 = Pipeline::create();
  ASSERT_TRUE(P2.hasValue());
  CompileRequest Budgeted = Plain;
  Budgeted.Budget.MaxWorkUnits = 50000000;
  Budgeted.Budget.MaxMemoryBytes = 1ull << 30;
  Budgeted.Budget.WallMs = 600000;
  CompileResponse R2 = P2->compileRequest(Budgeted);
  ASSERT_EQ(R2.Status, StatusCode::Ok);
  // Budgets never perturb what a successful compile emits, and never
  // enter the cache key.
  EXPECT_EQ(R1.EmittedC, R2.EmittedC);
  EXPECT_EQ(R1.Key, R2.Key);
}

//===----------------------------------------------------------------------===//
// bigint.alloc: arbitrary-precision blowup surfaces as bad_alloc
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectorTest, BigIntAllocFaultThrowsBadAlloc) {
  BigInt Big(1LL << 62);
  ASSERT_TRUE(FaultInjector::arm("bigint.alloc:1"));
  // 2^124 needs real limbs; the armed site turns that materialization
  // into the bad_alloc a genuine allocation failure would raise (Pipeline
  // classifies it as resource-exhausted at the stage boundary).
  EXPECT_THROW(Big * Big, std::bad_alloc);
  EXPECT_GE(FaultInjector::hits("bigint.alloc"), 1u);
  FaultInjector::disarm();
  BigInt Product = Big * Big; // and cleanly again once disarmed
  EXPECT_EQ(Product.toString(), "21267647932558653966460912964485513216");
}

//===----------------------------------------------------------------------===//
// Degraded modes: disk-cache write path, JIT retry-once
//===----------------------------------------------------------------------===//

TEST_F(DegradedModeTest, DiskWriteFailuresDegradeToMemoryOnly) {
  std::string Dir = tempDir("_degrade");
  fs::remove_all(Dir);
  PassStats Stats;
  setActiveStats(&Stats);
  {
    ResultCache::Config C;
    C.DiskDir = Dir;
    ResultCache Cache(C);
    ASSERT_TRUE(Cache.diskEnabled());
    ASSERT_TRUE(FaultInjector::arm("cache.disk_write:*"));
    for (unsigned I = 0; I < ResultCache::MaxDiskWriteErrors; ++I)
      Cache.insert("key" + std::to_string(I), "value");
    EXPECT_TRUE(Cache.diskWritesDisabled());
    EXPECT_EQ(Cache.snapshot().WriteErrors, ResultCache::MaxDiskWriteErrors);
    // Once off, inserts skip the disk entirely: no new errors accrue and
    // the memory tier keeps serving.
    Cache.insert("late", "value");
    EXPECT_EQ(Cache.snapshot().WriteErrors, ResultCache::MaxDiskWriteErrors);
    auto V = Cache.lookup("late");
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, "value");
  }
  setActiveStats(nullptr);
  EXPECT_EQ(Stats.get(Counter::CacheWriteErrors),
            ResultCache::MaxDiskWriteErrors);
  fs::remove_all(Dir);
}

TEST_F(DegradedModeTest, DiskReadFaultIsJustAMiss) {
  std::string Dir = tempDir("_readfault");
  fs::remove_all(Dir);
  {
    ResultCache::Config C;
    C.DiskDir = Dir;
    ResultCache Writer(C);
    ASSERT_TRUE(Writer.diskEnabled());
    Writer.insert("persisted", "payload");
  }
  ResultCache::Config C;
  C.DiskDir = Dir;
  ResultCache Reader(C); // fresh memory tier; "persisted" is disk-only
  ASSERT_TRUE(FaultInjector::arm("cache.disk_read:*"));
  EXPECT_FALSE(Reader.lookup("persisted").has_value());
  FaultInjector::disarm();
  auto V = Reader.lookup("persisted");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, "payload");
  fs::remove_all(Dir);
}

TEST_F(DegradedModeTest, JitRetriesOnceAfterTransientFailure) {
  if (!CompiledKernel::compilerAvailable())
    GTEST_SKIP() << "no C compiler on this host";
  PassStats Stats;
  setActiveStats(&Stats);
  ASSERT_TRUE(FaultInjector::arm("jit.compile:1"));
  auto K = CompiledKernel::compile(
      "void kernel_entry(double **a, const long long *p, const double *c)"
      " { (void)a; (void)p; (void)c; }\n");
  setActiveStats(nullptr);
  EXPECT_EQ(FaultInjector::hits("jit.compile"), 2u); // failed, then retried
  ASSERT_TRUE(K.hasValue()) << K.error();
  EXPECT_TRUE(K->valid());
  EXPECT_EQ(Stats.get(Counter::JitRetries), 1u);
}

//===----------------------------------------------------------------------===//
// Wire protocol: budget fields ride the request envelope
//===----------------------------------------------------------------------===//

TEST(ProtocolBudgetTest, BudgetFieldsRoundTrip) {
  WireRequest R;
  R.Operation = Op::Compile;
  R.Id = "7";
  R.Req.Name = "k.c";
  R.Req.Source = MatMul;
  R.Req.Budget.WallMs = 1500;
  R.Req.Budget.MaxMemoryBytes = 64ull << 20;
  R.Req.Budget.MaxWorkUnits = 777;
  std::string Line = encodeRequest(R);
  EXPECT_NE(Line.find("timeout_ms"), std::string::npos);
  EXPECT_NE(Line.find("max_memory_mb"), std::string::npos);
  EXPECT_NE(Line.find("max_work"), std::string::npos);
  auto Back = decodeRequest(Line);
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_EQ(Back->Req.Budget.WallMs, 1500u);
  EXPECT_EQ(Back->Req.Budget.MaxMemoryBytes, 64ull << 20);
  EXPECT_EQ(Back->Req.Budget.MaxWorkUnits, 777u);
}

TEST(ProtocolBudgetTest, UnlimitedBudgetStaysOffTheWire) {
  WireRequest R;
  R.Operation = Op::Compile;
  R.Req.Name = "k.c";
  R.Req.Source = MatMul;
  std::string Line = encodeRequest(R);
  // Budgets are not options: an unbudgeted request encodes no budget
  // members at all (old daemons and fingerprints never see them).
  EXPECT_EQ(Line.find("timeout_ms"), std::string::npos);
  EXPECT_EQ(Line.find("max_memory_mb"), std::string::npos);
  EXPECT_EQ(Line.find("max_work"), std::string::npos);
  auto Back = decodeRequest(Line);
  ASSERT_TRUE(Back.hasValue()) << Back.error();
  EXPECT_TRUE(Back->Req.Budget.unlimited());
}

TEST(ProtocolBudgetTest, RejectsNegativeBudgetValues) {
  WireRequest R;
  R.Operation = Op::Compile;
  R.Req.Name = "k.c";
  R.Req.Source = "for (i = 0; i < N; i++) a[i] = 0;";
  std::string Line = encodeRequest(R);
  ASSERT_GT(Line.size(), 1u);
  std::string Bad = Line.substr(0, Line.size() - 1) + ",\"timeout_ms\":-5}";
  EXPECT_FALSE(decodeRequest(Bad).hasValue());
}

//===----------------------------------------------------------------------===//
// SandboxWorker: forked compile workers and every recovery path
//===----------------------------------------------------------------------===//

CompileRequest sandboxRequest(const std::string &Name,
                              const std::string &Source) {
  CompileRequest Req;
  Req.Name = Name;
  Req.Source = Source;
  return Req;
}

TEST_F(SandboxTest, CompilesAndReusesOneChild) {
  SandboxWorker W;
  bool Died = false;
  CompileResponse R = W.compile(sandboxRequest("mm.c", MatMul), &Died);
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.Error;
  EXPECT_FALSE(Died);
  EXPECT_FALSE(R.EmittedC.empty());
  pid_t First = W.childPid();
  EXPECT_GT(First, 0);
  // A second job reuses the same warm child; no respawn happened.
  R = W.compile(sandboxRequest("mm2.c", std::string(MatMul) + "\n"));
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.Error;
  EXPECT_EQ(W.childPid(), First);
  EXPECT_EQ(W.restarts(), 0u);
}

TEST_F(SandboxTest, CrashClassifiedInternalThenRespawns) {
  ASSERT_TRUE(FaultInjector::arm("sandbox.abort:1"));
  SandboxWorker W;
  bool Died = false;
  CompileResponse R = W.compile(sandboxRequest("mm.c", MatMul), &Died);
  EXPECT_EQ(R.Status, StatusCode::Internal);
  EXPECT_TRUE(Died); // this request killed the child: breaker material
  EXPECT_NE(R.Error.find("signal"), std::string::npos) << R.Error;
  FaultInjector::disarm(); // the respawned child forks disarmed
  R = W.compile(sandboxRequest("mm.c", MatMul), &Died);
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.Error;
  EXPECT_FALSE(Died);
  EXPECT_EQ(W.restarts(), 1u);
}

TEST_F(SandboxTest, SpawnFaultIsAStructuredError) {
  ASSERT_TRUE(FaultInjector::arm("sandbox.spawn:1"));
  SandboxWorker W;
  bool Died = false;
  CompileResponse R = W.compile(sandboxRequest("mm.c", MatMul), &Died);
  EXPECT_EQ(R.Status, StatusCode::Internal);
  EXPECT_FALSE(Died); // no child ever existed, so nothing "died"
  EXPECT_NE(R.Error.find("spawn"), std::string::npos) << R.Error;
  FaultInjector::disarm();
  R = W.compile(sandboxRequest("mm.c", MatMul));
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.Error;
}

TEST_F(SandboxTest, HangIsKilledByTheWatchdog) {
  ASSERT_TRUE(FaultInjector::arm("sandbox.hang:1"));
  SandboxWorker W;
  CompileRequest Req = sandboxRequest("mm.c", MatMul);
  Req.Budget.WallMs = 300;
  bool Died = false;
  auto T0 = std::chrono::steady_clock::now();
  CompileResponse R = W.compile(Req, &Died);
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_EQ(R.Status, StatusCode::ResourceExhausted);
  EXPECT_TRUE(Died);
  EXPECT_NE(R.Error.find("wall-clock"), std::string::npos) << R.Error;
  // Killed promptly after the deadline + grace, not after the hour the
  // child intended to sleep.
  EXPECT_LT(Ms, 10000);
}

TEST_F(SandboxTest, WallBudgetTripsInsideTheChild) {
  std::string Src = bombSource("deep_nest.c");
  ASSERT_FALSE(Src.empty());
  SandboxWorker W;
  CompileRequest Req = sandboxRequest("deep_nest.c", Src);
  Req.Budget.WallMs = 300;
  CompileResponse R = W.compile(Req);
  EXPECT_EQ(R.Status, StatusCode::ResourceExhausted);
  EXPECT_NE(R.Error.find("wall-clock"), std::string::npos) << R.Error;
}

TEST_F(SandboxTest, WorkBudgetRidesTheSandboxWire) {
  std::string Src = bombSource("wide_coupled.c");
  ASSERT_FALSE(Src.empty());
  SandboxWorker W;
  CompileRequest Req = sandboxRequest("wide_coupled.c", Src);
  Req.Budget.MaxWorkUnits = 20000;
  bool Died = false;
  CompileResponse R = W.compile(Req, &Died);
  EXPECT_EQ(R.Status, StatusCode::ResourceExhausted);
  EXPECT_FALSE(Died); // clean in-band trip, no kill involved
  EXPECT_NE(R.Error.find("work limit"), std::string::npos) << R.Error;
}

TEST_F(SandboxTest, ExternallyKilledChildIsReplacedTransparently) {
  SandboxWorker W;
  CompileResponse R = W.compile(sandboxRequest("mm.c", MatMul));
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.Error;
  pid_t Victim = W.childPid();
  ASSERT_GT(Victim, 0);
  ASSERT_EQ(kill(Victim, SIGKILL), 0);
  // Wait until the victim has exited, but leave it for the worker to reap:
  // a fixed sleep could end first under load, and the death would then be
  // taken for one during the next job.
  siginfo_t Info;
  ASSERT_EQ(waitid(P_PID, static_cast<id_t>(Victim), &Info,
                   WEXITED | WNOWAIT),
            0);
  // The next job notices the dead peer, respawns once and retries: the
  // caller sees a normal response (an idle-time kill is not the job's
  // fault, so it is not breaker material either).
  bool Died = false;
  R = W.compile(sandboxRequest("mm3.c", std::string(MatMul) + "\n\n"),
                &Died);
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.Error;
  EXPECT_FALSE(Died);
  EXPECT_EQ(W.restarts(), 1u);
  EXPECT_NE(W.childPid(), Victim);
}

//===----------------------------------------------------------------------===//
// Server --isolate integration: caching, breaker and metrics over a real
// socket (the unit above covers the worker; this covers the glue).
//===----------------------------------------------------------------------===//

std::string uniqueSocketPath() {
  static std::atomic<unsigned> Seq{0};
  return "/tmp/plutopp-robust-test-" + std::to_string(getpid()) + "-" +
         std::to_string(Seq.fetch_add(1)) + ".sock";
}

/// Minimal blocking NDJSON client over one AF_UNIX connection (the same
/// shape serve_test uses).
struct TestClient {
  int Fd = -1;
  std::string InBuf;

  ~TestClient() {
    if (Fd >= 0)
      close(Fd);
  }

  bool connectTo(const std::string &Path) {
    Fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
    return connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
           0;
  }

  bool sendLine(const std::string &Line) {
    std::string Data = Line + "\n";
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t W =
          send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(W);
    }
    return true;
  }

  bool readLine(std::string &Line, int TimeoutMs = 30000) {
    for (;;) {
      size_t Pos = InBuf.find('\n');
      if (Pos != std::string::npos) {
        Line = InBuf.substr(0, Pos);
        InBuf.erase(0, Pos + 1);
        return true;
      }
      pollfd P{Fd, POLLIN, 0};
      if (poll(&P, 1, TimeoutMs) <= 0)
        return false;
      char Buf[65536];
      ssize_t R = recv(Fd, Buf, sizeof(Buf), 0);
      if (R <= 0)
        return false;
      InBuf.append(Buf, static_cast<size_t>(R));
    }
  }

  /// Sends one request line and decodes the one response line.
  Result<WireResponse> roundTrip(const WireRequest &R) {
    if (!sendLine(encodeRequest(R)))
      return Err("send failed");
    std::string Line;
    if (!readLine(Line))
      return Err("no response line");
    return decodeResponse(Line);
  }
};

WireRequest isolateCompile(const std::string &Id, const std::string &Name,
                           const std::string &Source) {
  WireRequest R;
  R.Operation = Op::Compile;
  R.Id = Id;
  R.Req.Name = Name;
  R.Req.Source = Source;
  return R;
}

TEST_F(IsolateServerTest, CompilesAndCachesInTheParent) {
  ServerConfig Cfg;
  Cfg.SocketPath = uniqueSocketPath();
  Cfg.Workers = 1;
  Cfg.Isolate = true;
  auto S = Server::create(Cfg);
  ASSERT_TRUE(S.hasValue()) << S.error();
  (*S)->start();

  TestClient C;
  ASSERT_TRUE(C.connectTo(Cfg.SocketPath));
  auto R1 = C.roundTrip(isolateCompile("1", "mm.c", MatMul));
  ASSERT_TRUE(R1.hasValue()) << R1.error();
  ASSERT_EQ(R1->Status, StatusCode::Ok) << R1->Error;
  EXPECT_FALSE(R1->CacheHit);
  EXPECT_FALSE(R1->EmittedC.empty());
  // Keying and the cache live in the parent: the identical request is a
  // hit and never reaches a sandbox.
  auto R2 = C.roundTrip(isolateCompile("2", "mm.c", MatMul));
  ASSERT_TRUE(R2.hasValue()) << R2.error();
  ASSERT_EQ(R2->Status, StatusCode::Ok) << R2->Error;
  EXPECT_TRUE(R2->CacheHit);
  EXPECT_EQ(R2->EmittedC, R1->EmittedC);
  (*S)->drain();
  Server::Stats St = (*S)->stats();
  EXPECT_EQ(St.RequestsAccepted, St.RequestsCompleted);
}

TEST_F(IsolateServerTest, CrashTripsTheCircuitBreaker) {
  ServerConfig Cfg;
  Cfg.SocketPath = uniqueSocketPath();
  Cfg.Workers = 1;
  Cfg.Isolate = true;
  Cfg.BreakerTtlMs = 60000;
  auto S = Server::create(Cfg);
  ASSERT_TRUE(S.hasValue()) << S.error();
  (*S)->start();

  TestClient C;
  ASSERT_TRUE(C.connectTo(Cfg.SocketPath));

  // Armed before the worker's first fork, so the child inherits the spec
  // and aborts on its first compile.
  ASSERT_TRUE(FaultInjector::arm("sandbox.abort:1"));
  auto R1 = C.roundTrip(isolateCompile("1", "poison.c", MatMul));
  ASSERT_TRUE(R1.hasValue()) << R1.error();
  EXPECT_EQ(R1->Status, StatusCode::Internal);
  EXPECT_NE(R1->Error.find("signal"), std::string::npos) << R1->Error;

  // The same cache key again: refused by the breaker without spending
  // another sandbox child on it.
  auto R2 = C.roundTrip(isolateCompile("2", "poison.c", MatMul));
  ASSERT_TRUE(R2.hasValue()) << R2.error();
  EXPECT_EQ(R2->Status, StatusCode::Internal);
  EXPECT_NE(R2->Error.find("circuit breaker"), std::string::npos)
      << R2->Error;

  // A different input after disarming compiles fine on a fresh child.
  // (Genuinely different: source canonicalization trims outer blank
  // lines, so a trailing "\n" would map to the poisoned cache key.)
  FaultInjector::disarm();
  auto R3 = C.roundTrip(isolateCompile(
      "3", "ok.c",
      "for (i = 0; i <= N - 1; i++)\n"
      "  for (j = 0; j <= N - 1; j++)\n"
      "    D[i][j] = D[i][j] + A[i][j];\n"));
  ASSERT_TRUE(R3.hasValue()) << R3.error();
  EXPECT_EQ(R3->Status, StatusCode::Ok) << R3->Error;

  WireRequest M;
  M.Operation = Op::Metrics;
  M.Id = "4";
  auto R4 = C.roundTrip(M);
  ASSERT_TRUE(R4.hasValue()) << R4.error();
  ASSERT_EQ(R4->Status, StatusCode::Ok);
  EXPECT_NE(R4->MetricsJson.find("\"breaker_hits\":1"), std::string::npos)
      << R4->MetricsJson;
  EXPECT_NE(R4->MetricsJson.find("\"sandbox_restarts\":1"),
            std::string::npos)
      << R4->MetricsJson;

  (*S)->drain();
  Server::Stats St = (*S)->stats();
  EXPECT_EQ(St.RequestsAccepted, St.RequestsCompleted);
  EXPECT_EQ(St.BreakerHits, 1u);
  EXPECT_EQ(St.SandboxRestarts, 1u);
}

} // namespace
