//===- tests/service_test.cpp - Compilation service layer tests -----------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Covers the src/service stack: PlutoOptions validation/equality/
// fingerprinting, the SHA-256 content hash, the result cache (LRU byte
// budget, disk persistence, single-flight dedup), Pipeline sessions
// (staged artifacts, reuse, cache keys) and the concurrent batch driver -
// including the determinism contract that cached and cold compiles of
// every examples/*.c kernel are byte-identical, and the golden digests
// that pin the emitted C of a fixed corpus across commits.
//
//===----------------------------------------------------------------------===//

#include "driver/Kernels.h"
#include "service/Batch.h"
#include "service/Hash.h"
#include "service/Pipeline.h"
#include "service/ResultCache.h"
#include "service/Version.h"
#include "support/StressGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

#ifndef PLUTOPP_EXAMPLES_DIR
#error "PLUTOPP_EXAMPLES_DIR must be defined by the build"
#endif
#ifndef PLUTOPP_GOLDEN_DIR
#error "PLUTOPP_GOLDEN_DIR must be defined by the build"
#endif

using namespace pluto;
namespace fs = std::filesystem;

namespace {

const char *MatMul = "for (i = 0; i <= N - 1; i++)\n"
                     "  for (j = 0; j <= N - 1; j++)\n"
                     "    for (k = 0; k <= N - 1; k++)\n"
                     "      C[i][j] = C[i][j] + A[i][k] * B[k][j];\n";

const char *Jacobi = "for (t = 0; t <= T - 1; t++)\n"
                     "  for (i = 1; i <= N - 2; i++)\n"
                     "    b[i] = 0.333 * (a[i - 1] + a[i] + a[i + 1]);\n";

std::string tempDir(const std::string &Suffix) {
  const char *Tmp = std::getenv("TMPDIR");
  std::string Dir = (Tmp && *Tmp) ? Tmp : "/tmp";
  return Dir + "/plutopp_service_test_" + std::to_string(getpid()) + Suffix;
}

std::vector<fs::path> exampleKernels() {
  std::vector<fs::path> Out;
  for (const auto &E : fs::directory_iterator(PLUTOPP_EXAMPLES_DIR))
    if (E.path().extension() == ".c")
      Out.push_back(E.path());
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

//===----------------------------------------------------------------------===//
// PlutoOptions: validate / equality / fingerprint
//===----------------------------------------------------------------------===//

TEST(OptionsTest, DefaultsValidate) {
  EXPECT_TRUE(PlutoOptions().validate().hasValue());
}

TEST(OptionsTest, RejectsDegenerateValues) {
  {
    PlutoOptions O;
    O.TileSize = 0;
    auto V = O.validate();
    ASSERT_FALSE(V.hasValue());
    EXPECT_NE(V.error().find("tile size"), std::string::npos);
  }
  {
    PlutoOptions O;
    O.L2TileSize = 0;
    EXPECT_FALSE(O.validate().hasValue());
  }
  {
    PlutoOptions O;
    O.WavefrontDegrees = 0;
    EXPECT_FALSE(O.validate().hasValue());
  }
  {
    PlutoOptions O;
    O.ParamMin = -1;
    EXPECT_FALSE(O.validate().hasValue());
  }
}

// The library-level regression for the tile-size-zero bug: a zero must be
// rejected before supernode construction, through every entry point.
TEST(OptionsTest, ZeroTileSizeFailsFastThroughEveryEntryPoint) {
  PlutoOptions O;
  O.TileSize = 0;
  EXPECT_FALSE(Pipeline::create(O).hasValue());
  EXPECT_FALSE(optimizeSource(MatMul, O).hasValue());
  auto B = compileBatch({{"m", MatMul}}, O);
  EXPECT_FALSE(B.hasValue());
}

TEST(OptionsTest, EqualityIsFieldWise) {
  PlutoOptions A, B;
  EXPECT_TRUE(A == B);
  B.TileSize = 16;
  EXPECT_TRUE(A != B);
  B = A;
  B.CG.ParallelPragmaRows.insert(2);
  EXPECT_TRUE(A != B);
}

TEST(OptionsTest, FingerprintIsSensitiveToEveryField) {
  const PlutoOptions Base;
  std::vector<PlutoOptions> Variants(13, Base);
  Variants[0].Tile = false;
  Variants[1].TileSize = 16;
  Variants[2].SecondLevelTile = true;
  // L2TileSize only matters under SecondLevelTile (alone it is normalized
  // away; see FingerprintNormalizesIgnoredFields below).
  Variants[3].SecondLevelTile = true;
  Variants[3].L2TileSize = 4;
  Variants[4].Parallelize = false;
  Variants[5].WavefrontDegrees = 2;
  Variants[6].Vectorize = false;
  Variants[7].IncludeInputDeps = false;
  Variants[8].ParamMin = 8;
  Variants[9].CG.MaxPieces = 12;
  Variants[10].CG.EnableSeparation = false;
  Variants[11].CG.ParallelPragmaRows.insert(1);
  Variants[12].FastSchedule = false;

  std::set<std::string> Fps;
  Fps.insert(Base.fingerprint());
  for (const PlutoOptions &V : Variants) {
    EXPECT_TRUE(V != Base);
    Fps.insert(V.fingerprint());
  }
  // Base + every single-field variant are pairwise distinct.
  EXPECT_EQ(Fps.size(), Variants.size() + 1);
  // Equal options, equal fingerprint; fingerprints are deterministic.
  PlutoOptions Copy = Base;
  EXPECT_EQ(Copy.fingerprint(), Base.fingerprint());
}

// The fingerprint-aliasing bugfix: fields the pipeline ignores under the
// current toggles (a wavefront degree without parallelism, tile sizes on
// an untiled run) must not split the fingerprint - such option sets cannot
// produce different output and must share one cache entry.
TEST(OptionsTest, FingerprintNormalizesIgnoredFields) {
  // Wavefront degree is meaningless without parallelization.
  PlutoOptions A, B;
  A.Parallelize = B.Parallelize = false;
  A.WavefrontDegrees = 1;
  B.WavefrontDegrees = 3;
  EXPECT_TRUE(A != B); // equality stays field-wise...
  EXPECT_EQ(A.fingerprint(), B.fingerprint()); // ...fingerprint looks through

  // Tile sizes (both levels) are meaningless on an untiled run.
  PlutoOptions C, D;
  C.Tile = D.Tile = false;
  C.TileSize = 16;
  D.TileSize = 64;
  D.SecondLevelTile = true;
  D.L2TileSize = 4;
  EXPECT_EQ(C.fingerprint(), D.fingerprint());

  // The L2 multiplier is meaningless without second-level tiling.
  PlutoOptions E, F;
  E.L2TileSize = 4;
  F.L2TileSize = 16;
  EXPECT_EQ(E.SecondLevelTile, false);
  EXPECT_EQ(E.fingerprint(), F.fingerprint());

  // But the same fields DO split the fingerprint once their toggle is on.
  PlutoOptions G = E, H = F;
  G.SecondLevelTile = H.SecondLevelTile = true;
  EXPECT_NE(G.fingerprint(), H.fingerprint());

  // normalized() is idempotent and is what fingerprint() hashes.
  EXPECT_EQ(A.normalized().fingerprint(), A.fingerprint());
  EXPECT_TRUE(A.normalized() == A.normalized().normalized());
}

//===----------------------------------------------------------------------===//
// SHA-256
//===----------------------------------------------------------------------===//

TEST(HashTest, Fips180Vectors) {
  EXPECT_EQ(
      sha256Hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256Hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(HashTest, IncrementalMatchesOneShot) {
  std::string S(1000, 'x');
  for (size_t I = 0; I < S.size(); ++I)
    S[I] = static_cast<char>('a' + I % 26);
  Sha256 H;
  for (size_t I = 0; I < S.size(); I += 37)
    H.update(S.substr(I, 37));
  EXPECT_EQ(H.hexDigest(), sha256Hex(S));
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

TEST(ResultCacheTest, HitMissAndLruEvictionUnderByteBudget) {
  ResultCache::Config C;
  C.MaxBytes = 3 * (1 + 10); // three 1-byte keys with 10-byte values
  ResultCache Cache(C);

  EXPECT_FALSE(Cache.lookup("a").has_value());
  Cache.insert("a", std::string(10, 'A'));
  Cache.insert("b", std::string(10, 'B'));
  Cache.insert("c", std::string(10, 'C'));
  EXPECT_EQ(Cache.snapshot().Entries, 3u);
  EXPECT_EQ(Cache.snapshot().Evictions, 0u);

  // Touch "a" so "b" becomes least recently used, then overflow.
  EXPECT_TRUE(Cache.lookup("a").has_value());
  Cache.insert("d", std::string(10, 'D'));
  auto S = Cache.snapshot();
  EXPECT_EQ(S.Entries, 3u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_FALSE(Cache.lookup("b").has_value()); // the LRU victim
  EXPECT_TRUE(Cache.lookup("a").has_value());
  EXPECT_TRUE(Cache.lookup("c").has_value());
  EXPECT_TRUE(Cache.lookup("d").has_value());
  EXPECT_LE(Cache.snapshot().Bytes, C.MaxBytes);
}

TEST(ResultCacheTest, OversizedValueIsNotMemoryResident) {
  ResultCache::Config C;
  C.MaxBytes = 8;
  ResultCache Cache(C);
  Cache.insert("k", std::string(100, 'V'));
  auto S = Cache.snapshot();
  EXPECT_EQ(S.Entries, 0u); // evicted itself immediately
  EXPECT_EQ(S.Evictions, 1u);
}

TEST(ResultCacheTest, DiskTierPersistsAcrossInstances) {
  std::string Dir = tempDir("_disk");
  {
    ResultCache::Config C;
    C.DiskDir = Dir;
    ResultCache Cache(C);
    ASSERT_TRUE(Cache.diskEnabled());
    Cache.insert("deadbeef", "emitted unit\n");
  }
  // The on-disk layout is versioned (DESIGN.md section 9).
  EXPECT_TRUE(fs::exists(fs::path(Dir) / "v1" / "deadbeef.c"));
  {
    ResultCache::Config C;
    C.DiskDir = Dir;
    ResultCache Cache(C); // fresh memory tier
    auto V = Cache.lookup("deadbeef");
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, "emitted unit\n");
    EXPECT_EQ(Cache.snapshot().DiskHits, 1u);
    // Promoted: the second lookup is a memory hit.
    Cache.lookup("deadbeef");
    EXPECT_EQ(Cache.snapshot().Hits, 1u);
  }
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}

TEST(ResultCacheTest, SingleFlightComputesOncePerKey) {
  ResultCache Cache;
  std::atomic<unsigned> Computes{0};
  auto Slow = [&]() -> Result<std::string> {
    Computes.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return std::string("value");
  };
  std::vector<std::thread> Ts;
  std::atomic<unsigned> Successes{0};
  for (int I = 0; I < 4; ++I)
    Ts.emplace_back([&] {
      auto R = Cache.getOrCompute("key", Slow);
      if (R.hasValue() && *R == "value")
        Successes.fetch_add(1);
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Computes.load(), 1u);
  EXPECT_EQ(Successes.load(), 4u);
  // Latecomers coalesced onto the leader's flight (or, if the leader
  // finished first, hit the cache); either way no recompute happened.
  auto S = Cache.snapshot();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Coalesced + S.Hits, 3u);
}

TEST(ResultCacheTest, FailedComputeIsNotCachedAndSharedWithWaiters) {
  ResultCache Cache;
  auto Fail = [&]() -> Result<std::string> { return Err("boom"); };
  auto R1 = Cache.getOrCompute("k", Fail);
  ASSERT_FALSE(R1.hasValue());
  EXPECT_EQ(R1.error(), "boom");
  // Not cached: the next call recomputes (and can succeed).
  auto R2 = Cache.getOrCompute("k", []() -> Result<std::string> {
    return std::string("ok");
  });
  ASSERT_TRUE(R2.hasValue());
  EXPECT_EQ(*R2, "ok");
}

//===----------------------------------------------------------------------===//
// Pipeline sessions
//===----------------------------------------------------------------------===//

TEST(PipelineTest, StagedArtifactsAreMemoizedAndReused) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  P->setSource(MatMul);

  auto Parsed = P->parsed();
  ASSERT_TRUE(Parsed.hasValue());
  const ParsedProgram *FirstParsed = *Parsed;
  EXPECT_EQ(FirstParsed->Prog.Stmts.size(), 1u);

  auto Low = P->lowered();
  ASSERT_TRUE(Low.hasValue());
  // The early artifact is still the same object after late stages ran.
  auto Parsed2 = P->parsed();
  ASSERT_TRUE(Parsed2.hasValue());
  EXPECT_EQ(*Parsed2, FirstParsed);

  auto Em = P->emitted();
  ASSERT_TRUE(Em.hasValue());
  EXPECT_NE((*Em)->find("#pragma omp parallel for"), std::string::npos);

  // setSource invalidates the session.
  P->setSource(Jacobi);
  auto Parsed3 = P->parsed();
  ASSERT_TRUE(Parsed3.hasValue());
  EXPECT_EQ((*Parsed3)->Prog.Stmts.size(), 1u);
}

TEST(PipelineTest, MatchesOneShotShim) {
  PlutoOptions Opts;
  auto P = Pipeline::create(Opts);
  ASSERT_TRUE(P.hasValue());
  P->setSource(MatMul);
  auto Staged = P->takeLowered();
  ASSERT_TRUE(Staged.hasValue());

  auto OneShot = optimizeSource(MatMul, Opts);
  ASSERT_TRUE(OneShot.hasValue());
  EXPECT_EQ(Staged->Sched.toString(Staged->program()),
            OneShot->Sched.toString(OneShot->program()));
}

TEST(PipelineTest, CacheKeyCanonicalizesWhitespaceButNotSemantics) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  std::string Base = P->cacheKey(MatMul);
  EXPECT_EQ(Base.size(), 64u);

  // CRLF line endings, trailing spaces, outer blank lines: same key.
  std::string Cosmetic;
  for (char C : std::string(MatMul))
    Cosmetic += (C == '\n') ? std::string("  \r\n") : std::string(1, C);
  EXPECT_EQ(P->cacheKey("\n\n" + Cosmetic + "\n\n"), Base);

  // A semantic change: different key.
  std::string Other = MatMul;
  Other[Other.find("N - 1")] = 'M';
  EXPECT_NE(P->cacheKey(Other), Base);

  // Different options: different key for the same source.
  PlutoOptions O2;
  O2.TileSize = 16;
  auto P2 = Pipeline::create(O2);
  ASSERT_TRUE(P2.hasValue());
  EXPECT_NE(P2->cacheKey(MatMul), Base);
}

TEST(PipelineTest, CompileHitsCacheOnSecondCall) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  auto Cache = std::make_shared<ResultCache>();
  P->attachCache(Cache);

  auto Cold = P->compile(MatMul);
  ASSERT_TRUE(Cold.hasValue());
  EXPECT_FALSE(Cold->CacheHit);

  auto WarmRes = P->compile(MatMul);
  ASSERT_TRUE(WarmRes.hasValue());
  EXPECT_TRUE(WarmRes->CacheHit);
  EXPECT_EQ(WarmRes->Key, Cold->Key);
  EXPECT_EQ(WarmRes->EmittedC, Cold->EmittedC);
  EXPECT_EQ(Cache->snapshot().Hits, 1u);
}

TEST(PipelineTest, ParseErrorsPropagateAndAreNotCached) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  auto Cache = std::make_shared<ResultCache>();
  P->attachCache(Cache);
  auto R = P->compile("while (1) { a[i] = 0.0; }\n");
  EXPECT_FALSE(R.hasValue());
  EXPECT_EQ(Cache->snapshot().Entries, 0u);
}

// The acceptance-criteria determinism sweep: for every examples/*.c
// kernel, a cold compile, a second cold compile (fresh session), and a
// cache-served compile must all emit byte-identical C.
TEST(PipelineTest, ColdAndCachedCompilesAreByteIdenticalForAllExamples) {
  auto Kernels = exampleKernels();
  ASSERT_FALSE(Kernels.empty());
  auto Cache = std::make_shared<ResultCache>();
  for (const fs::path &K : Kernels) {
    std::string Src = readFile(K);

    auto P1 = Pipeline::create();
    ASSERT_TRUE(P1.hasValue());
    auto Cold1 = P1->compile(Src);
    ASSERT_TRUE(Cold1.hasValue()) << K << ": " << Cold1.error();

    auto P2 = Pipeline::create();
    ASSERT_TRUE(P2.hasValue());
    auto Cold2 = P2->compile(Src);
    ASSERT_TRUE(Cold2.hasValue());
    EXPECT_EQ(Cold1->EmittedC, Cold2->EmittedC) << K;

    auto P3 = Pipeline::create();
    ASSERT_TRUE(P3.hasValue());
    P3->attachCache(Cache);
    auto Seed = P3->compile(Src); // populates
    ASSERT_TRUE(Seed.hasValue());
    auto Warm = P3->compile(Src); // served
    ASSERT_TRUE(Warm.hasValue());
    EXPECT_TRUE(Warm->CacheHit) << K;
    EXPECT_EQ(Warm->EmittedC, Cold1->EmittedC) << K;
  }
}

//===----------------------------------------------------------------------===//
// compileBatch
//===----------------------------------------------------------------------===//

TEST(BatchTest, DeterministicOrderingAndFailureIsolation) {
  std::vector<CompileJob> Jobs = {
      {"matmul", MatMul},
      {"bad", "while (1) { a[i] = 0.0; }\n"},
      {"jacobi", Jacobi},
      {"matmul-again", MatMul},
  };
  auto R = compileBatch(Jobs, PlutoOptions(), BatchOptions());
  ASSERT_TRUE(R.hasValue());
  ASSERT_EQ(R->size(), 4u);
  ASSERT_TRUE((*R)[0].hasValue());
  EXPECT_FALSE((*R)[1].hasValue()); // only the bad job fails
  ASSERT_TRUE((*R)[2].hasValue());
  ASSERT_TRUE((*R)[3].hasValue());
  // Identical jobs dedup onto one compile: same key, same bytes.
  EXPECT_EQ((*R)[0]->Key, (*R)[3]->Key);
  EXPECT_EQ((*R)[0]->EmittedC, (*R)[3]->EmittedC);
  EXPECT_NE((*R)[0]->Key, (*R)[2]->Key);
}

TEST(BatchTest, ConcurrentMatchesSerialByteForByte) {
  auto Kernels = exampleKernels();
  ASSERT_FALSE(Kernels.empty());
  std::vector<CompileJob> Jobs;
  for (const fs::path &K : Kernels)
    Jobs.push_back({K.filename().string(), readFile(K)});

  BatchOptions Serial;
  Serial.Jobs = 1;
  auto RS = compileBatch(Jobs, PlutoOptions(), Serial);
  ASSERT_TRUE(RS.hasValue());

  BatchOptions Par;
  Par.Jobs = 4;
  auto RP = compileBatch(Jobs, PlutoOptions(), Par);
  ASSERT_TRUE(RP.hasValue());

  ASSERT_EQ(RS->size(), RP->size());
  for (size_t I = 0; I < RS->size(); ++I) {
    ASSERT_TRUE((*RS)[I].hasValue()) << Jobs[I].Name;
    ASSERT_TRUE((*RP)[I].hasValue()) << Jobs[I].Name;
    EXPECT_EQ((*RS)[I]->EmittedC, (*RP)[I]->EmittedC) << Jobs[I].Name;
  }
}

TEST(BatchTest, SharedCacheMakesSecondBatchAllHits) {
  auto Kernels = exampleKernels();
  std::vector<CompileJob> Jobs;
  for (const fs::path &K : Kernels)
    Jobs.push_back({K.filename().string(), readFile(K)});

  BatchOptions BO;
  BO.Jobs = 2;
  BO.Cache = std::make_shared<ResultCache>();
  auto Cold = compileBatch(Jobs, PlutoOptions(), BO);
  ASSERT_TRUE(Cold.hasValue());
  auto Warm = compileBatch(Jobs, PlutoOptions(), BO);
  ASSERT_TRUE(Warm.hasValue());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    ASSERT_TRUE((*Warm)[I].hasValue());
    EXPECT_TRUE((*Warm)[I]->CacheHit) << Jobs[I].Name;
    EXPECT_EQ((*Warm)[I]->EmittedC, (*Cold)[I]->EmittedC);
  }
}

// The warm-vs-cold acceptance criterion at API level: serving the corpus
// from the cache must be at least 10x faster than compiling it.
TEST(BatchTest, WarmCacheIsAtLeastTenTimesFasterThanCold) {
  auto Kernels = exampleKernels();
  std::vector<CompileJob> Jobs;
  for (const fs::path &K : Kernels)
    Jobs.push_back({K.filename().string(), readFile(K)});

  BatchOptions BO;
  BO.Cache = std::make_shared<ResultCache>();
  auto T0 = std::chrono::steady_clock::now();
  auto Cold = compileBatch(Jobs, PlutoOptions(), BO);
  auto T1 = std::chrono::steady_clock::now();
  ASSERT_TRUE(Cold.hasValue());

  // Best warm run of three, to be robust against scheduler noise.
  double WarmBest = 1e9;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto W0 = std::chrono::steady_clock::now();
    auto Warm = compileBatch(Jobs, PlutoOptions(), BO);
    auto W1 = std::chrono::steady_clock::now();
    ASSERT_TRUE(Warm.hasValue());
    for (const auto &R : *Warm)
      ASSERT_TRUE(R.hasValue() && R->CacheHit);
    WarmBest =
        std::min(WarmBest, std::chrono::duration<double>(W1 - W0).count());
  }
  double ColdSecs = std::chrono::duration<double>(T1 - T0).count();
  EXPECT_GE(ColdSecs, WarmBest * 10.0)
      << "cold " << ColdSecs << "s vs warm " << WarmBest << "s";
}

//===----------------------------------------------------------------------===//
// CompileRequest/CompileResponse: the StatusCode-taxonomy API surface
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, PipelineCompileRequestReportsOkThenCacheHit) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  auto Cache = std::make_shared<ResultCache>();
  P->attachCache(Cache);

  CompileRequest Req;
  Req.Name = "matmul";
  Req.Source = MatMul;
  CompileResponse R = P->compileRequest(Req);
  ASSERT_EQ(R.Status, StatusCode::Ok);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.exitCode(), 0);
  EXPECT_EQ(R.Name, "matmul");
  EXPECT_EQ(R.Key.size(), 64u);
  EXPECT_FALSE(R.CacheHit);
  EXPECT_NE(R.EmittedC.find("#pragma"), std::string::npos);
  EXPECT_TRUE(R.Error.empty());
  EXPECT_TRUE(R.Diags.empty());

  CompileResponse Again = P->compileRequest(Req);
  ASSERT_EQ(Again.Status, StatusCode::Ok);
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(Again.Key, R.Key);
  EXPECT_EQ(Again.EmittedC, R.EmittedC);
}

TEST(CompileServiceTest, SourceErrorsCarryStructuredDiagnostics) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  CompileRequest Req;
  Req.Name = "broken";
  Req.Source = "for (i = 0; i < N; i++ {\n  a[i] = 0;\n}\n";
  CompileResponse R = P->compileRequest(Req);
  ASSERT_EQ(R.Status, StatusCode::SourceError);
  EXPECT_EQ(R.exitCode(), 2);
  EXPECT_FALSE(R.Error.empty());
  ASSERT_FALSE(R.Diags.empty());
  // Spans are 1-based and must point into the source, not be placeholders.
  for (const Diagnostic &D : R.Diags) {
    EXPECT_GE(D.Line, 1u);
    EXPECT_GE(D.Col, 1u);
    EXPECT_FALSE(D.Message.empty());
  }
}

TEST(CompileServiceTest, SessionOptionMismatchIsBadRequest) {
  PlutoOptions SessionOpts;
  auto P = Pipeline::create(SessionOpts);
  ASSERT_TRUE(P.hasValue());
  CompileRequest Req;
  Req.Name = "mismatch";
  Req.Source = MatMul;
  Req.Opts.TileSize = SessionOpts.TileSize + 1;
  CompileResponse R = P->compileRequest(Req);
  EXPECT_EQ(R.Status, StatusCode::BadRequest);
  EXPECT_EQ(R.exitCode(), 2);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_TRUE(R.EmittedC.empty());
}

// compileRequests with heterogeneous per-request option sets: valid
// requests succeed under their own options, an invalid option set fails
// only its own slot with the validate() message, and responses stay
// position-matched to requests.
TEST(CompileServiceTest, CompileRequestsIsolatesPerRequestBadOptions) {
  std::vector<CompileRequest> Reqs(4);
  Reqs[0].Name = "default";
  Reqs[0].Source = MatMul;
  Reqs[1].Name = "untiled";
  Reqs[1].Source = MatMul;
  Reqs[1].Opts.Tile = false;
  Reqs[2].Name = "bad-options";
  Reqs[2].Source = MatMul;
  Reqs[2].Opts.TileSize = 0;
  Reqs[3].Name = "jacobi";
  Reqs[3].Source = Jacobi;

  BatchOptions BO;
  BO.Jobs = 2;
  BO.Cache = std::make_shared<ResultCache>();
  auto Rs = compileRequests(Reqs, BO);
  ASSERT_EQ(Rs.size(), Reqs.size());

  EXPECT_EQ(Rs[0].Status, StatusCode::Ok);
  EXPECT_EQ(Rs[1].Status, StatusCode::Ok);
  EXPECT_EQ(Rs[3].Status, StatusCode::Ok);
  // Different options must key (and emit) differently.
  EXPECT_NE(Rs[0].Key, Rs[1].Key);
  EXPECT_NE(Rs[0].EmittedC, Rs[1].EmittedC);

  EXPECT_EQ(Rs[2].Status, StatusCode::BadRequest);
  EXPECT_EQ(Rs[2].Name, "bad-options");
  EXPECT_NE(Rs[2].Error.find("tile size"), std::string::npos)
      << "bad-request error should name the offending field: " << Rs[2].Error;
  EXPECT_TRUE(Rs[2].Key.empty());
}

TEST(CompileServiceTest, StatusErrorTagsSurviveTheCacheStringChannel) {
  using namespace pluto::detail;
  for (StatusCode S :
       {StatusCode::Ok, StatusCode::BadRequest, StatusCode::SourceError,
        StatusCode::ScheduleAbort, StatusCode::Internal,
        StatusCode::Overloaded}) {
    auto [Decoded, Msg] = decodeStatusError(encodeStatusError(S, "why"));
    EXPECT_EQ(Decoded, S);
    EXPECT_EQ(Msg, "why");
  }
  // Untagged strings (from code predating the taxonomy) classify Internal.
  auto [S, Msg] = decodeStatusError("plain failure");
  EXPECT_EQ(S, StatusCode::Internal);
  EXPECT_EQ(Msg, "plain failure");
}

TEST(CompileServiceTest, SharedDiagnosticSerializerShapesJson) {
  Diagnostic D;
  D.Line = 3;
  D.Col = 7;
  D.Message = "unexpected token '{'";
  std::string One;
  appendDiagnosticJson(One, "unit \"a\".c", D);
  EXPECT_EQ(One, "{\"unit\": \"unit \\\"a\\\".c\", \"line\": 3, \"col\": 7, "
                 "\"severity\": \"error\", \"message\": \"unexpected token "
                 "'{'\"}");
  EXPECT_EQ(diagnosticsJsonArray("u.c", {}), "[]");
  std::string Arr = diagnosticsJsonArray("u.c", {D, D});
  EXPECT_EQ(Arr.front(), '[');
  EXPECT_EQ(Arr.back(), ']');
  EXPECT_NE(Arr.find("}, {"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Golden digests: the emitted C must not change across commits
//===----------------------------------------------------------------------===//

/// Every unit the golden file covers, as (name, source) in file order:
/// examples/*.c, the driver/Kernels.h kernels, StressGen-10 seeds 1-16 and
/// StressGen-25 seed 1.
std::vector<std::pair<std::string, std::string>> goldenUnits() {
  std::vector<std::pair<std::string, std::string>> Units;
  for (const fs::path &K : exampleKernels())
    Units.emplace_back("examples/" + K.filename().string(), readFile(K));
  const std::pair<const char *, const char *> Kernels[] = {
      {"Jacobi1D", kernels::Jacobi1D}, {"Fdtd2D", kernels::Fdtd2D},
      {"LU", kernels::LU},             {"MVT", kernels::MVT},
      {"Seidel2D", kernels::Seidel2D}, {"MatMul", kernels::MatMul},
      {"Sweep2D", kernels::Sweep2D},   {"Jacobi2D", kernels::Jacobi2D},
      {"Gemver", kernels::Gemver},     {"Trmm", kernels::Trmm},
      {"Syrk", kernels::Syrk},         {"Doitgen", kernels::Doitgen},
      {"Atax", kernels::Atax},         {"DotProduct", kernels::DotProduct},
      {"MatVecT", kernels::MatVecT}};
  for (const auto &[Name, Src] : Kernels)
    Units.emplace_back(std::string("kernels/") + Name, Src);
  for (unsigned Seed = 1; Seed <= 16; ++Seed)
    Units.emplace_back("stress10/seed" + std::to_string(Seed),
                       generateStressProgram(10, Seed));
  Units.emplace_back("stress25/seed1", generateStressProgram(25, 1));
  return Units;
}

// Unlike the identity tests above, which compare two code paths of one
// build, this pins the emitted C of a fixed corpus to digests recorded in
// the tree, so a commit that changes any output fails here. A change that
// means to alter the output replaces the golden file with the one printed
// on failure, in the same diff.
TEST(GoldenTest, EmittedCMatchesRecordedDigests) {
  std::map<std::string, std::string> Recorded;
  std::ifstream In(PLUTOPP_GOLDEN_DIR "/emitted_c.sha256");
  ASSERT_TRUE(In) << "missing " PLUTOPP_GOLDEN_DIR "/emitted_c.sha256";
  for (std::string Line; std::getline(In, Line);) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Sep = Line.find("  ");
    ASSERT_EQ(Sep, 64u) << "malformed golden line: " << Line;
    Recorded[Line.substr(Sep + 2)] = Line.substr(0, Sep);
  }

  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  std::string Replacement =
      "# sha256 of the C that plutopp emits under default options, one unit\n"
      "# a line; checked by service_test GoldenTest.\n";
  std::vector<std::string> Differing;
  std::set<std::string> Seen;
  for (const auto &[Name, Src] : goldenUnits()) {
    CompileRequest Req;
    Req.Name = Name;
    Req.Source = Src;
    CompileResponse R = P->compileRequest(Req);
    ASSERT_EQ(R.Status, StatusCode::Ok) << Name << ": " << R.Error;
    std::string Digest = sha256Hex(R.EmittedC);
    Replacement += Digest + "  " + Name + "\n";
    Seen.insert(Name);
    auto It = Recorded.find(Name);
    if (It == Recorded.end() || It->second != Digest)
      Differing.push_back(Name);
  }
  for (const auto &KV : Recorded)
    if (!Seen.count(KV.first))
      Differing.push_back(KV.first + " (no longer compiled)");

  std::string Names;
  for (const std::string &N : Differing)
    Names += "  " + N + "\n";
  EXPECT_TRUE(Differing.empty())
      << "emitted C differs from tests/golden/emitted_c.sha256 for:\n"
      << Names << "replacement file:\n"
      << Replacement;
}

} // namespace
