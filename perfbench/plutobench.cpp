//===- perfbench/plutobench.cpp - plutopp benchmark program ---------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// The measuring half of the benchmark; run.py is the other half. One
// invocation runs one workload for a fixed time and prints one JSON
// document of raw samples on stdout; run.py turns the samples into metrics.
// plutopp is driven only through its public surfaces: the Pipeline stage
// accessors and compileRequest(), CompiledKernel, and a real plutod process
// spoken to over its NDJSON socket. WORKLOADS.md says what each workload
// measures and why.
//
//   plutobench WORKLOAD --seed=N --seconds=S --trace=0|1 --root=REPO
//              --out=DIR --plutod=PATH
//
// With --trace=1 every measured phase is split into an untraced half and a
// traced half. The traced half records spans around each public call (kept
// in memory, written at exit as Chrome trace-event JSON) and installs a
// PassStats sink per compiled unit; the untraced half gives the baseline
// for the tracing overhead.
//
//===----------------------------------------------------------------------===//

#include "driver/Kernels.h"
#include "observe/PassStats.h"
#include "runtime/Jit.h"
#include "serve/Protocol.h"
#include "service/Pipeline.h"
#include "support/Json.h"
#include "support/StressGen.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <omp.h>
#include <poll.h>
#include <set>
#include <sstream>
#include <string>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pluto;

namespace {

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

double nowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
      .count();
}

/// splitmix64: every random draw of a run comes from the workload seed.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
};

template <class T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

/// FNV-1a, for the input digest that proves two runs saw the same inputs.
uint64_t fnv1a(uint64_t H, const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I)
    H = (H ^ P[I]) * 0x100000001B3ull;
  return (H ^ 0xFF) * 0x100000001B3ull;
}
uint64_t fnv1a(uint64_t H, const std::string &S) {
  return fnv1a(H, S.data(), S.size());
}

std::string num(double V) {
  char B[40];
  std::snprintf(B, sizeof(B), "%.9g", V);
  return B;
}

std::string numArray(const std::vector<double> &V) {
  std::string S = "[";
  for (size_t I = 0; I < V.size(); ++I)
    S += (I ? "," : "") + num(V[I]);
  return S + "]";
}

std::string strArray(const std::vector<std::string> &V) {
  std::string S = "[";
  for (size_t I = 0; I < V.size(); ++I)
    S += (I ? "," : "") + jsonQuote(V[I]);
  return S + "]";
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Data;
  return static_cast<bool>(Out);
}

/// Peak resident set (VmHWM) of a process in KiB, 0 when unreadable.
long long vmHwmKb(const std::string &Pid) {
  std::string Status;
  if (!readFile("/proc/" + Pid + "/status", Status))
    return 0;
  size_t P = Status.find("VmHWM:");
  return P == std::string::npos ? 0 : std::atoll(Status.c_str() + P + 6);
}

/// A fixed piece of compiler-like work that no change to plutopp touches:
/// Fourier-Motzkin style combinations of small integer rows with gcd
/// normalisation and deduplication through an ordered set, an ordered map
/// of small vectors updated and searched at random, and text built and
/// sorted. Timed between compiles, it tells how fast the host runs this kind
/// of code at that moment (WORKLOADS.md, "Host speed").
uint64_t referenceWork() {
  const unsigned NumRows = 40, Width = 10;
  Rng R(0x5EED);
  std::vector<std::vector<long long>> Rows(NumRows,
                                           std::vector<long long>(Width));
  for (auto &Row : Rows)
    for (long long &X : Row)
      X = static_cast<long long>(R.below(19)) - 9;
  std::set<std::vector<long long>> Seen;
  std::string Text;
  for (unsigned Round = 0; Round < 3; ++Round) {
    std::vector<std::vector<long long>> Next;
    for (size_t A = 0; A < Rows.size(); ++A)
      for (size_t B = A + 1; B < Rows.size(); ++B) {
        if ((Rows[A][Round] > 0) == (Rows[B][Round] > 0))
          continue;
        std::vector<long long> C(Width);
        long long G = 0;
        for (unsigned K = 0; K < Width; ++K) {
          C[K] = Rows[A][K] * std::llabs(Rows[B][Round]) +
                 Rows[B][K] * std::llabs(Rows[A][Round]);
          G = std::gcd(G, std::llabs(C[K]));
        }
        if (G > 1)
          for (long long &X : C)
            X /= G;
        if (!Seen.insert(C).second)
          continue;
        for (long long X : C)
          Text += std::to_string(X) + (X < 0 ? " - " : " + ");
        Next.push_back(std::move(C));
      }
    if (Next.size() > 64)
      Next.resize(64);
    Rows = std::move(Next);
  }
  std::map<uint64_t, std::vector<int>> M;
  for (unsigned I = 0; I < 12000; ++I) {
    std::vector<int> &V = M[R.next() % 50000];
    V.push_back(static_cast<int>(I));
    if (V.size() > 3)
      V.erase(V.begin());
  }
  uint64_t H = fnv1a(Seen.size(), Text);
  for (unsigned I = 0; I < 20000; ++I)
    if (auto It = M.lower_bound(R.next() % 50000); It != M.end())
      H += It->first + It->second.size();
  std::vector<std::string> Keys;
  for (const auto &KV : M)
    Keys.push_back(std::to_string(KV.first * 2654435761u));
  std::sort(Keys.begin(), Keys.end());
  return H + Keys.size();
}

/// Milliseconds one referenceWork() takes now.
double referenceMs() {
  double S = nowUs();
  volatile uint64_t Sink = referenceWork();
  (void)Sink;
  return (nowUs() - S) / 1e3;
}

/// Times the reference work on its own thread every PeriodUs until stopped,
/// for a phase that cannot pause for it (serve_mixed's open loop).
class ReferenceSampler {
public:
  explicit ReferenceSampler(double PeriodUs)
      : Worker([this, PeriodUs] { run(PeriodUs); }) {}
  ~ReferenceSampler() { stop(); }
  ReferenceSampler(const ReferenceSampler &) = delete;
  ReferenceSampler &operator=(const ReferenceSampler &) = delete;

  /// Stops sampling and returns the timings taken.
  std::vector<double> stop() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Stopping = true;
    }
    Cv.notify_all();
    if (Worker.joinable())
      Worker.join();
    return Samples;
  }

private:
  void run(double PeriodUs) {
    std::unique_lock<std::mutex> L(Mu);
    auto Period = std::chrono::microseconds(static_cast<long long>(PeriodUs));
    while (!Cv.wait_for(L, Period, [this] { return Stopping; })) {
      L.unlock();
      double Ms = referenceMs();
      L.lock();
      Samples.push_back(Ms);
    }
  }

  std::mutex Mu;
  std::condition_variable Cv;
  bool Stopping = false;
  std::vector<double> Samples;
  std::thread Worker;
};

/// The set-ups of a run, each with the reference work timed twice just
/// before it and twice just after it.
struct SetupLog {
  std::vector<double> Secs;
  std::vector<std::vector<double>> RefMs;

  void before() {
    RefMs.emplace_back();
    for (int I = 0; I < 2; ++I)
      RefMs.back().push_back(referenceMs());
  }
  /// Records a set-up that took Seconds; a failed one (Seconds < 0) is
  /// dropped.
  void after(double Seconds) {
    if (Seconds < 0) {
      RefMs.pop_back();
      return;
    }
    for (int I = 0; I < 2; ++I)
      RefMs.back().push_back(referenceMs());
    Secs.push_back(Seconds);
  }

  std::string json() const {
    std::string Refs = "[";
    for (size_t I = 0; I < RefMs.size(); ++I)
      Refs += (I ? "," : "") + numArray(RefMs[I]);
    return "\"setup_s\":" + numArray(Secs) + ",\"setup_ref_ms\":" + Refs + "]";
  }
};

/// Failures and attempted operations of the whole run.
struct Ledger {
  std::mutex Mu;
  std::vector<std::string> Failures; ///< the first 50 failure messages
  long long Attempted = 0, Failed = 0;

  void attempt(long long N = 1) {
    std::lock_guard<std::mutex> L(Mu);
    Attempted += N;
  }
  void fail(const std::string &Why) {
    std::lock_guard<std::mutex> L(Mu);
    ++Failed;
    if (Failures.size() < 50)
      Failures.push_back(Why);
    else if (Failures.size() == 50)
      Failures.push_back("(further failures omitted)");
    std::fprintf(stderr, "plutobench: FAIL: %s\n", Why.c_str());
  }
};
Ledger Book;

/// Runs Jobs on at most nproc threads.
void parallelFor(size_t N, const std::function<void(size_t)> &Job) {
  unsigned Threads = std::max(1u, std::min<unsigned>(
                                      std::thread::hardware_concurrency(), 4));
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads && T < N; ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next++) < N;)
        Job(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

//===----------------------------------------------------------------------===//
// Span recorder
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  double Start = 0, End = 0;
  int Parent = -1;
  long long Req = -1;
};

/// Spans of the traced half, kept in memory and written at exit. Single
/// threaded: every traced call happens on the main thread.
class SpanRecorder {
public:
  int begin(std::string Name, long long Req) {
    int Id = static_cast<int>(Spans.size());
    Spans.push_back({std::move(Name), nowUs(), 0,
                     Open.empty() ? -1 : Open.back(), Req});
    Open.push_back(Id);
    return Id;
  }
  void end(int Id) {
    Spans[Id].End = nowUs();
    Open.pop_back();
  }
  int add(std::string Name, double Start, double End, int Parent,
          long long Req) {
    Spans.push_back({std::move(Name), Start, End, Parent, Req});
    return static_cast<int>(Spans.size()) - 1;
  }

  /// {"name": {"count": n, "total_us": t, "self_us": s}, ...}: a span's
  /// self time is its duration minus the durations of its children.
  std::string summaryJson() const {
    std::vector<double> ChildUs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildUs[S.Parent] += S.End - S.Start;
    struct Agg {
      long long Count = 0;
      double Total = 0, Self = 0;
    };
    std::map<std::string, Agg> ByName;
    for (size_t I = 0; I < Spans.size(); ++I) {
      Agg &A = ByName[Spans[I].Name];
      double Dur = Spans[I].End - Spans[I].Start;
      ++A.Count;
      A.Total += Dur;
      A.Self += Dur - ChildUs[I];
    }
    std::string S = "{";
    for (const auto &[Name, A] : ByName)
      S += (S.size() > 1 ? "," : "") + jsonQuote(Name) +
           ":{\"count\":" + std::to_string(A.Count) +
           ",\"total_us\":" + num(A.Total) + ",\"self_us\":" + num(A.Self) +
           "}";
    return S + "}";
  }

  bool writeChromeTrace(const std::string &Path) const {
    std::string S = "{\"traceEvents\":[\n";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &Sp = Spans[I];
      S += (I ? ",\n" : "") + std::string("{\"name\":") + jsonQuote(Sp.Name) +
           ",\"cat\":\"plutobench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
           num(Sp.Start) + ",\"dur\":" + num(Sp.End - Sp.Start) +
           ",\"args\":{\"span\":" + std::to_string(I) +
           ",\"parent\":" + std::to_string(Sp.Parent) +
           ",\"req\":" + std::to_string(Sp.Req) + "}}";
    }
    return writeFile(Path, S + "\n],\"displayTimeUnit\":\"ms\"}\n");
  }

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
};

SpanRecorder Recorder;
/// Non-null only in the traced half.
SpanRecorder *Tracer = nullptr;

class SpanScope {
public:
  explicit SpanScope(const char *Name, long long Req = -1)
      : Id(Tracer ? Tracer->begin(Name, Req) : -1) {}
  ~SpanScope() {
    if (Id >= 0)
      Tracer->end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  int Id;
};

//===----------------------------------------------------------------------===//
// Reading restricted-C sources without plutopp
//===----------------------------------------------------------------------===//

/// What a loop-nest fragment names, found by a token scan that shares no
/// code with plutopp's frontend: arrays (with rank), loop iterators, and
/// every other identifier (parameters, symbolic constants, scalars).
struct SourceShape {
  std::vector<std::pair<std::string, unsigned>> Arrays;
  std::vector<std::string> Iterators, Scalars;
};

SourceShape scanSource(const std::string &Src) {
  SourceShape Sh;
  std::map<std::string, unsigned> Rank;
  std::vector<std::string> Seen;
  std::string Prev1, Prev2; // the two previous tokens
  size_t I = 0, N = Src.size();
  auto skipSpace = [&](size_t P) {
    while (P < N && std::isspace(static_cast<unsigned char>(Src[P])))
      ++P;
    return P;
  };
  while (I < N) {
    char C = Src[I];
    if (C == '/' && I + 1 < N && Src[I + 1] == '*') {
      size_t E = Src.find("*/", I + 2);
      I = E == std::string::npos ? N : E + 2;
      continue;
    }
    if (C == '/' && I + 1 < N && Src[I + 1] == '/') {
      size_t E = Src.find('\n', I);
      I = E == std::string::npos ? N : E;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    std::string Tok;
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t B = I;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Src[I])) ||
                       Src[I] == '_'))
        ++I;
      Tok = Src.substr(B, I - B);
      if (Tok != "for") {
        unsigned R = 0;
        for (size_t P = skipSpace(I); P < N && Src[P] == '[';
             P = skipSpace(P)) {
          int Depth = 0;
          do {
            Depth += Src[P] == '[' ? 1 : Src[P] == ']' ? -1 : 0;
            ++P;
          } while (P < N && Depth > 0);
          ++R;
        }
        if (R) {
          if (!Rank.count(Tok))
            Sh.Arrays.push_back({Tok, 0});
          Rank[Tok] = std::max(Rank[Tok], R);
        } else if (Prev2 == "for" && Prev1 == "(") {
          if (std::find(Sh.Iterators.begin(), Sh.Iterators.end(), Tok) ==
              Sh.Iterators.end())
            Sh.Iterators.push_back(Tok);
        } else if (std::find(Seen.begin(), Seen.end(), Tok) == Seen.end()) {
          Seen.push_back(Tok);
        }
      }
    } else if (std::isdigit(static_cast<unsigned char>(C)) || C == '.') {
      while (I < N && (std::isalnum(static_cast<unsigned char>(Src[I])) ||
                       Src[I] == '.'))
        ++I;
      Tok = "0";
    } else {
      Tok = std::string(1, C);
      ++I;
    }
    Prev2 = Prev1;
    Prev1 = Tok;
  }
  for (auto &[Name, R] : Sh.Arrays)
    R = Rank[Name];
  for (const std::string &S : Seen)
    if (!Rank.count(S) && std::find(Sh.Iterators.begin(), Sh.Iterators.end(),
                                    S) == Sh.Iterators.end())
      Sh.Scalars.push_back(S);
  return Sh;
}

/// A C function whose body is the fragment verbatim, for checking with
/// `cc -fsyntax-only` that a generated input is valid C before plutopp
/// sees it.
std::string inputCheckUnit(const std::string &Src) {
  SourceShape Sh = scanSource(Src);
  std::string C = "void input_check(void) {\n";
  for (const std::string &S : Sh.Scalars)
    C += "  long long " + S + " = 8;\n";
  for (const std::string &It : Sh.Iterators)
    C += "  long long " + It + ";\n";
  for (const auto &[Name, Rank] : Sh.Arrays) {
    C += "  double " + Name;
    for (unsigned R = 0; R < Rank; ++R)
      C += "[8]";
    C += ";\n";
  }
  return C + Src + "\n}\n";
}

/// `cc -fsyntax-only -fopenmp` on Code, written under Path.
bool syntaxCheck(const std::string &Path, const std::string &Code) {
  if (!writeFile(Path, Code))
    return false;
  std::string Cmd =
      "cc -fsyntax-only -fopenmp '" + Path + "' > /dev/null 2>&1";
  return std::system(Cmd.c_str()) == 0;
}

//===----------------------------------------------------------------------===//
// Cold compiles (paper_kernels, large_programs)
//===----------------------------------------------------------------------===//

struct Unit {
  std::string Name, Source;
};

std::vector<Unit> paperUnits(const std::string &Root) {
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(Root + "/examples"))
    if (E.path().extension() == ".c")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  std::vector<Unit> Units;
  for (const std::string &F : Files) {
    Unit U;
    U.Name = std::filesystem::path(F).stem().string();
    if (!readFile(F, U.Source))
      Book.fail("cannot read " + F);
    Units.push_back(std::move(U));
  }
  Units.push_back({"fdtd2d", kernels::Fdtd2D});
  return Units;
}

/// One counter set per compiled unit or pass, keyed by PassStats name.
using Counts = std::map<std::string, unsigned long long>;

class ColdCompiler {
public:
  explicit ColdCompiler(std::vector<Unit> U)
      : Units(std::move(U)), Reference(Units.size()),
        Session(Pipeline::create().takeValue()) {}

  /// One cold compile (no cache attached) through compileRequest.
  bool compile(size_t I, std::string &Out) {
    CompileRequest Req;
    Req.Name = Units[I].Name;
    Req.Source = Units[I].Source;
    Req.Opts = Session.options();
    CompileResponse Resp = Session.compileRequest(Req);
    if (!Resp.ok()) {
      Book.fail(Units[I].Name + ": " + statusCodeName(Resp.Status) + ": " +
                Resp.Error);
      return false;
    }
    Out = std::move(Resp.EmittedC);
    return true;
  }

  /// The same compile as five stage calls, each under its own span, with a
  /// PassStats sink installed for just this unit.
  bool compileTraced(size_t I, std::string &Out, Counts &C, long long Req) {
    PassStats Stats;
    setActiveStats(&Stats);
    bool Ok = stages(I, Out, Req);
    setActiveStats(nullptr);
    for (unsigned K = 0; K < static_cast<unsigned>(Counter::NumCounters); ++K)
      C[counterName(static_cast<Counter>(K))] +=
          Stats.get(static_cast<Counter>(K));
    return Ok;
  }

  /// Byte-identity against the first output of the unit in this run.
  bool checkSame(size_t I, const std::string &Out) {
    if (Reference[I].empty()) {
      Reference[I] = Out;
      return true;
    }
    if (Reference[I] == Out)
      return true;
    Book.fail(Units[I].Name + ": emitted C differs between iterations");
    return false;
  }

  std::vector<Unit> Units;
  std::vector<std::string> Reference;

private:
  bool stages(size_t I, std::string &Out, long long Req) {
    SpanScope UnitSpan("unit", Req);
    Session.setSource(Units[I].Source);
    auto Fail = [&](const char *Stage, const std::string &E) {
      Book.fail(Units[I].Name + ": " + Stage + ": " + E);
      return false;
    };
    {
      SpanScope S("parsed", Req);
      if (auto R = Session.parsed(); !R)
        return Fail("parsed", R.error());
    }
    {
      SpanScope S("dependences", Req);
      if (auto R = Session.dependences(); !R)
        return Fail("dependences", R.error());
    }
    {
      SpanScope S("scheduled", Req);
      if (auto R = Session.scheduled(); !R)
        return Fail("scheduled", R.error());
    }
    {
      SpanScope S("lowered", Req);
      if (auto R = Session.lowered(); !R)
        return Fail("lowered", R.error());
    }
    SpanScope S("emitted", Req);
    auto R = Session.emitted();
    if (!R)
      return Fail("emitted", R.error());
    Out = **R;
    return true;
  }

  Pipeline Session;
};

/// Passes over the whole corpus, in a seeded order per pass, until Seconds
/// have gone by (at least MinPasses). The reference work is timed before the
/// first compile of a pass and after each one. Returns one phase object
/// (JSON).
std::string compilePhase(ColdCompiler &CC, double Seconds, bool Traced,
                         Rng &R, long long &ReqId, Counts &FirstCounts,
                         bool &CountsSet) {
  const unsigned MinPasses = 2;
  std::string Passes = "[";
  double Deadline = nowUs() + Seconds * 1e6;
  for (unsigned Pass = 0; Pass < MinPasses || nowUs() < Deadline; ++Pass) {
    std::vector<size_t> Order(CC.Units.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    shuffle(Order, R);
    std::vector<double> Ms, RefMs = {referenceMs()};
    std::vector<std::string> Okay;
    Counts PassCounts;
    double Bytes = 0;
    double T0 = nowUs();
    for (size_t I : Order) {
      std::string Out;
      Book.attempt();
      double S = nowUs();
      bool Ok = Traced ? CC.compileTraced(I, Out, PassCounts, ReqId++)
                       : CC.compile(I, Out);
      Ms.push_back((nowUs() - S) / 1e3);
      RefMs.push_back(referenceMs());
      Ok = Ok && CC.checkSame(I, Out);
      Bytes += static_cast<double>(Out.size());
      Okay.push_back(Ok ? "1" : "0");
    }
    double PassS = (nowUs() - T0) / 1e6;
    if (Traced) {
      if (!CountsSet) {
        FirstCounts = PassCounts;
        CountsSet = true;
      } else if (PassCounts != FirstCounts) {
        Book.fail("PassStats counts differ between passes over one corpus");
      }
    }
    std::string Units = "[";
    for (size_t K = 0; K < Order.size(); ++K)
      Units += (K ? "," : "") + std::to_string(Order[K]);
    std::string OkS = "[";
    for (size_t K = 0; K < Okay.size(); ++K)
      OkS += (K ? "," : "") + Okay[K];
    Passes += (Pass ? "," : "") + std::string("{\"s\":") + num(PassS) +
              ",\"units\":" + Units + "],\"ms\":" + numArray(Ms) +
              ",\"ref_ms\":" + numArray(RefMs) +
              ",\"ok\":" + OkS + "],\"bytes\":" + num(Bytes) + "}";
  }
  return "{\"traced\":" + std::string(Traced ? "1" : "0") +
         ",\"passes\":" + Passes + "]}";
}

/// Counts, span summary and both compile phases of a compile workload.
std::string compileWorkload(ColdCompiler &CC, double Seconds, bool Trace,
                            Rng &R) {
  long long ReqId = 0;
  Counts FirstCounts;
  bool CountsSet = false;
  std::string Phases = "[";
  if (!Trace) {
    Phases += compilePhase(CC, Seconds, false, R, ReqId, FirstCounts,
                           CountsSet);
  } else {
    Phases += compilePhase(CC, Seconds / 2, false, R, ReqId, FirstCounts,
                           CountsSet);
    Tracer = &Recorder;
    Phases += "," + compilePhase(CC, Seconds / 2, true, R, ReqId,
                                 FirstCounts, CountsSet);
    Tracer = nullptr;
  }
  std::string CountsJ = "{";
  for (const auto &[K, V] : FirstCounts)
    CountsJ += (CountsJ.size() > 1 ? "," : "") + jsonQuote(K) + ":" +
               std::to_string(V);
  std::vector<std::string> Names;
  for (const Unit &U : CC.Units)
    Names.push_back(U.Name);
  return "\"unit_names\":" + strArray(Names) + ",\"compile\":" + Phases +
         "],\"counts\":" + CountsJ + "}";
}

/// `cc -fsyntax-only -fopenmp` over every unit's emitted C.
void syntaxCheckEmitted(const ColdCompiler &CC) {
  parallelFor(CC.Units.size(), [&](size_t I) {
    Book.attempt();
    if (CC.Reference[I].empty())
      return;
    if (!syntaxCheck("work/emitted-" + CC.Units[I].Name + ".c",
                     CC.Reference[I]))
      Book.fail(CC.Units[I].Name + ": emitted C fails cc -fsyntax-only");
  });
}

//===----------------------------------------------------------------------===//
// Emitted code against the original (paper_kernels)
//===----------------------------------------------------------------------===//

/// A kernel with a problem definition in bench/, at a fixed small size.
/// Arrays are square with the extent of the first parameter (the service
/// emit policy), so that parameter is the largest.
struct Problem {
  const char *Name;
  std::map<std::string, long long> Params;
  std::map<std::string, double> Consts;
  /// A 2-d array whose diagonal is raised so LU's pivots stay away from 0.
  const char *DiagBoost;
  /// Whether the emitted code runs at 2 threads. LU's does not: its
  /// parallel j-tile loop carries the flow dependence from a[k][k] to the
  /// row-k division inside one k-tile, so at 2 threads its output differs
  /// from the original (WORKLOADS.md, "Known failures").
  bool TwoThreads;
};

const Problem Problems[] = {
    {"jacobi1d", {{"T", 4000}, {"N", 4000}}, {}, nullptr, true},
    {"fdtd2d",
     {{"tmax", 151}, {"nx", 150}, {"ny", 150}},
     {{"coeff1", 0.5}, {"coeff2", 0.7}},
     nullptr,
     true},
    {"lu", {{"N", 400}}, {}, "a", false},
    {"mvt", {{"N", 1500}}, {}, nullptr, true},
    {"seidel2d", {{"T", 100}, {"N", 100}}, {}, nullptr, true},
    {"matmul", {{"N", 250}}, {}, nullptr, true},
};

struct Signature {
  std::vector<std::string> Arrays, Params, Consts;
};

/// The `void kernel(...)` parameter list of an emitted unit.
bool parseSignature(const std::string &C, Signature &Sig) {
  size_t B = C.find("void kernel(");
  if (B == std::string::npos)
    return false;
  B += 12;
  size_t E = C.find(')', B);
  if (E == std::string::npos)
    return false;
  std::stringstream SS(C.substr(B, E - B));
  std::string P;
  while (std::getline(SS, P, ',')) {
    size_t Last = P.find_last_of(" *");
    if (Last == std::string::npos)
      return false;
    std::string Name = P.substr(Last + 1);
    if (P.find('*') != std::string::npos) {
      if (Name.empty() || Name.back() != '_')
        return false;
      Sig.Arrays.push_back(Name.substr(0, Name.size() - 1));
    } else if (P.find("long long") != std::string::npos) {
      Sig.Params.push_back(Name);
    } else {
      Sig.Consts.push_back(Name);
    }
  }
  return !Sig.Params.empty();
}

/// The original loop nest compiled straight from its source text: a C
/// function with the emitted unit's signature whose body is the fragment
/// verbatim.
std::string originalUnit(const std::string &Src, const Signature &Sig) {
  SourceShape Sh = scanSource(Src);
  const std::string &E = Sig.Params[0];
  std::string C = "void kernel(";
  std::vector<std::string> Ps;
  for (const std::string &A : Sig.Arrays)
    Ps.push_back("double *" + A + "_");
  for (const std::string &P : Sig.Params)
    Ps.push_back("long long " + P);
  for (const std::string &K : Sig.Consts)
    Ps.push_back("double " + K);
  for (size_t I = 0; I < Ps.size(); ++I)
    C += (I ? ", " : "") + Ps[I];
  C += ") {\n";
  for (const auto &[Name, Rank] : Sh.Arrays) {
    std::string Dims;
    for (unsigned R = 1; R < Rank; ++R)
      Dims += "[" + E + "]";
    if (Dims.empty())
      C += "  double *" + Name + " = " + Name + "_;\n";
    else
      C += "  double (*" + Name + ")" + Dims + " = (double (*)" + Dims + ")" +
           Name + "_;\n";
  }
  for (const std::string &It : Sh.Iterators)
    C += "  long long " + It + ";\n";
  C += Src + "\n}\n\n";
  // The entry point CompiledKernel::call invokes.
  C += "void kernel_entry(double **arrays, const long long *params, "
       "const double *consts) {\n  (void)consts;\n  kernel(";
  std::vector<std::string> As;
  for (size_t I = 0; I < Sig.Arrays.size(); ++I)
    As.push_back("arrays[" + std::to_string(I) + "]");
  for (size_t I = 0; I < Sig.Params.size(); ++I)
    As.push_back("params[" + std::to_string(I) + "]");
  for (size_t I = 0; I < Sig.Consts.size(); ++I)
    As.push_back("consts[" + std::to_string(I) + "]");
  for (size_t I = 0; I < As.size(); ++I)
    C += (I ? ", " : "") + As[I];
  return C + ");\n}\n";
}

struct Runnable {
  std::string Name;
  const Problem *P = nullptr;
  Signature Sig;
  std::vector<unsigned> Ranks;
  std::vector<long long> Params;
  std::vector<double> Consts;
  std::string OrigC, EmittedC;
  CompiledKernel Orig, Emitted;
  std::vector<std::vector<double>> Pristine, Work;

  bool prepare(const std::string &Source, const std::string &Emitted0) {
    EmittedC = Emitted0;
    if (!parseSignature(EmittedC, Sig)) {
      Book.fail(Name + ": cannot read the emitted kernel signature");
      return false;
    }
    OrigC = originalUnit(Source, Sig);
    std::map<std::string, unsigned> RankOf;
    for (const auto &[A, Rk] : scanSource(Source).Arrays)
      RankOf[A] = Rk;
    for (const std::string &A : Sig.Arrays)
      Ranks.push_back(RankOf.count(A) ? RankOf[A] : 1);
    for (const std::string &Pm : Sig.Params) {
      auto It = P->Params.find(Pm);
      if (It == P->Params.end()) {
        Book.fail(Name + ": no size for parameter " + Pm);
        return false;
      }
      Params.push_back(It->second);
    }
    for (const std::string &K : Sig.Consts)
      Consts.push_back(P->Consts.count(K) ? P->Consts.at(K) : 1.0);
    return true;
  }

  /// Seeded input arrays, square with the first parameter's extent.
  /// Allocated after the compile phase so peak_rss_mb sees compiles only.
  void allocate(Rng &R) {
    size_t Extent = static_cast<size_t>(Params[0]);
    for (size_t I = 0; I < Sig.Arrays.size(); ++I) {
      size_t Elems = 1;
      for (unsigned K = 0; K < Ranks[I]; ++K)
        Elems *= Extent;
      std::vector<double> Buf(Elems);
      for (double &V : Buf)
        V = 1.0 + static_cast<double>(R.next() % 1024) / 1024.0;
      if (P->DiagBoost && Sig.Arrays[I] == P->DiagBoost && Ranks[I] == 2)
        for (size_t D = 0; D < Extent; ++D)
          Buf[D * Extent + D] += static_cast<double>(Extent);
      Pristine.push_back(std::move(Buf));
    }
    Work = Pristine;
  }

  std::vector<double *> reset() {
    std::vector<double *> Ptrs;
    for (size_t I = 0; I < Work.size(); ++I) {
      std::copy(Pristine[I].begin(), Pristine[I].end(), Work[I].begin());
      Ptrs.push_back(Work[I].data());
    }
    return Ptrs;
  }

  /// One timed call on freshly reset inputs, in ms.
  double timedCall(const CompiledKernel &K, int Threads, const char *Span) {
    std::vector<double *> Ptrs = reset();
    omp_set_num_threads(Threads);
    SpanScope S(Span);
    double T0 = nowUs();
    K.call(Ptrs, Params, Consts);
    return (nowUs() - T0) / 1e3;
  }
};

/// Compares every output array of the emitted kernel at Threads threads
/// with the original's at one thread.
bool checkOutputs(Runnable &K, int Threads) {
  std::vector<double *> P1 = K.reset();
  omp_set_num_threads(1);
  K.Orig.call(P1, K.Params, K.Consts);
  std::vector<std::vector<double>> Ref = K.Work;
  std::vector<double *> P2 = K.reset();
  omp_set_num_threads(Threads);
  K.Emitted.call(P2, K.Params, K.Consts);
  for (size_t B = 0; B < Ref.size(); ++B)
    for (size_t I = 0; I < Ref[B].size(); ++I) {
      double X = Ref[B][I], Y = K.Work[B][I];
      bool Same = std::isfinite(X) && std::isfinite(Y) &&
                  std::fabs(X - Y) <= 1e-9 * (1.0 + std::max(std::fabs(X),
                                                             std::fabs(Y)));
      if (!Same) {
        char Msg[200];
        std::snprintf(Msg, sizeof(Msg),
                      "%s: emitted output at %d threads differs from the "
                      "original: %s[%zu] = %.17g, expected %.17g",
                      K.Name.c_str(), Threads, K.Sig.Arrays[B].c_str(), I, Y,
                      X);
        Book.fail(Msg);
        return false;
      }
    }
  return true;
}

/// Builds every runnable's original and emitted kernel with cc, plus the
/// syntax check of every emitted unit, on at most nproc threads.
void buildKernels(std::vector<Runnable> &Ks, const ColdCompiler &CC) {
  size_t NK = Ks.size() * 2;
  parallelFor(NK + CC.Units.size(), [&](size_t J) {
    Book.attempt();
    if (J >= NK) {
      size_t I = J - NK;
      if (!syntaxCheck("work/emitted-" + CC.Units[I].Name + ".c",
                       CC.Reference[I]))
        Book.fail(CC.Units[I].Name + ": emitted C fails cc -fsyntax-only");
      return;
    }
    Runnable &K = Ks[J / 2];
    bool Original = J % 2 == 0;
    auto Built = CompiledKernel::compile(Original ? K.OrigC : K.EmittedC);
    if (!Built) {
      Book.fail(K.Name + (Original ? ": original" : ": emitted") +
                " does not build: " + Built.error());
      return;
    }
    (Original ? K.Orig : K.Emitted) = std::move(*Built);
  });
}

std::string runtimePhase(std::vector<Runnable> &Ks, double Seconds) {
  std::map<std::string, std::vector<double>> Samples;
  const unsigned MinRounds = 3;
  // One untimed call per variant pays first-touch and OpenMP pool start.
  for (Runnable &K : Ks) {
    K.timedCall(K.Orig, 1, "warmup");
    K.timedCall(K.Emitted, K.P->TwoThreads ? 2 : 1, "warmup");
  }
  double Deadline = nowUs() + Seconds * 1e6;
  for (unsigned Round = 0; Round < MinRounds || nowUs() < Deadline;
       ++Round) {
    for (Runnable &K : Ks) {
      Book.attempt(2);
      Samples[K.Name + ".original_ms"].push_back(
          K.timedCall(K.Orig, 1, "call.original_1t"));
      Samples[K.Name + ".emitted_1t_ms"].push_back(
          K.timedCall(K.Emitted, 1, "call.emitted_1t"));
      if (!K.P->TwoThreads)
        continue;
      Book.attempt();
      Samples[K.Name + ".emitted_2t_ms"].push_back(
          K.timedCall(K.Emitted, 2, "call.emitted_2t"));
    }
  }
  std::string S = "{";
  for (const auto &[Name, V] : Samples)
    S += (S.size() > 1 ? "," : "") + jsonQuote(Name) + ":" + numArray(V);
  return S + "}";
}

//===----------------------------------------------------------------------===//
// plutod over NDJSON (serve_mixed)
//===----------------------------------------------------------------------===//

/// A plutod child process. The child dies with the benchmark
/// (PR_SET_PDEATHSIG), and stop() waits for it.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  bool start(const std::string &Bin, const std::string &Socket,
             const std::string &LogPath) {
    std::vector<std::string> Args = {Bin, "--socket=" + Socket, "--workers=2"};
    if (LogPath.empty())
      Args.push_back("--quiet");
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    std::string Log = LogPath.empty() ? "/dev/null" : LogPath;
    // One OpenMP thread per compile: 2 workers then use at most 2 of the
    // host's cores, leaving the rest to plutod's I/O thread and the client.
    std::vector<std::string> Env = {"OMP_NUM_THREADS=1"};
    for (char **E = environ; *E; ++E)
      if (std::strncmp(*E, "OMP_NUM_THREADS=", 16) != 0)
        Env.push_back(*E);
    std::vector<char *> Envp;
    for (std::string &E : Env)
      Envp.push_back(E.data());
    Envp.push_back(nullptr);
    pid_t Parent = getpid();
    Pid = fork();
    if (Pid < 0)
      return false;
    if (Pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != Parent)
        _exit(127);
      int Fd = open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      int Null = open("/dev/null", O_RDWR);
      if (Fd >= 0)
        dup2(Fd, 2);
      if (Null >= 0) {
        dup2(Null, 0);
        dup2(Null, 1);
      }
      execve(Argv[0], Argv.data(), Envp.data());
      _exit(127);
    }
    return true;
  }

  long long hwmKb() const { return vmHwmKb(std::to_string(Pid)); }

  /// SIGTERM, then a graceful drain of up to 10 s, then SIGKILL. True when
  /// plutod exited 0 (every accepted job completed).
  bool stop() {
    if (Pid <= 0)
      return true;
    kill(Pid, SIGTERM);
    int St = 0;
    double Deadline = nowUs() + 10e6;
    pid_t W;
    while ((W = waitpid(Pid, &St, WNOHANG)) == 0 && nowUs() < Deadline)
      usleep(2000);
    if (W == 0) {
      kill(Pid, SIGKILL);
      waitpid(Pid, &St, 0);
    }
    Pid = -1;
    return W > 0 && WIFEXITED(St) && WEXITSTATUS(St) == 0;
  }

  bool alive() const {
    int St;
    return Pid > 0 && waitpid(Pid, &St, WNOHANG) == 0;
  }

  pid_t Pid = -1;
};

struct Conn {
  int Fd = -1;
  std::string In;

  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn() { close(); }

  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    In.clear();
  }

  bool connectTo(const std::string &Path) {
    close();
    Fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      close();
      return false;
    }
    return true;
  }

  bool sendAll(const std::string &Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N = write(Fd, Data.data() + Off, Data.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// One read() of whatever is available; false on EOF or error.
  bool readSome() {
    char Buf[1 << 16];
    ssize_t N;
    do
      N = read(Fd, Buf, sizeof(Buf));
    while (N < 0 && errno == EINTR);
    if (N <= 0)
      return false;
    In.append(Buf, static_cast<size_t>(N));
    return true;
  }

  bool popLine(std::string &Line) {
    size_t Nl = In.find('\n');
    if (Nl == std::string::npos)
      return false;
    Line = In.substr(0, Nl);
    In.erase(0, Nl + 1);
    return true;
  }
};

struct ServeRequest {
  bool Cold = false;
  size_t Warm = 0; ///< warm-set index (hits)
  std::string Line;
  double Due = 0, SendStart = 0, SendEnd = 0, Arrive = 0, Decoded = 0;
  bool Done = false, Good = false;
};

/// Sends Reqs over Conns on a fixed-interval schedule starting at T0 (an
/// open loop: a request goes out when due, whatever is still in flight),
/// and reads every reply. Check is called on each decoded reply.
void openLoop(Conn (&Conns)[2], std::vector<ServeRequest> &Reqs,
              size_t First, size_t Count, double IntervalUs, double T0,
              double GraceUs,
              const std::function<bool(ServeRequest &,
                                       const serve::WireResponse &)> &Check) {
  size_t Next = 0, Done = 0;
  double Deadline = T0 + Count * IntervalUs + GraceUs;
  const timespec Zero = {0, 0};
  std::string Line;
  while (Done < Count) {
    double Now = nowUs();
    if (Now > Deadline) {
      Book.fail(std::to_string(Count - Done) +
                " plutod requests unanswered at the deadline");
      break;
    }
    while (Next < Count && T0 + Next * IntervalUs <= Now) {
      ServeRequest &R = Reqs[First + Next];
      R.Due = T0 + Next * IntervalUs;
      R.SendStart = nowUs();
      if (!Conns[Next % 2].sendAll(R.Line))
        Book.fail("plutod connection closed while sending");
      R.SendEnd = nowUs();
      ++Next;
      Now = R.SendEnd;
    }
    // Sleep until just before the next due time, then spin; spin too while
    // a request sent in the last SpinUs is unanswered (a hit takes well
    // under that). Timer and wake-up latency of the generator then stay out
    // of the measured latency and the lag.
    const double SpinUs = 2000, EarlyUs = 300;
    double WaitUs = Next < Count ? T0 + Next * IntervalUs - Now - EarlyUs
                                 : 50e3;
    if (Next > Done && Next > 0 &&
        Now - Reqs[First + Next - 1].SendEnd < SpinUs)
      WaitUs = 0;
    timespec TS;
    TS.tv_sec = static_cast<time_t>(std::max(0.0, WaitUs) / 1e6);
    TS.tv_nsec = static_cast<long>(
        std::fmod(std::max(0.0, WaitUs), 1e6) * 1e3);
    pollfd P[2] = {{Conns[0].Fd, POLLIN, 0}, {Conns[1].Fd, POLLIN, 0}};
    if (ppoll(P, 2, WaitUs > 0 ? &TS : &Zero, nullptr) <= 0)
      continue;
    for (int C = 0; C < 2; ++C) {
      if (!(P[C].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      if (!Conns[C].readSome()) {
        Book.fail("plutod closed a connection");
        return;
      }
      while (Conns[C].popLine(Line)) {
        double Arrive = nowUs();
        auto W = serve::decodeResponse(Line);
        long long Id = W ? std::atoll(W->Id.c_str()) - 1 : -1;
        if (!W || Id < static_cast<long long>(First) ||
            Id >= static_cast<long long>(First + Count) ||
            Reqs[Id].Done) {
          Book.fail("unexpected plutod reply: " + Line.substr(0, 200));
          continue;
        }
        ServeRequest &R = Reqs[Id];
        R.Arrive = Arrive;
        R.Done = true;
        R.Good = Check(R, *W);
        R.Decoded = nowUs();
        ++Done;
      }
    }
  }
}

/// The warm set: the paper kernels under a few option sets, each with its
/// in-process cold compile as the reference a hit must equal.
struct WarmUnit {
  std::string Name, Source, Emitted;
  PlutoOptions Opts;
};

std::vector<WarmUnit> warmSet(const std::string &Root) {
  std::vector<PlutoOptions> Sets(3);
  Sets[1].TileSize = 16;
  Sets[2].Parallelize = false;
  std::vector<WarmUnit> W;
  for (size_t S = 0; S < Sets.size(); ++S) {
    Pipeline P = Pipeline::create(Sets[S]).takeValue();
    for (const Unit &U : paperUnits(Root)) {
      CompileRequest Req;
      Req.Source = U.Source;
      Req.Opts = Sets[S];
      CompileResponse Resp = P.compileRequest(Req);
      Book.attempt();
      if (!Resp.ok())
        Book.fail("warm reference " + U.Name + ": " + Resp.Error);
      W.push_back({U.Name + "/o" + std::to_string(S), U.Source,
                   Resp.EmittedC, Sets[S]});
    }
  }
  parallelFor(W.size(), [&](size_t I) {
    Book.attempt();
    if (!syntaxCheck("work/warm-" + std::to_string(I) + ".c", W[I].Emitted))
      Book.fail(W[I].Name + ": emitted C fails cc -fsyntax-only");
  });
  return W;
}

std::string requestLine(long long Id, const std::string &Name,
                        const std::string &Source, const PlutoOptions &O) {
  serve::WireRequest R;
  R.Operation = serve::Op::Compile;
  R.Id = std::to_string(Id);
  R.Req.Name = Name;
  R.Req.Source = Source;
  R.Req.Opts = O;
  return serve::encodeRequest(R) + "\n";
}

/// One plutod lifetime: spawn, connect, warm the cache with the warm set
/// (checked against the in-process references), then (optionally) run the
/// open loop and read the metrics.
class ServeSession {
public:
  ServeSession(const std::string &Bin, const std::vector<WarmUnit> &W)
      : Bin(Bin), Warm(W) {}

  /// Spawn + readiness + warm-up; returns seconds taken, or -1.
  double setUp(const std::string &LogPath) {
    double T0 = nowUs();
    ::unlink(Socket);
    ColdBytes = 0;
    if (!D.start(Bin, Socket, LogPath)) {
      Book.fail("cannot spawn plutod");
      return -1;
    }
    for (double Deadline = nowUs() + 10e6; !Conns[0].connectTo(Socket);) {
      if (nowUs() > Deadline || !D.alive()) {
        Book.fail("plutod did not come up");
        return -1;
      }
      usleep(1000);
    }
    if (!Conns[1].connectTo(Socket)) {
      Book.fail("cannot open a second plutod connection");
      return -1;
    }
    std::vector<ServeRequest> Reqs(Warm.size());
    for (size_t I = 0; I < Warm.size(); ++I)
      Reqs[I].Line = requestLine(static_cast<long long>(I) + 1,
                                 "w" + std::to_string(I), Warm[I].Source,
                                 Warm[I].Opts);
    Book.attempt(static_cast<long long>(Warm.size()));
    openLoop(Conns, Reqs, 0, Reqs.size(), 0, nowUs(), 60e6,
             [&](ServeRequest &R, const serve::WireResponse &W) {
               size_t I = &R - Reqs.data();
               if (!W.ok() || W.EmittedC != Warm[I].Emitted) {
                 Book.fail("warm-up " + Warm[I].Name +
                           ": plutod reply differs from the in-process "
                           "compile");
                 return false;
               }
               ColdBytes += static_cast<double>(W.EmittedC.size());
               return true;
             });
    ColdSent = Warm.size();
    return (nowUs() - T0) / 1e6;
  }

  /// Requests [First, First + Count) of Reqs, fixed interval.
  void measure(std::vector<ServeRequest> &Reqs, size_t First, size_t Count,
               double IntervalUs) {
    for (size_t I = First; I < First + Count; ++I)
      ColdSent += Reqs[I].Cold;
    Book.attempt(static_cast<long long>(Count));
    ReferenceSampler Sampler(250e3);
    openLoop(Conns, Reqs, First, Count, IntervalUs, nowUs() + 1e3, 60e6,
             [&](ServeRequest &R, const serve::WireResponse &W) {
               std::string What = "request " + std::to_string(&R - Reqs.data());
               if (!W.ok()) {
                 Book.fail(What + ": " + statusCodeName(W.Status) +
                           ": " + W.Error);
                 return false;
               }
               if (R.Cold ? (W.CacheHit || W.EmittedC.find("void kernel(") ==
                                               std::string::npos)
                          : (!W.CacheHit ||
                             W.EmittedC != Warm[R.Warm].Emitted)) {
                 Book.fail(What + (R.Cold ? ": bad cold compile"
                                          : ": hit differs from the "
                                            "in-process compile"));
                 return false;
               }
               if (R.Cold)
                 ColdBytes += static_cast<double>(W.EmittedC.size());
               return true;
             });
    RefMs = Sampler.stop();
  }

  /// The metrics op's stats document (raw JSON), checked against the
  /// number of cold compiles sent.
  std::string metrics() {
    serve::WireRequest R;
    R.Operation = serve::Op::Metrics;
    R.Id = "0";
    std::string Line;
    if (!Conns[0].sendAll(serve::encodeRequest(R) + "\n"))
      return "null";
    while (!Conns[0].popLine(Line))
      if (!Conns[0].readSome())
        return "null";
    auto W = serve::decodeResponse(Line);
    if (!W || W->MetricsJson.empty()) {
      Book.fail("bad metrics reply");
      return "null";
    }
    auto J = JsonValue::parse(W->MetricsJson);
    const JsonValue *Cache = J ? J->find("cache") : nullptr;
    const JsonValue *Misses = Cache ? Cache->find("misses") : nullptr;
    Book.attempt();
    if (!Misses || Misses->asInt() != static_cast<long long>(ColdSent))
      Book.fail("plutod cache misses (" +
                std::to_string(Misses ? Misses->asInt() : -1) +
                ") != cold requests sent (" + std::to_string(ColdSent) + ")");
    return W->MetricsJson;
  }

  long long hwmKb() const { return D.hwmKb(); }

  /// Bytes of emitted C in every cold reply (warm-up and cold requests).
  double ColdBytes = 0;
  /// Reference timings taken during the last measure().
  std::vector<double> RefMs;

  void tearDown() {
    Conns[0].close();
    Conns[1].close();
    if (!D.stop())
      Book.fail("plutod did not drain cleanly");
    ::unlink(Socket);
  }

private:
  static constexpr const char *Socket = "plutod.sock";
  std::string Bin;
  const std::vector<WarmUnit> &Warm;
  Daemon D;
  Conn Conns[2];
  size_t ColdSent = 0;
};

/// Requests per second. One in ColdEvery is a cold compile of ~100 ms, so
/// this keeps plutod's two workers about 30% busy. Hits queue for the same
/// workers as misses: near half busy, a host running 1.5x slower pushes the
/// workers to saturation and the hit latency jumps tenfold. Cold programs
/// are drawn from a fixed pool of StressGen-10 programs (seeds
/// 1..ColdPoolSize), so the cost of the misses does not change with the
/// workload seed.
constexpr double ServeRate = 60;
constexpr size_t ColdEvery = 10;
constexpr unsigned ColdPoolSize = 16;

std::string serveBlock(std::vector<ServeRequest> &Reqs, size_t First,
                       size_t Count, bool Traced, const std::string &Metrics,
                       long long HwmKb, double ColdBytes,
                       const std::vector<double> &RefMs,
                       const std::string &Log) {
  std::vector<double> Lat, Rtt, Lag, Cold, Ok;
  double Begin = 1e300, End = 0;
  for (size_t I = First; I < First + Count; ++I) {
    ServeRequest &R = Reqs[I];
    Lat.push_back(R.Done ? (R.Arrive - R.Due) / 1e3 : -1);
    Rtt.push_back(R.Done ? (R.Arrive - R.SendStart) / 1e3 : -1);
    Lag.push_back((R.SendStart - R.Due) / 1e3);
    Cold.push_back(R.Cold);
    Ok.push_back(R.Good);
    Begin = std::min(Begin, R.Due);
    End = std::max(End, R.Done ? R.Arrive : R.SendEnd);
    if (Traced && R.Done) {
      int Id = Recorder.add("request", R.Due, R.Arrive, -1,
                            static_cast<long long>(I));
      Recorder.add("send", R.SendStart, R.SendEnd, Id,
                   static_cast<long long>(I));
      Recorder.add("receive", R.Arrive, R.Decoded, Id,
                   static_cast<long long>(I));
    }
  }
  return "{\"traced\":" + std::string(Traced ? "1" : "0") +
         ",\"first\":" + std::to_string(First) +
         ",\"elapsed_s\":" + num((End - Begin) / 1e6) +
         ",\"lat_ms\":" + numArray(Lat) + ",\"rtt_ms\":" + numArray(Rtt) +
         ",\"lag_ms\":" + numArray(Lag) + ",\"cold\":" + numArray(Cold) +
         ",\"ok\":" + numArray(Ok) + ",\"hwm_kb\":" + std::to_string(HwmKb) +
         ",\"cold_bytes\":" + num(ColdBytes) +
         ",\"ref_ms\":" + numArray(RefMs) +
         ",\"log\":" + (Log.empty() ? "null" : jsonQuote(Log)) +
         ",\"metrics\":" + Metrics + "}";
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload, Root, Out, Plutod;
  unsigned long long Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  if (Argc < 2)
    return false;
  A.Workload = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string S = Argv[I];
    auto Val = [&](const char *Key) -> const char * {
      size_t L = std::strlen(Key);
      return S.compare(0, L, Key) == 0 ? S.c_str() + L : nullptr;
    };
    if (const char *V = Val("--seed="))
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (const char *V = Val("--seconds="))
      A.Seconds = std::atof(V);
    else if (const char *V = Val("--trace="))
      A.Trace = std::atoi(V) != 0;
    else if (const char *V = Val("--root="))
      A.Root = V;
    else if (const char *V = Val("--out="))
      A.Out = V;
    else if (const char *V = Val("--plutod="))
      A.Plutod = V;
    else
      return false;
  }
  return !A.Root.empty() && !A.Out.empty() && A.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: plutobench paper_kernels|large_programs|serve_mixed "
                 "--seed=N --seconds=S --trace=0|1 --root=REPO --out=DIR "
                 "--plutod=PATH\n");
    return 2;
  }
  // Inputs and emitted units handed to cc for checking go under work/.
  std::filesystem::create_directories(A.Out + "/work");
  if (chdir(A.Out.c_str()) != 0) {
    std::perror("plutobench: chdir");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  Rng R(A.Seed);
  // In-process compiles run their OpenMP regions on one thread, as plutod's
  // workers do: on a few shared cores more threads time the host's
  // scheduler, and the reference work they are scaled by is single-threaded.
  omp_set_num_threads(1);
  const int CompileThreads = omp_get_max_threads();
  // Set-up is repeated so setup_s is a median; the traced run does it once.
  // large_programs' set-up is a few cc start-ups (~20 ms), so it takes more
  // repetitions for a steady median.
  const unsigned SetupReps =
      A.Trace ? 1 : A.Workload == "large_programs" ? 9 : 5;
  SetupLog Setup;
  uint64_t Digest = 0xCBF29CE484222325ull;
  std::string Body;

  if (A.Workload == "paper_kernels" || A.Workload == "large_programs") {
    bool Paper = A.Workload == "paper_kernels";
    std::vector<Unit> Units;
    std::vector<Runnable> Ks;
    std::unique_ptr<ColdCompiler> CC;
    double CompileSeconds = Paper ? A.Seconds / 2 : A.Seconds;
    for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
      Setup.before();
      double T0 = nowUs();
      if (Paper) {
        // Reference compiles, then cc builds of the original and emitted
        // kernels and the syntax check of every emitted unit.
        CC = std::make_unique<ColdCompiler>(paperUnits(A.Root));
        std::string Out;
        for (size_t I = 0; I < CC->Units.size(); ++I) {
          Book.attempt();
          if (CC->compile(I, Out))
            CC->checkSame(I, Out);
        }
        Ks.clear();
        Ks.resize(std::size(Problems));
        for (size_t P = 0; P < Ks.size(); ++P) {
          Ks[P].Name = Problems[P].Name;
          Ks[P].P = &Problems[P];
          for (size_t I = 0; I < CC->Units.size(); ++I)
            if (CC->Units[I].Name == Ks[P].Name &&
                !Ks[P].prepare(CC->Units[I].Source, CC->Reference[I]))
              Book.fail(Ks[P].Name + ": cannot prepare");
        }
        buildKernels(Ks, *CC);
      } else {
        // Corpus generation and a cc check that every input is valid C.
        std::string Wide;
        if (!readFile(A.Root + "/tests/corpus/bombs/wide_coupled.c", Wide))
          Book.fail("cannot read tests/corpus/bombs/wide_coupled.c");
        // The E9 programs (StressGen seed 1): the workload seed orders the
        // compiles; it does not draw the programs, whose costs differ by
        // tens of percent from one draw to the next.
        Units = {{"stressgen25", generateStressProgram(25, 1)},
                 {"stressgen100", generateStressProgram(100, 1)},
                 {"wide_coupled", Wide}};
        parallelFor(Units.size(), [&](size_t I) {
          Book.attempt();
          if (!syntaxCheck("work/input-" + Units[I].Name + ".c",
                           inputCheckUnit(Units[I].Source)))
            Book.fail(Units[I].Name + ": input is not valid C");
        });
        CC = std::make_unique<ColdCompiler>(Units);
      }
      Setup.after((nowUs() - T0) / 1e6);
    }
    for (const Unit &U : CC->Units)
      Digest = fnv1a(Digest, U.Source);
    Body += compileWorkload(*CC, CompileSeconds, A.Trace, R);
    long long Rss = vmHwmKb("self");
    if (!Paper)
      syntaxCheckEmitted(*CC);
    std::string Runtime = "{}";
    if (Paper) {
      Rng InputRng(A.Seed * 7919 + 1);
      for (Runnable &K : Ks) {
        if (K.Orig.valid() && K.Emitted.valid())
          K.allocate(InputRng);
        Book.attempt(2);
        if (!K.Orig.valid() || !K.Emitted.valid() || !checkOutputs(K, 1) ||
            (K.P->TwoThreads && !checkOutputs(K, 2)))
          Book.fail(K.Name + ": not run");
      }
      Ks.erase(std::remove_if(Ks.begin(), Ks.end(),
                              [](const Runnable &K) {
                                return !K.Orig.valid() || !K.Emitted.valid();
                              }),
               Ks.end());
      for (const Runnable &K : Ks)
        for (const auto &Buf : K.Pristine)
          Digest = fnv1a(Digest, Buf.data(), Buf.size() * sizeof(double));
      if (A.Trace)
        Tracer = &Recorder;
      Runtime = runtimePhase(Ks, A.Seconds / 2);
      Tracer = nullptr;
    }
    Body += ",\"runtime\":" + Runtime +
            ",\"peak_rss_kb\":" + std::to_string(Rss);
  } else if (A.Workload == "serve_mixed") {
    if (A.Plutod.empty()) {
      std::fprintf(stderr, "plutobench: serve_mixed needs --plutod\n");
      return 2;
    }
    std::vector<WarmUnit> Warm = warmSet(A.Root);
    size_t Count = static_cast<size_t>(ServeRate * A.Seconds);
    std::vector<ServeRequest> Reqs(Count);
    // One cold request at a seeded position in every block of ColdEvery,
    // so the load is the same in every run and every stretch of it.
    for (size_t B = 0; B < Count; B += ColdEvery)
      Reqs[std::min(Count - 1, B + R.below(ColdEvery))].Cold = true;
    std::vector<std::string> ColdPool;
    for (unsigned K = 1; K <= ColdPoolSize; ++K)
      ColdPool.push_back(generateStressProgram(10, K));
    // Cold programs go in seeded rounds that use each pool program once, so
    // every program is drawn equally often and the tail percentile does not
    // move with how often the slowest ones happen to be drawn.
    std::vector<size_t> Round;
    for (size_t I = 0; I < Count; ++I) {
      ServeRequest &Q = Reqs[I];
      std::string Name = "r" + std::to_string(I);
      if (Q.Cold) {
        if (Round.empty()) {
          for (size_t K = 0; K < ColdPool.size(); ++K)
            Round.push_back(K);
          shuffle(Round, R);
        }
        // A comment makes every cold program distinct from every other.
        std::string Src = "/* cold " + std::to_string(A.Seed) + ":" +
                          std::to_string(I) + " */\n" + ColdPool[Round.back()];
        Round.pop_back();
        Q.Line = requestLine(static_cast<long long>(I) + 1, Name, Src,
                             PlutoOptions());
      } else {
        Q.Warm = R.below(Warm.size());
        Q.Line = requestLine(static_cast<long long>(I) + 1, Name,
                             Warm[Q.Warm].Source, Warm[Q.Warm].Opts);
      }
      Digest = fnv1a(Digest, Q.Line);
    }
    double IntervalUs = 1e6 / ServeRate;
    std::string Blocks = "[";
    if (!A.Trace) {
      ServeSession S(A.Plutod, Warm);
      double Secs = 0;
      for (unsigned Rep = 0; Rep < SetupReps && Secs >= 0; ++Rep) {
        if (Rep)
          S.tearDown();
        Setup.before();
        Setup.after(Secs = S.setUp(""));
      }
      if (Secs >= 0) {
        S.measure(Reqs, 0, Count, IntervalUs);
        std::string M = S.metrics();
        long long Hwm = S.hwmKb();
        S.tearDown();
        Blocks += serveBlock(Reqs, 0, Count, false, M, Hwm, S.ColdBytes,
                             S.RefMs, "");
      }
    } else {
      // Untraced half on a quiet plutod, traced half on a logging one.
      size_t Half = Count / 2;
      for (int Traced = 0; Traced < 2; ++Traced) {
        std::string Log =
            Traced ? "plutod-" + std::to_string(A.Seed) + ".log" : "";
        ServeSession S(A.Plutod, Warm);
        Setup.before();
        double Secs = S.setUp(Log);
        Setup.after(Secs);
        if (Secs >= 0) {
          size_t First = Traced ? Half : 0;
          size_t N = Traced ? Count - Half : Half;
          S.measure(Reqs, First, N, IntervalUs);
          std::string M = S.metrics();
          long long Hwm = S.hwmKb();
          S.tearDown();
          Blocks += std::string(Blocks.size() > 1 ? "," : "") +
                    serveBlock(Reqs, First, N, Traced, M, Hwm, S.ColdBytes,
                               S.RefMs, Log.empty() ? "" : A.Out + "/" + Log);
        }
      }
    }
    Body += "\"serve\":" + Blocks + "],\"rate_rps\":" + num(ServeRate);
  } else {
    std::fprintf(stderr, "plutobench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }

  std::string TracePath;
  if (A.Trace) {
    TracePath = A.Out + "/trace-" + A.Workload + "-" +
                std::to_string(A.Seed) + ".json";
    if (!Recorder.writeChromeTrace(TracePath))
      Book.fail("cannot write " + TracePath);
  }
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(Digest));
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"seconds\":%s,"
      "\"omp_threads\":{\"compile\":%d,\"kernels\":[1,2],"
      "\"plutod_workers\":2,\"plutod_per_compile\":1},"
      "\"input_digest\":\"%s\",%s,"
      "\"spans\":%s,\"trace_file\":%s,%s,\"attempted\":%lld,\"failed\":%lld,"
      "\"failures\":%s}"
      "\n",
      jsonQuote(A.Workload).c_str(), A.Seed, A.Trace ? 1 : 0,
      num(A.Seconds).c_str(), CompileThreads, Hex, Setup.json().c_str(),
      Recorder.summaryJson().c_str(),
      TracePath.empty() ? "null" : jsonQuote(TracePath).c_str(),
      Body.c_str(), Book.Attempted, Book.Failed,
      strArray(Book.Failures).c_str());
  return 0;
}
