//===- serve/Server.cpp - plutod concurrent compile server ----------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "support/FaultInjector.h"
#include "support/Json.h"
#include "tune/Tuner.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace pluto;
using namespace pluto::serve;

using Clock = std::chrono::steady_clock;

constexpr double LatencyHistogram::BucketUpperMs[];

void LatencyHistogram::record(double Ms) {
  unsigned B = 0;
  while (B < NumBuckets - 1 && Ms > BucketUpperMs[B])
    ++B;
  ++Counts[B];
  ++Total;
  SumMs += Ms;
}

std::string LatencyHistogram::toJson() const {
  std::string Out = "{\"buckets_ms\": [";
  char Buf[64];
  for (unsigned I = 0; I < NumBuckets - 1; ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s%g", I ? ", " : "", BucketUpperMs[I]);
    Out += Buf;
  }
  Out += ", \"+Inf\"], \"counts\": [";
  for (unsigned I = 0; I < NumBuckets; ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s%llu", I ? ", " : "",
                  static_cast<unsigned long long>(Counts[I]));
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "], \"count\": %llu, \"sum_ms\": %.3f}",
                static_cast<unsigned long long>(Total), SumMs);
  Out += Buf;
  return Out;
}

/// One admitted compile or tune job, waiting in its connection's deque.
struct Server::Job {
  std::string Id; ///< raw JSON echo id
  CompileRequest Req;
  bool IsTune = false;
  std::string Spec; ///< tune search-space spec (validated at admission)
  Clock::time_point Admitted;
};

/// One client connection. The file descriptor and the inbound buffer are
/// owned by the event-loop thread; the outbound buffer is shared with the
/// workers under OutMu; the job deque is scheduler state under SchedMu.
struct Server::Conn {
  int Fd = -1;
  uint64_t Id = 0;

  // Event-loop thread only.
  std::string InBuf;
  bool Discarding = false; ///< skipping to the next newline after an
                           ///< oversized line

  // Shared with workers.
  std::mutex OutMu;
  std::string OutBuf;
  bool Closed = false; ///< fd closed; further sends are dropped

  // Guarded by the server's SchedMu.
  std::deque<Job> Jobs;
  bool InRing = false;

  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

static void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

Server::Server(ServerConfig C) : Cfg(std::move(C)) {}

Result<std::unique_ptr<Server>> Server::create(ServerConfig C) {
  if (C.SocketPath.empty())
    return Err("server needs a socket path");
  sockaddr_un Addr;
  if (C.SocketPath.size() >= sizeof(Addr.sun_path))
    return Err("socket path too long (max " +
               std::to_string(sizeof(Addr.sun_path) - 1) + " bytes)");
  if (C.Workers == 0) {
    C.Workers = std::thread::hardware_concurrency();
    if (C.Workers == 0)
      C.Workers = 2;
  }
  if (C.MaxQueue == 0)
    C.MaxQueue = 1;

  std::unique_ptr<Server> S(new Server(std::move(C)));

  ResultCache::Config CC;
  CC.MaxBytes = S->Cfg.CacheMaxBytes;
  CC.DiskDir = S->Cfg.CacheDir;
  S->Cache = std::make_shared<ResultCache>(CC);

  S->ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (S->ListenFd < 0)
    return Err(std::string("socket(): ") + std::strerror(errno));
  setNonBlocking(S->ListenFd);

  // A stale socket file from a dead daemon would fail bind() with
  // EADDRINUSE; a live daemon holds the listening socket, not the inode,
  // so unlinking is safe either way (the live daemon keeps serving its
  // existing connections but new clients reach us).
  ::unlink(S->Cfg.SocketPath.c_str());
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, S->Cfg.SocketPath.c_str(),
              S->Cfg.SocketPath.size());
  if (::bind(S->ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) < 0)
    return Err("bind(" + S->Cfg.SocketPath + "): " + std::strerror(errno));
  if (::listen(S->ListenFd, 64) < 0)
    return Err(std::string("listen(): ") + std::strerror(errno));

  int Pipe[2];
  if (::pipe2(Pipe, O_NONBLOCK | O_CLOEXEC) < 0)
    return Err(std::string("pipe2(): ") + std::strerror(errno));
  S->WakeRd = Pipe[0];
  S->WakeWr = Pipe[1];
  return S;
}

Server::~Server() {
  drain();
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (WakeRd >= 0)
    ::close(WakeRd);
  if (WakeWr >= 0)
    ::close(WakeWr);
}

void Server::start() {
  {
    std::lock_guard<std::mutex> L(SchedMu);
    if (Started)
      return;
    Started = true;
  }
  // The daemon's own PassStats sink: every pipeline a worker runs feeds
  // it, so the metrics endpoint sees all toolchain counters. (In isolate
  // mode the children's toolchain counters stay in the children; the
  // metrics document reflects parent-side events.)
  setActiveStats(&ToolStats);
  // One sandbox per worker thread, created (not yet forked - the children
  // spawn lazily on first use) before the threads so the vector is
  // immutable once any thread can see it.
  if (Cfg.Isolate) {
    SandboxConfig SC;
    if (Cfg.MaxMemoryMb > 0)
      SC.MemoryRlimitBytes = static_cast<uint64_t>(Cfg.MaxMemoryMb) << 20;
    for (unsigned I = 0; I < Cfg.Workers; ++I)
      Sandboxes.push_back(std::make_unique<SandboxWorker>(SC));
  }
  LoopThread = std::thread([this] { eventLoop(); });
  for (unsigned I = 0; I < Cfg.Workers; ++I)
    WorkerThreads.emplace_back([this, I] { workerLoop(I); });
}

void Server::wake() {
  char B = 1;
  (void)!::write(WakeWr, &B, 1); // pipe full = a wakeup is already queued
}

void Server::drain() {
  {
    std::lock_guard<std::mutex> L(SchedMu);
    if (!Started || Drained) {
      Drained = true;
      return;
    }
    Draining = true;
  }
  wake(); // stop accepting immediately

  // Phase 1: every admitted job answered.
  {
    std::unique_lock<std::mutex> L(SchedMu);
    DrainCv.wait(L, [this] { return QueuedJobs == 0 && InFlightJobs == 0; });
    StopWorkers = true;
  }
  SchedCv.notify_all();
  for (std::thread &T : WorkerThreads)
    T.join();
  WorkerThreads.clear();

  // Phase 2: flush outbound buffers, then tear down the event loop.
  {
    std::lock_guard<std::mutex> L(SchedMu);
    StopLoop = true;
  }
  wake();
  if (LoopThread.joinable())
    LoopThread.join();

  if (activeStats() == &ToolStats)
    setActiveStats(nullptr);
  ::unlink(Cfg.SocketPath.c_str());
  {
    std::lock_guard<std::mutex> L(SchedMu);
    Drained = true;
  }
}

Server::Stats Server::stats() const {
  Stats S;
  {
    std::lock_guard<std::mutex> L(StatsMu);
    S = Counters;
  }
  // The sandbox vector is immutable after start(); restarts() is atomic.
  for (const auto &SB : Sandboxes)
    S.SandboxRestarts += SB->restarts();
  std::lock_guard<std::mutex> L(SchedMu);
  S.QueueDepth = QueuedJobs;
  S.InFlight = InFlightJobs;
  return S;
}

LatencyHistogram Server::latency() const {
  std::lock_guard<std::mutex> L(StatsMu);
  return Latency;
}

std::string Server::metricsJson() const {
  Stats S = stats();
  ResultCache::Snapshot CS = Cache->snapshot();
  std::string Extra;
  {
    char Buf[768];
    std::snprintf(
        Buf, sizeof(Buf),
        "\"server\": {\"workers\": %u, "
        "\"connections_accepted\": %llu, \"connections_closed\": %llu, "
        "\"open_connections\": %llu, \"requests_accepted\": %llu, "
        "\"requests_completed\": %llu, \"rejected_overload\": %llu, "
        "\"bad_requests\": %llu, \"timed_out\": %llu, \"pings\": %llu, "
        "\"metrics_requests\": %llu, \"sandbox_restarts\": %llu, "
        "\"breaker_hits\": %llu, \"queue_depth\": %llu, "
        "\"in_flight\": %llu},\n  ",
        Cfg.Workers,
        static_cast<unsigned long long>(S.ConnectionsAccepted),
        static_cast<unsigned long long>(S.ConnectionsClosed),
        static_cast<unsigned long long>(S.OpenConnections),
        static_cast<unsigned long long>(S.RequestsAccepted),
        static_cast<unsigned long long>(S.RequestsCompleted),
        static_cast<unsigned long long>(S.RejectedOverload),
        static_cast<unsigned long long>(S.BadRequests),
        static_cast<unsigned long long>(S.TimedOut),
        static_cast<unsigned long long>(S.PingsServed),
        static_cast<unsigned long long>(S.MetricsServed),
        static_cast<unsigned long long>(S.SandboxRestarts),
        static_cast<unsigned long long>(S.BreakerHits),
        static_cast<unsigned long long>(S.QueueDepth),
        static_cast<unsigned long long>(S.InFlight));
    Extra += Buf;
    std::snprintf(
        Buf, sizeof(Buf),
        "\"cache\": {\"hits\": %llu, \"disk_hits\": %llu, \"misses\": %llu, "
        "\"evictions\": %llu, \"coalesced\": %llu, \"bytes\": %llu, "
        "\"entries\": %llu},\n  ",
        static_cast<unsigned long long>(CS.Hits),
        static_cast<unsigned long long>(CS.DiskHits),
        static_cast<unsigned long long>(CS.Misses),
        static_cast<unsigned long long>(CS.Evictions),
        static_cast<unsigned long long>(CS.Coalesced),
        static_cast<unsigned long long>(CS.Bytes),
        static_cast<unsigned long long>(CS.Entries));
    Extra += Buf;
  }
  Extra += "\"latency_ms\": ";
  Extra += latency().toJson();
  return ToolStats.toJson(nullptr, &Extra);
}

void Server::sendLine(const std::shared_ptr<Conn> &C, const std::string &Line) {
  {
    std::lock_guard<std::mutex> L(C->OutMu);
    if (C->Closed)
      return; // client went away; the response is dropped, not the job
    C->OutBuf += Line;
    C->OutBuf += '\n';
  }
  wake();
}

void Server::logRequest(const std::shared_ptr<Conn> &C, const std::string &Name,
                        StatusCode S, bool CacheHit, double Ms) {
  if (!Cfg.LogStream)
    return;
  auto Now = std::chrono::system_clock::now().time_since_epoch();
  long long UnixMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(Now).count();
  std::string Line = "{\"ts_ms\": " + std::to_string(UnixMs) +
                     ", \"conn\": " + std::to_string(C->Id) + ", \"name\": " +
                     jsonQuote(Name) + ", \"status\": \"" +
                     statusCodeName(S) + "\", \"cache_hit\": " +
                     (CacheHit ? "true" : "false");
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), ", \"latency_ms\": %.3f}\n", Ms);
  Line += Buf;
  std::fputs(Line.c_str(), Cfg.LogStream);
  std::fflush(Cfg.LogStream);
}

void Server::handleLine(const std::shared_ptr<Conn> &C, std::string Line) {
  if (Line.size() > Cfg.MaxRequestBytes) {
    {
      std::lock_guard<std::mutex> L(StatsMu);
      ++Counters.BadRequests;
    }
    sendLine(C, encodeSimpleResponse(
                    "null", StatusCode::BadRequest,
                    "request line exceeds the " +
                        std::to_string(Cfg.MaxRequestBytes) + "-byte cap"));
    return;
  }

  auto R = decodeRequest(Line);
  if (!R) {
    {
      std::lock_guard<std::mutex> L(StatsMu);
      ++Counters.BadRequests;
    }
    sendLine(C, encodeSimpleResponse("null", StatusCode::BadRequest,
                                     R.error()));
    return;
  }

  switch (R->Operation) {
  case Op::Ping: {
    {
      std::lock_guard<std::mutex> L(StatsMu);
      ++Counters.PingsServed;
    }
    sendLine(C, encodeSimpleResponse(R->Id, StatusCode::Ok, ""));
    return;
  }
  case Op::Metrics: {
    {
      std::lock_guard<std::mutex> L(StatsMu);
      ++Counters.MetricsServed;
    }
    sendLine(C, encodeMetricsResponse(R->Id, minifyJson(metricsJson())));
    return;
  }
  case Op::Compile:
  case Op::Tune:
    break;
  }

  // Reject unlowerable option sets at admission so they are classified
  // bad-request (a worker would only discover this later).
  if (auto V = R->Req.Opts.validate(); !V) {
    {
      std::lock_guard<std::mutex> L(StatsMu);
      ++Counters.BadRequests;
    }
    sendLine(C, encodeSimpleResponse(R->Id, StatusCode::BadRequest,
                                     V.error()));
    return;
  }

  // Same early classification for a malformed tune spec: parse it now so
  // the client hears bad-request, not a late worker-side failure.
  if (R->Operation == Op::Tune) {
    tune::SearchSpace Space;
    tune::TuneOptions Probe;
    if (auto S = tune::parseSpec(R->Spec, Space, Probe); !S) {
      {
        std::lock_guard<std::mutex> L(StatsMu);
        ++Counters.BadRequests;
      }
      sendLine(C, encodeSimpleResponse(R->Id, StatusCode::BadRequest,
                                       S.error()));
      return;
    }
  }

  // Admission: bounded queue, reject-don't-drop.
  bool Admitted = false;
  std::string RejectReason;
  {
    std::lock_guard<std::mutex> L(SchedMu);
    if (Draining)
      RejectReason = "server is draining";
    else if (QueuedJobs >= Cfg.MaxQueue)
      RejectReason = "admission queue is full (" +
                     std::to_string(Cfg.MaxQueue) + " jobs)";
    else {
      Job J;
      J.Id = R->Id;
      J.Req = std::move(R->Req);
      J.IsTune = R->Operation == Op::Tune;
      J.Spec = std::move(R->Spec);
      J.Admitted = Clock::now();
      C->Jobs.push_back(std::move(J));
      if (!C->InRing) {
        C->InRing = true;
        ReadyConns.push_back(C);
      }
      ++QueuedJobs;
      Admitted = true;
    }
  }
  if (Admitted) {
    {
      std::lock_guard<std::mutex> L(StatsMu);
      ++Counters.RequestsAccepted;
    }
    SchedCv.notify_one();
  } else {
    {
      std::lock_guard<std::mutex> L(StatsMu);
      ++Counters.RejectedOverload;
    }
    sendLine(C, encodeSimpleResponse(R->Id, StatusCode::Overloaded,
                                     RejectReason));
  }
}

CompileResponse Server::isolatedCompile(const Pipeline &Session,
                                        SandboxWorker &SB,
                                        const CompileRequest &Req) {
  // The parent keeps keying and caching; only cold compiles cross into
  // the child. (No single-flight coalescing here: two workers may race on
  // one cold key and both pay the child round trip - a deliberate trade
  // for never blocking one sandbox on another's in-flight job.)
  std::string Key = Session.cacheKey(Req.Source);
  CompileResponse Resp;
  Resp.Name = Req.Name;
  Resp.Key = Key;
  if (auto V = Cache->lookup(Key)) {
    Resp.Status = StatusCode::Ok;
    Resp.EmittedC = std::move(*V);
    Resp.CacheHit = true;
    return Resp;
  }

  // Circuit breaker: a key that recently crashed or killed a worker is
  // answered from memory instead of being given another child to kill.
  if (Cfg.BreakerTtlMs > 0) {
    std::lock_guard<std::mutex> L(BreakerMu);
    auto It = Breaker.find(Key);
    if (It != Breaker.end()) {
      if (Clock::now() < It->second.Expiry) {
        {
          std::lock_guard<std::mutex> SL(StatsMu);
          ++Counters.BreakerHits;
        }
        Resp.Status = It->second.Status;
        Resp.Error = "circuit breaker open (this input recently killed a "
                     "sandbox worker): " +
                     It->second.Error;
        return Resp;
      }
      Breaker.erase(It);
    }
  }

  bool WorkerDied = false;
  CompileResponse Child = SB.compile(Req, &WorkerDied);
  Resp.Status = Child.Status;
  Resp.EmittedC = std::move(Child.EmittedC);
  Resp.Diags = std::move(Child.Diags);
  Resp.Error = std::move(Child.Error);
  if (WorkerDied && Cfg.BreakerTtlMs > 0) {
    std::lock_guard<std::mutex> L(BreakerMu);
    Breaker[Key] = BreakerEntry{
        Clock::now() + std::chrono::milliseconds(Cfg.BreakerTtlMs),
        Resp.Status, Resp.Error};
  }
  if (Resp.ok())
    Cache->insert(Key, Resp.EmittedC);
  return Resp;
}

void Server::workerLoop(unsigned Idx) {
  // Server-wide budget floor, merged tightest with each request's own.
  BudgetLimits ServerLimits;
  if (Cfg.CompileTimeoutMs > 0)
    ServerLimits.WallMs = static_cast<uint64_t>(Cfg.CompileTimeoutMs);
  if (Cfg.MaxMemoryMb > 0)
    ServerLimits.MaxMemoryBytes = static_cast<uint64_t>(Cfg.MaxMemoryMb)
                                  << 20;

  for (;;) {
    std::shared_ptr<Conn> C;
    Job J;
    {
      std::unique_lock<std::mutex> L(SchedMu);
      SchedCv.wait(L, [this] { return StopWorkers || !ReadyConns.empty(); });
      if (ReadyConns.empty()) {
        if (StopWorkers)
          return;
        continue;
      }
      // Round-robin across connections: take this connection's oldest
      // job, then rotate the connection to the back of the ring if it
      // still has work.
      C = std::move(ReadyConns.front());
      ReadyConns.pop_front();
      J = std::move(C->Jobs.front());
      C->Jobs.pop_front();
      if (!C->Jobs.empty())
        ReadyConns.push_back(C);
      else
        C->InRing = false;
      --QueuedJobs;
      ++InFlightJobs;
    }

    CompileResponse Resp;
    std::string RespLine; ///< pre-encoded reply (tune); empty = encode Resp
    bool TimedOutJob = false;
    if (Cfg.RequestTimeoutMs > 0 &&
        Clock::now() - J.Admitted >
            std::chrono::milliseconds(Cfg.RequestTimeoutMs)) {
      TimedOutJob = true;
      Resp.Status = StatusCode::Overloaded;
      Resp.Name = J.Req.Name;
      Resp.Error = "request deadline exceeded after " +
                   std::to_string(Cfg.RequestTimeoutMs) +
                   " ms in the queue";
    } else if (J.IsTune) {
      // Tune jobs run explore(), which keeps its own frontend session per
      // schedule group and compiles every variant through the shared
      // cache. The search runs
      // in-parent even in isolate mode - per-variant status isolation
      // inside explore() contains variant failures. (The spec parsed at
      // admission; re-parsing here cannot fail.)
      tune::SearchSpace Space;
      tune::TuneOptions TuneOpts;
      TuneOpts.Base = J.Req.Opts;
      (void)tune::parseSpec(J.Spec, Space, TuneOpts);
      TuneOpts.Budget = BudgetLimits::tightest(J.Req.Budget, ServerLimits);
      TuneOpts.Cache = Cache;
      tune::TuneResult TR = tune::explore(J.Req.Source, Space, TuneOpts);
      Resp.Status = TR.Status;
      Resp.Name = J.Req.Name;
      Resp.Key = TR.WinnerKey;
      Resp.Error = TR.Error;
      RespLine = encodeTuneResponse(J.Id, TR.Status, J.Req.Name, TR.WinnerKey,
                                    TR.WinnerC, TR.Error,
                                    minifyJson(TR.traceJson()));
    } else {
      J.Req.Budget = BudgetLimits::tightest(J.Req.Budget, ServerLimits);
      // One session per request; the shared cache dedups across requests
      // and workers.
      auto P = Pipeline::create(J.Req.Opts);
      if (!P) { // unreachable: options were validated at admission
        Resp.Status = StatusCode::BadRequest;
        Resp.Name = J.Req.Name;
        Resp.Error = P.error();
      } else {
        P->attachCache(Cache);
        Resp = Cfg.Isolate ? isolatedCompile(*P, *Sandboxes[Idx], J.Req)
                           : P->compileRequest(J.Req);
      }
    }

    double Ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          J.Admitted)
                    .count();
    {
      std::lock_guard<std::mutex> L(StatsMu);
      ++Counters.RequestsCompleted;
      if (TimedOutJob)
        ++Counters.TimedOut;
      Latency.record(Ms);
    }
    logRequest(C, Resp.Name, Resp.Status, Resp.CacheHit, Ms);
    sendLine(C, RespLine.empty() ? encodeResponse(J.Id, Resp) : RespLine);

    bool Quiesced = false;
    {
      std::lock_guard<std::mutex> L(SchedMu);
      --InFlightJobs;
      Quiesced = Draining && QueuedJobs == 0 && InFlightJobs == 0;
    }
    if (Quiesced)
      DrainCv.notify_all();
  }
}

void Server::eventLoop() {
  std::vector<pollfd> Pfds;
  bool SawStop = false;
  Clock::time_point FlushDeadline;

  for (;;) {
    bool Accepting;
    bool Stopping;
    {
      std::lock_guard<std::mutex> L(SchedMu);
      Accepting = !Draining;
      Stopping = StopLoop;
    }

    // Exit once asked to stop and every reply is flushed (or the flush
    // grace period lapses - a client that never reads cannot hold the
    // daemon's shutdown hostage).
    bool AllFlushed = true;
    for (const auto &C : Conns) {
      std::lock_guard<std::mutex> L(C->OutMu);
      if (!C->Closed && !C->OutBuf.empty())
        AllFlushed = false;
    }
    if (Stopping) {
      if (!SawStop) {
        SawStop = true;
        FlushDeadline = Clock::now() + std::chrono::seconds(5);
      }
      if (AllFlushed || Clock::now() > FlushDeadline)
        break;
    }

    Pfds.clear();
    Pfds.push_back({WakeRd, POLLIN, 0});
    size_t ListenIdx = SIZE_MAX;
    if (Accepting) {
      ListenIdx = Pfds.size();
      Pfds.push_back({ListenFd, POLLIN, 0});
    }
    size_t ConnBase = Pfds.size();
    size_t NumPolled = Conns.size();
    for (const auto &C : Conns) {
      short Ev = POLLIN;
      {
        std::lock_guard<std::mutex> L(C->OutMu);
        if (!C->OutBuf.empty())
          Ev |= POLLOUT;
      }
      Pfds.push_back({C->Fd, Ev, 0});
    }

    int N = ::poll(Pfds.data(), Pfds.size(), Stopping ? 50 : 500);
    if (N < 0 && errno != EINTR)
      break;

    if (Pfds[0].revents & POLLIN) {
      char Buf[64];
      while (::read(WakeRd, Buf, sizeof(Buf)) > 0)
        ;
    }

    if (ListenIdx != SIZE_MAX && (Pfds[ListenIdx].revents & POLLIN)) {
      for (;;) {
        int Fd = ::accept4(ListenFd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (Fd < 0)
          break;
        auto C = std::make_shared<Conn>();
        C->Fd = Fd;
        C->Id = NextConnId++;
        Conns.push_back(std::move(C));
        std::lock_guard<std::mutex> L(StatsMu);
        ++Counters.ConnectionsAccepted;
        ++Counters.OpenConnections;
      }
    }

    // K tracks the pre-poll position (index into Pfds) even as erases
    // shift Conns; conns accepted after the poll (K >= NumPolled) have no
    // pollfd and get their first read next iteration.
    size_t K = 0;
    for (size_t I = 0; I < Conns.size(); ++K) {
      std::shared_ptr<Conn> &C = Conns[I];
      short Re = K < NumPolled ? Pfds[ConnBase + K].revents : 0;
      bool Dead = false;

      if (Re & (POLLIN | POLLHUP | POLLERR)) {
        char Buf[65536];
        for (;;) {
          ssize_t R = ::recv(C->Fd, Buf, sizeof(Buf), 0);
          if (R > 0) {
            size_t Off = 0;
            if (C->Discarding) {
              // Resync after an oversized line: skip to the newline.
              const char *Nl = static_cast<const char *>(
                  std::memchr(Buf, '\n', static_cast<size_t>(R)));
              if (!Nl)
                continue;
              Off = static_cast<size_t>(Nl - Buf) + 1;
              C->Discarding = false;
            }
            C->InBuf.append(Buf + Off, static_cast<size_t>(R) - Off);
            size_t Pos;
            while ((Pos = C->InBuf.find('\n')) != std::string::npos) {
              std::string Line = C->InBuf.substr(0, Pos);
              C->InBuf.erase(0, Pos + 1);
              if (!Line.empty() && Line.back() == '\r')
                Line.pop_back();
              if (!Line.empty())
                handleLine(C, std::move(Line));
            }
            if (C->InBuf.size() > Cfg.MaxRequestBytes) {
              // Unterminated over-cap line: reject now, resync later.
              C->InBuf.clear();
              C->InBuf.shrink_to_fit();
              C->Discarding = true;
              {
                std::lock_guard<std::mutex> L(StatsMu);
                ++Counters.BadRequests;
              }
              sendLine(C, encodeSimpleResponse(
                              "null", StatusCode::BadRequest,
                              "request line exceeds the " +
                                  std::to_string(Cfg.MaxRequestBytes) +
                                  "-byte cap"));
            }
            continue;
          }
          if (R == 0) {
            Dead = true;
          } else if (errno == EAGAIN || errno == EWOULDBLOCK ||
                     errno == EINTR) {
            // drained
          } else {
            Dead = true;
          }
          break;
        }
      }

      if (!Dead) {
        std::lock_guard<std::mutex> L(C->OutMu);
        while (!C->OutBuf.empty()) {
          ssize_t W;
          if (FaultInjector::shouldFail("serve.socket_write")) {
            // A vanished peer mid-write: exercised as EPIPE, which takes
            // the same close-the-connection path a real one would.
            errno = EPIPE;
            W = -1;
          } else
            W = ::send(C->Fd, C->OutBuf.data(), C->OutBuf.size(),
                       MSG_NOSIGNAL | MSG_DONTWAIT);
          if (W > 0) {
            C->OutBuf.erase(0, static_cast<size_t>(W));
            continue;
          }
          if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                        errno == EINTR))
            break;
          Dead = true;
          break;
        }
      }

      if (Dead) {
        {
          std::lock_guard<std::mutex> L(C->OutMu);
          C->Closed = true;
          C->OutBuf.clear();
        }
        ::close(C->Fd);
        C->Fd = -1;
        // Queued jobs keep their shared_ptr and still complete (counted);
        // only their replies are dropped.
        Conns.erase(Conns.begin() + static_cast<long>(I));
        std::lock_guard<std::mutex> L(StatsMu);
        ++Counters.ConnectionsClosed;
        --Counters.OpenConnections;
        continue;
      }
      ++I;
    }
  }

  // Teardown: close every remaining connection.
  for (auto &C : Conns) {
    std::lock_guard<std::mutex> L(C->OutMu);
    C->Closed = true;
    if (C->Fd >= 0) {
      ::close(C->Fd);
      C->Fd = -1;
    }
  }
  {
    std::lock_guard<std::mutex> L(StatsMu);
    Counters.ConnectionsClosed += Conns.size();
    Counters.OpenConnections = 0;
  }
  Conns.clear();
}
