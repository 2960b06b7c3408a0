//===- serve/Sandbox.cpp - Forked sandbox compile workers -----------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "serve/Sandbox.h"

#include "observe/PassStats.h"
#include "serve/Protocol.h"
#include "service/Pipeline.h"
#include "support/Budget.h"
#include "support/FaultInjector.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pluto;
using namespace pluto::serve;

using Clock = std::chrono::steady_clock;

// RLIMIT_AS reserves shadow memory under AddressSanitizer far beyond any
// sane budget; the cooperative budget and the CPU/watchdog layers still
// apply in sanitizer builds.
#if defined(__SANITIZE_ADDRESS__)
#define PLUTOPP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PLUTOPP_ASAN 1
#endif
#endif

namespace {

/// Fixed allowance on top of the configured memory budget for the child's
/// own image, stacks and allocator slop.
constexpr uint64_t ChildMemoryHeadroomBytes = 256ull << 20;

/// Slack added to a request's wall budget before the parent watchdog
/// SIGKILLs the child, so the child's own (cleaner) in-band budget trip
/// wins the race under normal scheduling.
constexpr uint64_t WatchdogGraceMs = 500;

/// Full write with EINTR handling; MSG_NOSIGNAL so a dead peer reports
/// EPIPE instead of raising SIGPIPE.
bool writeAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t W = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(W);
  }
  return true;
}

/// Per-request CPU ceiling in the child: soft RLIMIT_CPU at (CPU already
/// burned) + the wall budget rounded up + 1 s slack. RLIMIT_CPU counts
/// cumulative process CPU, so a persistent worker must re-derive the soft
/// limit from current usage before every request; the hard limit stays
/// untouched. A compute loop that never reaches a cooperative budget check
/// then dies with SIGXCPU, which the parent classifies resource-exhausted.
void applyCpuLimit(uint64_t WallMs) {
  if (!WallMs)
    return;
  rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return;
  uint64_t UsedSec = static_cast<uint64_t>(RU.ru_utime.tv_sec) +
                     static_cast<uint64_t>(RU.ru_stime.tv_sec);
  rlimit RL;
  if (getrlimit(RLIMIT_CPU, &RL) != 0)
    return;
  rlim_t Want = UsedSec + (WallMs + 999) / 1000 + 1;
  if (RL.rlim_max != RLIM_INFINITY && Want > RL.rlim_max)
    Want = RL.rlim_max;
  RL.rlim_cur = Want;
  ::setrlimit(RLIMIT_CPU, &RL);
}

/// Serves one decoded line in the child: compile through a Pipeline
/// session of its own (no cache - the parent caches) and return the
/// encoded response line.
std::string serveOne(const std::string &Line) {
  auto R = decodeRequest(Line);
  if (!R)
    return encodeSimpleResponse("null", StatusCode::BadRequest, R.error());
  if (R->Operation != Op::Compile)
    return encodeSimpleResponse(R->Id, StatusCode::BadRequest,
                                "sandbox worker only serves compile requests");

  // Deterministic crash/hang faults for the parent's recovery paths.
  if (FaultInjector::shouldFail("sandbox.abort"))
    std::abort();
  if (FaultInjector::shouldFail("sandbox.hang"))
    ::sleep(3600);

  applyCpuLimit(R->Req.Budget.WallMs);

  auto P = Pipeline::create(R->Req.Opts);
  if (!P)
    return encodeSimpleResponse(R->Id, StatusCode::BadRequest, P.error());
  return encodeResponse(R->Id, P->compileRequest(R->Req));
}

/// The child's whole life: read request lines off the socketpair, compile,
/// write response lines, exit cleanly on EOF (the parent closed its end).
[[noreturn]] void runChild(int Fd, const SandboxConfig &Cfg) {
  // The fork inherited the parent's OpenMP runtime state, which is not
  // usable in the child; every pass must stay on this one thread.
  setSingleThreadMode(true);

  // Drop every inherited descriptor except the IPC socket and stdio: the
  // child must not hold the daemon's listen socket, wake pipe or client
  // connections open past their parent-side close.
  rlimit NoFile;
  rlim_t MaxFd = 1024;
  if (getrlimit(RLIMIT_NOFILE, &NoFile) == 0 &&
      NoFile.rlim_cur != RLIM_INFINITY)
    MaxFd = NoFile.rlim_cur < 4096 ? NoFile.rlim_cur : 4096;
  for (int F = 3; F < static_cast<int>(MaxFd); ++F)
    if (F != Fd)
      ::close(F);

#ifndef PLUTOPP_ASAN
  if (Cfg.MemoryRlimitBytes) {
    rlimit RL;
    RL.rlim_cur = RL.rlim_max = Cfg.MemoryRlimitBytes + ChildMemoryHeadroomBytes;
    ::setrlimit(RLIMIT_AS, &RL);
  }
#endif

  std::string Buf;
  char Chunk[65536];
  for (;;) {
    size_t Pos;
    while ((Pos = Buf.find('\n')) == std::string::npos) {
      ssize_t R = ::read(Fd, Chunk, sizeof(Chunk));
      if (R > 0) {
        Buf.append(Chunk, static_cast<size_t>(R));
        continue;
      }
      if (R < 0 && errno == EINTR)
        continue;
      _exit(0); // EOF: the parent is done with us
    }
    std::string Line = Buf.substr(0, Pos);
    Buf.erase(0, Pos + 1);
    if (Line.empty())
      continue;
    std::string Out = serveOne(Line);
    Out += '\n';
    if (!writeAll(Fd, Out))
      _exit(0);
  }
}

} // namespace

SandboxWorker::SandboxWorker(SandboxConfig C) : Cfg(C) {}

SandboxWorker::~SandboxWorker() { killChild(); }

bool SandboxWorker::spawnChild(std::string &Error) {
  if (FaultInjector::shouldFail("sandbox.spawn")) {
    Error = "injected fault";
    return false;
  }
  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) < 0) {
    Error = std::string("socketpair(): ") + std::strerror(errno);
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    Error = std::string("fork(): ") + std::strerror(errno);
    ::close(Fds[0]);
    ::close(Fds[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Fds[0]);
    runChild(Fds[1], Cfg); // never returns
  }
  ::close(Fds[1]);
  ChildPid = Pid;
  ChildFd = Fds[0];
  InBuf.clear();
  if (EverSpawned)
    Restarts.fetch_add(1, std::memory_order_relaxed);
  EverSpawned = true;
  return true;
}

void SandboxWorker::killChild() {
  if (ChildPid > 0) {
    ::kill(ChildPid, SIGKILL);
    int St = 0;
    while (::waitpid(ChildPid, &St, 0) < 0 && errno == EINTR)
      ;
  }
  if (ChildFd >= 0)
    ::close(ChildFd);
  ChildPid = -1;
  ChildFd = -1;
  InBuf.clear();
}

CompileResponse SandboxWorker::classifyDeath(const CompileRequest &Req) {
  int St = 0;
  while (::waitpid(ChildPid, &St, 0) < 0 && errno == EINTR)
    ;
  ::close(ChildFd);
  ChildPid = -1;
  ChildFd = -1;
  InBuf.clear();

  CompileResponse Resp;
  Resp.Name = Req.Name;
  if (WIFSIGNALED(St)) {
    int Sig = WTERMSIG(St);
    if (Sig == SIGXCPU || Sig == SIGKILL) {
      // Resource enforcement killed it (our CPU rlimit, our watchdog, or
      // the kernel OOM killer) - the input is over budget, not a bug.
      count(Counter::BudgetExhausted);
      Resp.Status = StatusCode::ResourceExhausted;
      Resp.Error =
          Sig == SIGXCPU
              ? "sandbox worker exceeded its CPU-time limit (SIGXCPU)"
              : "sandbox worker was killed (SIGKILL: watchdog, rlimit or "
                "the kernel OOM killer)";
    } else {
      Resp.Status = StatusCode::Internal;
      Resp.Error = "sandbox worker crashed with signal " +
                   std::to_string(Sig) + " while compiling this request";
    }
  } else {
    Resp.Status = StatusCode::Internal;
    Resp.Error = "sandbox worker exited unexpectedly (status " +
                 std::to_string(WIFEXITED(St) ? WEXITSTATUS(St) : St) + ")";
  }
  return Resp;
}

CompileResponse SandboxWorker::compile(const CompileRequest &Req,
                                       bool *WorkerDied) {
  if (WorkerDied)
    *WorkerDied = false;
  CompileResponse Resp;
  Resp.Name = Req.Name;

  std::string Error;
  if (ChildFd < 0 && !spawnChild(Error)) {
    Resp.Status = StatusCode::Internal;
    Resp.Error = "sandbox worker spawn failed: " + Error;
    return Resp;
  }

  WireRequest WR;
  WR.Operation = Op::Compile;
  WR.Req = Req;
  std::string Line = encodeRequest(WR);
  Line += '\n';

  if (!writeAll(ChildFd, Line)) {
    // The child died between requests (an external kill -9, say): not this
    // request's fault, so no breaker signal - reap, respawn once, retry.
    int St = 0;
    while (::waitpid(ChildPid, &St, 0) < 0 && errno == EINTR)
      ;
    ::close(ChildFd);
    ChildPid = -1;
    ChildFd = -1;
    InBuf.clear();
    if (!spawnChild(Error) || !writeAll(ChildFd, Line)) {
      Resp.Status = StatusCode::Internal;
      Resp.Error = "sandbox worker unavailable: " +
                   (Error.empty() ? std::string("worker died immediately")
                                  : Error);
      return Resp;
    }
  }

  // Watchdog read loop: wait for one full response line, or SIGKILL the
  // child once the wall budget (plus grace) lapses. With no wall budget
  // the wait is unbounded - the operator opted out.
  uint64_t WallMs = Req.Budget.WallMs;
  Clock::time_point Deadline =
      WallMs ? Clock::now() +
                   std::chrono::milliseconds(WallMs + WatchdogGraceMs)
             : Clock::time_point::max();
  std::string RespLine;
  for (;;) {
    size_t Pos = InBuf.find('\n');
    if (Pos != std::string::npos) {
      RespLine = InBuf.substr(0, Pos);
      InBuf.erase(0, Pos + 1);
      break;
    }
    int TimeoutMs = -1;
    if (WallMs) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - Clock::now())
                      .count();
      if (Left <= 0) {
        killChild();
        if (WorkerDied)
          *WorkerDied = true;
        count(Counter::BudgetExhausted);
        Resp.Status = StatusCode::ResourceExhausted;
        Resp.Error = "compile exceeded its " + std::to_string(WallMs) +
                     " ms wall-clock budget (sandbox worker killed)";
        return Resp;
      }
      TimeoutMs = Left > 60000 ? 60000 : static_cast<int>(Left);
    }
    pollfd P{ChildFd, POLLIN, 0};
    int N = ::poll(&P, 1, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (WorkerDied)
        *WorkerDied = true;
      return classifyDeath(Req);
    }
    if (N == 0)
      continue; // re-check the deadline
    char Chunk[65536];
    ssize_t R = ::read(ChildFd, Chunk, sizeof(Chunk));
    if (R > 0) {
      InBuf.append(Chunk, static_cast<size_t>(R));
      continue;
    }
    if (R < 0 && errno == EINTR)
      continue;
    // EOF or a hard read error: the child died mid-request.
    if (WorkerDied)
      *WorkerDied = true;
    return classifyDeath(Req);
  }

  auto WR2 = decodeResponse(RespLine);
  if (!WR2) {
    Resp.Status = StatusCode::Internal;
    Resp.Error = "undecodable sandbox worker response: " + WR2.error();
    return Resp;
  }
  Resp.Status = WR2->Status;
  Resp.Key = WR2->Key;
  Resp.EmittedC = WR2->EmittedC;
  Resp.CacheHit = false; // the child never has a cache
  Resp.Diags = std::move(WR2->Diags);
  Resp.Error = WR2->Error;
  return Resp;
}
