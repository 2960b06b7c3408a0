//===- serve/Sandbox.h - Forked sandbox compile workers ---------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fault isolation for plutod compile jobs: a SandboxWorker owns one forked
/// child process and round-trips CompileRequests through it over a
/// socketpair, reusing the NDJSON codecs of serve/Protocol.h verbatim. A
/// compile that crashes, OOMs or hangs then takes down only the child; the
/// parent classifies the death into the StatusCode taxonomy
/// (ResourceExhausted for rlimit/watchdog kills, Internal for crashes),
/// answers the client with a structured error, and lazily respawns the
/// worker for the next job.
///
/// Enforcement is belt and braces, from softest to hardest:
///
///  - the request's cooperative Budget (support/Budget.h) travels on the
///    wire and trips inside the child, producing a clean in-band
///    resource-exhausted response;
///  - the child caps its own CPU time per request (soft RLIMIT_CPU derived
///    from the wall budget) - a spin that never reaches a budget check dies
///    with SIGXCPU;
///  - the child caps its address space at spawn (RLIMIT_AS, when a memory
///    budget is configured) - a hidden allocation storm fails allocation or
///    dies rather than OOMing the daemon;
///  - the parent runs a wall-clock watchdog per request and SIGKILLs a
///    child that blows through its deadline (catches uninterruptible hangs
///    the child-side limits cannot).
///
/// The child compiles each request in a Pipeline session of its own, with
/// no attached cache and in single-thread mode (a forked child must not
/// re-enter the parent's OpenMP runtime); caching, keying and the crash
/// circuit breaker stay in the parent (serve/Server.cpp).
///
/// Fault sites (support/FaultInjector.h): `sandbox.spawn` fails the fork,
/// `sandbox.abort` makes the child abort() on a request, `sandbox.hang`
/// makes it sleep past any deadline - the three let tests exercise every
/// parent-side recovery path deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SERVE_SANDBOX_H
#define PLUTOPP_SERVE_SANDBOX_H

#include "service/CompileService.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <sys/types.h>

namespace pluto {
namespace serve {

struct SandboxConfig {
  /// Address-space rlimit for the child, in bytes, applied once at spawn;
  /// 0 leaves the limit alone. The child adds a fixed headroom for its own
  /// code/stack/runtime so the cooperative budget (which tracks transient
  /// pass allocations only) trips first on well-behaved inputs.
  uint64_t MemoryRlimitBytes = 0;
};

/// One sandboxed compile worker: a forked child plus the parent-side state
/// to talk to it, watch it, and replace it. Not thread-safe; the server
/// gives each worker thread its own SandboxWorker.
class SandboxWorker {
public:
  explicit SandboxWorker(SandboxConfig C = SandboxConfig());
  ~SandboxWorker();
  SandboxWorker(const SandboxWorker &) = delete;
  SandboxWorker &operator=(const SandboxWorker &) = delete;

  /// Round-trips Req through the child (spawning or respawning it if
  /// needed) and returns its response, or a synthesized
  /// ResourceExhausted/Internal response if the child was killed, crashed
  /// or hung. When WorkerDied is non-null it is set to true iff processing
  /// *this request* cost the child its life (the server's circuit breaker
  /// keys off that).
  CompileResponse compile(const CompileRequest &Req,
                          bool *WorkerDied = nullptr);

  /// Times a dead (or externally killed) worker was replaced by a fresh
  /// child. The first spawn does not count.
  uint64_t restarts() const {
    return Restarts.load(std::memory_order_relaxed);
  }

  /// The live child's pid, or -1. Tests use this to kill -9 the worker.
  pid_t childPid() const { return ChildPid; }

private:
  /// Forks a fresh child (fault site `sandbox.spawn`). False + Error on
  /// failure.
  bool spawnChild(std::string &Error);
  /// SIGKILLs and reaps the child, if any; resets all per-child state.
  void killChild();
  /// Reaps an already-dead child and classifies its wait status into a
  /// response for Req.
  CompileResponse classifyDeath(const CompileRequest &Req);

  SandboxConfig Cfg;
  pid_t ChildPid = -1;
  int ChildFd = -1;        ///< parent end of the socketpair
  std::string InBuf;       ///< partial response bytes from the child
  bool EverSpawned = false;
  std::atomic<uint64_t> Restarts{0};
};

} // namespace serve
} // namespace pluto

#endif // PLUTOPP_SERVE_SANDBOX_H
