//===- tools/plutod.cpp - Pluto compile daemon ----------------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
//
// plutod: serves Pluto compilations over a local AF_UNIX socket speaking
// the newline-delimited JSON protocol of serve/Protocol.h. One daemon
// amortizes a warm in-memory result cache (and optionally a persistent
// one) across every client on the machine; plutoctl is the matching
// client. SIGTERM/SIGINT trigger a graceful drain: accepted jobs finish,
// replies flush, then the process exits 0.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "service/Version.h"
#include "support/FaultInjector.h"

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace pluto;
using namespace pluto::serve;

namespace {

const char *Usage =
    "usage: plutod --socket=PATH [options]\n"
    "\n"
    "Compile daemon: serves Pluto compilations over a local socket using\n"
    "the NDJSON protocol (one JSON request per line, one response per\n"
    "line; see DESIGN.md section 12). Use plutoctl to talk to it.\n"
    "\n"
    "options (defaults shown):\n"
    "  --socket=PATH              AF_UNIX socket path to listen on\n"
    "  --workers=N                compile worker threads (0 = all\n"
    "                             hardware threads)\n"
    "  --queue=N                  max queued compile jobs before new\n"
    "                             requests are rejected overloaded (128)\n"
    "  --cache-bytes=N            in-memory cache budget in bytes\n"
    "                             (67108864)\n"
    "  --cache-dir=DIR            persistent result cache shared with\n"
    "                             plutopp --cache-dir\n"
    "  --max-request-bytes=N      per-request-line byte cap (8388608)\n"
    "  --timeout-ms=N             queue-wait deadline per request\n"
    "                             (0 = unlimited)\n"
    "  --isolate                  run each compile in a forked sandbox\n"
    "                             worker; crashes/OOMs/hangs cost one\n"
    "                             child and answer as structured errors\n"
    "  --compile-timeout-ms=N     per-compile wall-clock budget, merged\n"
    "                             with the request's own; with --isolate\n"
    "                             also arms the watchdog kill (0 = none)\n"
    "  --max-memory-mb=N          per-compile memory budget in MiB; with\n"
    "                             --isolate also the sandbox address-\n"
    "                             space rlimit (0 = none)\n"
    "  --breaker-ttl-ms=N         how long a cache key that killed a\n"
    "                             sandbox worker is refused without\n"
    "                             recompiling (30000; 0 disables)\n"
    "  --quiet                    no per-request log lines on stderr\n"
    "  --version                  print toolchain version and exit\n"
    "  --help                     this text\n";

int SigPipe[2] = {-1, -1};

void onSignal(int) {
  char B = 1;
  // Best effort: a full pipe already has a wakeup queued.
  (void)!write(SigPipe[1], &B, 1);
}

} // namespace

int main(int Argc, char **Argv) {
  ServerConfig Cfg;
  Cfg.LogStream = stderr;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    bool Ok = true;
    // The non-negative integer after the Prefix-byte flag name; clears Ok
    // when the value does not parse or exceeds Hi.
    auto Num = [&](size_t Prefix, long long Hi = LLONG_MAX) {
      auto V = parseInteger(std::string_view(A).substr(Prefix), 0, Hi);
      Ok = V.has_value();
      return V.value_or(0);
    };
    if (A == "--help" || A == "-h") {
      std::fputs(Usage, stdout);
      return 0;
    } else if (A == "--version") {
      std::printf("plutod %s\n", ToolchainVersion);
      return 0;
    } else if (A.rfind("--socket=", 0) == 0)
      Cfg.SocketPath = A.substr(9);
    else if (A.rfind("--workers=", 0) == 0)
      Cfg.Workers = static_cast<unsigned>(Num(10, UINT_MAX));
    else if (A.rfind("--queue=", 0) == 0)
      Cfg.MaxQueue = static_cast<size_t>(Num(8));
    else if (A.rfind("--cache-bytes=", 0) == 0)
      Cfg.CacheMaxBytes = static_cast<size_t>(Num(14));
    else if (A.rfind("--cache-dir=", 0) == 0)
      Cfg.CacheDir = A.substr(12);
    else if (A.rfind("--max-request-bytes=", 0) == 0)
      Cfg.MaxRequestBytes = static_cast<size_t>(Num(20));
    else if (A.rfind("--timeout-ms=", 0) == 0)
      Cfg.RequestTimeoutMs = Num(13);
    else if (A == "--isolate")
      Cfg.Isolate = true;
    else if (A.rfind("--compile-timeout-ms=", 0) == 0)
      Cfg.CompileTimeoutMs = Num(21);
    else if (A.rfind("--max-memory-mb=", 0) == 0)
      Cfg.MaxMemoryMb = Num(16);
    else if (A.rfind("--breaker-ttl-ms=", 0) == 0)
      Cfg.BreakerTtlMs = Num(17);
    else if (A == "--quiet")
      Cfg.LogStream = nullptr;
    else {
      std::fprintf(stderr, "plutod: unknown option '%s'\n%s", A.c_str(),
                   Usage);
      return 2;
    }
    if (!Ok) {
      std::fprintf(stderr, "plutod: bad numeric value in '%s'\n", A.c_str());
      return 2;
    }
  }

  if (Cfg.SocketPath.empty()) {
    std::fprintf(stderr, "plutod: --socket=PATH is required\n%s", Usage);
    return 2;
  }

  if (pipe(SigPipe) != 0) {
    std::perror("plutod: pipe");
    return 1;
  }

  // Deterministic fault injection for the CI soak ($PLUTOPP_FAULT).
  FaultInjector::armFromEnv();

  auto S = Server::create(Cfg);
  if (!S) {
    std::fprintf(stderr, "plutod: %s\n", S.error().c_str());
    return 1;
  }

  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  (*S)->start();
  std::fprintf(stderr,
               "plutod %s listening on %s (workers=%u, queue=%zu)\n",
               ToolchainVersion, (*S)->socketPath().c_str(), Cfg.Workers,
               Cfg.MaxQueue);

  // Block until a termination signal arrives.
  char B;
  while (read(SigPipe[0], &B, 1) < 0 && errno == EINTR)
    ;

  std::fprintf(stderr, "plutod: draining...\n");
  (*S)->drain();
  Server::Stats St = (*S)->stats();
  std::fprintf(stderr,
               "plutod: drained (accepted=%llu completed=%llu "
               "rejected=%llu)\n",
               static_cast<unsigned long long>(St.RequestsAccepted),
               static_cast<unsigned long long>(St.RequestsCompleted),
               static_cast<unsigned long long>(St.RejectedOverload));
  return St.RequestsAccepted == St.RequestsCompleted ? 0 : 1;
}
