//===- bench/bench_serve.cpp - Experiment E11 (plutod throughput) ---------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Warm-cache request throughput of the plutod serving stack (DESIGN.md
// section 12): an in-process serve::Server is driven over its real
// AF_UNIX socket by concurrent pipelining clients, sweeping the worker
// pool {1, 4, 8}. Every measured request is a cache hit (the kernel set
// is compiled once up front), so the numbers isolate the serving
// overhead - admission, scheduling, cache lookup, response encoding,
// socket I/O - from compile time. This feeds EXPERIMENTS.md section E11.
//
// Knobs: PLUTOPP_BENCH_SERVE_REQS (requests per client, default 1500),
// PLUTOPP_BENCH_SERVE_CLIENTS (concurrent connections, default 4).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "serve/Server.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pluto;
using namespace pluto::serve;

namespace {

long long envNum(const char *Name, long long Def) {
  const char *S = std::getenv(Name);
  return (S && *S) ? std::atoll(S) : Def;
}

/// Distinct kernels, so the warm set holds several cache entries.
std::string kernelSource(unsigned I) {
  std::string V = "v" + std::to_string(I);
  return "for (i = 0; i <= N - 1; i++)\n"
         "  for (j = 0; j <= N - 1; j++)\n"
         "    for (k = 0; k <= N - 1; k++)\n"
         "      " +
         V + "[i][j] = " + V + "[i][j] + a[i][k] * b[k][j];\n";
}

/// Minimal blocking NDJSON client.
struct Client {
  int Fd = -1;
  std::string InBuf;

  bool connectTo(const std::string &Path) {
    Fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    return connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)) == 0;
  }
  ~Client() {
    if (Fd >= 0)
      close(Fd);
  }

  bool sendAll(const std::string &Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N = write(Fd, Data.data() + Off, Data.size() - Off);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  bool readLine(std::string &Line) {
    for (;;) {
      size_t Nl = InBuf.find('\n');
      if (Nl != std::string::npos) {
        Line = InBuf.substr(0, Nl);
        InBuf.erase(0, Nl + 1);
        return true;
      }
      char Buf[65536];
      ssize_t N = read(Fd, Buf, sizeof(Buf));
      if (N <= 0)
        return false;
      InBuf.append(Buf, static_cast<size_t>(N));
    }
  }
};

std::string compileLine(unsigned Kernel, unsigned Seq) {
  WireRequest R;
  R.Operation = Op::Compile;
  R.Id = std::to_string(Seq);
  R.Req.Name = "k" + std::to_string(Kernel);
  R.Req.Source = kernelSource(Kernel);
  return encodeRequest(R) + "\n";
}

constexpr unsigned NumKernels = 8;
/// Requests kept in flight per connection before reading replies back.
constexpr unsigned Window = 16;

/// One client thread: Reqs warm requests, pipelined Window-deep. Returns
/// false on any non-ok or non-hit response.
bool driveClient(const std::string &Socket, unsigned Reqs,
                 std::atomic<bool> &Failed) {
  Client C;
  if (!C.connectTo(Socket))
    return false;
  unsigned Sent = 0, Got = 0;
  std::string Batch, Line;
  while (Got < Reqs) {
    Batch.clear();
    while (Sent < Reqs && Sent - Got < Window)
      Batch += compileLine(Sent % NumKernels, Sent), ++Sent;
    if (!Batch.empty() && !C.sendAll(Batch))
      return false;
    if (!C.readLine(Line))
      return false;
    ++Got;
    if (Line.find("\"status\":\"ok\"") == std::string::npos ||
        Line.find("\"cache_hit\":true") == std::string::npos) {
      Failed = true;
      return false;
    }
  }
  return true;
}

/// Runs one worker-pool size; returns warm req/s.
double runConfig(unsigned Workers, unsigned Clients, unsigned ReqsPerClient) {
  ServerConfig Cfg;
  Cfg.SocketPath = "/tmp/plutopp-bench-serve-" +
                   std::to_string(getpid()) + ".sock";
  Cfg.Workers = Workers;
  Cfg.MaxQueue = 4096;
  auto S = Server::create(Cfg);
  if (!S) {
    std::fprintf(stderr, "bench_serve: %s\n", S.error().c_str());
    return -1;
  }
  (*S)->start();

  // Warm the cache: one cold compile per kernel, outside the timed region.
  {
    Client C;
    if (!C.connectTo(Cfg.SocketPath))
      return -1;
    std::string Line;
    for (unsigned K = 0; K < NumKernels; ++K) {
      if (!C.sendAll(compileLine(K, K)) || !C.readLine(Line))
        return -1;
      if (Line.find("\"status\":\"ok\"") == std::string::npos) {
        std::fprintf(stderr, "bench_serve: warmup compile failed: %s\n",
                     Line.c_str());
        return -1;
      }
    }
  }

  std::atomic<bool> Failed{false};
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back([&] {
      if (!driveClient(Cfg.SocketPath, ReqsPerClient, Failed))
        Failed = true;
    });
  for (auto &T : Threads)
    T.join();
  auto T1 = std::chrono::steady_clock::now();
  (*S)->drain();

  if (Failed) {
    std::fprintf(stderr, "bench_serve: a client saw a non-hit response\n");
    return -1;
  }
  double Secs = std::chrono::duration<double>(T1 - T0).count();
  return Secs > 0 ? Clients * ReqsPerClient / Secs : 0;
}

} // namespace

int main() {
  unsigned Reqs =
      static_cast<unsigned>(envNum("PLUTOPP_BENCH_SERVE_REQS", 1500));
  unsigned Clients =
      static_cast<unsigned>(envNum("PLUTOPP_BENCH_SERVE_CLIENTS", 4));

  std::printf("E11: plutod warm-cache throughput (%u clients x %u "
              "requests, %u distinct kernels, window %u)\n\n",
              Clients, Reqs, NumKernels, Window);
  std::printf("| workers | req/s |\n|---|---|\n");
  int Bad = 0;
  for (unsigned W : {1u, 4u, 8u}) {
    double Rate = runConfig(W, Clients, Reqs);
    if (Rate < 0) {
      ++Bad;
      std::printf("| %u | FAILED |\n", W);
    } else
      std::printf("| %u | %.0f |\n", W, Rate);
    std::fflush(stdout);
  }
  return Bad ? 1 : 0;
}
