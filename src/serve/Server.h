//===- serve/Server.h - plutod concurrent compile server --------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plutod server core: an AF_UNIX stream listener speaking the NDJSON
/// protocol of serve/Protocol.h, multiplexing compile jobs onto a pool of
/// worker threads that compile each job in its own Pipeline session
/// against one shared result cache.
///
/// Threading model (three kinds of threads, no fd is ever touched by
/// two):
///
///  - one event-loop thread owns every file descriptor: it accepts
///    connections, does all non-blocking reads (splitting the byte
///    stream into request lines) and all writes (draining per-connection
///    outbound buffers), and answers ping/metrics/bad-request/overload
///    inline;
///  - N worker threads pop admitted compile jobs, run each through a
///    Pipeline session of its own, and append the encoded response to
///    the owning connection's outbound buffer (then wake the event loop
///    through the self-pipe);
///  - callers' threads only use start()/drain()/stats()/metricsJson().
///
/// Robustness contract (what serve_test and the sanitizer soak pin):
///
///  - bounded admission: at most Config.MaxQueue compile jobs are queued;
///    beyond that a request is answered `overloaded` immediately and
///    counted, never silently dropped;
///  - per-client fairness: queued jobs are scheduled round-robin across
///    connections, so one chatty client cannot starve the rest however
///    deep its pipeline of requests is;
///  - byte caps: a request line longer than Config.MaxRequestBytes is
///    answered `bad-request` and the stream resynchronizes at the next
///    newline - the connection survives;
///  - request timeouts: a job that waited in the queue longer than
///    Config.RequestTimeoutMs is answered `overloaded` ("deadline
///    exceeded") instead of compiling stale work;
///  - graceful drain: drain() stops accepting, lets every already-
///    accepted job finish, flushes every outbound buffer, then tears the
///    threads down - after drain() stats() satisfies
///    RequestsAccepted == RequestsCompleted (the zero-dropped-jobs
///    invariant).
///
/// The server installs its own PassStats sink for its lifetime, so the
/// metrics document carries every toolchain counter plus the "server",
/// "cache" and "latency_ms" extras.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SERVE_SERVER_H
#define PLUTOPP_SERVE_SERVER_H

#include "observe/PassStats.h"
#include "serve/Protocol.h"
#include "serve/Sandbox.h"
#include "service/Pipeline.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace pluto {
namespace serve {

struct ServerConfig {
  /// Filesystem path of the AF_UNIX listening socket. A stale socket file
  /// from a dead daemon is unlinked before binding.
  std::string SocketPath;
  /// Compile worker threads; 0 = hardware concurrency.
  unsigned Workers = 0;
  /// Result-cache in-memory budget, plus the optional shared disk tier.
  size_t CacheMaxBytes = 64ull << 20;
  std::string CacheDir;
  /// Bounded admission queue: compile jobs queued across all connections;
  /// beyond this new requests are rejected `overloaded`.
  size_t MaxQueue = 128;
  /// Byte cap on one request line (admission rejects longer ones).
  size_t MaxRequestBytes = 8ull << 20;
  /// Queue-wait deadline per request in milliseconds; 0 = unlimited.
  long long RequestTimeoutMs = 0;
  /// Structured per-request log stream (one JSON line per request);
  /// null disables logging.
  std::FILE *LogStream = nullptr;
  /// Run every compile in a forked sandbox worker (one child per worker
  /// thread, serve/Sandbox.h): a crash, OOM or hang costs one child, not
  /// the daemon, and is answered as a structured error.
  bool Isolate = false;
  /// Server-wide per-compile wall-clock ceiling in milliseconds, merged
  /// tightest with each request's own budget; with Isolate it also arms
  /// the parent-side watchdog kill. 0 = none.
  long long CompileTimeoutMs = 0;
  /// Server-wide per-compile memory budget in MiB, merged into each
  /// request's budget; with Isolate it also caps the sandbox child's
  /// address space (RLIMIT_AS). 0 = none.
  long long MaxMemoryMb = 0;
  /// Crash circuit breaker (Isolate only): a cache key whose compile
  /// crashed or killed a sandbox worker is answered with the remembered
  /// error - without recompiling - for this long. 0 disables.
  long long BreakerTtlMs = 30000;
};

/// Latency histogram with fixed millisecond buckets (upper bounds) plus
/// a +Inf overflow bucket; counts are cumulative-free (per bucket).
struct LatencyHistogram {
  static constexpr double BucketUpperMs[] = {0.5,  1,   2,   5,    10,  25,
                                             50,   100, 250, 500,  1000,
                                             2500, 5000};
  static constexpr unsigned NumBuckets =
      sizeof(BucketUpperMs) / sizeof(BucketUpperMs[0]) + 1; // + "+Inf"

  uint64_t Counts[NumBuckets] = {};
  uint64_t Total = 0;
  double SumMs = 0;

  void record(double Ms);
  /// {"buckets_ms": [...], "counts": [...], "count": N, "sum_ms": S}
  std::string toJson() const;
};

class Server {
public:
  /// Counters describing the serving side only (the toolchain counters
  /// live in PassStats; the cache counters in the cache snapshot).
  struct Stats {
    uint64_t ConnectionsAccepted = 0;
    uint64_t ConnectionsClosed = 0;
    /// Compile jobs admitted to the queue. The drain invariant is
    /// RequestsAccepted == RequestsCompleted: every admitted job is
    /// answered, even if only with a timeout.
    uint64_t RequestsAccepted = 0;
    uint64_t RequestsCompleted = 0;
    /// Compile requests refused at admission (queue full or draining).
    uint64_t RejectedOverload = 0;
    /// Lines answered bad-request before admission (undecodable JSON,
    /// oversized, protocol errors).
    uint64_t BadRequests = 0;
    /// Admitted jobs answered `overloaded` because their queue-wait
    /// deadline passed (also counted in RequestsCompleted).
    uint64_t TimedOut = 0;
    uint64_t PingsServed = 0;
    uint64_t MetricsServed = 0;
    /// Sandbox workers replaced after a crash, kill or external death
    /// (Isolate only; the initial spawns do not count).
    uint64_t SandboxRestarts = 0;
    /// Compile requests answered from the crash circuit breaker instead
    /// of being re-dispatched to a sandbox worker.
    uint64_t BreakerHits = 0;
    /// Instantaneous gauges.
    uint64_t QueueDepth = 0;
    uint64_t InFlight = 0;
    uint64_t OpenConnections = 0;
  };

  /// Binds and listens (but serves nothing until start()). Fails with a
  /// message on socket/bind/listen errors or an invalid configuration.
  static Result<std::unique_ptr<Server>> create(ServerConfig C);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Launches the event loop and the worker pool. Returns immediately.
  void start();

  /// Graceful shutdown: stop accepting connections and admitting work,
  /// answer everything already admitted, flush every connection, join
  /// all threads, close the socket. Idempotent; also run by ~Server().
  void drain();

  const std::string &socketPath() const { return Cfg.SocketPath; }

  Stats stats() const;
  ResultCache::Snapshot cacheSnapshot() const { return Cache->snapshot(); }
  LatencyHistogram latency() const;

  /// The full metrics document: PassStats (every toolchain counter and
  /// pass timer, "schema": 2) plus "server", "cache" and "latency_ms"
  /// top-level members. Pretty-printed; minifyJson() it for the wire.
  std::string metricsJson() const;

private:
  struct Conn;
  struct Job;

  explicit Server(ServerConfig C);

  void eventLoop();
  void workerLoop(unsigned Idx);
  /// Isolated compile path: parent-side cache lookup and circuit-breaker
  /// check, then the round trip through worker Idx's sandbox child.
  CompileResponse isolatedCompile(const Pipeline &Session, SandboxWorker &SB,
                                  const CompileRequest &Req);
  /// Handles one complete request line from C (event-loop thread only).
  void handleLine(const std::shared_ptr<Conn> &C, std::string Line);
  /// Appends Line + '\n' to C's outbound buffer (any thread).
  void sendLine(const std::shared_ptr<Conn> &C, const std::string &Line);
  void logRequest(const std::shared_ptr<Conn> &C, const std::string &Name,
                  StatusCode S, bool CacheHit, double Ms);
  void wake();

  ServerConfig Cfg;
  int ListenFd = -1;
  int WakeRd = -1, WakeWr = -1;
  /// Shared because every Pipeline session holds a reference via
  /// attachCache().
  std::shared_ptr<ResultCache> Cache;

  std::thread LoopThread;
  std::vector<std::thread> WorkerThreads;
  /// One sandbox child per worker thread (Isolate only). Created in
  /// start() before any thread launches - so the initial forks happen
  /// while the process is still single-threaded - and never resized
  /// afterwards, which makes lock-free reads from stats() safe.
  std::vector<std::unique_ptr<SandboxWorker>> Sandboxes;

  /// Crash circuit breaker: cache key -> the remembered failure, honored
  /// until Expiry. Guarded by BreakerMu.
  struct BreakerEntry {
    std::chrono::steady_clock::time_point Expiry;
    StatusCode Status = StatusCode::Internal;
    std::string Error;
  };
  mutable std::mutex BreakerMu;
  std::unordered_map<std::string, BreakerEntry> Breaker;

  // Scheduler state: per-connection job deques linked into a round-robin
  // ring of connections that have pending work. Guarded by SchedMu.
  mutable std::mutex SchedMu;
  std::condition_variable SchedCv;  ///< workers wait for jobs
  std::condition_variable DrainCv;  ///< drain() waits for quiescence
  std::deque<std::shared_ptr<Conn>> ReadyConns;
  size_t QueuedJobs = 0;
  size_t InFlightJobs = 0;
  bool Draining = false;
  bool StopWorkers = false;
  bool StopLoop = false;
  bool Started = false;
  bool Drained = false;

  mutable std::mutex StatsMu;
  Stats Counters;
  LatencyHistogram Latency;
  PassStats ToolStats;

  // Event-loop-owned connection table (no lock: only that thread touches
  // it).
  std::vector<std::shared_ptr<Conn>> Conns;
  uint64_t NextConnId = 1;
};

} // namespace serve
} // namespace pluto

#endif // PLUTOPP_SERVE_SERVER_H
