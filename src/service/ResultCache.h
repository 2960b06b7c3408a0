//===- service/ResultCache.h - Content-addressed result cache ---*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed cache of emitted C, keyed by
///   sha256(canonical source \x1f options fingerprint \x1f toolchain version)
/// (Pipeline::cacheKey computes the key; this class only stores). Three
/// tiers of behaviour:
///
///  - an in-memory LRU bounded by a byte budget (keys + values accounted),
///  - optional persistence of every emitted unit under
///    `<dir>/v<CacheDiskFormatVersion>/<key>.c` - raw bytes, written via
///    temp-file + rename so concurrent plutopp processes sharing one
///    --cache-dir never observe torn entries,
///  - single-flight deduplication: getOrCompute() runs the compile
///    callback at most once per key; concurrent callers with the same key
///    block on the leader and share its result.
///
/// All methods are thread-safe. Cache events feed both local counters
/// (snapshot(), for tests and cache-only tooling) and the global
/// observe::PassStats sink when one is installed.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SERVICE_RESULTCACHE_H
#define PLUTOPP_SERVICE_RESULTCACHE_H

#include "support/Result.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace pluto {

class ResultCache {
public:
  struct Config {
    /// In-memory budget; entries are evicted LRU-first to stay under it.
    /// A value too large for the whole budget is never memory-resident
    /// (it still persists to disk when enabled).
    size_t MaxBytes = 64ull << 20;
    /// Root of the persistent cache; empty disables the disk tier. The
    /// directory (and the versioned subdirectory) are created on demand.
    std::string DiskDir;
  };

  /// Default configuration (64 MiB memory budget, no disk tier).
  ResultCache();
  explicit ResultCache(Config C);

  /// Looks Key up in memory, then on disk (a disk hit is promoted into
  /// memory). Counts a hit/disk-hit/miss.
  std::optional<std::string> lookup(const std::string &Key);

  /// Inserts (or refreshes) Key -> Value in memory and, when enabled, on
  /// disk. Evicts LRU entries until the budget holds.
  void insert(const std::string &Key, const std::string &Value);

  /// The single-flight entry point: returns the cached value for Key, or
  /// runs Compute to produce it. If another thread is already computing
  /// the same key, blocks until that leader finishes and shares its result
  /// (counted as cache_coalesced). Failed computes are not cached; every
  /// waiter receives the leader's error.
  Result<std::string>
  getOrCompute(const std::string &Key,
               const std::function<Result<std::string>()> &Compute);

  /// True when a disk tier was requested and its directory is usable.
  bool diskEnabled() const { return !DiskRoot.empty(); }

  /// True once repeated disk write failures (ENOSPC, permissions) made the
  /// cache stop attempting writes; reads of existing entries still work
  /// and compiles are unaffected (in-memory tier only).
  bool diskWritesDisabled() const {
    return DiskWritesOff.load(std::memory_order_relaxed);
  }

  /// Consecutive failed disk writes tolerated before the disk write path
  /// turns itself off for the lifetime of this cache.
  static constexpr uint64_t MaxDiskWriteErrors = 8;

  /// Local event counters (monotonic since construction) plus current
  /// occupancy, for tests and reporting without a PassStats sink.
  struct Snapshot {
    uint64_t Hits = 0, DiskHits = 0, Misses = 0, Evictions = 0,
             Coalesced = 0, WriteErrors = 0;
    size_t Bytes = 0, Entries = 0;
  };
  Snapshot snapshot() const;

private:
  struct Entry {
    std::string Value;
    std::list<std::string>::iterator LruIt;
  };
  struct Flight {
    bool Done = false;
    Result<std::string> R = Err("in flight");
    std::condition_variable Cv;
  };

  // All below guarded by Mu (Flight::Cv waits on Mu too).
  mutable std::mutex Mu;
  std::list<std::string> Lru; ///< front = most recently used key
  std::unordered_map<std::string, Entry> Map;
  std::unordered_map<std::string, std::shared_ptr<Flight>> InFlight;
  size_t MaxBytes = 0;
  size_t Bytes = 0;
  Snapshot Counts;
  std::string DiskRoot; ///< `<DiskDir>/v<N>`, empty when disk is off
  // diskWrite() is const (it runs outside Mu from const-ish paths), so the
  // degraded-mode state is atomic and mutable.
  mutable std::atomic<uint64_t> DiskWriteErrors{0};
  mutable std::atomic<bool> DiskWritesOff{false};

  /// Memory-tier insert; assumes Mu held. Returns evictions performed.
  void insertLocked(const std::string &Key, std::string Value);
  std::optional<std::string> lookupLocked(const std::string &Key);
  std::optional<std::string> diskRead(const std::string &Key) const;
  void diskWrite(const std::string &Key, const std::string &Value) const;
  /// Counts one failed disk write (What names the failing step) and turns
  /// the write path off after MaxDiskWriteErrors of them.
  void noteDiskWriteError(const char *What) const;
};

} // namespace pluto

#endif // PLUTOPP_SERVICE_RESULTCACHE_H
