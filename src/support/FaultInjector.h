//===- support/FaultInjector.h - Deterministic fault injection --*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, site-named fault injection for exercising failure paths
/// that are otherwise hard to reach in tests (ENOSPC on the disk cache, a
/// crashed JIT cc, an OOM inside BigInt, a dead client socket, a worker
/// that fails to spawn). Each instrumented call site asks
///
///   if (FaultInjector::shouldFail("cache.disk_write")) { ...fail... }
///
/// and the injector decides from an armed spec of the form
///
///   site[:N] (fail the Nth hit, 1-based; default 1) or site:* (every hit),
///   comma-separated: "jit.compile:2,cache.disk_write:*"
///
/// armed programmatically (tests) or from the PLUTOPP_FAULT environment
/// variable (CI soak; tools call armFromEnv() at startup, and forked
/// sandbox children inherit the parent's armed state through fork).
///
/// Disarmed cost is one relaxed atomic load and branch per site hit - the
/// same zero-overhead-off contract as observe/PassStats. Hits at armed
/// sites are counted (whether or not they fail) so tests can assert a site
/// was actually reached.
///
/// Instrumented sites:
///   cache.disk_write    ResultCache::diskWrite stream write
///   cache.disk_read     ResultCache disk-tier lookup
///   jit.compile         CompiledKernel::compile cc invocation
///   bigint.alloc        BigInt limb materialization (throws bad_alloc)
///   serve.socket_write  Server event-loop send()
///   sandbox.spawn       SandboxWorker fork/socketpair
///   sandbox.abort       sandbox child: abort() before compiling
///   sandbox.hang        sandbox child: sleep past any deadline
///   tune.compile        autotuner: one hit per distinct variant about to
///                       be lowered (tune::explore)
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SUPPORT_FAULTINJECTOR_H
#define PLUTOPP_SUPPORT_FAULTINJECTOR_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pluto {

class FaultInjector {
public:
  /// Parses and arms Spec (see file comment), replacing any previous
  /// arming. An empty spec disarms. Returns false (and leaves the
  /// previous arming in place) when the spec does not parse.
  static bool arm(const std::string &Spec);

  /// Arms from $PLUTOPP_FAULT when set and non-empty; no-op otherwise.
  static void armFromEnv();

  /// Disarms every site and forgets hit counts.
  static void disarm();

  /// True when any site is armed.
  static bool armed();

  /// The per-site decision: counts the hit and reports whether this hit
  /// must fail. Always false (and free) when disarmed.
  static bool shouldFail(const char *Site);

  /// Hits recorded at Site since arming (0 when disarmed or never hit).
  static uint64_t hits(const char *Site);

  /// Every armed site with its hit count, in spec order.
  static std::vector<std::pair<std::string, uint64_t>> allHits();
};

} // namespace pluto

#endif // PLUTOPP_SUPPORT_FAULTINJECTOR_H
