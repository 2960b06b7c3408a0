//===- support/Budget.h - Cooperative resource budgets ----------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cooperative wall-clock / memory / work budget threaded through the
/// compiler's unbounded hot paths (parser statement loop, Fourier-Motzkin
/// elimination, the dependence census, simplex pivots in ilp/LexMin, and
/// codegen recursion) so a pathological input exhausts its budget and
/// reports StatusCode::ResourceExhausted instead of spinning or OOMing.
///
/// The design follows the observe/PassStats active-sink idiom: hot code
/// calls the free function budgetCharge(), which reads one thread-local
/// pointer and is a single predictable branch when no budget is installed
/// (the default - budgets-off runs pay nothing measurable). A compile runs
/// on the thread that asked for it, so a Budget is charged by that one
/// thread and its counters are plain fields.
///
/// Exhaustion is *sticky and cooperative*: once any limit trips, charge()
/// returns false forever and the hot loop is expected to bail out fast,
/// leaving its artifact garbage. Stage drivers (Pipeline) then detect the
/// sticky flag at stage boundaries and classify the failure, so individual
/// passes never need their own error plumbing for budgets. Wall-clock
/// checks are throttled (one steady_clock read per ~64 work units) to keep
/// charge() cheap.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SUPPORT_BUDGET_H
#define PLUTOPP_SUPPORT_BUDGET_H

#include <chrono>
#include <cstdint>

namespace pluto {

/// Limits for one compile. 0 means unlimited for each field; the default
/// object is fully unlimited and compiles exactly as before.
struct BudgetLimits {
  /// Wall-clock ceiling for the whole compile, in milliseconds.
  uint64_t WallMs = 0;
  /// Ceiling on charged memory, in bytes. The one charge is one BigInt row
  /// for every Fourier-Motzkin row pair formed, most of which are pruned
  /// before they are built; the rows held and the tableau copies are not
  /// charged. So this bounds FM work in a memory unit, not the memory
  /// held. It is cooperative accounting, not an allocator hook; the
  /// sandbox's RLIMIT_AS is the hard backstop.
  uint64_t MaxMemoryBytes = 0;
  /// Ceiling on abstract work units (one unit ~ one generated FM row, one
  /// simplex pivot, one dependence pair, one parsed statement, one codegen
  /// node). Deterministic across runs, unlike WallMs - tests use this.
  uint64_t MaxWorkUnits = 0;

  bool operator==(const BudgetLimits &O) const = default;

  bool unlimited() const {
    return WallMs == 0 && MaxMemoryBytes == 0 && MaxWorkUnits == 0;
  }

  /// Member-wise tightest merge (0 = unlimited loses to any bound); the
  /// server uses this to combine per-request and server-wide limits.
  static BudgetLimits tightest(const BudgetLimits &A, const BudgetLimits &B);
};

/// One compile's budget: monotonically consumed, never reset. Not
/// thread-safe; meant to be installed thread-locally via ScopedBudget and
/// consulted through budgetCharge()/budgetExhausted().
class Budget {
public:
  explicit Budget(BudgetLimits L)
      : Limits(L), Start(std::chrono::steady_clock::now()) {}

  /// Consumes N work units (and re-checks the wall clock roughly every 64
  /// units). Returns false once the budget is exhausted - callers should
  /// unwind promptly, leaving whatever garbage state they have.
  bool charge(uint64_t N = 1) {
    if (Exhausted)
      return false;
    uint64_t W = Work += N;
    if (Limits.MaxWorkUnits && W > Limits.MaxWorkUnits) {
      trip("work");
      return false;
    }
    if (Limits.WallMs && (W >> 6) != ((W - N) >> 6) && !checkWall())
      return false;
    return true;
  }

  /// Accounts Bytes of transient memory. Returns false once exhausted.
  bool chargeMemory(uint64_t Bytes) {
    if (Exhausted)
      return false;
    uint64_t M = Memory += Bytes;
    if (Limits.MaxMemoryBytes && M > Limits.MaxMemoryBytes) {
      trip("memory");
      return false;
    }
    return true;
  }

  /// Unthrottled wall-clock check; returns false when over the deadline.
  bool checkWall();

  /// Marks the budget exhausted for Reason (a static string). Used by
  /// out-of-band detectors (bad_alloc handlers).
  void trip(const char *Why) {
    if (!Reason)
      Reason = Why;
    Exhausted = true;
  }

  bool exhausted() const { return Exhausted; }
  /// "work", "memory" or "wall-clock"; null while not exhausted.
  const char *reason() const { return Reason; }
  uint64_t workUsed() const { return Work; }
  uint64_t memoryUsed() const { return Memory; }
  const BudgetLimits &limits() const { return Limits; }

private:
  BudgetLimits Limits;
  std::chrono::steady_clock::time_point Start;
  uint64_t Work = 0;
  uint64_t Memory = 0;
  bool Exhausted = false;
  const char *Reason = nullptr;
};

namespace detail {
/// Inline rather than extern: every unit then holds the definition, so in
/// an executable the compiler addresses it directly off the thread pointer.
/// Through the extern declaration GCC 12 computed its address with an
/// `add` the linker relaxes into a flag-less `lea`, and the UBSan null
/// check after it branched on stale flags (false "null Budget *" reports).
inline thread_local Budget *ActiveBudget = nullptr;
} // namespace detail

/// The budget installed on this thread, or null (the default: unlimited).
inline Budget *activeBudget() { return detail::ActiveBudget; }

/// RAII install/restore of the thread's active budget. Null is allowed
/// (explicitly uninstalls for the scope).
class ScopedBudget {
public:
  explicit ScopedBudget(Budget *B) : Saved(detail::ActiveBudget) {
    detail::ActiveBudget = B;
  }
  ~ScopedBudget() { detail::ActiveBudget = Saved; }
  ScopedBudget(const ScopedBudget &) = delete;
  ScopedBudget &operator=(const ScopedBudget &) = delete;

private:
  Budget *Saved;
};

/// Hot-path helper: charges the active budget, if any. True (keep going)
/// when no budget is installed.
inline bool budgetCharge(uint64_t N = 1) {
  Budget *B = detail::ActiveBudget;
  return !B || B->charge(N);
}

/// Hot-path helper: accounts transient memory against the active budget.
inline bool budgetChargeMemory(uint64_t Bytes) {
  Budget *B = detail::ActiveBudget;
  return !B || B->chargeMemory(Bytes);
}

/// True once the active budget has tripped (cheap sticky-flag read).
inline bool budgetExhausted() {
  Budget *B = detail::ActiveBudget;
  return B && B->exhausted();
}

} // namespace pluto

#endif // PLUTOPP_SUPPORT_BUDGET_H
