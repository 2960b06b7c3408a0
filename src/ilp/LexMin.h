//===- ilp/LexMin.h - Integer lexicographic minimization --------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integer lexicographic minimization, the solver behind the paper's
/// objective (5): minimize_lex {u_1, ..., u_k, w, ..., c_i's, ...}.
///
/// This is the non-parametric core of PIP (Feautrier, "Parametric integer
/// programming", 1988), which the original Pluto uses through PipLib: a
/// lexicographic dual simplex over exact rationals, made integral with
/// Gomory's method-of-integer-forms cuts. All problem variables are
/// constrained to be non-negative, matching the paper's practical choice of
/// non-negative transformation coefficients (Section 4.2); a helper maps
/// free-sign systems (dependence polyhedra, codegen regions) onto this form
/// with one shared shift variable, x = y - M * (1, ..., 1) over y, M >= 0,
/// which gives the exact integer emptiness test the dependence analyzer
/// and the code generator need.
///
/// A cold solve runs on machine-word entries first and repeats on BigInt
/// only when some step overflows (PipLib likewise ships 64-bit builds
/// beside its GMP one); both runs make the same pivots and cuts. A warm
/// band solve (LexMinSolver) runs on machine words too and answers an
/// overflowed query with a cold solve.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_ILP_LEXMIN_H
#define PLUTOPP_ILP_LEXMIN_H

#include "support/Matrix.h"

#include <memory>
#include <vector>

namespace pluto {
namespace ilp {

/// Outcome of a lexmin query.
enum class SolveStatus {
  Feasible,   ///< Point holds the integer lexicographic minimum.
  Infeasible, ///< No integer point satisfies the constraints.
  Aborted,    ///< Cut/iteration budget exhausted (should not happen on the
              ///< structured systems this code base produces).
};

/// Pivot/cut budgets for one lexmin query. The defaults are generous caps
/// that only guard against pathological cycling; tests shrink them to force
/// SolveStatus::Aborted deterministically.
struct SolveLimits {
  unsigned MaxPivots = 200000;
  unsigned MaxCuts = 2000;
};

/// The process-wide budgets consulted by every solve. Reads are relaxed
/// atomic loads, so concurrent compiles (batch jobs, plutod workers) may
/// solve while the limits stay fixed; writers must not race with in-flight
/// solves.
SolveLimits solveLimits();
void setSolveLimits(const SolveLimits &L);

/// RAII override of the global solve limits (tests forcing tiny budgets).
class ScopedSolveLimits {
public:
  explicit ScopedSolveLimits(const SolveLimits &L) : Old(solveLimits()) {
    setSolveLimits(L);
  }
  ~ScopedSolveLimits() { setSolveLimits(Old); }
  ScopedSolveLimits(const ScopedSolveLimits &) = delete;
  ScopedSolveLimits &operator=(const ScopedSolveLimits &) = delete;

private:
  SolveLimits Old;
};

struct LexMinResult {
  SolveStatus Status = SolveStatus::Infeasible;
  /// Integer lexmin of the variable vector; size NumVars when Feasible.
  std::vector<BigInt> Point;

  bool feasible() const { return Status == SolveStatus::Feasible; }
};

/// The rows of a system held elsewhere (matrix rows, single vectors). Each
/// pointer addresses NumVars + 1 entries, the coefficients then the
/// constant. The solvers read the rows in place, so a caller can pose the
/// union of several row sets, or a system plus one extra row, without
/// copying them. The rows must stay alive and in place while a RowRefs
/// over them is used.
struct RowRefs {
  RowRefs(const IntMatrix &Ineqs, const IntMatrix &Eqs, unsigned NumVars);

  /// Appends every row of M (NumVars + 1 columns) but row Skip.
  void addIneqs(const IntMatrix &M, unsigned Skip = ~0u);
  void addEqs(const IntMatrix &M);

  unsigned NumVars;
  std::vector<const BigInt *> Ineqs;
  std::vector<const BigInt *> Eqs;
};

/// Computes the integer lexicographic minimum of x = (x_0, ..., x_{n-1}),
/// all x_i >= 0, subject to Ineqs * (x, 1) >= 0 and Eqs * (x, 1) == 0.
/// Both matrices have NumVars + 1 columns (coefficients then the constant
/// term); either may be empty (zero rows).
LexMinResult lexMinNonNeg(const IntMatrix &Ineqs, const IntMatrix &Eqs,
                          unsigned NumVars);

/// Tri-state integer feasibility verdict: Unknown means the solve budget
/// was exhausted before a proof either way (callers must treat it
/// conservatively, and explicitly - see SolveStatus::Aborted).
enum class Feasibility {
  HasPoint,
  Empty,
  Unknown,
};

/// Integer feasibility of Ineqs * (x, 1) >= 0, Eqs * (x, 1) == 0 where the
/// x_i may take any sign. Implemented as a lexmin over (M, y) >= 0 with
/// x = y - M * (1, ..., 1): an integer point x maps to M = max(0, -min x_i),
/// y = x + M, so the verdict is exact. If Witness is non-null and a point
/// is found, it receives one.
Feasibility integerFeasibility(const RowRefs &Rows,
                               std::vector<BigInt> *Witness = nullptr);
Feasibility integerFeasibility(const IntMatrix &Ineqs, const IntMatrix &Eqs,
                               unsigned NumVars,
                               std::vector<BigInt> *Witness = nullptr);

/// Reusable lexmin solver for the transform framework's per-band systems
/// (the warm-started incremental path). setBase() installs the constraint
/// rows shared by every query of one band (legality + bounding + the
/// trivial-solution guards); the first solveWith() call runs the base
/// system to its integer optimum and snapshots the tableau; subsequent
/// calls copy the snapshot, append the per-query rows (the linear
/// independence constraints, which are replaced - not grown - between
/// iterations) rewritten into the snapshot's basis, and resume the dual
/// simplex from there instead of re-solving from scratch. The integer
/// lexicographic minimum is unique, so a warm solve returns exactly what a
/// cold lexMinNonNeg over base + extras would; on Aborted the caller falls
/// back to a cold solve. The snapshot holds int64 entries with every step
/// overflow-checked: a query whose run overflows (in the base solve or in
/// its own rows) is answered by a cold solve over base + extras, and after
/// a base overflow every query is.
class LexMinSolver {
public:
  LexMinSolver();
  ~LexMinSolver();
  LexMinSolver(LexMinSolver &&);
  LexMinSolver &operator=(LexMinSolver &&);

  /// Installs the shared constraint rows; resets any cached tableau. The
  /// rows are read in place, so they must stay alive and unchanged until
  /// the next setBase() or the solver's end.
  void setBase(const IntMatrix &Ineqs, const IntMatrix &Eqs,
               unsigned NumVars);

  /// Lexmin of base + ExtraIneqs (inequality rows over [vars | 1]; may be
  /// empty). Counts Counter::LexMinWarmStarts when served from a snapshot.
  LexMinResult solveWith(const IntMatrix &ExtraIneqs);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace ilp
} // namespace pluto

#endif // PLUTOPP_ILP_LEXMIN_H
