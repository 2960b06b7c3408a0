//===- ilp/LexMin.cpp - Integer lexicographic minimization ----------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
//
// Tableau layout. Rows are affine expressions, over the current non-basic
// variables u (columns 0..n-1) plus a constant column n, of quantities that
// must be non-negative at any feasible point:
//   rows 0..n-1:     the problem variables x_i (initially x_i = u_i);
//   rows n..n+m-1:   the slack of each inequality;
//   later rows:      Gomory cut quantities (integers >= 0 at integer points).
//
// Invariants:
//   (1) every non-basic u_j is itself a non-negative quantity;
//   (2) every column, read down the rows in order, is lexico-positive (or
//       identically zero once a variable drops out).
// With all u = 0 the candidate point is the constant column; when every
// constant is >= 0 the candidate is feasible and - by (2) and u >= 0 - it is
// the lexicographic minimum of the relaxation. A dual simplex pivot repairs
// the first negative constant while preserving both invariants by choosing
// the entering column j > 0 in row r that lexicographically minimizes
// column_j / D[r][j]. If the optimum is fractional, a Gomory cut derived
// from the first fractional variable row is appended and the dual simplex
// resumes. This is exactly PIP's algorithm without the parameter dimension.
//
// Storage follows PIP and isl: each row is a vector of BigInt numerators
// over one positive per-row denominator, kept divided by its gcd. A pivot
// touches only the rows with a nonzero entry in the pivot column and
// combines them fraction-free; the entering column is chosen by integer
// cross-multiplication. Every entry is the same rational value the textbook
// tableau holds, so pivots, cuts and lexmin points are those of the
// rational formulation.
//
//===----------------------------------------------------------------------===//

#include "ilp/LexMin.h"

#include "observe/PassStats.h"
#include "support/Budget.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

using namespace pluto;
using namespace pluto::ilp;

namespace {
std::atomic<unsigned> GMaxPivots{SolveLimits().MaxPivots};
std::atomic<unsigned> GMaxCuts{SolveLimits().MaxCuts};
} // namespace

SolveLimits ilp::solveLimits() {
  SolveLimits L;
  L.MaxPivots = GMaxPivots.load(std::memory_order_relaxed);
  L.MaxCuts = GMaxCuts.load(std::memory_order_relaxed);
  return L;
}

void ilp::setSolveLimits(const SolveLimits &L) {
  GMaxPivots.store(L.MaxPivots, std::memory_order_relaxed);
  GMaxCuts.store(L.MaxCuts, std::memory_order_relaxed);
}

/// Set PLUTOPP_DEBUG_ILP=1 to trace pivots on stderr.
static bool debugIlp() {
  static bool Enabled = std::getenv("PLUTOPP_DEBUG_ILP") != nullptr;
  return Enabled;
}

namespace {

class Tableau {
public:
  Tableau(const IntMatrix &Ineqs, const IntMatrix &Eqs, unsigned NumVars)
      : NumVars(NumVars), MaxIterations(solveLimits().MaxPivots) {
    Rows.reserve(2 * NumVars + Ineqs.numRows() + 2 * Eqs.numRows());
    // Read-out rows: x_i = u_i. These are the lexicographic objective; they
    // are never selected as pivot rows (their non-negativity is enforced by
    // the duplicate slack rows added below), so they always transform
    // linearly and the column lexico-positivity argument stays valid.
    for (unsigned I = 0; I < NumVars; ++I)
      appendRow()[I] = BigInt(1);
    // Slack twins enforcing x_i >= 0.
    for (unsigned I = 0; I < NumVars; ++I)
      appendRow()[I] = BigInt(1);
    // Constraint rows are integral: denominator 1 keeps them normalized.
    auto addConstraintRow = [&](const IntMatrix &M, unsigned R, bool Negate) {
      BigInt *Row = appendRow();
      for (unsigned C = 0; C <= NumVars; ++C)
        Row[C] = Negate ? -M(R, C) : M(R, C);
    };
    for (unsigned R = 0; R < Ineqs.numRows(); ++R)
      addConstraintRow(Ineqs, R, /*Negate=*/false);
    for (unsigned R = 0; R < Eqs.numRows(); ++R) {
      addConstraintRow(Eqs, R, /*Negate=*/false);
      addConstraintRow(Eqs, R, /*Negate=*/true);
    }
  }

  /// Runs the dual simplex until primal feasible; returns false if the
  /// system is (rationally, hence integrally) infeasible.
  bool dualSimplex() {
    for (;;) {
      int R = firstNegativeConstantRow();
      if (R < 0)
        return true;
      int J = chooseEnteringColumn(static_cast<unsigned>(R));
      if (J < 0)
        return false; // All coefficients <= 0: row can never become >= 0.
      // The static pivot cap and the per-compile budget (one work unit per
      // pivot - the generalized form of the cap) share the Aborted exit;
      // every caller already handles Aborted conservatively. Both count
      // only pivots that are about to run.
      if (Iterations >= MaxIterations || !budgetCharge())
        return Aborted = true, false;
      ++Iterations;
      if (debugIlp()) {
        const BigInt *Row = row(static_cast<unsigned>(R));
        fprintf(stderr, "[ilp] pivot row %d col %d (const %s)\n", R, J,
                Rational(Row[NumVars], Row[NumVars + 1]).toString().c_str());
      }
      pivot(static_cast<unsigned>(R), static_cast<unsigned>(J));
      if (debugIlp())
        checkLexPositive();
    }
  }

  /// Index of the first variable row whose constant is non-integral, or -1.
  int firstFractionalVarRow() const {
    for (unsigned I = 0; I < NumVars; ++I) {
      const BigInt *Row = row(I);
      if (!Row[NumVars + 1].isOne() &&
          !(Row[NumVars] % Row[NumVars + 1]).isZero())
        return static_cast<int>(I);
    }
    return -1;
  }

  /// Appends the Gomory cut derived from row SrcRow:
  ///   sum_j frac(D[r][j]) u_j + frac(D[r][n]) - 1 >= 0.
  /// Over the row's denominator d, frac(a / d) is (a mod d) / d.
  void addGomoryCut(unsigned SrcRow) {
    BigInt *Cut = appendRow();
    const BigInt *Src = row(SrcRow);
    const BigInt &D = Src[NumVars + 1];
    for (unsigned C = 0; C < NumVars; ++C)
      Cut[C] = Src[C].floorMod(D);
    Cut[NumVars] = Src[NumVars].floorMod(D) - D;
    Cut[NumVars + 1] = D;
    normalizeRow(Cut);
  }

  std::vector<BigInt> varValues() const {
    std::vector<BigInt> V;
    V.reserve(NumVars);
    for (unsigned I = 0; I < NumVars; ++I)
      V.push_back(row(I)[NumVars].divExact(row(I)[NumVars + 1]));
    return V;
  }

  bool aborted() const { return Aborted; }
  unsigned iterations() const { return Iterations; }

  /// Appends a new constraint row a.(x, 1) >= 0, given over the ORIGINAL
  /// problem variables, to a tableau that may already have pivoted: each
  /// x_i is substituted by its current row expression over the non-basic
  /// variables, so the new row lands directly in the current basis. Column
  /// lexico-positivity is preserved (the new row is read after all existing
  /// rows, so it can only refine columns that were identically zero).
  void appendTransformed(const std::vector<BigInt> &Row) {
    assert(Row.size() == NumVars + 1 && "row width mismatch");
    // The sum is taken over the lcm of the substituted rows' denominators.
    BigInt L(1);
    for (unsigned I = 0; I < NumVars; ++I)
      if (!Row[I].isZero() && !row(I)[NumVars + 1].isOne())
        L = BigInt::lcm(L, row(I)[NumVars + 1]);
    BigInt *New = appendRow();
    for (unsigned I = 0; I < NumVars; ++I) {
      if (Row[I].isZero())
        continue;
      const BigInt *XI = row(I);
      BigInt F = Row[I] * L.divExact(XI[NumVars + 1]);
      for (unsigned C = 0; C <= NumVars; ++C)
        if (!XI[C].isZero())
          New[C] += F * XI[C];
    }
    New[NumVars] += Row[NumVars] * L;
    New[NumVars + 1] = std::move(L);
    normalizeRow(New);
  }

private:
  // Each row holds the numerators of the NumVars column entries and of the
  // constant, then the row's denominator. The denominator is positive and
  // every row is normalized (gcd of its numerators and denominator is 1),
  // so the entry in column c is exactly Row[c] / Row[NumVars + 1] and its
  // sign is the sign of Row[c].
  unsigned NumVars;
  std::vector<std::vector<BigInt>> Rows;
  unsigned Iterations = 0;
  bool Aborted = false;
  // Generous cap by default (see ilp::SolveLimits); the structured systems
  // Pluto produces pivot a few dozen times. The cap only guards against
  // pathological cycling.
  unsigned MaxIterations;

  unsigned numRows() const { return static_cast<unsigned>(Rows.size()); }
  BigInt *row(unsigned I) { return Rows[I].data(); }
  const BigInt *row(unsigned I) const { return Rows[I].data(); }

  /// Appends an all-zero row with denominator 1 and returns it.
  BigInt *appendRow() {
    Rows.emplace_back(NumVars + 2);
    BigInt *Row = Rows.back().data();
    Row[NumVars + 1] = BigInt(1);
    return Row;
  }

  /// Divides the numerators and the denominator of Row by their gcd.
  void normalizeRow(BigInt *Row) const {
    BigInt G = Row[NumVars + 1];
    for (unsigned C = 0; C <= NumVars && !G.isOne(); ++C)
      if (!Row[C].isZero())
        G = BigInt::gcd(G, Row[C]);
    if (G.isOne())
      return;
    for (unsigned C = 0; C <= NumVars + 1; ++C)
      if (!Row[C].isZero())
        Row[C] = Row[C].divExact(G);
  }

  /// Debug invariant: the read-out (objective) part of every column is
  /// lexico-non-negative. This is what certifies lex-minimality at
  /// termination.
  void checkLexPositive() const {
    for (unsigned J = 0; J < NumVars; ++J) {
      for (unsigned I = 0; I < NumVars; ++I) {
        const BigInt &V = row(I)[J];
        if (V.isZero())
          continue;
        if (V.isNegative())
          fprintf(stderr, "[ilp] BROKEN: column %u objective-lex-negative\n",
                  J);
        break;
      }
    }
  }

  int firstNegativeConstantRow() const {
    // Read-out rows (the first NumVars) are repaired through their slack
    // twins; start the scan past them.
    for (unsigned I = NumVars, E = numRows(); I < E; ++I)
      if (row(I)[NumVars].isNegative())
        return static_cast<int>(I);
    return -1;
  }

  /// Lexicographic comparison of column A scaled by 1/R[A] against column
  /// B scaled by 1/R[B] (R[A], R[B] > 0 are entries of pivot row R), reading
  /// rows top-down. Returns negative if A's is lex-smaller. Within one row
  /// the denominators cancel, so a/R[A] vs b/R[B] is decided by the integer
  /// cross products a * R[B] vs b * R[A].
  int compareScaledColumns(unsigned A, unsigned B, unsigned R) const {
    const BigInt &RA = row(R)[A];
    const BigInt &RB = row(R)[B];
    for (unsigned I = 0, E = numRows(); I < E; ++I) {
      const BigInt &VA = row(I)[A];
      const BigInt &VB = row(I)[B];
      int SA = VA.isPositive() - VA.isNegative();
      int SB = VB.isPositive() - VB.isNegative();
      if (SA != SB)
        return SA < SB ? -1 : 1;
      if (SA == 0)
        continue;
      int C = (VA * RB).compare(VB * RA);
      if (C != 0)
        return C;
    }
    return 0;
  }

  /// Among columns with a positive coefficient in row R, picks the one with
  /// the lexicographically smallest column/coefficient ratio (preserves
  /// column lexico-positivity). Returns -1 if none qualifies.
  int chooseEnteringColumn(unsigned R) const {
    int Best = -1;
    for (unsigned J = 0; J < NumVars; ++J) {
      if (!row(R)[J].isPositive())
        continue;
      if (Best < 0 ||
          compareScaledColumns(J, static_cast<unsigned>(Best), R) < 0)
        Best = static_cast<int>(J);
    }
    return Best;
  }

  /// Pivots: the quantity of row R leaves the row set's basis and becomes
  /// the non-basic variable of column J.
  void pivot(unsigned R, unsigned J) {
    // In entry terms, with P = D[R][J] > 0, row R is rewritten as the
    // definition of the old u_J:
    //   u_J = (q - sum_{c != J} D[R][c] u_c - D[R][n]) / P,
    // and substituted into every other row i with D[i][J] != 0:
    //   new col J of row i      = D[i][J] / P
    //   new col c (c != J)      = D[i][c] - D[i][J] * D[R][c] / P
    //   new const               = D[i][n] - D[i][J] * D[R][n] / P.
    // Over numerators (a_c, row i) and (r_c, row R) with denominators d_i
    // and d_R this is fraction-free: row i becomes
    //   (a_c * r_J - a_J * r_c for c != J, a_J * d_R) / (d_i * r_J),
    // then is divided by its gcd; row R becomes (-r_c for c != J, d_R) / r_J,
    // which is already normalized because row R was.
    BigInt *PR = row(R);
    const BigInt P = PR[J];
    const BigInt DR = PR[NumVars + 1];
    assert(P.isPositive() && "pivot element must be positive");
    for (unsigned I = 0, E = numRows(); I < E; ++I) {
      BigInt *Row = row(I);
      if (I == R || Row[J].isZero())
        continue;
      const BigInt A = Row[J];
      for (unsigned C = 0; C <= NumVars; ++C) {
        if (C == J)
          continue;
        if (!P.isOne() && !Row[C].isZero())
          Row[C] = Row[C] * P;
        if (!PR[C].isZero())
          Row[C] -= A * PR[C];
      }
      Row[J] = A * DR;
      Row[NumVars + 1] = Row[NumVars + 1] * P;
      normalizeRow(Row);
    }
    for (unsigned C = 0; C <= NumVars; ++C)
      if (C != J)
        PR[C] = -PR[C];
    PR[J] = DR;
    PR[NumVars + 1] = P;
  }
};

/// Shared driver: runs the dual simplex + Gomory cut loop on T until the
/// integer optimum, infeasibility, or budget exhaustion. CutsUsed reports
/// the cuts appended by this run (the tableau may carry earlier ones).
LexMinResult runToInteger(Tableau &T, unsigned &CutsUsed) {
  LexMinResult Result;
  CutsUsed = 0;
  // Cut budget: each round restores feasibility then cuts one fractional
  // coordinate. Structured Pluto systems need a handful of cuts at most.
  const unsigned MaxCuts = solveLimits().MaxCuts;
  for (unsigned Cuts = 0; Cuts <= MaxCuts; ++Cuts) {
    if (!T.dualSimplex()) {
      Result.Status =
          T.aborted() ? SolveStatus::Aborted : SolveStatus::Infeasible;
      return Result;
    }
    int FracRow = T.firstFractionalVarRow();
    if (FracRow < 0) {
      Result.Status = SolveStatus::Feasible;
      Result.Point = T.varValues();
      return Result;
    }
    T.addGomoryCut(static_cast<unsigned>(FracRow));
    ++CutsUsed;
  }
  Result.Status = SolveStatus::Aborted;
  return Result;
}

/// Stats are bulk-added once per solve from the tableau totals, so the
/// pivot loop itself stays uninstrumented. PivotsBefore subtracts pivots a
/// reused tableau already carried when this solve began.
void noteSolveStats(const Tableau &T, unsigned PivotsBefore,
                    unsigned CutsUsed, bool DidAbort) {
  if (!activeStats())
    return;
  count(Counter::LexMinCalls);
  count(Counter::SimplexPivots, T.iterations() - PivotsBefore);
  count(Counter::GomoryCuts, CutsUsed);
  if (DidAbort)
    count(Counter::IlpAborts);
}

} // namespace

LexMinResult ilp::lexMinNonNeg(const IntMatrix &Ineqs, const IntMatrix &Eqs,
                               unsigned NumVars) {
  assert((Ineqs.empty() || Ineqs.numCols() == NumVars + 1) &&
         "inequality width mismatch");
  assert((Eqs.empty() || Eqs.numCols() == NumVars + 1) &&
         "equality width mismatch");

  Tableau T(Ineqs, Eqs, NumVars);
  unsigned CutsUsed = 0;
  LexMinResult Result = runToInteger(T, CutsUsed);
  noteSolveStats(T, 0, CutsUsed, Result.Status == SolveStatus::Aborted);
  return Result;
}

struct LexMinSolver::Impl {
  unsigned NumVars = 0;
  IntMatrix BaseIneqs;
  IntMatrix BaseEqs;
  bool HasBase = false;
  /// Base tableau state once solved to its integer optimum (including the
  /// Gomory cuts discovered on the way - they are valid for any subset of
  /// the base's integer points, hence for base + extras).
  bool BaseSolved = false;
  SolveStatus BaseStatus = SolveStatus::Infeasible;
  std::unique_ptr<Tableau> BaseT;

  void solveBase() {
    BaseSolved = true;
    BaseT = std::make_unique<Tableau>(BaseIneqs, BaseEqs, NumVars);
    unsigned CutsUsed = 0;
    LexMinResult R = runToInteger(*BaseT, CutsUsed);
    BaseStatus = R.Status;
    noteSolveStats(*BaseT, 0, CutsUsed, R.Status == SolveStatus::Aborted);
  }
};

LexMinSolver::LexMinSolver() : I(std::make_unique<Impl>()) {}
LexMinSolver::~LexMinSolver() = default;
LexMinSolver::LexMinSolver(LexMinSolver &&) = default;
LexMinSolver &LexMinSolver::operator=(LexMinSolver &&) = default;

void LexMinSolver::setBase(const IntMatrix &Ineqs, const IntMatrix &Eqs,
                           unsigned NumVars) {
  assert((Ineqs.empty() || Ineqs.numCols() == NumVars + 1) &&
         "inequality width mismatch");
  assert((Eqs.empty() || Eqs.numCols() == NumVars + 1) &&
         "equality width mismatch");
  I->NumVars = NumVars;
  I->BaseIneqs = Ineqs;
  I->BaseEqs = Eqs;
  I->HasBase = true;
  I->BaseSolved = false;
  I->BaseT.reset();
}

bool LexMinSolver::hasBase() const { return I->HasBase; }

LexMinResult LexMinSolver::solveWith(const IntMatrix &ExtraIneqs) {
  assert(I->HasBase && "solveWith before setBase");
  assert((ExtraIneqs.empty() || ExtraIneqs.numCols() == I->NumVars + 1) &&
         "extra row width mismatch");
  bool Reused = I->BaseSolved;
  if (!I->BaseSolved)
    I->solveBase();
  LexMinResult Result;
  if (I->BaseStatus == SolveStatus::Infeasible) {
    // Extra rows can only shrink the feasible set.
    Result.Status = SolveStatus::Infeasible;
    return Result;
  }
  if (I->BaseStatus == SolveStatus::Aborted) {
    // No usable snapshot; the caller falls back to a cold solve.
    Result.Status = SolveStatus::Aborted;
    return Result;
  }
  if (Reused)
    count(Counter::LexMinWarmStarts);
  Tableau T = *I->BaseT;
  unsigned PivotsBefore = T.iterations();
  for (unsigned R = 0; R < ExtraIneqs.numRows(); ++R)
    T.appendTransformed(ExtraIneqs.row(R));
  unsigned CutsUsed = 0;
  Result = runToInteger(T, CutsUsed);
  noteSolveStats(T, PivotsBefore, CutsUsed,
                 Result.Status == SolveStatus::Aborted);
  return Result;
}

Feasibility ilp::integerFeasibility(const IntMatrix &Ineqs,
                                    const IntMatrix &Eqs, unsigned NumVars,
                                    std::vector<BigInt> *Witness) {
  // Split x_i = p_i - n_i with p_i, n_i >= 0.
  auto split = [&](const IntMatrix &M) {
    IntMatrix R(2 * NumVars + 1);
    for (unsigned I = 0; I < M.numRows(); ++I) {
      std::vector<BigInt> Row(2 * NumVars + 1);
      for (unsigned J = 0; J < NumVars; ++J) {
        Row[2 * J] = M(I, J);
        Row[2 * J + 1] = -M(I, J);
      }
      Row[2 * NumVars] = M(I, NumVars);
      R.addRow(std::move(Row));
    }
    return R;
  };
  LexMinResult LM = lexMinNonNeg(split(Ineqs), split(Eqs), 2 * NumVars);
  if (LM.Status == SolveStatus::Aborted)
    return Feasibility::Unknown;
  if (!LM.feasible())
    return Feasibility::Empty;
  if (Witness) {
    Witness->clear();
    for (unsigned I = 0; I < NumVars; ++I)
      Witness->push_back(LM.Point[2 * I] - LM.Point[2 * I + 1]);
  }
  return Feasibility::HasPoint;
}

bool ilp::hasIntegerPoint(const IntMatrix &Ineqs, const IntMatrix &Eqs,
                          unsigned NumVars, std::vector<BigInt> *Witness) {
  // On a budget abort (never observed on this code base's systems), answer
  // conservatively: claiming a point exists keeps dependences and codegen
  // pieces, which is always safe.
  return integerFeasibility(Ineqs, Eqs, NumVars, Witness) !=
         Feasibility::Empty;
}
