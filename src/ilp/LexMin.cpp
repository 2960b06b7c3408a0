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
// Storage follows PIP and isl: each row is a vector of integer numerators
// over one positive per-row denominator, kept divided by its gcd. A pivot
// touches only the rows with a nonzero entry in the pivot column and
// combines them fraction-free; the entering column is chosen by integer
// cross-multiplication. Every entry is the same rational value the textbook
// tableau holds, so pivots, cuts and lexmin points are those of the
// rational formulation.
//
// A cold solve runs first on int64_t entries in one contiguous buffer, with
// every product, difference, negation and gcd overflow-checked and the
// column rule's cross products compared in 128 bits. If an input entry does
// not fit or any step overflows, the run is abandoned and the same system
// is solved from the start on BigInt entries. Without overflow the int64
// entries equal the BigInt ones, so both runs make the same pivots and cuts
// and reach the same point. Warm-started band tableaux (LexMinSolver) are
// int64 too: an overflow in the base run or in a query's resumed run
// answers that query with a cold solve over the base rows plus the query's,
// so BigInt tableaux exist only inside a cold solve's rerun.
//
//===----------------------------------------------------------------------===//

#include "ilp/LexMin.h"

#include "observe/PassStats.h"
#include "support/Budget.h"
#include "support/CheckedEntry.h"

#include <atomic>
#include <cstdint>
#include <optional>

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

namespace {

using namespace pluto::checked;

/// Least common multiple of two positive entries.
template <typename T> bool lcmOk(const T &A, const T &B, T &Out) {
  T G(0), Q(0);
  return gcdOk(A, B, G) && divExactOk(A, G, Q) && mulOk(Q, B, Out);
}
/// Remainder of floor division by a positive D, in [0, D).
BigInt floorMod(const BigInt &A, const BigInt &D) { return A.floorMod(D); }
int64_t floorMod(int64_t A, int64_t D) {
  int64_t M = A % D;
  return M < 0 ? M + D : M;
}
/// Sign of A * B - C * D. Two int64 products always fit in 128 bits.
int compareProducts(const BigInt &A, const BigInt &B, const BigInt &C,
                    const BigInt &D) {
  return (A * B).compare(C * D);
}
int compareProducts(int64_t A, int64_t B, int64_t C, int64_t D) {
  __extension__ typedef __int128 Wide;
  Wide L = static_cast<Wide>(A) * B, R = static_cast<Wide>(C) * D;
  return (L > R) - (L < R);
}
/// Tableau rows, each Width entries, in one contiguous buffer.
template <typename T> class RowStore {
public:
  explicit RowStore(unsigned Width) : Width(Width) {}
  void reserve(unsigned Rows) { Data.reserve(size_t(Rows) * Width); }
  unsigned size() const { return static_cast<unsigned>(Data.size() / Width); }
  T *row(unsigned I) { return Data.data() + size_t(I) * Width; }
  const T *row(unsigned I) const { return Data.data() + size_t(I) * Width; }
  /// Appends an all-zero row; earlier row pointers may dangle after it.
  T *append() {
    Data.resize(Data.size() + Width);
    return row(size() - 1);
  }

private:
  unsigned Width;
  std::vector<T> Data;
};

/// The lexicographic dual simplex tableau over entries of type T (BigInt,
/// or int64_t with every step overflow-checked). Without overflow both
/// hold the same numbers, so they make the same pivots and cuts.
template <typename T> class Tableau {
public:
  /// Builds the tableau of the system Rows. With FreeVars its variables
  /// take any sign: each x_i becomes y_i - M with y_i, M >= 0, and the
  /// tableau's variables are (M, y_0, y_1, ...), M first in lexicographic
  /// order. An integer point x gives the point M = max(0, -min x_i),
  /// y = x + M, and every integer (M, y) gives the point y - M, so the
  /// shifted system has an integer point iff the caller's system has.
  Tableau(const RowRefs &Rows, bool FreeVars)
      : InVars(Rows.NumVars), FreeVars(FreeVars),
        NumVars(Rows.NumVars + FreeVars),
        Store(NumVars + 2), MaxIterations(solveLimits().MaxPivots) {
    Store.reserve(2 * NumVars +
                  static_cast<unsigned>(Rows.Ineqs.size() +
                                        2 * Rows.Eqs.size()));
    // Read-out rows: x_i = u_i. These are the lexicographic objective; they
    // are never selected as pivot rows (their non-negativity is enforced by
    // the duplicate slack rows added below), so they always transform
    // linearly and the column lexico-positivity argument stays valid.
    for (unsigned I = 0; I < NumVars; ++I)
      appendRow()[I] = T(1);
    // Slack twins enforcing x_i >= 0.
    for (unsigned I = 0; I < NumVars; ++I)
      appendRow()[I] = T(1);
    for (const BigInt *Row : Rows.Ineqs)
      Overflowed |= !addConstraintRow(Row, /*Negate=*/false);
    for (const BigInt *Row : Rows.Eqs) {
      Overflowed |= !addConstraintRow(Row, /*Negate=*/false);
      Overflowed |= !addConstraintRow(Row, /*Negate=*/true);
    }
  }

  /// Runs the dual simplex until primal feasible; returns false if the
  /// system is (rationally, hence integrally) infeasible, or if the run
  /// aborted or overflowed.
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
      if (!pivot(static_cast<unsigned>(R), static_cast<unsigned>(J)))
        return Overflowed = true, false;
      assert(checkLexPositive() && "objective column lost lex-positivity");
    }
  }

  /// Index of the first variable row whose constant is non-integral, or -1.
  int firstFractionalVarRow() const {
    for (unsigned I = 0; I < NumVars; ++I) {
      const T *Row = row(I);
      if (!isOne(Row[NumVars + 1]) && !isZero(Row[NumVars] % Row[NumVars + 1]))
        return static_cast<int>(I);
    }
    return -1;
  }

  /// Appends the Gomory cut derived from row SrcRow:
  ///   sum_j frac(D[r][j]) u_j + frac(D[r][n]) - 1 >= 0.
  /// Over the row's denominator d, frac(a / d) is (a mod d) / d.
  void addGomoryCut(unsigned SrcRow) {
    T *Cut = appendRow();
    const T *Src = row(SrcRow);
    const T &D = Src[NumVars + 1];
    for (unsigned C = 0; C < NumVars; ++C)
      Cut[C] = floorMod(Src[C], D);
    // floorMod(a, d) - d lies in [-d, 0): no overflow.
    Cut[NumVars] = floorMod(Src[NumVars], D) - D;
    Cut[NumVars + 1] = D;
    Overflowed |= !normalizeRow(Cut);
  }

  /// The values of the caller's variables at the tableau's point.
  std::vector<BigInt> varValues() const {
    std::vector<BigInt> V;
    V.reserve(NumVars);
    for (unsigned I = 0; I < NumVars; ++I) {
      T Q(0);
      divExactOk(row(I)[NumVars], row(I)[NumVars + 1], Q);
      V.push_back(BigInt(Q));
    }
    if (!FreeVars)
      return V;
    std::vector<BigInt> X(InVars);
    for (unsigned I = 0; I < InVars; ++I)
      X[I] = V[1 + I] - V[0];
    return X;
  }

  bool aborted() const { return Aborted; }
  /// True once an entry did not fit T: the run's answer is void.
  bool overflowed() const { return Overflowed; }
  unsigned iterations() const { return Iterations; }

  /// Appends a new constraint row a.(x, 1) >= 0, given over the ORIGINAL
  /// problem variables, to a tableau that may already have pivoted: each
  /// x_i is substituted by its current row expression over the non-basic
  /// variables, so the new row lands directly in the current basis. Column
  /// lexico-positivity is preserved (the new row is read after all existing
  /// rows, so it can only refine columns that were identically zero).
  /// Marks the tableau overflowed if an entry does not fit T.
  void appendTransformed(const std::vector<BigInt> &Row) {
    assert(!FreeVars && Row.size() == NumVars + 1 && "row width mismatch");
    // The sum is taken over the lcm of the substituted rows' denominators.
    T L(1);
    bool Ok = true;
    for (unsigned I = 0; I < NumVars && Ok; ++I)
      if (!Row[I].isZero() && !isOne(row(I)[NumVars + 1]))
        Ok = lcmOk(L, row(I)[NumVars + 1], L);
    T *New = appendRow();
    for (unsigned I = 0; I < NumVars && Ok; ++I) {
      if (Row[I].isZero())
        continue;
      const T *XI = row(I);
      T A(0), F(0);
      Ok = convertOk(Row[I], /*Negate=*/false, A) &&
           divExactOk(L, XI[NumVars + 1], F) && mulOk(A, F, F);
      for (unsigned C = 0; C <= NumVars && Ok; ++C) {
        T Prod(0);
        if (!isZero(XI[C]))
          Ok = mulOk(F, XI[C], Prod) && addOk(New[C], Prod, New[C]);
      }
    }
    T K(0);
    Ok = Ok && convertOk(Row[NumVars], /*Negate=*/false, K) &&
         mulOk(K, L, K) && addOk(New[NumVars], K, New[NumVars]);
    New[NumVars + 1] = L;
    Overflowed |= !Ok || !normalizeRow(New);
  }

private:
  // Each row holds the numerators of the NumVars column entries and of the
  // constant, then the row's denominator. The denominator is positive and
  // every row is normalized (gcd of its numerators and denominator is 1),
  // so the entry in column c is exactly Row[c] / Row[NumVars + 1] and its
  // sign is the sign of Row[c].
  unsigned InVars;
  bool FreeVars;
  unsigned NumVars;
  RowStore<T> Store;
  unsigned Iterations = 0;
  bool Aborted = false;
  bool Overflowed = false;
  // Generous cap by default (see ilp::SolveLimits); the structured systems
  // Pluto produces pivot a few dozen times. The cap only guards against
  // pathological cycling.
  unsigned MaxIterations;

  unsigned numRows() const { return Store.size(); }
  T *row(unsigned I) { return Store.row(I); }
  const T *row(unsigned I) const { return Store.row(I); }

  /// Appends an all-zero row with denominator 1 and returns it.
  T *appendRow() {
    T *Row = Store.append();
    Row[NumVars + 1] = T(1);
    return Row;
  }

  /// Appends the constraint row Src . (x, 1) >= 0 over the caller's
  /// variables, negated when Negate is set. Constraint rows are integral:
  /// denominator 1 keeps them normalized. False if an entry does not fit.
  bool addConstraintRow(const BigInt *Src, bool Negate) {
    T *Row = appendRow();
    bool Ok = convertOk(Src[InVars], Negate, Row[NumVars]);
    if (!FreeVars) {
      for (unsigned I = 0; I < InVars; ++I)
        Ok &= convertOk(Src[I], Negate, Row[I]);
      return Ok;
    }
    // a.x = a.y - (sum_i a_i) M: the shift column holds -sum_i a_i.
    for (unsigned I = 0; I < InVars; ++I) {
      Ok &= convertOk(Src[I], Negate, Row[1 + I]);
      Ok &= subOk(Row[0], Row[1 + I], Row[0]);
    }
    return Ok;
  }

  /// Divides the numerators and the denominator of Row by their gcd.
  bool normalizeRow(T *Row) const {
    T G = Row[NumVars + 1];
    for (unsigned C = 0; C <= NumVars && !isOne(G); ++C)
      if (!isZero(Row[C]) && !gcdOk(G, Row[C], G))
        return false;
    if (isOne(G))
      return true;
    for (unsigned C = 0; C <= NumVars + 1; ++C)
      if (!isZero(Row[C]) && !divExactOk(Row[C], G, Row[C]))
        return false;
    return true;
  }

  /// Debug invariant (asserted after every pivot): the read-out
  /// (objective) part of every column is lexico-non-negative. This is what
  /// certifies lex-minimality at termination.
  bool checkLexPositive() const {
    for (unsigned J = 0; J < NumVars; ++J)
      for (unsigned I = 0; I < NumVars; ++I) {
        const T &V = row(I)[J];
        if (isZero(V))
          continue;
        if (isNegative(V))
          return false;
        break;
      }
    return true;
  }

  int firstNegativeConstantRow() const {
    // Read-out rows (the first NumVars) are repaired through their slack
    // twins; start the scan past them.
    for (unsigned I = NumVars, E = numRows(); I < E; ++I)
      if (isNegative(row(I)[NumVars]))
        return static_cast<int>(I);
    return -1;
  }

  /// Lexicographic comparison of column A scaled by 1/R[A] against column
  /// B scaled by 1/R[B] (R[A], R[B] > 0 are entries of pivot row R), reading
  /// rows top-down. Returns negative if A's is lex-smaller. Within one row
  /// the denominators cancel, so a/R[A] vs b/R[B] is decided by the integer
  /// cross products a * R[B] vs b * R[A].
  int compareScaledColumns(unsigned A, unsigned B, unsigned R) const {
    const T &RA = row(R)[A];
    const T &RB = row(R)[B];
    for (unsigned I = 0, E = numRows(); I < E; ++I) {
      const T &VA = row(I)[A];
      const T &VB = row(I)[B];
      int SA = isPositive(VA) - isNegative(VA);
      int SB = isPositive(VB) - isNegative(VB);
      if (SA != SB)
        return SA < SB ? -1 : 1;
      if (SA == 0)
        continue;
      if (int C = compareProducts(VA, RB, VB, RA))
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
      if (!isPositive(row(R)[J]))
        continue;
      if (Best < 0 ||
          compareScaledColumns(J, static_cast<unsigned>(Best), R) < 0)
        Best = static_cast<int>(J);
    }
    return Best;
  }

  /// Pivots: the quantity of row R leaves the row set's basis and becomes
  /// the non-basic variable of column J. False on overflow.
  bool pivot(unsigned R, unsigned J) {
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
    T *PR = row(R);
    const T P = PR[J];
    const T DR = PR[NumVars + 1];
    assert(isPositive(P) && "pivot element must be positive");
    for (unsigned I = 0, E = numRows(); I < E; ++I) {
      T *Row = row(I);
      if (I == R || isZero(Row[J]))
        continue;
      const T A = Row[J];
      bool Ok = true;
      for (unsigned C = 0; C <= NumVars; ++C) {
        if (C == J)
          continue;
        if (!isOne(P) && !isZero(Row[C]))
          Ok &= mulOk(Row[C], P, Row[C]);
        if (!isZero(PR[C])) {
          T Prod(0);
          Ok &= mulOk(A, PR[C], Prod);
          Ok &= subOk(Row[C], Prod, Row[C]);
        }
      }
      Ok &= mulOk(A, DR, Row[J]);
      Ok &= mulOk(Row[NumVars + 1], P, Row[NumVars + 1]);
      if (!Ok || !normalizeRow(Row))
        return false;
    }
    for (unsigned C = 0; C <= NumVars; ++C)
      if (C != J && !negOk(PR[C], PR[C]))
        return false;
    PR[J] = DR;
    PR[NumVars + 1] = P;
    return true;
  }
};

/// Shared driver: runs the dual simplex + Gomory cut loop on T until the
/// integer optimum, infeasibility, budget exhaustion or overflow (the
/// caller checks T.overflowed() first). CutsUsed reports the cuts appended
/// by this run (the tableau may carry earlier ones).
template <typename T>
LexMinResult runToInteger(Tableau<T> &Tab, unsigned &CutsUsed) {
  LexMinResult Result;
  CutsUsed = 0;
  // Cut budget: each round restores feasibility then cuts one fractional
  // coordinate. Structured Pluto systems need a handful of cuts at most.
  const unsigned MaxCuts = solveLimits().MaxCuts;
  for (unsigned Cuts = 0; Cuts <= MaxCuts && !Tab.overflowed(); ++Cuts) {
    if (!Tab.dualSimplex()) {
      Result.Status =
          Tab.aborted() ? SolveStatus::Aborted : SolveStatus::Infeasible;
      return Result;
    }
    int FracRow = Tab.firstFractionalVarRow();
    if (FracRow < 0) {
      Result.Status = SolveStatus::Feasible;
      Result.Point = Tab.varValues();
      return Result;
    }
    Tab.addGomoryCut(static_cast<unsigned>(FracRow));
    ++CutsUsed;
  }
  Result.Status = SolveStatus::Aborted;
  return Result;
}

/// Stats are bulk-added once per solve from the tableau totals, so the
/// pivot loop itself stays uninstrumented. PivotsBefore subtracts pivots a
/// reused tableau already carried when this solve began.
template <typename T>
void noteSolveStats(const Tableau<T> &Tab, unsigned PivotsBefore,
                    unsigned CutsUsed, const LexMinResult &Result) {
  if (!activeStats())
    return;
  count(Counter::LexMinCalls);
  count(Counter::SimplexPivots, Tab.iterations() - PivotsBefore);
  count(Counter::GomoryCuts, CutsUsed);
  if (Result.Status == SolveStatus::Aborted)
    count(Counter::IlpAborts);
}

/// A cold solve: on an int64 tableau first, and from the start on a BigInt
/// one if an entry or a step of the int64 run overflows. Both runs charge
/// the budget for their pivots; the stats count the run that answered.
LexMinResult solveCold(const RowRefs &Rows, bool FreeVars) {
  unsigned CutsUsed = 0;
  {
    Tableau<int64_t> Fast(Rows, FreeVars);
    LexMinResult Result = runToInteger(Fast, CutsUsed);
    if (!Fast.overflowed()) {
      noteSolveStats(Fast, 0, CutsUsed, Result);
      return Result;
    }
  }
  count(Counter::LexMinBigIntReruns);
  Tableau<BigInt> Exact(Rows, FreeVars);
  LexMinResult Result = runToInteger(Exact, CutsUsed);
  noteSolveStats(Exact, 0, CutsUsed, Result);
  return Result;
}

} // namespace

RowRefs::RowRefs(const IntMatrix &Ineqs, const IntMatrix &Eqs,
                 unsigned NumVars)
    : NumVars(NumVars) {
  addIneqs(Ineqs);
  addEqs(Eqs);
}

void RowRefs::addIneqs(const IntMatrix &M, unsigned Skip) {
  assert((M.empty() || M.numCols() == NumVars + 1) &&
         "inequality width mismatch");
  for (unsigned R = 0; R < M.numRows(); ++R)
    if (R != Skip)
      Ineqs.push_back(M.row(R).data());
}

void RowRefs::addEqs(const IntMatrix &M) {
  assert((M.empty() || M.numCols() == NumVars + 1) &&
         "equality width mismatch");
  for (unsigned R = 0; R < M.numRows(); ++R)
    Eqs.push_back(M.row(R).data());
}

LexMinResult ilp::lexMinNonNeg(const IntMatrix &Ineqs, const IntMatrix &Eqs,
                               unsigned NumVars) {
  return solveCold(RowRefs(Ineqs, Eqs, NumVars), /*FreeVars=*/false);
}

struct LexMinSolver::Impl {
  /// The shared rows, read in place.
  std::optional<RowRefs> Base;
  bool BaseSolved = false;
  SolveStatus BaseStatus = SolveStatus::Infeasible;
  /// The base tableau at its integer optimum (including the Gomory cuts
  /// discovered on the way - they are valid for any subset of the base's
  /// integer points, hence for base + extras). Null once the base run
  /// overflowed: every query then gets a cold solve.
  std::unique_ptr<Tableau<int64_t>> BaseT;

  void solveBase() {
    BaseSolved = true;
    BaseT = std::make_unique<Tableau<int64_t>>(*Base, /*FreeVars=*/false);
    unsigned CutsUsed = 0;
    LexMinResult R = runToInteger(*BaseT, CutsUsed);
    if (BaseT->overflowed()) {
      count(Counter::LexMinBigIntReruns);
      BaseT.reset();
      return;
    }
    BaseStatus = R.Status;
    noteSolveStats(*BaseT, 0, CutsUsed, R);
  }
};

LexMinSolver::LexMinSolver() : I(std::make_unique<Impl>()) {}
LexMinSolver::~LexMinSolver() = default;
LexMinSolver::LexMinSolver(LexMinSolver &&) = default;
LexMinSolver &LexMinSolver::operator=(LexMinSolver &&) = default;

void LexMinSolver::setBase(const IntMatrix &Ineqs, const IntMatrix &Eqs,
                           unsigned NumVars) {
  I->Base.emplace(Ineqs, Eqs, NumVars);
  I->BaseSolved = false;
  I->BaseT.reset();
}

LexMinResult LexMinSolver::solveWith(const IntMatrix &ExtraIneqs) {
  assert(I->Base && "solveWith before setBase");
  assert((ExtraIneqs.empty() || ExtraIneqs.numCols() == I->Base->NumVars + 1) &&
         "extra row width mismatch");
  bool Reused = I->BaseSolved;
  if (!I->BaseSolved)
    I->solveBase();
  if (I->BaseT && I->BaseStatus != SolveStatus::Feasible) {
    // Extra rows can only shrink an infeasible base's empty set; on an
    // aborted base the caller falls back to a cold solve.
    LexMinResult Result;
    Result.Status = I->BaseStatus;
    return Result;
  }
  if (I->BaseT) {
    Tableau<int64_t> T = *I->BaseT;
    unsigned PivotsBefore = T.iterations();
    for (unsigned R = 0; R < ExtraIneqs.numRows(); ++R)
      T.appendTransformed(ExtraIneqs.row(R));
    unsigned CutsUsed = 0;
    LexMinResult Result = runToInteger(T, CutsUsed);
    if (!T.overflowed()) {
      if (Reused)
        count(Counter::LexMinWarmStarts);
      noteSolveStats(T, PivotsBefore, CutsUsed, Result);
      return Result;
    }
    count(Counter::LexMinBigIntReruns);
  }
  // The base or this query left int64: solve base + extras cold.
  RowRefs All = *I->Base;
  All.addIneqs(ExtraIneqs);
  return solveCold(All, /*FreeVars=*/false);
}

Feasibility ilp::integerFeasibility(const RowRefs &Rows,
                                    std::vector<BigInt> *Witness) {
  LexMinResult LM = solveCold(Rows, /*FreeVars=*/true);
  if (LM.Status == SolveStatus::Aborted)
    return Feasibility::Unknown;
  if (!LM.feasible())
    return Feasibility::Empty;
  if (Witness)
    *Witness = std::move(LM.Point);
  return Feasibility::HasPoint;
}

Feasibility ilp::integerFeasibility(const IntMatrix &Ineqs,
                                    const IntMatrix &Eqs, unsigned NumVars,
                                    std::vector<BigInt> *Witness) {
  return integerFeasibility(RowRefs(Ineqs, Eqs, NumVars), Witness);
}
