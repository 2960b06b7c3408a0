//===- poly/ConstraintSystem.cpp - Integer polyhedra ----------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "poly/ConstraintSystem.h"

#include "ilp/LexMin.h"
#include "observe/PassStats.h"
#include "support/Budget.h"
#include "support/CheckedEntry.h"
#include "support/LinearAlgebra.h"

#include <algorithm>
#include <cstdint>

using namespace pluto;

namespace {

/// Deduplication index over constraint rows that live elsewhere (a matrix
/// or a row list), keyed by their first Len entries - the coefficient
/// prefix, constant excluded. It stores each row's position with the
/// prefix hash and compares prefixes in place on a hash match, so no key
/// is ever copied. Open addressing with linear probing. The rows hold
/// BigInt or int64_t entries (one type per index); both hash a value alike.
size_t hashEntry(const BigInt &V) { return V.hash(); }
size_t hashEntry(int64_t V) { return BigInt(V).hash(); }

class PrefixIndex {
public:
  explicit PrefixIndex(unsigned Len) : Len(Len), Slots(16) {}

  /// Returns the stored position of the indexed row whose prefix equals
  /// Row's (RowAt maps a stored position to its row), or stores and
  /// returns Pos when there is none. The caller may overwrite the returned
  /// position to re-point the entry at another row with the same prefix.
  template <typename T, typename RowAtFn>
  unsigned &findOrInsert(const std::vector<T> &Row, unsigned Pos,
                         RowAtFn RowAt) {
    if (2 * (Size + 1) > Slots.size())
      grow();
    size_t H = hashPrefix(Row);
    size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Pos == Empty) {
        S = {H, Pos};
        ++Size;
        return S.Pos;
      }
      if (S.Hash == H) {
        const std::vector<T> &Other = RowAt(S.Pos);
        if (std::equal(Row.begin(), Row.begin() + Len, Other.begin()))
          return S.Pos;
      }
    }
  }

private:
  static constexpr unsigned Empty = ~0u;
  struct Slot {
    size_t Hash = 0;
    unsigned Pos = Empty;
  };
  unsigned Len;
  size_t Size = 0;
  std::vector<Slot> Slots;

  template <typename T> size_t hashPrefix(const std::vector<T> &Row) const {
    size_t H = 0x9e3779b97f4a7c15ULL ^ Len;
    for (unsigned I = 0; I < Len; ++I)
      H = (H * 0x100000001b3ULL) ^ hashEntry(Row[I]);
    return H;
  }

  void grow() {
    std::vector<Slot> Old(2 * Slots.size());
    Old.swap(Slots);
    size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Pos == Empty)
        continue;
      size_t I = S.Hash & Mask;
      while (Slots[I].Pos != Empty)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }
};

/// Row accessor for a PrefixIndex over the rows of M.
auto rowsOf(const IntMatrix &M) {
  return [&M](unsigned I) -> const std::vector<BigInt> & { return M.row(I); };
}

/// True iff every integer point of the system Rows satisfies
/// Row.(x,1) >= 0: Rows plus not(Row) is empty, and not(a.x + c >= 0) over
/// the integers is -a.x - c - 1 >= 0. The rows are read in place.
bool implies(ilp::RowRefs Rows, const std::vector<BigInt> &Row) {
  count(Counter::RedundancyChecks);
  count(Counter::EmptinessTests);
  unsigned N = Rows.NumVars;
  assert(Row.size() == N + 1 && "constraint width mismatch");
  std::vector<BigInt> NegRow(N + 1);
  for (unsigned I = 0; I <= N; ++I)
    NegRow[I] = -Row[I];
  NegRow[N] -= BigInt(1);
  Rows.Ineqs.push_back(NegRow.data());
  return ilp::integerFeasibility(Rows) == ilp::Feasibility::Empty;
}

/// True iff some row of M other than Skip has Row's coefficient vector and
/// a constant no larger than Row's, i.e. syntactically implies Row >= 0.
bool hasDominatingRow(const IntMatrix &M, unsigned Skip,
                      const std::vector<BigInt> &Row) {
  unsigned N = static_cast<unsigned>(Row.size()) - 1;
  for (unsigned R = 0; R < M.numRows(); ++R) {
    if (R == Skip)
      continue;
    const std::vector<BigInt> &Other = M.row(R);
    if (Other[N] <= Row[N] &&
        std::equal(Row.begin(), Row.begin() + N, Other.begin()))
      return true;
  }
  return false;
}

} // namespace

void ConstraintSystem::addIneq(std::vector<BigInt> Row) {
  assert(Row.size() == NumVars + 1 && "constraint width mismatch");
  Ineqs.addRow(std::move(Row));
}

void ConstraintSystem::addEq(std::vector<BigInt> Row) {
  assert(Row.size() == NumVars + 1 && "constraint width mismatch");
  Eqs.addRow(std::move(Row));
}

void ConstraintSystem::addIneq(std::initializer_list<long long> Row) {
  std::vector<BigInt> R;
  R.reserve(Row.size());
  for (long long V : Row)
    R.push_back(BigInt(V));
  addIneq(std::move(R));
}

void ConstraintSystem::addEq(std::initializer_list<long long> Row) {
  std::vector<BigInt> R;
  R.reserve(Row.size());
  for (long long V : Row)
    R.push_back(BigInt(V));
  addEq(std::move(R));
}

void ConstraintSystem::addLowerBound(unsigned Var, long long Lower) {
  assert(Var < NumVars);
  std::vector<BigInt> Row(NumVars + 1, BigInt(0));
  Row[Var] = BigInt(1);
  Row[NumVars] = BigInt(-Lower);
  addIneq(std::move(Row));
}

void ConstraintSystem::addUpperBound(unsigned Var, long long Upper) {
  assert(Var < NumVars);
  std::vector<BigInt> Row(NumVars + 1, BigInt(0));
  Row[Var] = BigInt(-1);
  Row[NumVars] = BigInt(Upper);
  addIneq(std::move(Row));
}

ConstraintSystem ConstraintSystem::intersection(const ConstraintSystem &A,
                                                const ConstraintSystem &B) {
  assert(A.NumVars == B.NumVars && "intersection dimension mismatch");
  ConstraintSystem R = A;
  R.append(B);
  return R;
}

void ConstraintSystem::append(const ConstraintSystem &Other) {
  assert(NumVars == Other.NumVars && "append dimension mismatch");
  for (unsigned I = 0; I < Other.Ineqs.numRows(); ++I)
    Ineqs.addRow(Other.Ineqs.row(I));
  for (unsigned I = 0; I < Other.Eqs.numRows(); ++I)
    Eqs.addRow(Other.Eqs.row(I));
}

void ConstraintSystem::insertDims(unsigned Pos, unsigned Count) {
  assert(Pos <= NumVars && "insert position out of range");
  Ineqs.insertZeroColumns(Pos, Count);
  Eqs.insertZeroColumns(Pos, Count);
  NumVars += Count;
}

bool ConstraintSystem::isIntegerEmpty() const {
  return integerFeasibility() == ilp::Feasibility::Empty;
}

ilp::Feasibility ConstraintSystem::integerFeasibility() const {
  count(Counter::EmptinessTests);
  return ilp::integerFeasibility(Ineqs, Eqs, NumVars);
}

bool ConstraintSystem::impliesIneq(const std::vector<BigInt> &Row) const {
  return implies(ilp::RowRefs(Ineqs, Eqs, NumVars), Row);
}

/// Divides an inequality row by the gcd of its variable coefficients,
/// tightening the constant with a floor (integer-exact strengthening).
static void tightenIneq(std::vector<BigInt> &Row) {
  unsigned N = static_cast<unsigned>(Row.size()) - 1;
  BigInt G(0);
  for (unsigned I = 0; I < N; ++I)
    G = BigInt::gcd(G, Row[I]);
  if (G.isZero() || G.isOne())
    return;
  for (unsigned I = 0; I < N; ++I)
    Row[I] = Row[I].divExact(G);
  Row[N] = Row[N].floorDiv(G);
}

bool ConstraintSystem::normalize() {
  // Equalities: gcd-normalize; a row 0 == c with c != 0 is a contradiction,
  // as is a constant the gcd of the coefficients does not divide (no
  // integer solution). Contradictions are found before any row changes, so
  // a contradictory system is returned untouched.
  std::vector<BigInt> EqGcd(Eqs.numRows());
  for (unsigned R = 0; R < Eqs.numRows(); ++R) {
    const std::vector<BigInt> &Row = Eqs.row(R);
    BigInt &G = EqGcd[R];
    for (unsigned I = 0; I < NumVars && !G.isOne(); ++I)
      G = BigInt::gcd(G, Row[I]);
    if (G.isZero() ? !Row[NumVars].isZero()
                   : !(Row[NumVars] % G).isZero())
      return false;
  }
  // Then, in place and in order: divide, make the first nonzero
  // coefficient positive, and drop all-zero rows and duplicates.
  unsigned Kept = 0;
  PrefixIndex SeenEq(NumVars + 1);
  for (unsigned R = 0; R < Eqs.numRows(); ++R) {
    if (EqGcd[R].isZero())
      continue;
    std::vector<BigInt> &Row = Eqs.row(R);
    if (!EqGcd[R].isOne())
      for (BigInt &V : Row)
        V = V.divExact(EqGcd[R]);
    for (unsigned I = 0; I < NumVars; ++I) {
      if (Row[I].isZero())
        continue;
      if (Row[I].isNegative())
        for (BigInt &V : Row)
          V = -V;
      break;
    }
    if (SeenEq.findOrInsert(Row, Kept, rowsOf(Eqs)) == Kept)
      std::swap(Eqs.row(Kept++), Row);
  }
  Eqs.truncateRows(Kept);

  // Inequalities, in place and in order: tighten, drop trivially true rows,
  // and collapse rows sharing a coefficient vector to the tightest constant
  // (for a.x + c >= 0 the smallest c dominates). Trivially false rows
  // collapse to one canonical -1 >= 0, which keeps the system empty.
  Kept = 0;
  PrefixIndex Seen(NumVars);
  bool Contradiction = false;
  for (unsigned R = 0; R < Ineqs.numRows(); ++R) {
    std::vector<BigInt> &Row = Ineqs.row(R);
    tightenIneq(Row);
    bool AllZero = true;
    for (unsigned I = 0; I < NumVars && AllZero; ++I)
      AllZero = Row[I].isZero();
    if (AllZero) {
      if (!Row[NumVars].isNegative())
        continue;
      Contradiction = true;
      Row[NumVars] = BigInt(-1);
    }
    unsigned K = Seen.findOrInsert(Row, Kept, rowsOf(Ineqs));
    if (K == Kept)
      std::swap(Ineqs.row(Kept++), Row);
    else if (Row[NumVars] < Ineqs(K, NumVars))
      Ineqs(K, NumVars) = std::move(Row[NumVars]);
  }
  Ineqs.truncateRows(Kept);
  return !Contradiction;
}

namespace {

/// A Fourier-Motzkin row over entries T: the coefficients and the constant,
/// and the sorted indices of the original inequalities it descends from.
template <typename T> struct FmRow {
  std::vector<T> Coef;
  std::vector<unsigned> Anc;
};

/// The Fourier-Motzkin counters of one batch elimination; only the run
/// that answers adds them to the stats.
struct FmCounts {
  uint64_t Steps = 0;
  uint64_t Formed = 0; // Row pairs combined.
  uint64_t Pruned = 0; // Pairs that added no row.
};

using namespace pluto::checked;

/// Divides Row by the gcd of its entries, as normalizeByGcd does.
template <typename T> bool normalizeOk(std::vector<T> &Row) {
  T G(0);
  for (const T &V : Row)
    if (!isZero(V) && !gcdOk(G, V, G))
      return false;
  if (isZero(G) || isOne(G))
    return true;
  for (T &V : Row)
    if (!isZero(V) && !divExactOk(V, G, V))
      return false;
  return true;
}

/// The rows of M as FM rows, each its own ancestor: BigInt rows are moved
/// out of M, int64 rows copied. False if an entry does not fit T.
bool toFmRows(IntMatrix &M, std::vector<FmRow<BigInt>> &Rows) {
  Rows.reserve(M.numRows());
  for (unsigned R = 0; R < M.numRows(); ++R)
    Rows.push_back({std::move(M.row(R)), {R}});
  return true;
}
bool toFmRows(const IntMatrix &M, std::vector<FmRow<int64_t>> &Rows) {
  Rows.reserve(M.numRows());
  for (unsigned R = 0; R < M.numRows(); ++R) {
    FmRow<int64_t> Row{std::vector<int64_t>(M.numCols()), {R}};
    for (unsigned C = 0; C < M.numCols(); ++C)
      if (!convertOk(M(R, C), /*Negate=*/false, Row.Coef[C]))
        return false;
    Rows.push_back(std::move(Row));
  }
  return true;
}

/// Eliminates the Targets columns from Rows (NumVars + 1 entries each) by
/// batch Fourier-Motzkin with Imbert's acceleration. Each row carries the
/// set of original inequality indices it descends from; after eliminating
/// p variables, any irredundant derived row has at most p + 1 ancestors
/// (Imbert/Chernikov), so larger combinations are dropped. This keeps the
/// Farkas-multiplier eliminations polynomial in practice. Returns false if
/// an int64 step overflowed; Rows is then void. A tripped budget leaves no
/// rows at all (a garbage universe system), so every target column is
/// trivially zero.
template <typename T>
bool eliminateBatch(std::vector<FmRow<T>> &Rows, unsigned NumVars,
                    const std::vector<unsigned> &Targets, FmCounts &Counts) {
  auto mergeAnc = [](const std::vector<unsigned> &A,
                     const std::vector<unsigned> &B) {
    std::vector<unsigned> M;
    std::set_union(A.begin(), A.end(), B.begin(), B.end(),
                   std::back_inserter(M));
    return M;
  };

  std::vector<bool> Remaining(NumVars, false);
  for (unsigned V : Targets)
    Remaining[V] = true;
  unsigned P = 0;
  for (unsigned Step = 0; Step < Targets.size(); ++Step) {
    // Pick the remaining target with the lowest pos*neg growth.
    int Best = -1;
    size_t BestCost = 0;
    for (unsigned V = 0; V < NumVars; ++V) {
      if (!Remaining[V])
        continue;
      size_t NPos = 0, NNeg = 0;
      for (const FmRow<T> &R : Rows) {
        NPos += isPositive(R.Coef[V]);
        NNeg += isNegative(R.Coef[V]);
      }
      size_t Cost = NPos * NNeg;
      if (Best < 0 || Cost < BestCost) {
        Best = static_cast<int>(V);
        BestCost = Cost;
      }
    }
    unsigned V = static_cast<unsigned>(Best);
    Remaining[V] = false;
    ++P;

    std::vector<FmRow<T>> Lower, Upper, Next;
    for (FmRow<T> &R : Rows) {
      if (isPositive(R.Coef[V]))
        Lower.push_back(std::move(R));
      else if (isNegative(R.Coef[V]))
        Upper.push_back(std::move(R));
      else
        Next.push_back(std::move(R));
    }
    // Index rows by their coefficient vector (constant excluded), so
    // dominated rows collapse to the tightest constant. Duplicate rows
    // keep the SMALLEST ancestor set so the pruning rule never discards
    // the cheapest derivation of an irredundant row.
    PrefixIndex Seen(NumVars);
    auto RowAt = [&Next](unsigned I) -> const std::vector<T> & {
      return Next[I].Coef;
    };
    for (unsigned I = 0; I < Next.size(); ++I) {
      unsigned &K = Seen.findOrInsert(Next[I].Coef, I, RowAt);
      // Tighter constant on an equal coefficient vector dominates.
      if (K != I && Next[I].Coef[NumVars] < Next[K].Coef[NumVars])
        K = I;
    }
    size_t PassThrough = Next.size();
    // Every pair formed is charged one BigInt row of memory, whatever T
    // is: a deterministic proxy (most pairs are pruned unbuilt) whose unit
    // stays that of the BigInt rows a rerun would build.
    uint64_t FmRowBytes =
        static_cast<uint64_t>(NumVars + 1) * sizeof(BigInt);
    uint64_t Formed = 0;
    // The budget is charged per chunk of pairs, so the wall clock is read
    // every few hundred pairs however many upper bounds a row faces.
    constexpr size_t ChargeChunk = 256;
    bool Stopped = false;
    for (const FmRow<T> &L : Lower) {
      for (size_t UI = 0; UI < Upper.size(); ++UI) {
        if (UI % ChargeChunk == 0) {
          uint64_t N = std::min(ChargeChunk, Upper.size() - UI);
          Stopped = !budgetCharge(N) || !budgetChargeMemory(N * FmRowBytes);
          if (Stopped)
            break;
          Formed += N;
        }
        const FmRow<T> &U = Upper[UI];
        std::vector<unsigned> Anc = mergeAnc(L.Anc, U.Anc);
        if (Anc.size() > P + 1)
          continue; // Imbert/Chernikov: necessarily redundant.
        // NC * L + PC * U has a zero in column V.
        const T &PC = L.Coef[V];
        T NC(0);
        if (!negOk(U.Coef[V], NC))
          return false;
        std::vector<T> Coef(NumVars + 1);
        bool AllZero = true;
        for (unsigned C = 0; C <= NumVars; ++C) {
          T A(0), B(0);
          if (!mulOk(NC, L.Coef[C], A) || !mulOk(PC, U.Coef[C], B) ||
              !addOk(A, B, Coef[C]))
            return false;
          if (C < NumVars && !isZero(Coef[C]))
            AllZero = false;
        }
        if (!normalizeOk(Coef))
          return false;
        if (AllZero && !isNegative(Coef[NumVars]))
          continue; // Trivially true; a contradiction stays for normalize().
        unsigned Pos = static_cast<unsigned>(Next.size());
        unsigned K = Seen.findOrInsert(Coef, Pos, RowAt);
        if (K != Pos) {
          FmRow<T> &Old = Next[K];
          if (Coef[NumVars] < Old.Coef[NumVars]) {
            // Strictly tighter: replace the dominated row outright.
            Old.Coef = std::move(Coef);
            Old.Anc = std::move(Anc);
          } else if (Coef[NumVars] == Old.Coef[NumVars] &&
                     Anc.size() < Old.Anc.size()) {
            Old.Anc = std::move(Anc);
          }
          continue;
        }
        Next.push_back({std::move(Coef), std::move(Anc)});
      }
      if (Stopped)
        break;
    }
    ++Counts.Steps;
    Counts.Formed += Formed;
    Counts.Pruned += Formed - (Next.size() - PassThrough);
    Rows = std::move(Next);
    if (budgetExhausted()) {
      Rows.clear();
      break;
    }
  }
  return true;
}

} // namespace

void ConstraintSystem::projectOut(unsigned Pos, unsigned Count) {
  assert(Pos + Count <= NumVars && "projection range out of bounds");
  if (Count == 0)
    return;
  if (budgetExhausted()) {
    // A tripped budget voids the compile: leave the universe over the
    // remaining variables without eliminating anything.
    NumVars -= Count;
    Ineqs = IntMatrix(NumVars + 1);
    Eqs = IntMatrix(NumVars + 1);
    return;
  }

  // Phase 1: exact equality substitutions. While some equality involves a
  // target variable, use it to eliminate that variable (no row growth):
  // the lowest such target, by the equality with the smallest absolute
  // coefficient on it (to limit coefficient growth).
  std::vector<bool> IsTarget(NumVars, false);
  for (unsigned I = 0; I < Count; ++I)
    IsTarget[Pos + I] = true;
  for (;;) {
    unsigned Var = 0;
    int EqIdx = -1;
    for (unsigned V = 0; V < NumVars && EqIdx < 0; ++V) {
      if (!IsTarget[V])
        continue;
      Var = V;
      for (unsigned R = 0; R < Eqs.numRows(); ++R)
        if (!Eqs(R, V).isZero() &&
            (EqIdx < 0 ||
             Eqs(R, V).abs() < Eqs(static_cast<unsigned>(EqIdx), V).abs()))
          EqIdx = static_cast<int>(R);
    }
    if (EqIdx < 0)
      break;
    const std::vector<BigInt> &E = Eqs.row(static_cast<unsigned>(EqIdx));
    BigInt AbsD = E[Var].abs();
    bool NegD = E[Var].isNegative();
    auto substitute = [&](const std::vector<BigInt> &Row) {
      // Row' = |D| * Row - sign(D) * Row[Var] * E  (positive multiple of Row
      // plus a multiple of the equality; legal for both row kinds). Column
      // Var of Row' is zero and is left out.
      BigInt F = NegD ? -Row[Var] : Row[Var];
      std::vector<BigInt> R;
      R.reserve(NumVars);
      for (unsigned C = 0; C <= NumVars; ++C)
        if (C != Var)
          R.push_back(AbsD * Row[C] - F * E[C]);
      normalizeByGcd(R);
      return R;
    };
    IntMatrix NewIneqs(NumVars);
    IntMatrix NewEqs(NumVars);
    for (unsigned R = 0; R < Ineqs.numRows(); ++R)
      NewIneqs.addRow(substitute(Ineqs.row(R)));
    for (unsigned R = 0; R < Eqs.numRows(); ++R)
      if (R != static_cast<unsigned>(EqIdx))
        NewEqs.addRow(substitute(Eqs.row(R)));
    Ineqs = std::move(NewIneqs);
    Eqs = std::move(NewEqs);
    --NumVars;
    normalize();
    IsTarget.erase(IsTarget.begin() + Var);
  }

  // Phase 2: batch Fourier-Motzkin (eliminateBatch) on int64 rows, rerun
  // on BigInt rows from the start if an entry does not fit or a step
  // overflows; without overflow both runs hold the same numbers.
  std::vector<unsigned> Targets;
  for (unsigned V = 0; V < NumVars; ++V)
    if (IsTarget[V])
      Targets.push_back(V);
  if (!Targets.empty()) {
    FmCounts Counts;
    std::vector<FmRow<int64_t>> Fast;
    if (toFmRows(Ineqs, Fast) &&
        eliminateBatch(Fast, NumVars, Targets, Counts)) {
      Ineqs.clearRows();
      for (FmRow<int64_t> &R : Fast)
        Ineqs.addRow(std::vector<BigInt>(R.Coef.begin(), R.Coef.end()));
    } else {
      Fast.clear();
      Counts = FmCounts();
      std::vector<FmRow<BigInt>> Exact;
      toFmRows(Ineqs, Exact);
      eliminateBatch(Exact, NumVars, Targets, Counts);
      Ineqs.clearRows();
      for (FmRow<BigInt> &R : Exact)
        Ineqs.addRow(std::move(R.Coef));
    }
    if (activeStats()) {
      count(Counter::FmEliminations, Counts.Steps);
      count(Counter::FmRowsGenerated, Counts.Formed);
      count(Counter::FmRowsPruned, Counts.Pruned);
    }
  }

  // Drop the (now unconstrained) target columns in one pass; the constant
  // column stays.
  assert(std::all_of(Targets.begin(), Targets.end(), [&](unsigned V) {
           for (unsigned R = 0; R < Ineqs.numRows(); ++R)
             if (!Ineqs(R, V).isZero())
               return false;
           for (unsigned R = 0; R < Eqs.numRows(); ++R)
             if (!Eqs(R, V).isZero())
               return false;
           return true;
         }) && "column not eliminated");
  IsTarget.push_back(false);
  Ineqs.eraseColumns(IsTarget);
  Eqs.eraseColumns(IsTarget);
  NumVars -= static_cast<unsigned>(Targets.size());
  normalize();
}

void ConstraintSystem::gist(const ConstraintSystem &Context) {
  assert(NumVars == Context.NumVars && "gist dimension mismatch");
  // Iterate over inequality rows; drop a row if Context plus the remaining
  // rows imply it. Equalities are kept (they carry exact information the
  // code generator needs). A row a.x + c >= 0 is implied outright when the
  // context or another remaining row is a.x + c' >= 0 with c' <= c; only
  // the other rows go to the integer-exact implication test. The
  // shortcut answers only what that test would answer, so the result is
  // unchanged.
  for (unsigned R = 0; R < Ineqs.numRows();) {
    const std::vector<BigInt> &Row = Ineqs.row(R);
    bool Implied = hasDominatingRow(Context.Ineqs, ~0u, Row) ||
                   hasDominatingRow(Ineqs, R, Row);
    if (!Implied) {
      ilp::RowRefs Probe(Context.Ineqs, Context.Eqs, NumVars);
      Probe.addIneqs(Ineqs, /*Skip=*/R);
      Probe.addEqs(Eqs);
      Implied = implies(std::move(Probe), Row);
    }
    if (Implied) {
      Ineqs.removeRow(R);
      continue;
    }
    ++R;
  }
}

void ConstraintSystem::removeRedundant() {
  ConstraintSystem Empty(NumVars);
  gist(Empty);
}

std::string
ConstraintSystem::toString(const std::vector<std::string> &Names) const {
  auto term = [&](const BigInt &C, unsigned Var, bool &First) {
    if (C.isZero())
      return std::string();
    std::string Name = Var < Names.size()
                           ? Names[Var]
                           : "x" + std::to_string(Var);
    std::string S;
    if (C.isOne())
      S = First ? Name : " + " + Name;
    else if (C.isMinusOne())
      S = First ? "-" + Name : " - " + Name;
    else if (C.isPositive())
      S = (First ? "" : " + ") + C.toString() + Name;
    else
      S = (First ? "-" : " - ") + (-C).toString() + Name;
    First = false;
    return S;
  };
  auto rowStr = [&](const std::vector<BigInt> &Row, const char *Rel) {
    std::string S;
    bool First = true;
    for (unsigned I = 0; I < NumVars; ++I)
      S += term(Row[I], I, First);
    const BigInt &K = Row[NumVars];
    if (!K.isZero() || First) {
      if (First)
        S += K.toString();
      else if (K.isPositive())
        S += " + " + K.toString();
      else
        S += " - " + (-K).toString();
    }
    return S + " " + Rel + " 0";
  };
  std::string S;
  for (unsigned R = 0; R < Eqs.numRows(); ++R)
    S += rowStr(Eqs.row(R), "==") + "\n";
  for (unsigned R = 0; R < Ineqs.numRows(); ++R)
    S += rowStr(Ineqs.row(R), ">=") + "\n";
  return S;
}
