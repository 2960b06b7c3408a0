//===- transform/PlutoTransform.cpp - The Pluto algorithm -----------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "transform/PlutoTransform.h"

#include "ilp/LexMin.h"
#include "observe/PassStats.h"
#include "observe/Trace.h"
#include "support/LinearAlgebra.h"
#include "transform/FarkasConstraints.h"

#include <algorithm>
#include <map>

using namespace pluto;

std::vector<BigInt> pluto::deltaRow(const Dependence &D, const Schedule &Sched,
                                    unsigned R) {
  const IntMatrix &SrcM = Sched.StmtRows[D.SrcStmt];
  const IntMatrix &DstM = Sched.StmtRows[D.DstStmt];
  unsigned NS = SrcM.numCols() - 1;
  unsigned NT = DstM.numCols() - 1;
  unsigned NX = D.Poly.numVars();
  std::vector<BigInt> Row(NX + 1, BigInt(0));
  for (unsigned I = 0; I < NS; ++I)
    Row[I] = -SrcM(R, I);
  for (unsigned J = 0; J < NT; ++J)
    Row[NS + J] = DstM(R, J);
  Row[NX] = DstM(R, NT) - SrcM(R, NS);
  return Row;
}

/// True if a row over [vars | 1] has no variable coefficient. The delta of
/// a scalar schedule row (or of an all-zero padding row) always does, and
/// dependence polyhedra are non-empty by construction, so a constant delta
/// answers the satisfaction predicates without an ILP call - at a hundred
/// statements the textual-order row alone would otherwise cost one
/// emptiness test per dependence.
static bool constantOnly(const std::vector<BigInt> &Row) {
  for (size_t I = 0; I + 1 < Row.size(); ++I)
    if (!Row[I].isZero())
      return false;
  return true;
}

/// Tests emptiness of D.Poly intersected with one extra inequality.
static bool emptyWith(const Dependence &D, std::vector<BigInt> ExtraIneq) {
  ConstraintSystem CS = D.Poly;
  CS.addIneq(std::move(ExtraIneq));
  return CS.isIntegerEmpty();
}

bool pluto::stronglySatisfiedAt(const Dependence &D, const Schedule &Sched,
                                unsigned R) {
  std::vector<BigInt> Neg = deltaRow(D, Sched, R);
  if (constantOnly(Neg))
    return Neg.back() >= BigInt(1);
  // No point with delta <= 0, i.e. with -delta >= 0.
  for (BigInt &V : Neg)
    V = -V;
  return emptyWith(D, std::move(Neg));
}

bool pluto::weaklyLegalAt(const Dependence &D, const Schedule &Sched,
                          unsigned R) {
  std::vector<BigInt> Neg = deltaRow(D, Sched, R);
  if (constantOnly(Neg))
    return !Neg.back().isNegative();
  // No point with delta <= -1.
  for (BigInt &V : Neg)
    V = -V;
  Neg[Neg.size() - 1] -= BigInt(1);
  return emptyWith(D, std::move(Neg));
}

bool pluto::zeroAt(const Dependence &D, const Schedule &Sched, unsigned R) {
  std::vector<BigInt> Pos = deltaRow(D, Sched, R);
  if (constantOnly(Pos))
    return Pos.back().isZero();
  Pos[Pos.size() - 1] -= BigInt(1); // delta - 1 >= 0: some point with delta>=1?
  if (!emptyWith(D, Pos))
    return false;
  std::vector<BigInt> Neg = deltaRow(D, Sched, R);
  for (BigInt &V : Neg)
    V = -V;
  Neg[Neg.size() - 1] -= BigInt(1); // -delta - 1 >= 0: some point <= -1?
  return emptyWith(D, std::move(Neg));
}

void pluto::detectParallelism(const Program &Prog, const DependenceGraph &DG,
                              Schedule &Sched) {
  for (unsigned R = 0; R < Sched.numRows(); ++R) {
    Sched.Rows[R].Reductions.clear();
    if (Sched.Rows[R].IsScalar)
      continue;
    bool Parallel = true;
    std::vector<ReductionClause> Clauses;
    for (const Dependence &D : DG.Deps) {
      if (!D.isLegalityDep())
        continue;
      // Dependences handled by outer rows do not constrain this level.
      if (D.SatisfiedAtRow >= 0 && D.SatisfiedAtRow < static_cast<int>(R))
        continue;
      if (zeroAt(D, Sched, R))
        continue;
      if (D.IsReduction) {
        // A reduction cycle does not serialize the loop: the emitted
        // pragma runs it parallel under a reduction clause on the target
        // (accesses 0/1 of a reduction statement are its write/read of the
        // target, so access 0 names the reduced array).
        Clauses.push_back({D.RedOp, Prog.Stmts[D.SrcStmt].Accesses[0].Array});
        continue;
      }
      Parallel = false;
      break;
    }
    Sched.Rows[R].IsParallel = Parallel;
    if (Parallel && !Clauses.empty()) {
      std::sort(Clauses.begin(), Clauses.end());
      Clauses.erase(std::unique(Clauses.begin(), Clauses.end()),
                    Clauses.end());
      Sched.Rows[R].Reductions = std::move(Clauses);
    }
  }
}

namespace {

/// Safety cap on the number of schedule rows (cuts included).
constexpr unsigned MaxScheduleRows = 64;

/// Outcome of one findHyperplane() attempt.
enum class FindResult {
  Found, ///< A row was appended to the schedule.
  None,  ///< Proven: no hyperplane satisfies the constraints.
  Error, ///< The ILP solve budget was exhausted (diagnostic, not "none").
};

/// Mutable search state of the main algorithm (one weakly-connected
/// cluster's worth of statements, or the whole program).
class PlutoSearch {
public:
  PlutoSearch(const Program &Prog, DependenceGraph &DG,
              const TransformOptions &Opts)
      : Prog(Prog), DG(DG), Opts(Opts), Layout(Prog) {
    Sched.StmtRows.resize(Prog.Stmts.size());
    for (unsigned S = 0; S < Prog.Stmts.size(); ++S) {
      Sched.StmtRows[S] = IntMatrix(Prog.Stmts[S].numIters() + 1);
      HBasis.push_back(IntMatrix(Prog.Stmts[S].numIters()));
    }
  }

  /// Runs the search. Parallelism detection is the caller's job: the
  /// decomposed driver runs it once, on the stitched global schedule.
  Result<Schedule> run() {
    // Hyperplanes are found iteratively until every statement has a full
    // set of linearly independent ones AND every dependence is strongly
    // satisfied (paper Sec. 3.2). Past full rank, additional (dependent)
    // rows may still be needed to order instances the earlier rows tied;
    // the cheap statement-ordering scalar dimension is preferred whenever
    // it finishes the job legally.
    while (needsMoreIndependentRows() || !allDepsSatisfied()) {
      if (Sched.numRows() >= MaxScheduleRows)
        return Err(std::string(
            "transformation did not converge (row cap exceeded)"));
      if (!needsMoreIndependentRows() && textualRowWouldHelp()) {
        appendTextualOrderRow();
        continue;
      }
      unsigned SatBefore = numSatisfied();
      unsigned RankBefore = totalRank();
      FindResult FR = findHyperplane();
      if (FR == FindResult::Error)
        return Err(std::move(Diag));
      if (FR == FindResult::Found) {
        if (totalRank() > RankBefore || numSatisfied() > SatBefore)
          continue;
        removeLastRow(); // Stall: the row ordered nothing new.
      }
      if (cut())
        continue;
      return Err(std::string(
          "no legal hyperplane and no cut available: the program "
          "admits no non-negative-coefficient affine schedule"));
    }
    return std::move(Sched);
  }

private:
  const Program &Prog;
  DependenceGraph &DG;
  const TransformOptions &Opts;
  VarLayout Layout;
  Schedule Sched;
  /// Per statement: linearly independent iterator-coefficient rows found.
  std::vector<IntMatrix> HBasis;
  /// First row of the band currently being grown; dependences satisfied at
  /// rows >= BandStart still participate in legality (permutability).
  unsigned BandStart = 0;
  int CurBandId = 0;
  /// Diagnostic message backing a FindResult::Error.
  std::string Diag;

  /// The Farkas-eliminated systems of one dependence. Legality has zero
  /// rows for input (RAR) dependences, which only bound the cost.
  struct DepSystems {
    const Dependence *D;
    ConstraintSystem Legality;
    ConstraintSystem Bounding;
  };

  /// Constraint material shared by every hyperplane query of the current
  /// band. The active dependence set is fixed within a band (anything
  /// satisfied at or after BandStart stays active), so the per-dependence
  /// Farkas eliminations, the assembled core system and the warm solver's
  /// tableau snapshot are all reusable until the next cut.
  struct BandCache {
    bool Valid = false;
    std::vector<DepSystems> Deps;
    /// Legality + bounding + trivial-solution guards, normalized once.
    ConstraintSystem Core;
    bool CoreTriviallyFalse = false;
    ilp::LexMinSolver Warm;
  };
  BandCache Cache;

  bool needsMoreIndependentRows() const {
    for (unsigned S = 0; S < Prog.Stmts.size(); ++S)
      if (HBasis[S].numRows() < Prog.Stmts[S].numIters())
        return true;
    return false;
  }

  bool allDepsSatisfied() const {
    for (const Dependence &D : DG.Deps)
      if (D.isLegalityDep() && !D.satisfied())
        return false;
    return true;
  }

  unsigned numSatisfied() const {
    unsigned N = 0;
    for (const Dependence &D : DG.Deps)
      N += D.isLegalityDep() && D.satisfied();
    return N;
  }

  unsigned totalRank() const {
    unsigned R = 0;
    for (const IntMatrix &H : HBasis)
      R += H.numRows();
    return R;
  }

  void removeLastRow() {
    assert(Sched.numRows() > 0 && "no row to remove");
    for (IntMatrix &M : Sched.StmtRows)
      M.removeRow(M.numRows() - 1);
    Sched.Rows.pop_back();
  }

  /// True if appending the textual-order scalar dimension is legal for all
  /// remaining dependences (source position <= destination position) and
  /// strongly satisfies at least one of them.
  bool textualRowWouldHelp() const {
    bool Progress = false;
    for (const Dependence &D : DG.Deps) {
      if (!D.isLegalityDep() || D.satisfied())
        continue;
      if (D.SrcStmt > D.DstStmt)
        return false; // The ordering dimension would reverse it.
      Progress |= D.SrcStmt < D.DstStmt;
    }
    return Progress;
  }

  /// A dependence constrains the current search if it has not been
  /// satisfied before the current band started.
  bool isActive(const Dependence &D) const {
    return !D.satisfied() ||
           D.SatisfiedAtRow >= static_cast<int>(BandStart);
  }

  /// Trivial-solution avoidance: sum of iterator coefficients >= 1 per
  /// statement (Section 4.2). Statements with no surrounding loop are
  /// exempt (their only coefficient is c0).
  void appendGuardRows(ConstraintSystem &Sys) const {
    for (unsigned S = 0; S < Prog.Stmts.size(); ++S) {
      unsigned M = Layout.stmtNumIters(S);
      if (M == 0)
        continue;
      std::vector<BigInt> Row(Layout.numVars() + 1, BigInt(0));
      for (unsigned I = 0; I < M; ++I)
        Row[Layout.coeffCol(S, I)] = BigInt(1);
      Row[Layout.numVars()] = BigInt(-1);
      Sys.addIneq(std::move(Row));
    }
  }

  /// (Re)builds the band cache on first use after a cut.
  void ensureCache() {
    if (Cache.Valid)
      return;
    Cache.Deps.clear();
    for (const Dependence &D : DG.Deps) {
      if (D.Kind == DepKind::Input) {
        // Input deps always participate (cost bounding only).
        Cache.Deps.push_back({&D, ConstraintSystem(Layout.numVars()),
                              boundingConstraints(FarkasDomain(D), Prog,
                                                  Layout)});
        continue;
      }
      if (!isActive(D))
        continue;
      FarkasDomain Dom(D);
      Cache.Deps.push_back({&D, legalityConstraints(Dom, Prog, Layout),
                            boundingConstraints(Dom, Prog, Layout)});
    }
    ConstraintSystem Core(Layout.numVars());
    for (const DepSystems &DS : Cache.Deps) {
      Core.append(DS.Legality);
      Core.append(DS.Bounding);
    }
    appendGuardRows(Core);
    Cache.CoreTriviallyFalse = !Core.normalize();
    Cache.Core = std::move(Core);
    Cache.Warm = ilp::LexMinSolver();
    if (Cache.CoreTriviallyFalse == false)
      Cache.Warm.setBase(Cache.Core.ineqs(), Cache.Core.eqs(),
                         Layout.numVars());
    Cache.Valid = true;
  }

  /// Linear independence for statements still needing rows: every row r of
  /// the orthogonal complement gives r.c >= 0, and their sum >= 1 (the
  /// non-negative-coefficient practical choice of Section 4.2). These are
  /// the only rows that change between hyperplanes of one band.
  IntMatrix independenceRows() const {
    IntMatrix Rows(Layout.numVars() + 1);
    for (unsigned S = 0; S < Prog.Stmts.size(); ++S) {
      unsigned M = Layout.stmtNumIters(S);
      if (M == 0 || HBasis[S].numRows() >= M)
        continue;
      IntMatrix Perp = orthogonalComplement(HBasis[S]);
      std::vector<BigInt> Sum(Layout.numVars() + 1, BigInt(0));
      for (unsigned R = 0; R < Perp.numRows(); ++R) {
        std::vector<BigInt> Row(Layout.numVars() + 1, BigInt(0));
        for (unsigned I = 0; I < M; ++I) {
          Row[Layout.coeffCol(S, I)] = Perp(R, I);
          Sum[Layout.coeffCol(S, I)] += Perp(R, I);
        }
        Rows.addRow(std::move(Row));
      }
      Sum[Layout.numVars()] = BigInt(-1);
      Rows.addRow(std::move(Sum));
    }
    return Rows;
  }

  /// Evaluates the Farkas-eliminated rows of one dependence at the unit
  /// candidate described by Chosen (per statement: original dimension
  /// index, or negative when unassigned / loop-less). The candidate zeroes
  /// every cost variable and every c0, and a row of one dependence only
  /// mentions its own two statement blocks plus the cost columns, so each
  /// row evaluates to its constant plus at most two coefficients.
  bool rowsHoldAt(const DepSystems &DS, const std::vector<int> &Chosen) const {
    unsigned Src = DS.D->SrcStmt, Dst = DS.D->DstStmt;
    auto Eval = [&](const std::vector<BigInt> &Row) {
      BigInt V = Row[Layout.numVars()];
      if (Chosen[Src] >= 0)
        V += Row[Layout.coeffCol(Src, static_cast<unsigned>(Chosen[Src]))];
      if (Dst != Src && Chosen[Dst] >= 0)
        V += Row[Layout.coeffCol(Dst, static_cast<unsigned>(Chosen[Dst]))];
      return V;
    };
    for (const ConstraintSystem *CS : {&DS.Legality, &DS.Bounding}) {
      for (unsigned R = 0; R < CS->ineqs().numRows(); ++R)
        if (Eval(CS->ineqs().row(R)).isNegative())
          return false;
      for (unsigned R = 0; R < CS->eqs().numRows(); ++R)
        if (!Eval(CS->eqs().row(R)).isZero())
          return false;
    }
    return true;
  }

  /// DFS worker of the dimension-matching fast path: assigns statement S a
  /// dimension (statements in id order, dimensions outermost-first - the
  /// lexicographic order the exact lexmin prefers among unit candidates)
  /// and checks every dependence whose later endpoint is S.
  bool matchAssign(unsigned S, std::vector<int> &Chosen,
                   const std::vector<std::vector<const DepSystems *>> &ByMax,
                   const std::vector<IntMatrix> &Perp,
                   unsigned &Budget) const {
    if (S == Prog.Stmts.size())
      return true;
    if (Budget == 0)
      return false;
    --Budget;
    auto DepsOk = [&]() {
      for (const DepSystems *DS : ByMax[S])
        if (!rowsHoldAt(*DS, Chosen))
          return false;
      return true;
    };
    unsigned M = Layout.stmtNumIters(S);
    if (M == 0) {
      Chosen[S] = -2; // Assigned; contributes nothing (c0 stays 0).
      if (DepsOk() && matchAssign(S + 1, Chosen, ByMax, Perp, Budget))
        return true;
      Chosen[S] = -1;
      return false;
    }
    bool NeedIndep = HBasis[S].numRows() < M;
    for (unsigned D = 0; D < M; ++D) {
      if (NeedIndep) {
        // The unit must satisfy the same non-negative independence
        // encoding the exact system carries: Perp(r, D) >= 0 per row and
        // their sum >= 1 (which also implies linear independence).
        bool Ok = true;
        BigInt Sum(0);
        for (unsigned R = 0; R < Perp[S].numRows(); ++R) {
          if (Perp[S](R, D).isNegative()) {
            Ok = false;
            break;
          }
          Sum += Perp[S](R, D);
        }
        if (!Ok || Sum < BigInt(1))
          continue;
      }
      Chosen[S] = static_cast<int>(D);
      if (DepsOk() && matchAssign(S + 1, Chosen, ByMax, Perp, Budget))
        return true;
    }
    Chosen[S] = -1;
    return false;
  }

  /// The dimension-matching fast path: look for one original loop
  /// dimension per statement whose unit hyperplanes form a feasible
  /// zero-cost point of the exact ILP, verified by direct evaluation
  /// against the band's cached Farkas systems (never a fresh ILP). A
  /// verified candidate is a feasible point of the exact formulation with
  /// an all-zero cost prefix, so the exact lexmin's cost prefix is zero
  /// too and the candidate matches it whenever the optimum is a unit
  /// solution. Zero cost pins every active delta to zero, which can never
  /// strongly satisfy a dependence - hence the caller gates this on
  /// needsMoreIndependentRows() and skips the satisfaction update.
  bool tryDimensionMatch() {
    unsigned NumStmts = static_cast<unsigned>(Prog.Stmts.size());
    std::vector<std::vector<const DepSystems *>> ByMax(NumStmts);
    for (const DepSystems &DS : Cache.Deps)
      ByMax[std::max(DS.D->SrcStmt, DS.D->DstStmt)].push_back(&DS);
    std::vector<IntMatrix> Perp(NumStmts);
    for (unsigned S = 0; S < NumStmts; ++S)
      if (Layout.stmtNumIters(S) > 0 &&
          HBasis[S].numRows() < Layout.stmtNumIters(S))
        Perp[S] = orthogonalComplement(HBasis[S]);
    std::vector<int> Chosen(NumStmts, -1);
    unsigned Budget = 64 * NumStmts + 256; // Deterministic node cap.
    if (!matchAssign(0, Chosen, ByMax, Perp, Budget))
      return false;
    std::vector<BigInt> Point(Layout.numVars(), BigInt(0));
    for (unsigned S = 0; S < NumStmts; ++S)
      if (Chosen[S] >= 0)
        Point[Layout.coeffCol(S, static_cast<unsigned>(Chosen[S]))] =
            BigInt(1);
    appendCoeffRow(Point);
    return true;
  }

  /// Attempts to find the next hyperplane; appends the row on success.
  FindResult findHyperplane() {
    ensureCache();
    if (Opts.FastPaths && needsMoreIndependentRows()) {
      if (tryDimensionMatch()) {
        count(Counter::ScheduleFastPathHits);
        return FindResult::Found;
      }
      count(Counter::ScheduleFastPathFallbacks);
    }
    if (Cache.CoreTriviallyFalse)
      return FindResult::None;
    IntMatrix Extras = independenceRows();
    ilp::LexMinResult Sol;
    bool Solved = false;
    if (Opts.FastPaths) {
      // The integer lexmin is unique, so the warm solve returns exactly
      // what the cold one would; a wedged warm tableau (Aborted) gets one
      // cold retry before the budget is reported as exhausted.
      Sol = Cache.Warm.solveWith(Extras);
      Solved = Sol.Status != ilp::SolveStatus::Aborted;
    }
    if (!Solved) {
      ConstraintSystem Sys = Cache.Core;
      for (unsigned R = 0; R < Extras.numRows(); ++R)
        Sys.addIneq(Extras.row(R));
      if (!Sys.normalize())
        return FindResult::None;
      Sol = ilp::lexMinNonNeg(Sys.ineqs(), Sys.eqs(), Layout.numVars());
    }
    if (Sol.Status == ilp::SolveStatus::Aborted) {
      Diag = "hyperplane search aborted at row " +
             std::to_string(Sched.numRows()) +
             ": the lexmin solve budget (ilp::SolveLimits) was exhausted "
             "before feasibility could be decided";
      return FindResult::Error;
    }
    if (!Sol.feasible())
      return FindResult::None;
    appendCoeffRow(Sol.Point);
    updateSatisfaction(Sched.numRows() - 1);
    return FindResult::Found;
  }

  /// Appends one coefficient row (from an ILP point or a verified unit
  /// candidate) to every statement's transformation, growing the
  /// independence bases.
  void appendCoeffRow(const std::vector<BigInt> &Point) {
    for (unsigned S = 0; S < Prog.Stmts.size(); ++S) {
      unsigned M = Layout.stmtNumIters(S);
      std::vector<BigInt> Row(M + 1);
      for (unsigned I = 0; I < M; ++I)
        Row[I] = Point[Layout.coeffCol(S, I)];
      Row[M] = Point[Layout.stmtC0(S)];
      Sched.StmtRows[S].addRow(Row);
      std::vector<BigInt> Coeffs(Row.begin(), Row.begin() + M);
      if (HBasis[S].numRows() < M && M > 0 &&
          isLinearlyIndependent(HBasis[S], Coeffs))
        HBasis[S].addRow(std::move(Coeffs));
    }
    RowInfo Info;
    Info.IsScalar = false;
    Info.BandId = CurBandId;
    Sched.Rows.push_back(Info);
    count(Counter::HyperplanesFound);
    if (Trace *T = activeTrace()) {
      std::string Msg = "row " + std::to_string(Sched.numRows() - 1) +
                        " (band " + std::to_string(CurBandId) + "):";
      for (unsigned S = 0; S < Prog.Stmts.size(); ++S) {
        Msg += " S" + std::to_string(S) + "=[";
        const IntMatrix &M = Sched.StmtRows[S];
        for (unsigned C = 0; C < M.numCols(); ++C)
          Msg += std::string(C ? " " : "") +
                 M(Sched.numRows() - 1, C).toString();
        Msg += "]";
      }
      T->record("transform", std::move(Msg));
    }
  }

  /// Marks legality dependences strongly satisfied at row R.
  void updateSatisfaction(unsigned R) {
    for (Dependence &D : DG.Deps) {
      if (!D.isLegalityDep() || D.satisfied())
        continue;
      if (stronglySatisfiedAt(D, Sched, R))
        D.SatisfiedAtRow = static_cast<int>(R);
    }
  }

  /// No hyperplane found: either separate the SCCs with a scalar dimension,
  /// or retire the dependences satisfied by the current band and start a
  /// new band. Returns false if neither makes progress.
  bool cut() {
    unsigned NumStmts = static_cast<unsigned>(Prog.Stmts.size());
    std::vector<unsigned> Scc = DG.sccIds(NumStmts);
    unsigned NumScc = 0;
    for (unsigned Id : Scc)
      NumScc = std::max(NumScc, Id + 1);
    if (NumScc > 1) {
      appendScalarRow(Scc);
      startNewBand();
      count(Counter::SccCuts);
      if (Trace *T = activeTrace())
        T->record("transform",
                  "no hyperplane: cut into " + std::to_string(NumScc) +
                      " SCCs with a scalar dimension (row " +
                      std::to_string(Sched.numRows() - 1) + ")");
      return true;
    }
    // Single SCC: progress is only possible if this band satisfied
    // something we can now retire.
    bool Retired = false;
    for (const Dependence &D : DG.Deps)
      if (D.isLegalityDep() && D.satisfied() &&
          D.SatisfiedAtRow >= static_cast<int>(BandStart))
        Retired = true;
    if (!Retired)
      return false;
    startNewBand();
    if (Trace *T = activeTrace())
      T->record("transform",
                "single SCC: retired satisfied dependences, new band at row " +
                    std::to_string(Sched.numRows()));
    return true;
  }

  void startNewBand() {
    BandStart = Sched.numRows();
    ++CurBandId;
    Cache.Valid = false; // The active dependence set just changed.
  }

  /// Appends a scalar dimension with per-statement constants Values[stmt];
  /// dependences that become strongly satisfied are marked.
  void appendConstantRow(const std::vector<unsigned> &Values) {
    for (unsigned S = 0; S < Prog.Stmts.size(); ++S) {
      unsigned M = Layout.stmtNumIters(S);
      std::vector<BigInt> Row(M + 1, BigInt(0));
      Row[M] = BigInt(static_cast<long long>(Values[S]));
      Sched.StmtRows[S].addRow(std::move(Row));
    }
    RowInfo Info;
    Info.IsScalar = true;
    Info.BandId = -1;
    Sched.Rows.push_back(Info);
    updateSatisfaction(Sched.numRows() - 1);
  }

  void appendScalarRow(const std::vector<unsigned> &SccIds) {
    appendConstantRow(SccIds);
  }

  /// Final fallback: order statements by original textual position to
  /// satisfy remaining loop-independent dependences.
  void appendTextualOrderRow() {
    pluto::appendTextualOrderRow(Prog, Sched);
    updateSatisfaction(Sched.numRows() - 1);
    count(Counter::TextualOrderRows);
    if (Trace *T = activeTrace())
      T->record("transform", "appended textual-order scalar row " +
                                 std::to_string(Sched.numRows() - 1));
  }
};

/// One solved weakly-connected cluster of the decomposition.
struct ClusterResult {
  std::vector<unsigned> Stmts;  ///< Global statement ids, ascending.
  std::vector<unsigned> DepIdx; ///< Global indices of the cluster's deps.
  Schedule Sched;               ///< Over local statement ids.
  std::vector<int> LocalSat;    ///< Per local dep: local SatisfiedAtRow.
};

/// Builds the cluster-local sub-problem (remapped statement/dependence ids,
/// shared parameters and context) and runs the search on it. Dependence
/// polyhedra transfer unchanged - they are expressed over the two
/// statements' iterators, not over statement ids.
Result<ClusterResult> solveCluster(const Program &Prog,
                                   const DependenceGraph &DG,
                                   const TransformOptions &Opts,
                                   const std::vector<unsigned> &Members) {
  Program Sub;
  Sub.ParamNames = Prog.ParamNames;
  Sub.Arrays = Prog.Arrays;
  Sub.Context = Prog.Context;
  std::vector<unsigned> LocalId(Prog.Stmts.size(), ~0u);
  for (unsigned K = 0; K < Members.size(); ++K) {
    LocalId[Members[K]] = K;
    Statement S = Prog.Stmts[Members[K]];
    S.Id = K;
    Sub.Stmts.push_back(std::move(S));
  }
  DependenceGraph SubDG;
  ClusterResult CR;
  CR.Stmts = Members;
  for (unsigned DI = 0; DI < DG.Deps.size(); ++DI) {
    const Dependence &D = DG.Deps[DI];
    if (LocalId[D.SrcStmt] == ~0u)
      continue; // Both endpoints share a component by construction.
    Dependence LD = D;
    LD.SrcStmt = LocalId[D.SrcStmt];
    LD.DstStmt = LocalId[D.DstStmt];
    LD.SatisfiedAtRow = -1;
    SubDG.Deps.push_back(std::move(LD));
    CR.DepIdx.push_back(DI);
  }
  PlutoSearch Search(Sub, SubDG, Opts);
  Result<Schedule> R = Search.run();
  if (!R)
    return Err(R.error());
  CR.Sched = R.takeValue();
  for (const Dependence &LD : SubDG.Deps)
    CR.LocalSat.push_back(LD.SatisfiedAtRow);
  return CR;
}

/// Attempts the aligned-interleave stitch: when every cluster produced the
/// same loop-row structure (same loop-row count, same normalized band
/// pattern, no interior scalar rows, at most one trailing textual-order
/// row), the per-cluster rows merge index-by-index into one global schedule
/// whose bands span all clusters - the fused shape the monolithic solve
/// produces. Cross-cluster dependences do not exist, so row r of the merged
/// schedule is legal iff row r of each cluster is, and merged bands stay
/// permutable. Returns false when the shapes do not line up.
bool alignedInterleave(const Program &Prog, DependenceGraph &DG,
                       const std::vector<ClusterResult> &Clusters,
                       Schedule &Out) {
  unsigned LoopRows = 0;
  bool AnyTextual = false;
  std::vector<int> Pattern;
  bool First = true;
  for (const ClusterResult &CR : Clusters) {
    const Schedule &S = CR.Sched;
    unsigned L = S.numRows();
    bool Textual = false;
    if (L > 0 && S.Rows[L - 1].IsScalar) {
      // Only a trailing textual-order row interleaves cleanly (its local
      // constants are the local statement ids, which are monotone in the
      // global ids - so one global textual row reproduces all of them).
      for (unsigned K = 0; K < CR.Stmts.size(); ++K) {
        unsigned M = Prog.Stmts[CR.Stmts[K]].numIters();
        if (S.StmtRows[K](L - 1, M) != BigInt(static_cast<long long>(K)))
          return false;
      }
      Textual = true;
      --L;
    }
    std::vector<int> P;
    std::map<int, int> Renum;
    for (unsigned R = 0; R < L; ++R) {
      if (S.Rows[R].IsScalar)
        return false; // Interior fusion cuts do not align.
      int B = S.Rows[R].BandId;
      auto It = Renum.find(B);
      if (It == Renum.end())
        It = Renum.emplace(B, static_cast<int>(Renum.size())).first;
      P.push_back(It->second);
    }
    if (First) {
      LoopRows = L;
      Pattern = std::move(P);
      First = false;
    } else if (L != LoopRows || P != Pattern) {
      return false;
    }
    AnyTextual |= Textual;
  }

  Out = Schedule();
  Out.StmtRows.resize(Prog.Stmts.size());
  for (const ClusterResult &CR : Clusters)
    for (unsigned K = 0; K < CR.Stmts.size(); ++K) {
      unsigned G = CR.Stmts[K];
      IntMatrix M(Prog.Stmts[G].numIters() + 1);
      for (unsigned R = 0; R < LoopRows; ++R)
        M.addRow(CR.Sched.StmtRows[K].row(R));
      Out.StmtRows[G] = std::move(M);
    }
  for (unsigned R = 0; R < LoopRows; ++R) {
    RowInfo Info;
    Info.IsScalar = false;
    Info.BandId = Pattern[R];
    Out.Rows.push_back(Info);
  }
  if (AnyTextual)
    appendTextualOrderRow(Prog, Out);
  // Satisfaction copy-back: loop row r maps to global row r; a cluster's
  // textual row maps to the single global textual row.
  for (const ClusterResult &CR : Clusters)
    for (unsigned I = 0; I < CR.DepIdx.size(); ++I) {
      int Sat = CR.LocalSat[I];
      if (Sat >= static_cast<int>(LoopRows))
        Sat = static_cast<int>(LoopRows);
      DG.Deps[CR.DepIdx[I]].SatisfiedAtRow = Sat;
    }
  return true;
}

/// Fallback stitch for shape-incompatible clusters: a leading scalar
/// dimension carries the cluster ordinal (clusters are mutually
/// independent, so any relative order is a topological one;
/// smallest-statement-id order preserves the source layout), then each
/// cluster's rows follow as one contiguous block with all-zero rows for
/// the statements of other clusters. Band ids are offset per cluster to
/// stay globally unique.
void concatStitch(const Program &Prog, DependenceGraph &DG,
                  const std::vector<ClusterResult> &Clusters, Schedule &Out) {
  unsigned NumStmts = static_cast<unsigned>(Prog.Stmts.size());
  Out = Schedule();
  Out.StmtRows.resize(NumStmts);
  std::vector<unsigned> Ordinal(NumStmts, 0), Local(NumStmts, 0);
  std::vector<const ClusterResult *> Owner(NumStmts, nullptr);
  for (unsigned C = 0; C < Clusters.size(); ++C)
    for (unsigned K = 0; K < Clusters[C].Stmts.size(); ++K) {
      unsigned G = Clusters[C].Stmts[K];
      Ordinal[G] = C;
      Local[G] = K;
      Owner[G] = &Clusters[C];
    }
  for (unsigned S = 0; S < NumStmts; ++S) {
    unsigned M = Prog.Stmts[S].numIters();
    Out.StmtRows[S] = IntMatrix(M + 1);
    std::vector<BigInt> Row(M + 1, BigInt(0));
    Row[M] = BigInt(static_cast<long long>(Ordinal[S]));
    Out.StmtRows[S].addRow(std::move(Row));
  }
  RowInfo Lead;
  Lead.IsScalar = true;
  Lead.BandId = -1;
  Out.Rows.push_back(Lead);

  int BandBase = 0;
  for (const ClusterResult &CR : Clusters) {
    unsigned Base = Out.numRows();
    const Schedule &S = CR.Sched;
    int MaxBand = -1;
    for (unsigned R = 0; R < S.numRows(); ++R) {
      for (unsigned G = 0; G < NumStmts; ++G) {
        unsigned M = Prog.Stmts[G].numIters();
        if (Owner[G] == &CR)
          Out.StmtRows[G].addRow(S.StmtRows[Local[G]].row(R));
        else
          Out.StmtRows[G].addRow(std::vector<BigInt>(M + 1, BigInt(0)));
      }
      RowInfo Info = S.Rows[R];
      Info.IsParallel = false;
      Info.IsVector = false;
      if (!Info.IsScalar) {
        MaxBand = std::max(MaxBand, Info.BandId);
        Info.BandId += BandBase;
      }
      Out.Rows.push_back(Info);
    }
    BandBase += MaxBand + 1;
    for (unsigned I = 0; I < CR.DepIdx.size(); ++I) {
      int Sat = CR.LocalSat[I];
      DG.Deps[CR.DepIdx[I]].SatisfiedAtRow =
          Sat < 0 ? -1 : static_cast<int>(Base) + Sat;
    }
  }
}

} // namespace

void pluto::appendTextualOrderRow(const Program &Prog, Schedule &Sched) {
  // Statements are created in textual order by the frontend, so the id is
  // the textual rank.
  for (unsigned S = 0; S < Prog.Stmts.size(); ++S) {
    unsigned M = Prog.Stmts[S].numIters();
    std::vector<BigInt> Row(M + 1, BigInt(0));
    Row[M] = BigInt(static_cast<long long>(S));
    Sched.StmtRows[S].addRow(std::move(Row));
  }
  RowInfo Info;
  Info.IsScalar = true;
  Info.BandId = -1;
  Sched.Rows.push_back(Info);
}

Result<Schedule> pluto::computeSchedule(const Program &Prog,
                                        DependenceGraph &DG,
                                        const TransformOptions &Opts) {
  for (Dependence &D : DG.Deps)
    D.SatisfiedAtRow = -1;
  unsigned NumStmts = static_cast<unsigned>(Prog.Stmts.size());
  std::vector<std::vector<unsigned>> Comps;
  if (Opts.FastPaths && NumStmts > 0)
    Comps = DG.weakComponents(NumStmts);
  for (const std::vector<unsigned> &C : Comps)
    countClusterOfSize(static_cast<unsigned>(C.size()));
  if (Comps.size() > 1) {
    std::vector<ClusterResult> Clusters;
    bool Ok = true;
    for (const std::vector<unsigned> &Members : Comps) {
      Result<ClusterResult> CR = solveCluster(Prog, DG, Opts, Members);
      if (!CR) {
        Ok = false; // Fall back to the monolithic solve (safety valve).
        break;
      }
      Clusters.push_back(CR.takeValue());
    }
    if (Ok) {
      Schedule Global;
      bool Aligned = alignedInterleave(Prog, DG, Clusters, Global);
      if (!Aligned)
        concatStitch(Prog, DG, Clusters, Global);
      if (Trace *T = activeTrace())
        T->record("transform",
                  "decomposed into " + std::to_string(Clusters.size()) +
                      " clusters; " +
                      (Aligned ? "aligned-interleave" : "concat") +
                      " stitch produced " +
                      std::to_string(Global.numRows()) + " rows");
      detectParallelism(Prog, DG, Global);
      return Global;
    }
    for (Dependence &D : DG.Deps)
      D.SatisfiedAtRow = -1;
  }
  PlutoSearch Search(Prog, DG, Opts);
  Result<Schedule> R = Search.run();
  if (R)
    detectParallelism(Prog, DG, *R);
  return R;
}

bool pluto::analyzeSchedule(const Program &Prog, DependenceGraph &DG,
                            Schedule &Sched) {
  for (Dependence &D : DG.Deps)
    D.SatisfiedAtRow = -1;
  for (unsigned R = 0; R < Sched.numRows(); ++R) {
    for (Dependence &D : DG.Deps) {
      if (!D.isLegalityDep() || D.satisfied())
        continue;
      if (!weaklyLegalAt(D, Sched, R))
        return false; // Violated before satisfaction: illegal schedule.
      if (stronglySatisfiedAt(D, Sched, R))
        D.SatisfiedAtRow = static_cast<int>(R);
    }
  }
  for (const Dependence &D : DG.Deps)
    if (D.isLegalityDep() && !D.satisfied())
      return false;
  detectParallelism(Prog, DG, Sched);
  return true;
}
