//===- deps/Dependences.cpp - Polyhedral dependence analysis --------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "deps/Dependences.h"

#include "observe/PassStats.h"
#include "support/Budget.h"

#include <algorithm>
#include <functional>
#include <set>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace pluto;

const char *pluto::depKindName(DepKind K) {
  switch (K) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  case DepKind::Input:
    return "input";
  }
  return "?";
}

namespace {

/// Helper that embeds statement-local rows into the dependence space
/// [src iters (NS) | dst iters (NT) | params (NP) | 1].
class DepBuilder {
public:
  DepBuilder(const Program &Prog, const Statement &Src, const Statement &Dst)
      : Prog(Prog), Src(Src), Dst(Dst), NS(Src.numIters()),
        NT(Dst.numIters()), NP(Prog.numParams()) {}

  unsigned numVars() const { return NS + NT + NP; }

  /// Remaps a row over [iters | params | 1] of Src (IsSrc) or Dst into the
  /// dependence space, optionally negated.
  std::vector<BigInt> embed(const std::vector<BigInt> &Row, bool IsSrc,
                            bool Negate = false) const {
    unsigned NIter = IsSrc ? NS : NT;
    unsigned Offset = IsSrc ? 0 : NS;
    std::vector<BigInt> R(numVars() + 1, BigInt(0));
    for (unsigned I = 0; I < NIter; ++I)
      R[Offset + I] = Row[I];
    for (unsigned P = 0; P < NP; ++P)
      R[NS + NT + P] = Row[NIter + P];
    R[numVars()] = Row[NIter + NP];
    if (Negate)
      for (BigInt &V : R)
        V = -V;
    return R;
  }

  /// Base polyhedron: both domains plus the program context.
  ConstraintSystem base() const {
    ConstraintSystem CS(numVars());
    auto addDomain = [&](const Statement &S, bool IsSrc) {
      const ConstraintSystem &D = S.Domain;
      for (unsigned R = 0; R < D.ineqs().numRows(); ++R)
        CS.addIneq(embed(D.ineqs().row(R), IsSrc));
      for (unsigned R = 0; R < D.eqs().numRows(); ++R)
        CS.addEq(embed(D.eqs().row(R), IsSrc));
    };
    addDomain(Src, /*IsSrc=*/true);
    addDomain(Dst, /*IsSrc=*/false);
    Prog.appendContextTo(CS, NS + NT);
    return CS;
  }

  /// Adds F_src(s) == F_dst(t) rows (conflicting accesses touch the same
  /// element).
  void addAccessEquality(ConstraintSystem &CS, const Access &A,
                         const Access &B) const {
    assert(A.Map.numRows() == B.Map.numRows() &&
           "conflicting accesses with different ranks");
    for (unsigned R = 0; R < A.Map.numRows(); ++R) {
      std::vector<BigInt> SRow = embed(A.Map.row(R), /*IsSrc=*/true);
      std::vector<BigInt> TRow = embed(B.Map.row(R), /*IsSrc=*/false);
      for (unsigned I = 0; I <= numVars(); ++I)
        SRow[I] -= TRow[I];
      CS.addEq(std::move(SRow));
    }
  }

  /// Adds the ordering constraints for carry level L (1-based): equal on
  /// the first L-1 common loops, source strictly earlier on loop L.
  void addCarriedOrder(ConstraintSystem &CS, unsigned L) const {
    for (unsigned K = 0; K + 1 < L; ++K) {
      std::vector<BigInt> Eq(numVars() + 1, BigInt(0));
      Eq[K] = BigInt(1);
      Eq[NS + K] = BigInt(-1);
      CS.addEq(std::move(Eq));
    }
    std::vector<BigInt> Lt(numVars() + 1, BigInt(0));
    Lt[L - 1] = BigInt(-1);
    Lt[NS + L - 1] = BigInt(1);
    Lt[numVars()] = BigInt(-1); // t_L - s_L - 1 >= 0.
    CS.addIneq(std::move(Lt));
  }

  /// Adds equality on all Common loops (loop-independent ordering).
  void addLoopIndependentOrder(ConstraintSystem &CS, unsigned Common) const {
    for (unsigned K = 0; K < Common; ++K) {
      std::vector<BigInt> Eq(numVars() + 1, BigInt(0));
      Eq[K] = BigInt(1);
      Eq[NS + K] = BigInt(-1);
      CS.addEq(std::move(Eq));
    }
  }

private:
  const Program &Prog;
  const Statement &Src;
  const Statement &Dst;
  unsigned NS, NT, NP;
};

DepKind kindOf(bool SrcWrite, bool DstWrite) {
  if (SrcWrite && DstWrite)
    return DepKind::Output;
  if (SrcWrite)
    return DepKind::Flow;
  if (DstWrite)
    return DepKind::Anti;
  return DepKind::Input;
}

} // namespace

namespace {

/// One (src stmt, dst stmt, src access, dst access) quadruple of the
/// dependence-pair worklist. Quadruples are independent of each other, so
/// they can be processed on any thread; results are concatenated in task
/// order to keep the output bit-identical to the serial loop.
struct PairTask {
  unsigned SI, TI, AI, BI;
};

/// Emptiness gate for one candidate polyhedron. A proven-empty candidate
/// is discarded; a solve-budget abort (SolveStatus::Aborted inside the
/// emptiness ILP) keeps the candidate - the conservative choice - but is
/// accounted explicitly instead of being conflated with feasibility.
bool candidateEmpty(const ConstraintSystem &CS) {
  ilp::Feasibility F = CS.integerFeasibility();
  if (F == ilp::Feasibility::Unknown)
    count(Counter::DepKeptOnAbort);
  return F == ilp::Feasibility::Empty;
}

/// Emits the dependences of one access pair, in the same order the serial
/// nest produced them (input; carried levels 1..Common; loop-independent).
std::vector<Dependence> analyzePair(const Program &Prog,
                                    const DepOptions &Opts, unsigned MaxRank,
                                    const PairTask &Task) {
  std::vector<Dependence> Out;
  const unsigned SI = Task.SI, TI = Task.TI, AI = Task.AI, BI = Task.BI;
  const Statement &S = Prog.Stmts[SI];
  const Statement &T = Prog.Stmts[TI];
  const Access &A = S.Accesses[AI];
  const Access &B = T.Accesses[BI];
  unsigned Common = Prog.commonLoopDepth(S, T);

  DepKind Kind = kindOf(A.IsWrite, B.IsWrite);
  if (Kind == DepKind::Input) {
    // Input deps are symmetric and carry no ordering: emit each unordered
    // pair once, from the earlier (stmt, acc) index, and skip
    // scalar/self-reference noise.
    if (!Opts.IncludeInputDeps)
      return Out;
    // Each unordered pair once; the (acc, acc) self-pair is kept - it
    // captures self-temporal reuse of a reference (e.g. a[i][k] across j
    // iterations in matmul).
    if (std::make_pair(SI, AI) > std::make_pair(TI, BI))
      return Out;
    if (A.Map.numRows() == 0)
      return Out; // Scalar RAR: no reuse direction to optimize.
    if (A.Map.numRows() < MaxRank)
      return Out; // Lower-rank reuse is asymptotically dominated.
    DepBuilder DB(Prog, S, T);
    ConstraintSystem CS = DB.base();
    DB.addAccessEquality(CS, A, B);
    if (!CS.normalize() || candidateEmpty(CS))
      return Out;
    Dependence D;
    D.SrcStmt = SI;
    D.DstStmt = TI;
    D.SrcAcc = AI;
    D.DstAcc = BI;
    D.Kind = Kind;
    D.Poly = std::move(CS);
    Out.push_back(std::move(D));
    return Out;
  }

  DepBuilder DB(Prog, S, T);
  // Loop-carried candidates at each common level.
  for (unsigned L = 1; L <= Common; ++L) {
    ConstraintSystem CS = DB.base();
    DB.addAccessEquality(CS, A, B);
    DB.addCarriedOrder(CS, L);
    if (!CS.normalize() || candidateEmpty(CS))
      continue;
    Dependence D;
    D.SrcStmt = SI;
    D.DstStmt = TI;
    D.SrcAcc = AI;
    D.DstAcc = BI;
    D.Kind = Kind;
    D.CarryLevel = L;
    D.Poly = std::move(CS);
    Out.push_back(std::move(D));
  }
  // Loop-independent candidate: distinct statements only, source textually
  // first.
  if (SI != TI && Prog.textuallyBefore(S, T)) {
    ConstraintSystem CS = DB.base();
    DB.addAccessEquality(CS, A, B);
    DB.addLoopIndependentOrder(CS, Common);
    if (!CS.normalize() || candidateEmpty(CS))
      return Out;
    Dependence D;
    D.SrcStmt = SI;
    D.DstStmt = TI;
    D.SrcAcc = AI;
    D.DstAcc = BI;
    D.Kind = Kind;
    D.CarryLevel = 0;
    D.Poly = std::move(CS);
    Out.push_back(std::move(D));
  }
  return Out;
}

/// True when E contains a Var/ArrayRef naming Name.
bool readsName(const Expr &E, const std::string &Name) {
  if ((E.K == Expr::Kind::Var || E.K == Expr::Kind::ArrayRef) &&
      E.Name == Name)
    return true;
  for (const ExprPtr &A : E.Args)
    if (readsName(*A, Name))
      return true;
  return false;
}

/// A reduction statement is an associative compound assignment `x op= e`
/// (op in {+,-,*}) whose RHS never reads the target x, onto a target of
/// rank <= 1. The rank cap matches what the emitter can express as an
/// OpenMP reduction clause: scalars directly, rank-1 arrays via an OpenMP
/// 4.5 array section; higher ranks stay serialized (conservative).
bool isReductionStmt(const Program &Prog, const Statement &S) {
  const std::string &Op = S.Body.AsgnOp;
  if (Op != "+=" && Op != "-=" && Op != "*=")
    return false;
  if (!S.Body.Lhs || !S.Body.Rhs)
    return false;
  if (readsName(*S.Body.Rhs, S.Body.Lhs->Name))
    return false;
  const ArrayInfo *AI = Prog.findArray(S.Body.Lhs->Name);
  return AI && AI->Rank <= 1;
}

/// Tags the self dependences that form a reduction cycle: for a reduction
/// statement, the flow/anti/output edges between its own write (access 0)
/// and compound read (access 1) of the target. Edges touching any other
/// access (an RHS read of a different array) are genuine dependences and
/// stay untagged.
void tagReductions(const Program &Prog, DependenceGraph &G) {
  std::vector<bool> IsRed(Prog.Stmts.size(), false);
  for (unsigned I = 0; I < Prog.Stmts.size(); ++I)
    IsRed[I] = isReductionStmt(Prog, Prog.Stmts[I]);
  for (Dependence &D : G.Deps) {
    if (D.Kind == DepKind::Input)
      continue;
    if (D.SrcStmt != D.DstStmt || !IsRed[D.SrcStmt])
      continue;
    if (D.SrcAcc > 1 || D.DstAcc > 1)
      continue; // Only the statement's own update of the target.
    D.IsReduction = true;
    D.RedOp = Prog.Stmts[D.SrcStmt].Body.AsgnOp[0];
  }
}

} // namespace

DependenceGraph pluto::computeDependences(const Program &Prog,
                                          const DepOptions &Opts) {
  DependenceGraph G;

  unsigned MaxRank = 0;
  for (const ArrayInfo &A : Prog.Arrays)
    MaxRank = std::max(MaxRank, A.Rank);

  // Build the worklist of same-array access pairs in the serial iteration
  // order; each quadruple is analyzed independently.
  std::vector<PairTask> Tasks;
  for (unsigned SI = 0; SI < Prog.Stmts.size(); ++SI)
    for (unsigned TI = 0; TI < Prog.Stmts.size(); ++TI)
      for (unsigned AI = 0; AI < Prog.Stmts[SI].Accesses.size(); ++AI)
        for (unsigned BI = 0; BI < Prog.Stmts[TI].Accesses.size(); ++BI)
          if (Prog.Stmts[SI].Accesses[AI].Array ==
              Prog.Stmts[TI].Accesses[BI].Array)
            Tasks.push_back({SI, TI, AI, BI});

  std::vector<std::vector<Dependence>> Results(Tasks.size());
#ifdef _OPENMP
  // singleThreadMode(): forked sandbox workers must not re-enter the
  // OpenMP runtime they inherited across fork.
  if (!singleThreadMode() && Opts.NumThreads != 1 && Tasks.size() > 1) {
    // The emptiness ILPs vary wildly in cost per pair: dynamic scheduling
    // load-balances; per-task result slots keep the output deterministic.
    // The compile budget is thread-local, so capture the calling thread's
    // and install it in every OpenMP worker (its counters are atomic).
    Budget *SharedBudget = activeBudget();
#pragma omp parallel for schedule(dynamic, 1)                                  \
    num_threads(Opts.NumThreads > 0 ? Opts.NumThreads : omp_get_max_threads())
    for (long I = 0; I < static_cast<long>(Tasks.size()); ++I) {
      ScopedBudget Install(SharedBudget);
      Results[I] = budgetCharge()
                       ? analyzePair(Prog, Opts, MaxRank, Tasks[I])
                       : std::vector<Dependence>();
    }
  } else {
    for (size_t I = 0; I < Tasks.size(); ++I) {
      if (!budgetCharge())
        break;
      Results[I] = analyzePair(Prog, Opts, MaxRank, Tasks[I]);
    }
  }
#else
  for (size_t I = 0; I < Tasks.size(); ++I) {
    if (!budgetCharge())
      break;
    Results[I] = analyzePair(Prog, Opts, MaxRank, Tasks[I]);
  }
#endif

  for (std::vector<Dependence> &R : Results)
    for (Dependence &D : R)
      G.Deps.push_back(std::move(D));

  tagReductions(Prog, G);

  // Edge census, taken serially after the parallel region so collection
  // never contends with the OpenMP pair loop.
  if (activeStats()) {
    count(Counter::DepCandidates, Tasks.size());
    std::set<unsigned> RedStmts;
    for (const Dependence &D : G.Deps)
      if (D.IsReduction)
        RedStmts.insert(D.SrcStmt);
    count(Counter::ReductionsDetected, RedStmts.size());
    for (const Dependence &D : G.Deps) {
      switch (D.Kind) {
      case DepKind::Flow:
        count(Counter::DepFlow);
        break;
      case DepKind::Anti:
        count(Counter::DepAnti);
        break;
      case DepKind::Output:
        count(Counter::DepOutput);
        break;
      case DepKind::Input:
        count(Counter::DepInput);
        break;
      }
      if (D.Kind != DepKind::Input) {
        count(D.CarryLevel == 0 ? Counter::DepLoopIndependent
                                : Counter::DepCarried);
        countDepAtLevel(D.CarryLevel);
      }
    }
  }
  return G;
}

unsigned DependenceGraph::numLegalityDeps() const {
  unsigned N = 0;
  for (const Dependence &D : Deps)
    N += D.isLegalityDep();
  return N;
}

std::vector<unsigned> DependenceGraph::sccIds(unsigned NumStmts) const {
  // Tarjan's algorithm over the statement graph induced by unsatisfied
  // legality dependences.
  std::vector<std::vector<unsigned>> Adj(NumStmts);
  for (const Dependence &D : Deps)
    if (D.isLegalityDep() && !D.satisfied() && D.SrcStmt != D.DstStmt)
      Adj[D.SrcStmt].push_back(D.DstStmt);

  std::vector<int> Index(NumStmts, -1), Low(NumStmts, 0);
  std::vector<bool> OnStack(NumStmts, false);
  std::vector<unsigned> Stack;
  std::vector<int> Comp(NumStmts, -1);
  int NextIndex = 0, NumComps = 0;

  std::function<void(unsigned)> strongConnect = [&](unsigned V) {
    Index[V] = Low[V] = NextIndex++;
    Stack.push_back(V);
    OnStack[V] = true;
    for (unsigned W : Adj[V]) {
      if (Index[W] < 0) {
        strongConnect(W);
        Low[V] = std::min(Low[V], Low[W]);
      } else if (OnStack[W]) {
        Low[V] = std::min(Low[V], Index[W]);
      }
    }
    if (Low[V] == Index[V]) {
      for (;;) {
        unsigned W = Stack.back();
        Stack.pop_back();
        OnStack[W] = false;
        Comp[W] = NumComps;
        if (W == V)
          break;
      }
      ++NumComps;
    }
  };
  for (unsigned V = 0; V < NumStmts; ++V)
    if (Index[V] < 0)
      strongConnect(V);

  // Tarjan numbers components in reverse topological order; renumber so
  // sources get lower ids, breaking ties by statement order (stable
  // fusion structure).
  std::vector<unsigned> Ids(NumStmts);
  std::vector<int> Remap(NumComps, -1);
  unsigned Next = 0;
  // A component's topological position: iterate statements in textual
  // order, but a component can only be numbered once all its predecessors
  // are. Kahn's algorithm over the condensed graph:
  std::vector<std::vector<unsigned>> CompAdj(NumComps);
  std::vector<unsigned> InDeg(NumComps, 0);
  for (unsigned V = 0; V < NumStmts; ++V)
    for (unsigned W : Adj[V])
      if (Comp[V] != Comp[W]) {
        CompAdj[Comp[V]].push_back(static_cast<unsigned>(Comp[W]));
        ++InDeg[Comp[W]];
      }
  // Kahn with a priority on the smallest statement id in the component so
  // the order is deterministic and close to textual order.
  std::vector<int> MinStmt(NumComps, -1);
  for (unsigned V = 0; V < NumStmts; ++V)
    if (MinStmt[Comp[V]] < 0)
      MinStmt[Comp[V]] = static_cast<int>(V);
  std::vector<unsigned> Ready;
  for (int C = 0; C < NumComps; ++C)
    if (InDeg[C] == 0)
      Ready.push_back(static_cast<unsigned>(C));
  while (!Ready.empty()) {
    auto Best = std::min_element(
        Ready.begin(), Ready.end(),
        [&](unsigned A, unsigned B) { return MinStmt[A] < MinStmt[B]; });
    unsigned C = *Best;
    Ready.erase(Best);
    Remap[C] = static_cast<int>(Next++);
    for (unsigned W : CompAdj[C])
      if (--InDeg[W] == 0)
        Ready.push_back(W);
  }
  for (unsigned V = 0; V < NumStmts; ++V)
    Ids[V] = static_cast<unsigned>(Remap[Comp[V]]);
  return Ids;
}

std::vector<std::vector<unsigned>>
DependenceGraph::weakComponents(unsigned NumStmts) const {
  // Union-find over every edge (input dependences included: RAR edges
  // couple statements through the shared cost-bounding variables, e.g.
  // MVT's two statements are connected only through the reuse on A).
  std::vector<unsigned> Parent(NumStmts);
  for (unsigned V = 0; V < NumStmts; ++V)
    Parent[V] = V;
  std::function<unsigned(unsigned)> find = [&](unsigned V) {
    while (Parent[V] != V) {
      Parent[V] = Parent[Parent[V]];
      V = Parent[V];
    }
    return V;
  };
  for (const Dependence &D : Deps) {
    unsigned A = find(D.SrcStmt), B = find(D.DstStmt);
    if (A != B)
      Parent[std::max(A, B)] = std::min(A, B);
  }
  // Roots are component minima, so iterating statements in id order yields
  // components ordered by smallest member with members ascending.
  std::vector<int> CompOf(NumStmts, -1);
  std::vector<std::vector<unsigned>> Comps;
  for (unsigned V = 0; V < NumStmts; ++V) {
    unsigned R = find(V);
    if (CompOf[R] < 0) {
      CompOf[R] = static_cast<int>(Comps.size());
      Comps.emplace_back();
    }
    Comps[static_cast<unsigned>(CompOf[R])].push_back(V);
  }
  return Comps;
}

unsigned DependenceGraph::numSccs(unsigned NumStmts) const {
  std::vector<unsigned> Ids = sccIds(NumStmts);
  unsigned Max = 0;
  for (unsigned I : Ids)
    Max = std::max(Max, I + 1);
  return NumStmts == 0 ? 0 : Max;
}

std::string DependenceGraph::toString(const Program &Prog) const {
  std::string S;
  for (const Dependence &D : Deps) {
    const Statement &Src = Prog.Stmts[D.SrcStmt];
    const Statement &Dst = Prog.Stmts[D.DstStmt];
    S += std::string(depKindName(D.Kind)) + " S" + std::to_string(D.SrcStmt) +
         " -> S" + std::to_string(D.DstStmt) + " on '" +
         Src.Accesses[D.SrcAcc].Array + "'";
    if (D.Kind != DepKind::Input)
      S += D.CarryLevel == 0
               ? " (loop-independent)"
               : " (carried at level " + std::to_string(D.CarryLevel) + ")";
    if (D.IsReduction)
      S += std::string(" [reduction ") + D.RedOp + "]";
    S += "\n";
    std::vector<std::string> Names;
    for (const std::string &N : Src.IterNames)
      Names.push_back(N + "_s");
    for (const std::string &N : Dst.IterNames)
      Names.push_back(N + "_t");
    for (const std::string &N : Prog.ParamNames)
      Names.push_back(N);
    S += D.Poly.toString(Names);
  }
  return S;
}
