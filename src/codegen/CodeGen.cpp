//===- codegen/CodeGen.cpp - Polyhedral code generation -------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"

#include "observe/PassStats.h"
#include "support/Budget.h"

#include <algorithm>
#include <optional>

using namespace pluto;

namespace {

/// Cap on disjoint regions per level before falling back to guard mode.
constexpr unsigned MaxPieces = 24;

/// A level projection with more inequalities than this drops its redundant
/// rows before the next level is projected from it. Fourier-Motzkin drops
/// only the combinations Imbert's test proves redundant, so without this
/// seidel2d's L2-tiled levels grow from 137 to 701 to 10,837 rows. The
/// largest projection of a paper kernel under default options has 94 rows
/// (seidel2d), so those bounds are untouched.
constexpr unsigned MaxProjectionRows = 128;

/// A disjoint region of the current level with the statements active in it.
struct Piece {
  ConstraintSystem Region;
  std::vector<unsigned> Stmts;
};

/// Adds every name E reads (scalars, symbolic constants, arrays, called
/// functions) to Names.
void collectNames(const Expr &E, std::set<std::string> &Names) {
  if (!E.Name.empty())
    Names.insert(E.Name);
  for (const ExprPtr &A : E.Args)
    collectNames(*A, Names);
}

/// Bound rows extracted for one dimension.
struct DimBounds {
  bool HasEq = false;
  std::vector<BigInt> EqRow; ///< Normalized: positive coefficient on the dim.
  std::vector<std::vector<BigInt>> Lower; ///< Positive coefficient rows.
  std::vector<std::vector<BigInt>> Upper; ///< Negative coefficient rows.
  std::vector<std::vector<BigInt>> CondIneqs; ///< Rows not involving the dim.
  std::vector<std::vector<BigInt>> CondEqs;

  bool operator==(const DimBounds &) const = default;
};

/// True if A and B hold the same rows in the same order.
bool sameRows(const ConstraintSystem &A, const ConstraintSystem &B) {
  return A.ineqs() == B.ineqs() && A.eqs() == B.eqs();
}

class Generator {
public:
  Generator(const Scop &S, const CodeGenOptions &Opts) : S(S), Opts(Opts) {
    D = S.numRows();
    NP = S.Prog->numParams();
  }

  Result<CgNodePtr> run() {
    pickLoopVarNames();
    buildExtendedSystems();
    buildProjections();
    IterBounds.resize(S.Stmts.size());

    ConstraintSystem Ctx(D + NP);
    S.Prog->appendContextTo(Ctx, D);
    std::vector<unsigned> Active;
    for (unsigned I = 0; I < S.Stmts.size(); ++I)
      Active.push_back(I);
    CgNodePtr Root = genLevel(0, Active, Ctx);
    if (!Error.empty())
      return Err(Error);
    return Root;
  }

private:
  const Scop &S;
  CodeGenOptions Opts;
  unsigned D, NP;
  std::vector<std::string> CName; ///< Loop-variable name per row ("" scalar).
  std::vector<ConstraintSystem> Ext; ///< Per stmt: [c_1..c_D|iters|params|1].
  /// Proj[s][l]: projection of Ext[s] onto [c_1..c_l | params], padded back
  /// to the region layout [c_1..c_D | params | 1] with zero columns.
  std::vector<std::vector<ConstraintSystem>> Proj;
  /// IterBounds[s]: the bounds of each iterator of statement s, recovered
  /// at its first leaf (recoverIterators).
  std::vector<std::optional<std::vector<DimBounds>>> IterBounds;
  std::string Error;

  void fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
  }

  //===------------------------------------------------------------------===//
  // Setup
  //===------------------------------------------------------------------===//

  /// Loop counters are c1, c2, ...; the prefix grows until no counter
  /// captures a name of the program: a parameter, an iterator, an array or
  /// any name a statement body reads.
  void pickLoopVarNames() {
    std::set<std::string> Taken(S.Prog->ParamNames.begin(),
                                S.Prog->ParamNames.end());
    for (const ScopStmt &St : S.Stmts)
      Taken.insert(St.IterNames.begin(), St.IterNames.end());
    for (const ArrayInfo &A : S.Prog->Arrays)
      Taken.insert(A.Name);
    for (const Statement &St : S.Prog->Stmts) {
      collectNames(*St.Body.Lhs, Taken);
      collectNames(*St.Body.Rhs, Taken);
    }
    std::string Prefix = "c";
    while (true) {
      bool Clash = false;
      for (unsigned R = 0; R < D && !Clash; ++R)
        Clash = Taken.count(Prefix + std::to_string(R + 1)) != 0;
      if (!Clash)
        break;
      Prefix += "c";
    }
    CName.resize(D);
    for (unsigned R = 0; R < D; ++R)
      CName[R] = S.Rows[R].IsScalar ? "" : Prefix + std::to_string(R + 1);
  }

  void buildExtendedSystems() {
    for (const ScopStmt &St : S.Stmts) {
      unsigned M = static_cast<unsigned>(St.IterNames.size());
      assert(St.Scatter.numRows() == D && "scattering height mismatch");
      assert(St.Scatter.numCols() == M + NP + 1 && "scattering width");
      ConstraintSystem CS(D + M + NP);
      // c_r == Scatter_r(iters, params).
      for (unsigned R = 0; R < D; ++R) {
        std::vector<BigInt> Row(D + M + NP + 1, BigInt(0));
        Row[R] = BigInt(1);
        for (unsigned I = 0; I < M; ++I)
          Row[D + I] = -St.Scatter(R, I);
        for (unsigned P = 0; P < NP; ++P)
          Row[D + M + P] = -St.Scatter(R, M + P);
        Row[D + M + NP] = -St.Scatter(R, M + NP);
        CS.addEq(std::move(Row));
      }
      // Domain rows.
      auto embed = [&](const std::vector<BigInt> &Row) {
        std::vector<BigInt> R(D + M + NP + 1, BigInt(0));
        for (unsigned I = 0; I < M; ++I)
          R[D + I] = Row[I];
        for (unsigned P = 0; P < NP; ++P)
          R[D + M + P] = Row[M + P];
        R[D + M + NP] = Row[M + NP];
        return R;
      };
      for (unsigned R = 0; R < St.Domain.ineqs().numRows(); ++R)
        CS.addIneq(embed(St.Domain.ineqs().row(R)));
      for (unsigned R = 0; R < St.Domain.eqs().numRows(); ++R)
        CS.addEq(embed(St.Domain.eqs().row(R)));
      S.Prog->appendContextTo(CS, D + M);
      CS.normalize();
      // Scalar scattering dims carry no loop variable: substitute them away
      // (their defining equalities pin them to constants) and keep a zero
      // column so the layout stays uniform.
      for (unsigned R = 0; R < D; ++R) {
        if (!S.Rows[R].IsScalar)
          continue;
        CS.projectOut(R, 1);
        CS.insertDims(R, 1);
      }
      Ext.push_back(std::move(CS));
    }
  }

  void buildProjections() {
    Proj.resize(S.Stmts.size());
    auto Trim = [](ConstraintSystem &P) {
      if (P.numIneqs() > MaxProjectionRows)
        P.removeRedundant();
    };
    for (unsigned St = 0; St < S.Stmts.size(); ++St) {
      unsigned M = static_cast<unsigned>(S.Stmts[St].IterNames.size());
      Proj[St].resize(D + 1, ConstraintSystem(0));
      ConstraintSystem Full = Ext[St];
      Full.projectOut(D, M); // Eliminate the statement iterators.
      Trim(Full);
      // Full is now over [c_1..c_D | params].
      Proj[St][D] = Full;
      for (unsigned L = D; L-- > 0;) {
        ConstraintSystem Outer = Proj[St][L + 1];
        Outer.projectOut(L, 1);
        Outer.insertDims(L, 1);
        Trim(Outer);
        Proj[St][L] = std::move(Outer);
      }
    }
  }

  //===------------------------------------------------------------------===//
  // Expression rendering (region layout)
  //===------------------------------------------------------------------===//

  /// Name of region-layout column C (loop dim or parameter).
  std::string regionVarName(unsigned C) const {
    if (C < D) {
      assert(!CName[C].empty() && "expression references a scalar dimension");
      return CName[C];
    }
    return S.Prog->ParamNames[C - D];
  }

  /// Renders sum of Row's columns (skipping column Skip) scaled by Scale,
  /// plus the row constant, as an affine CgExpr.
  CgExpr rowToAffine(const std::vector<BigInt> &Row, int Skip,
                     const BigInt &Scale) const {
    std::vector<std::pair<std::string, BigInt>> Terms;
    for (unsigned C = 0; C < D + NP; ++C) {
      if (static_cast<int>(C) == Skip || Row[C].isZero())
        continue;
      Terms.push_back({regionVarName(C), Row[C] * Scale});
    }
    return CgExpr::affine(std::move(Terms), Row[D + NP] * Scale);
  }

  /// Extracts the bound structure for dimension Dim from Region's rows.
  DimBounds splitBounds(const ConstraintSystem &Region, unsigned Dim) const {
    DimBounds B;
    for (unsigned R = 0; R < Region.eqs().numRows(); ++R) {
      std::vector<BigInt> Row = Region.eqs().row(R);
      if (Row[Dim].isZero()) {
        B.CondEqs.push_back(std::move(Row));
        continue;
      }
      if (Row[Dim].isNegative())
        for (BigInt &V : Row)
          V = -V;
      if (!B.HasEq) {
        B.EqRow = std::move(Row);
        B.HasEq = true;
        continue;
      }
      std::vector<BigInt> *Keep = &Row;
      if (Row[Dim] < B.EqRow[Dim])
        std::swap(Row, B.EqRow); // Keep the smaller coefficient as EqRow.
      // The surplus equality becomes a pair of inequalities on the dim (it
      // references the dim, so it must be checked inside its definition).
      std::vector<BigInt> Neg = *Keep;
      for (BigInt &V : Neg)
        V = -V;
      B.Lower.push_back(std::move(*Keep)); // Positive coefficient on Dim.
      B.Upper.push_back(std::move(Neg));
    }
    for (unsigned R = 0; R < Region.ineqs().numRows(); ++R) {
      const std::vector<BigInt> &Row = Region.ineqs().row(R);
      if (Row[Dim].isZero())
        B.CondIneqs.push_back(Row);
      else if (Row[Dim].isPositive())
        B.Lower.push_back(Row);
      else
        B.Upper.push_back(Row);
    }
    return B;
  }

  /// Lower bound: a*dim + rest >= 0, a > 0  =>  dim >= ceild(-rest, a).
  CgExpr lowerExpr(const std::vector<BigInt> &Row, unsigned Dim) const {
    return CgExpr::ceild(rowToAffine(Row, static_cast<int>(Dim), BigInt(-1)),
                         Row[Dim]);
  }
  /// Upper bound: a*dim + rest >= 0, a < 0  =>  dim <= floord(rest, -a).
  CgExpr upperExpr(const std::vector<BigInt> &Row, unsigned Dim) const {
    return CgExpr::floord(rowToAffine(Row, static_cast<int>(Dim), BigInt(1)),
                          -Row[Dim]);
  }

  /// Converts condition rows into CgConds (equalities as two inequalities).
  std::vector<CgCond> condsFromRows(const DimBounds &B) const {
    std::vector<CgCond> Conds;
    for (const auto &Row : B.CondIneqs) {
      CgCond C;
      C.Expr = rowToAffine(Row, -1, BigInt(1));
      Conds.push_back(std::move(C));
    }
    for (const auto &Row : B.CondEqs) {
      CgCond C1, C2;
      C1.Expr = rowToAffine(Row, -1, BigInt(1));
      C2.Expr = rowToAffine(Row, -1, BigInt(-1));
      Conds.push_back(std::move(C1));
      Conds.push_back(std::move(C2));
    }
    return Conds;
  }

  //===------------------------------------------------------------------===//
  // Separation
  //===------------------------------------------------------------------===//

  /// A \ B as a list of disjoint convex pieces (successive complements).
  /// Pieces empty within Ctx are dropped.
  std::vector<ConstraintSystem> difference(const ConstraintSystem &A,
                                           const ConstraintSystem &B,
                                           const ConstraintSystem &Ctx) const {
    std::vector<ConstraintSystem> Out;
    ConstraintSystem BGist = B;
    BGist.gist(A); // Only rows that actually cut A produce pieces.
    std::vector<std::vector<BigInt>> Cuts;
    for (unsigned R = 0; R < BGist.ineqs().numRows(); ++R)
      Cuts.push_back(BGist.ineqs().row(R));
    for (unsigned R = 0; R < BGist.eqs().numRows(); ++R) {
      Cuts.push_back(BGist.eqs().row(R));
      std::vector<BigInt> Neg = BGist.eqs().row(R);
      for (BigInt &V : Neg)
        V = -V;
      Cuts.push_back(std::move(Neg));
    }
    ConstraintSystem Prefix = A;
    for (const auto &Cut : Cuts) {
      ConstraintSystem PieceCS = Prefix;
      std::vector<BigInt> Neg(Cut.size());
      for (unsigned I = 0; I < Cut.size(); ++I)
        Neg[I] = -Cut[I];
      Neg[Cut.size() - 1] -= BigInt(1); // not(row >= 0) == -row - 1 >= 0.
      PieceCS.addIneq(std::move(Neg));
      if (PieceCS.normalize() && !emptyInCtx(PieceCS, Ctx))
        Out.push_back(std::move(PieceCS));
      Prefix.addIneq(Cut);
      if (!Prefix.normalize())
        break;
    }
    return Out;
  }

  /// True if Region has no integer point inside the accumulated context.
  bool emptyInCtx(const ConstraintSystem &Region,
                  const ConstraintSystem &Ctx) const {
    ConstraintSystem Probe = ConstraintSystem::intersection(Region, Ctx);
    return !Probe.normalize() || Probe.isIntegerEmpty();
  }

  /// True if A and B share an integer point inside Ctx.
  bool meetInCtx(const ConstraintSystem &A, const ConstraintSystem &B,
                 const ConstraintSystem &Ctx) const {
    ConstraintSystem Inter = ConstraintSystem::intersection(A, B);
    return Inter.normalize() && !emptyInCtx(Inter, Ctx);
  }

  /// Splits the projections of Active statements into disjoint pieces,
  /// each tested to have an integer point in Ctx. Returns std::nullopt if
  /// the piece count explodes.
  std::optional<std::vector<Piece>>
  separate(const std::vector<unsigned> &Active,
           const std::vector<ConstraintSystem> &Ps,
           const ConstraintSystem &Ctx) const {
    std::vector<Piece> Pieces;
    std::vector<unsigned> Separated; // Positions in Active that split pieces.
    for (unsigned I = 0; I < Active.size(); ++I) {
      const ConstraintSystem &P = Ps[I];
      auto Twin = std::find_if(
          Separated.begin(), Separated.end(),
          [&](unsigned J) { return sameRows(Ps[J], P); });
      if (Twin != Separated.end()) {
        // P is an earlier statement's projection. The pieces holding that
        // statement lie inside P and cover it within Ctx; the others miss
        // it there. So this statement joins exactly those pieces, and the
        // pieces stay as they are (DESIGN.md section 7.3).
        unsigned J = Active[*Twin];
        for (Piece &Existing : Pieces) {
          if (std::find(Existing.Stmts.begin(), Existing.Stmts.end(), J) !=
              Existing.Stmts.end())
            Existing.Stmts.push_back(Active[I]);
          else
            assert(!meetInCtx(Existing.Region, P, Ctx) &&
                   "a statement meets a piece its twin is not in");
        }
        continue;
      }
      Separated.push_back(I);
      std::vector<Piece> Next;
      std::vector<ConstraintSystem> Carry = {P};
      for (Piece &Existing : Pieces) {
        // Intersection gets statement I too.
        ConstraintSystem Inter =
            ConstraintSystem::intersection(Existing.Region, P);
        if (Inter.normalize() && !emptyInCtx(Inter, Ctx)) {
          Piece PI;
          PI.Region = std::move(Inter);
          PI.Stmts = Existing.Stmts;
          PI.Stmts.push_back(Active[I]);
          Next.push_back(std::move(PI));
        }
        // Existing minus P keeps its statements.
        for (ConstraintSystem &Diff : difference(Existing.Region, P, Ctx)) {
          Piece PD;
          PD.Region = std::move(Diff);
          PD.Stmts = Existing.Stmts;
          Next.push_back(std::move(PD));
        }
        // Carry: parts of P not covered by any existing region.
        std::vector<ConstraintSystem> NewCarry;
        for (ConstraintSystem &C : Carry)
          for (ConstraintSystem &Piece2 :
               difference(C, Existing.Region, Ctx))
            NewCarry.push_back(std::move(Piece2));
        Carry = std::move(NewCarry);
        if (Next.size() + Carry.size() > MaxPieces)
          return std::nullopt;
      }
      for (ConstraintSystem &C : Carry) {
        if (emptyInCtx(C, Ctx))
          continue;
        Piece PC;
        PC.Region = std::move(C);
        PC.Stmts = {Active[I]};
        Next.push_back(std::move(PC));
      }
      Pieces = std::move(Next);
      if (Pieces.size() > MaxPieces)
        return std::nullopt;
    }
    return Pieces;
  }

  /// True if every point of A strictly precedes every same-outer-context
  /// point of B along dimension Dim.
  bool strictlyBefore(const ConstraintSystem &A, const ConstraintSystem &B,
                      unsigned Dim) const {
    // Shared outer dims and params; A's Dim stays at Dim, B's moves to a
    // fresh trailing variable. Test emptiness of A && B' && dimA >= dimB.
    unsigned N = D + NP;
    ConstraintSystem CS(N + 1);
    for (unsigned R = 0; R < A.ineqs().numRows(); ++R) {
      std::vector<BigInt> Row = A.ineqs().row(R);
      Row.insert(Row.end() - 1, BigInt(0));
      CS.addIneq(std::move(Row));
    }
    for (unsigned R = 0; R < A.eqs().numRows(); ++R) {
      std::vector<BigInt> Row = A.eqs().row(R);
      Row.insert(Row.end() - 1, BigInt(0));
      CS.addEq(std::move(Row));
    }
    auto moveDim = [&](std::vector<BigInt> Row) {
      Row.insert(Row.end() - 1, Row[Dim]);
      Row[Dim] = BigInt(0);
      return Row;
    };
    for (unsigned R = 0; R < B.ineqs().numRows(); ++R)
      CS.addIneq(moveDim(B.ineqs().row(R)));
    for (unsigned R = 0; R < B.eqs().numRows(); ++R)
      CS.addEq(moveDim(B.eqs().row(R)));
    // dimA - dimB >= 0.
    std::vector<BigInt> Cmp(N + 2, BigInt(0));
    Cmp[Dim] = BigInt(1);
    Cmp[N] = BigInt(-1);
    CS.addIneq(std::move(Cmp));
    return !CS.normalize() || CS.isIntegerEmpty();
  }

  /// Topologically orders pieces along Dim; false if no total order exists.
  bool orderPieces(std::vector<Piece> &Pieces, unsigned Dim) const {
    unsigned N = static_cast<unsigned>(Pieces.size());
    if (N <= 1)
      return true;
    std::vector<std::vector<bool>> Before(N, std::vector<bool>(N, false));
    for (unsigned I = 0; I < N; ++I) {
      for (unsigned J = I + 1; J < N; ++J) {
        bool IJ = strictlyBefore(Pieces[I].Region, Pieces[J].Region, Dim);
        bool JI = strictlyBefore(Pieces[J].Region, Pieces[I].Region, Dim);
        if (!IJ && !JI)
          return false; // Interleaved regions: cannot totally order.
        Before[I][J] = IJ;
        Before[J][I] = JI;
        // Both true means they never share an outer context; leave the
        // stable (insertion) order.
      }
    }
    std::vector<unsigned> Order;
    std::vector<bool> Placed(N, false);
    for (unsigned Step = 0; Step < N; ++Step) {
      int Pick = -1;
      for (unsigned I = 0; I < N && Pick < 0; ++I) {
        if (Placed[I])
          continue;
        bool Ready = true;
        for (unsigned J = 0; J < N; ++J)
          if (!Placed[J] && J != I && Before[J][I] && !Before[I][J])
            Ready = false;
        if (Ready)
          Pick = static_cast<int>(I);
      }
      if (Pick < 0)
        return false; // Cycle (should not happen with disjoint regions).
      Placed[static_cast<unsigned>(Pick)] = true;
      Order.push_back(static_cast<unsigned>(Pick));
    }
    std::vector<Piece> Sorted;
    for (unsigned I : Order)
      Sorted.push_back(std::move(Pieces[I]));
    Pieces = std::move(Sorted);
    return true;
  }

  //===------------------------------------------------------------------===//
  // Recursive generation
  //===------------------------------------------------------------------===//

  CgNodePtr genLevel(unsigned Level, const std::vector<unsigned> &Active,
                     const ConstraintSystem &Ctx) {
    if (!Error.empty() || Active.empty())
      return CgNode::block();
    // One work unit per generated tree node; separation can explode
    // combinatorially, and the Error short-circuit above unwinds the whole
    // recursion once the budget trips.
    if (!budgetCharge()) {
      fail("compile budget exhausted during code generation");
      return CgNode::block();
    }
    if (Level == D)
      return genLeaf(Active, Ctx);
    if (S.Rows[Level].IsScalar)
      return genScalarLevel(Level, Active, Ctx);
    return genLoopLevel(Level, Active, Ctx);
  }

  CgNodePtr genScalarLevel(unsigned Level,
                           const std::vector<unsigned> &Active,
                           const ConstraintSystem &Ctx) {
    // Group by the constant scattering value and emit groups in order.
    std::vector<std::pair<BigInt, unsigned>> Vals;
    for (unsigned St : Active) {
      const IntMatrix &Sc = S.Stmts[St].Scatter;
      for (unsigned C = 0; C + 1 < Sc.numCols(); ++C)
        if (!Sc(Level, C).isZero()) {
          fail("scalar scattering row with non-constant entries");
          return CgNode::block();
        }
      Vals.push_back({Sc(Level, Sc.numCols() - 1), St});
    }
    std::stable_sort(Vals.begin(), Vals.end(),
                     [](const auto &A, const auto &B) {
                       return A.first < B.first;
                     });
    CgNodePtr Block = CgNode::block();
    size_t I = 0;
    while (I < Vals.size()) {
      std::vector<unsigned> Group;
      size_t J = I;
      while (J < Vals.size() && Vals[J].first == Vals[I].first)
        Group.push_back(Vals[J++].second);
      Block->Children.push_back(genLevel(Level + 1, Group, Ctx));
      I = J;
    }
    return Block;
  }

  /// Proj[St][L] simplified against Ctx for each statement of Active. A
  /// projection equal row for row to an earlier statement's takes that
  /// statement's result instead of a gist of its own.
  std::vector<ConstraintSystem>
  gistProjections(const std::vector<unsigned> &Active, unsigned L,
                  const ConstraintSystem &Ctx) const {
    std::vector<ConstraintSystem> Ps;
    std::vector<unsigned> Gisted; // Positions in Active whose gist ran.
    for (unsigned I = 0; I < Active.size(); ++I) {
      const ConstraintSystem &P = Proj[Active[I]][L];
      auto Twin = std::find_if(Gisted.begin(), Gisted.end(), [&](unsigned J) {
        return sameRows(Proj[Active[J]][L], P);
      });
      if (Twin != Gisted.end()) {
        Ps.push_back(Ps[*Twin]);
        continue;
      }
      Gisted.push_back(I);
      Ps.push_back(P);
      Ps.back().gist(Ctx);
    }
    return Ps;
  }

  CgNodePtr genLoopLevel(unsigned Level, const std::vector<unsigned> &Active,
                         const ConstraintSystem &Ctx) {
    std::vector<ConstraintSystem> Ps = gistProjections(Active, Level + 1, Ctx);
    std::optional<std::vector<Piece>> Pieces;
    if (Opts.EnableSeparation) {
      Pieces = separate(Active, Ps, Ctx);
      if (Pieces && !orderPieces(*Pieces, Level))
        Pieces.reset();
    }
    if (!Pieces) {
      count(Counter::CodegenGuardFallbacks);
      return genUnseparatedLoop(Level, Active, Ps, Ctx);
    }

    count(Counter::CodegenPieces, Pieces->size());
    CgNodePtr Block = CgNode::block();
    for (Piece &P : *Pieces) {
      P.Region.gist(Ctx);
      Block->Children.push_back(
          emitLoopForRegion(Level, P.Region, P.Stmts, Ctx));
    }
    return Block;
  }

  /// Fallback: one loop spanning the union of all statements' bounds; the
  /// per-statement constraints re-emerge as leaf guards.
  CgNodePtr genUnseparatedLoop(unsigned Level,
                               const std::vector<unsigned> &Active,
                               const std::vector<ConstraintSystem> &Ps,
                               const ConstraintSystem &Ctx) {
    std::vector<CgExpr> Lbs, Ubs;
    for (const ConstraintSystem &P : Ps) {
      DimBounds B = splitBounds(P, Level);
      std::vector<CgExpr> L, U;
      if (B.HasEq) {
        L.push_back(CgExpr::ceild(
            rowToAffine(B.EqRow, static_cast<int>(Level), BigInt(-1)),
            B.EqRow[Level]));
        U.push_back(CgExpr::floord(
            rowToAffine(B.EqRow, static_cast<int>(Level), BigInt(-1)),
            B.EqRow[Level]));
      }
      for (const auto &Row : B.Lower)
        L.push_back(lowerExpr(Row, Level));
      for (const auto &Row : B.Upper)
        U.push_back(upperExpr(Row, Level));
      if (L.empty() || U.empty()) {
        fail("unbounded loop dimension " + CName[Level]);
        return CgNode::block();
      }
      Lbs.push_back(CgExpr::makeMax(std::move(L)));
      Ubs.push_back(CgExpr::makeMin(std::move(U)));
    }
    CgNodePtr Loop = CgNode::loop(CName[Level], CgExpr::makeMin(Lbs),
                                  CgExpr::makeMax(Ubs));
    annotateLoop(*Loop, Level);
    Loop->Children.push_back(genLevel(Level + 1, Active, Ctx));
    return Loop;
  }

  void annotateLoop(CgNode &Loop, unsigned Level) const {
    Loop.Parallel = Opts.ParallelPragmaRows.count(Level) != 0;
    Loop.Vector = S.Rows[Level].IsVector && S.Rows[Level].IsParallel;
    if (Loop.Parallel)
      Loop.Reductions = S.Rows[Level].Reductions;
  }

  CgNodePtr emitLoopForRegion(unsigned Level, const ConstraintSystem &Region,
                              const std::vector<unsigned> &Stmts,
                              const ConstraintSystem &Ctx) {
    DimBounds B = splitBounds(Region, Level);
    std::vector<CgCond> Conds = condsFromRows(B);

    ConstraintSystem InnerCtx = ConstraintSystem::intersection(Ctx, Region);
    InnerCtx.normalize();

    CgNodePtr Body;
    if (B.HasEq) {
      // Exact assignment with a divisibility guard when the coefficient is
      // not 1: k*c + rest == 0 -> c = (-rest)/k.
      const BigInt &K = B.EqRow[Level];
      CgExpr Value = CgExpr::floord(
          rowToAffine(B.EqRow, static_cast<int>(Level), BigInt(-1)), K);
      if (!K.isOne()) {
        CgCond Div;
        Div.Expr = rowToAffine(B.EqRow, static_cast<int>(Level), BigInt(-1));
        Div.Mod = K;
        Conds.push_back(std::move(Div));
      }
      // Inequalities involving c become guards (after the assignment the
      // variable is defined; emit them inside).
      CgNodePtr Let = CgNode::let(CName[Level], std::move(Value));
      std::vector<CgCond> InnerConds;
      for (const auto &Row : B.Lower) {
        CgCond C;
        C.Expr = rowToAffine(Row, -1, BigInt(1));
        InnerConds.push_back(std::move(C));
      }
      for (const auto &Row : B.Upper) {
        CgCond C;
        C.Expr = rowToAffine(Row, -1, BigInt(1));
        InnerConds.push_back(std::move(C));
      }
      CgNodePtr Inner = genLevel(Level + 1, Stmts, InnerCtx);
      if (!InnerConds.empty()) {
        CgNodePtr Guard = CgNode::guard(std::move(InnerConds));
        Guard->Children.push_back(std::move(Inner));
        Inner = std::move(Guard);
      }
      Let->Children.push_back(std::move(Inner));
      Body = std::move(Let);
    } else {
      std::vector<CgExpr> L, U;
      for (const auto &Row : B.Lower)
        L.push_back(lowerExpr(Row, Level));
      for (const auto &Row : B.Upper)
        U.push_back(upperExpr(Row, Level));
      if (L.empty() || U.empty()) {
        fail("unbounded loop dimension " + CName[Level]);
        return CgNode::block();
      }
      CgNodePtr Loop = CgNode::loop(CName[Level], CgExpr::makeMax(L),
                                    CgExpr::makeMin(U));
      annotateLoop(*Loop, Level);
      Loop->Children.push_back(genLevel(Level + 1, Stmts, InnerCtx));
      Body = std::move(Loop);
    }

    if (Conds.empty())
      return Body;
    CgNodePtr Guard = CgNode::guard(std::move(Conds));
    Guard->Children.push_back(std::move(Body));
    return Guard;
  }

  //===------------------------------------------------------------------===//
  // Leaves: statement guards + iterator recovery
  //===------------------------------------------------------------------===//

  CgNodePtr genLeaf(const std::vector<unsigned> &Active,
                    const ConstraintSystem &Ctx) {
    // Statement guards: whatever of each full projection the context does
    // not already imply (empty in separated code).
    std::vector<ConstraintSystem> Guards = gistProjections(Active, D, Ctx);
    CgNodePtr Block = CgNode::block();
    for (unsigned I = 0; I < Active.size(); ++I)
      Block->Children.push_back(genStmtLeaf(Active[I], Guards[I], Ctx));
    return Block;
  }

  /// Extended-layout variant of rowToAffine for statement St.
  CgExpr extRowToAffine(unsigned St, const std::vector<BigInt> &Row, int Skip,
                        const BigInt &Scale) const {
    const ScopStmt &Stmt = S.Stmts[St];
    unsigned M = static_cast<unsigned>(Stmt.IterNames.size());
    std::vector<std::pair<std::string, BigInt>> Terms;
    for (unsigned C = 0; C < D + M + NP; ++C) {
      if (static_cast<int>(C) == Skip || Row[C].isZero())
        continue;
      std::string Name;
      if (C < D) {
        assert(!CName[C].empty() && "scalar dim in leaf expression");
        Name = CName[C];
      } else if (C < D + M) {
        Name = Stmt.IterNames[C - D];
      } else {
        Name = S.Prog->ParamNames[C - D - M];
      }
      Terms.push_back({Name, Row[C] * Scale});
    }
    return CgExpr::affine(std::move(Terms), Row[D + M + NP] * Scale);
  }

  /// The bounds of each iterator of statement St: the iterators are
  /// eliminated innermost-out and each one's bound rows are collected
  /// before it disappears. With Ctx, the context's rows are folded in
  /// first. They have no iterator column, so no iterator's rows change:
  /// an equality substitution leaves them as they are, Fourier-Motzkin
  /// never pairs them, and normalize() can merge them only with rows that
  /// have no iterator column either, which splitBoundsExt never reads.
  std::vector<DimBounds>
  recoverIterators(unsigned St, const ConstraintSystem *Ctx = nullptr) const {
    unsigned M = static_cast<unsigned>(S.Stmts[St].IterNames.size());
    ConstraintSystem CS = Ext[St];
    for (unsigned R = 0; Ctx && R < Ctx->ineqs().numRows(); ++R) {
      std::vector<BigInt> Row(D + M + NP + 1, BigInt(0));
      const std::vector<BigInt> &Src = Ctx->ineqs().row(R);
      for (unsigned C = 0; C < D; ++C)
        Row[C] = Src[C];
      for (unsigned P = 0; P < NP; ++P)
        Row[D + M + P] = Src[D + P];
      Row[D + M + NP] = Src[D + NP];
      CS.addIneq(std::move(Row));
    }
    CS.normalize();
    std::vector<DimBounds> Bounds(M);
    for (unsigned K = M; K-- > 0;) {
      unsigned Col = D + K;
      Bounds[K] = splitBoundsExt(CS, Col);
      CS.projectOut(Col, 1);
      CS.insertDims(Col, 1);
    }
    return Bounds;
  }

  CgNodePtr genStmtLeaf(unsigned St, const ConstraintSystem &Guard,
                        [[maybe_unused]] const ConstraintSystem &Ctx) {
    const ScopStmt &Stmt = S.Stmts[St];
    unsigned M = static_cast<unsigned>(Stmt.IterNames.size());

    std::vector<CgCond> Conds;
    for (unsigned R = 0; R < Guard.ineqs().numRows(); ++R) {
      CgCond C;
      C.Expr = rowToAffine(Guard.ineqs().row(R), -1, BigInt(1));
      Conds.push_back(std::move(C));
    }
    // (Equality guard rows cannot appear: the projection's equalities over
    // [c|params] are preserved by gist and imply themselves; keep them as
    // paired inequalities if they ever survive.)
    for (unsigned R = 0; R < Guard.eqs().numRows(); ++R) {
      CgCond C1, C2;
      C1.Expr = rowToAffine(Guard.eqs().row(R), -1, BigInt(1));
      C2.Expr = rowToAffine(Guard.eqs().row(R), -1, BigInt(-1));
      Conds.push_back(std::move(C1));
      Conds.push_back(std::move(C2));
    }

    if (!IterBounds[St])
      IterBounds[St] = recoverIterators(St);
    const std::vector<DimBounds> &Bounds = *IterBounds[St];
    assert(recoverIterators(St, &Ctx) == Bounds &&
           "the leaf context changed an iterator's bounds");

    // Build the chain outermost-in.
    CgNodePtr Call = CgNode::call(St, {});
    for (unsigned P : Stmt.OrigIterPos)
      Call->Args.push_back(
          CgExpr::affine({{Stmt.IterNames[P], BigInt(1)}}, BigInt(0)));
    CgNodePtr Chain = std::move(Call);
    for (unsigned K = M; K-- > 0;) {
      const DimBounds &B = Bounds[K];
      const std::string &Name = Stmt.IterNames[K];
      unsigned Col = D + K;
      CgNodePtr Node;
      std::vector<CgCond> DimConds;
      if (B.HasEq) {
        const BigInt &Coef = B.EqRow[Col];
        CgExpr Value = CgExpr::floord(
            extRowToAffine(St, B.EqRow, static_cast<int>(Col), BigInt(-1)),
            Coef);
        if (!Coef.isOne()) {
          CgCond Div;
          Div.Expr = extRowToAffine(St, B.EqRow, static_cast<int>(Col),
                                    BigInt(-1));
          Div.Mod = Coef;
          DimConds.push_back(std::move(Div));
        }
        Node = CgNode::let(Name, std::move(Value));
        // Remaining inequality rows on this iterator become guards inside.
        std::vector<CgCond> Inner;
        for (const auto &Row : B.Lower) {
          CgCond C;
          C.Expr = extRowToAffine(St, Row, -1, BigInt(1));
          Inner.push_back(std::move(C));
        }
        for (const auto &Row : B.Upper) {
          CgCond C;
          C.Expr = extRowToAffine(St, Row, -1, BigInt(1));
          Inner.push_back(std::move(C));
        }
        if (!Inner.empty()) {
          CgNodePtr G = CgNode::guard(std::move(Inner));
          G->Children.push_back(std::move(Chain));
          Chain = std::move(G);
        }
        Node->Children.push_back(std::move(Chain));
      } else {
        std::vector<CgExpr> L, U;
        for (const auto &Row : B.Lower)
          L.push_back(CgExpr::ceild(
              extRowToAffine(St, Row, static_cast<int>(Col), BigInt(-1)),
              Row[Col]));
        for (const auto &Row : B.Upper)
          U.push_back(CgExpr::floord(
              extRowToAffine(St, Row, static_cast<int>(Col), BigInt(1)),
              -Row[Col]));
        if (L.empty() || U.empty()) {
          fail("unbounded statement iterator " + Name);
          return CgNode::block();
        }
        Node = CgNode::loop(Name, CgExpr::makeMax(L), CgExpr::makeMin(U));
        Node->Children.push_back(std::move(Chain));
      }
      if (!DimConds.empty()) {
        CgNodePtr G = CgNode::guard(std::move(DimConds));
        G->Children.push_back(std::move(Node));
        Node = std::move(G);
      }
      Chain = std::move(Node);
    }

    if (Conds.empty())
      return Chain;
    CgNodePtr GuardNode = CgNode::guard(std::move(Conds));
    GuardNode->Children.push_back(std::move(Chain));
    return GuardNode;
  }

  /// splitBounds over the extended layout (only rows touching Col are
  /// classified; others are ignored - they surface at their own dims).
  DimBounds splitBoundsExt(const ConstraintSystem &CS, unsigned Col) const {
    DimBounds B;
    for (unsigned R = 0; R < CS.eqs().numRows(); ++R) {
      std::vector<BigInt> Row = CS.eqs().row(R);
      if (Row[Col].isZero())
        continue;
      if (Row[Col].isNegative())
        for (BigInt &V : Row)
          V = -V;
      if (!B.HasEq || Row[Col] < B.EqRow[Col]) {
        B.EqRow = std::move(Row);
        B.HasEq = true;
      }
    }
    if (B.HasEq)
      return B;
    for (unsigned R = 0; R < CS.ineqs().numRows(); ++R) {
      const std::vector<BigInt> &Row = CS.ineqs().row(R);
      if (Row[Col].isZero())
        continue;
      if (Row[Col].isPositive())
        B.Lower.push_back(Row);
      else
        B.Upper.push_back(Row);
    }
    return B;
  }
};

} // namespace

Result<CgNodePtr> pluto::generateAst(const Scop &S,
                                     const CodeGenOptions &Opts) {
  Generator G(S, Opts);
  auto Ast = G.run();
  if (Ast && *Ast)
    dropNestedParallelPragmas(**Ast);
  return Ast;
}
