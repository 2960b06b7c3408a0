//===- transform/FarkasConstraints.cpp - Farkas-based constraints ---------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "transform/FarkasConstraints.h"

#include "support/Budget.h"
#include "support/LinearAlgebra.h"

#include <algorithm>

using namespace pluto;

VarLayout::VarLayout(const Program &Prog) {
  NumParams = Prog.numParams();
  unsigned Off = 2 * (NumParams + 1); // (u, w) then (ur, wr).
  for (const Statement &S : Prog.Stmts) {
    StmtOffsets.push_back(Off);
    StmtIters.push_back(S.numIters());
    Off += S.numIters() + 1; // c coefficients then c0.
  }
  Total = Off;
}

namespace {

bool isConstantRow(const std::vector<BigInt> &Row) {
  return std::all_of(Row.begin(), Row.end() - 1,
                     [](const BigInt &V) { return V.isZero(); });
}

} // namespace

FarkasDomain::FarkasDomain(const Dependence &D, FarkasConeCache &Cones)
    : Dep(D) {
  unsigned NX = D.Poly.numVars();
  IntMatrix Ineqs = D.Poly.ineqs(), Eqs = D.Poly.eqs();
  // Row I < NX of X expresses x_I over the dimensions not yet substituted
  // (and the constant, column NX); row NX is the constant 1 itself.
  IntMatrix X = IntMatrix::identity(NX + 1);
  std::vector<bool> Gone(NX + 1, false);
  for (unsigned R = 0; R < Eqs.numRows();) {
    std::vector<BigInt> &E = Eqs.row(R);
    normalizeByGcd(E);
    if (isConstantRow(E)) {
      assert(E[NX].isZero() && "a dependence polyhedron is never empty");
      if (E[NX].isZero()) {
        Eqs.removeRow(R);
        continue;
      }
    }
    unsigned V = 0;
    while (V < NX && !E[V].isOne() && !E[V].isMinusOne())
      ++V;
    if (V == NX) {
      ++R; // No unit coefficient: the equality keeps its multiplier pair.
      continue;
    }
    // E[V] * x_V = -(the rest of E), so every row Row becomes
    // Row - Row[V] * E[V] * E, whose column V is zero.
    std::vector<BigInt> Sub = std::move(E);
    Eqs.removeRow(R);
    Gone[V] = true;
    for (IntMatrix *M : {&Ineqs, &Eqs, &X})
      for (unsigned I = 0; I < M->numRows(); ++I) {
        std::vector<BigInt> &Row = M->row(I);
        if (Row[V].isZero())
          continue;
        BigInt F = Sub[V].isOne() ? Row[V] : -Row[V];
        for (unsigned C = 0; C <= NX; ++C)
          Row[C] -= F * Sub[C];
      }
    R = 0; // Substitution may give an earlier equality a unit coefficient.
  }
  Ineqs.eraseColumns(Gone);
  Eqs.eraseColumns(Gone);
  X.eraseColumns(Gone);
  FormMap = X.transpose();

  // Exact collapse only: divide by the gcd of all entries, drop rows
  // 0 >= -c, and keep the smallest constant among rows sharing a
  // coefficient vector. No gcd tightening: it would shrink the rational
  // polyhedron the Farkas lemma is applied to.
  unsigned NY = Ineqs.numCols() - 1;
  IntMatrix Kept(NY + 1);
  for (unsigned R = 0; R < Ineqs.numRows(); ++R) {
    std::vector<BigInt> &Row = Ineqs.row(R);
    normalizeByGcd(Row);
    if (isConstantRow(Row)) {
      assert(!Row[NY].isNegative() && "a dependence polyhedron is never empty");
      if (!Row[NY].isNegative())
        continue;
    }
    unsigned K = 0;
    while (K < Kept.numRows() &&
           !std::equal(Row.begin(), Row.end() - 1, Kept.row(K).begin()))
      ++K;
    if (K == Kept.numRows())
      Kept.addRow(std::move(Row));
    else if (Row[NY] < Kept(K, NY))
      Kept(K, NY) = Row[NY];
  }
  Poly = ConstraintSystem(NY);
  for (unsigned R = 0; R < Kept.numRows(); ++R)
    Poly.addIneq(std::move(Kept.row(R)));
  for (unsigned R = 0; R < Eqs.numRows(); ++R)
    Poly.addEq(std::move(Eqs.row(R)));
  Cone = &Cones.coneOf(Poly);
}

const ConstraintSystem &
FarkasConeCache::coneOf(const ConstraintSystem &Poly) {
  unsigned NZ = Poly.numVars() + 1; // A form's coefficients over (y, 1).
  unsigned NumIneq = Poly.numIneqs(), NumEq = Poly.numEqs();
  // The key: the width and inequality count, then every row in order.
  std::vector<BigInt> Key = {BigInt(NZ), BigInt(NumIneq)};
  Key.reserve(2 + (NumIneq + NumEq) * NZ);
  for (const IntMatrix *M : {&Poly.ineqs(), &Poly.eqs()})
    for (unsigned R = 0; R < M->numRows(); ++R)
      Key.insert(Key.end(), M->row(R).begin(), M->row(R).end());
  auto [It, Fresh] = Cones.try_emplace(std::move(Key));
  if (!Fresh)
    return It->second;
  if (budgetExhausted()) // The compile is void: skip the elimination.
    return It->second = ConstraintSystem(NZ);

  // Multipliers: lambda0, one per inequality, a +/- pair per equality.
  unsigned NumLambda = 1 + NumIneq + 2 * NumEq;
  unsigned V = NZ + NumLambda;
  unsigned L0 = NZ; // Column of lambda0.
  ConstraintSystem Sys(V);
  // Coefficient matching for the identity form: for each column X of
  // (y, 1), sum_k lambda_k * A[k][X] - z_X == 0, plus lambda0 in the
  // constant column.
  for (unsigned X = 0; X < NZ; ++X) {
    std::vector<BigInt> Row(V + 1, BigInt(0));
    Row[X] = BigInt(-1);
    if (X + 1 == NZ)
      Row[L0] = BigInt(1);
    for (unsigned K = 0; K < NumIneq; ++K)
      Row[L0 + 1 + K] = Poly.ineqs()(K, X);
    for (unsigned E = 0; E < NumEq; ++E) {
      Row[L0 + 1 + NumIneq + 2 * E] = Poly.eqs()(E, X);
      Row[L0 + 1 + NumIneq + 2 * E + 1] = -Poly.eqs()(E, X);
    }
    Sys.addEq(std::move(Row));
  }
  // Non-negativity of all multipliers.
  for (unsigned K = 0; K < NumLambda; ++K) {
    std::vector<BigInt> Row(V + 1, BigInt(0));
    Row[L0 + K] = BigInt(1);
    Sys.addIneq(std::move(Row));
  }
  // Eliminate the multipliers: the coefficient-matching equalities
  // substitute most of them exactly; the rest fall to Fourier-Motzkin.
  Sys.projectOut(NZ, NumLambda);
  return It->second = std::move(Sys);
}

ConstraintSystem pluto::farkasEliminate(const FarkasDomain &Dom,
                                        const IntMatrix &FormCoeffs,
                                        unsigned NumLayoutVars) {
  assert(FormCoeffs.numRows() == Dom.Dep.Poly.numVars() + 1 &&
         "one coefficient row per dependence dim plus the constant");
  assert(FormCoeffs.numCols() == NumLayoutVars + 1 &&
         "coefficient rows are affine over the layout variables");
  // The form's coefficients over (y, 1), then the cone's rows applied to
  // them: the multipliers are already eliminated. The cone's rows are
  // homogeneous, so a zero row meets their constant column.
  IntMatrix Form = Dom.FormMap * FormCoeffs;
  Form.addZeroRow();
  IntMatrix Ineqs = Dom.Cone->ineqs() * Form, Eqs = Dom.Cone->eqs() * Form;
  ConstraintSystem Sys(NumLayoutVars);
  for (unsigned R = 0; R < Ineqs.numRows(); ++R)
    Sys.addIneq(std::move(Ineqs.row(R)));
  for (unsigned R = 0; R < Eqs.numRows(); ++R)
    Sys.addEq(std::move(Eqs.row(R)));
  Sys.normalize();
  return Sys;
}

namespace {

/// Builds the coefficient rows of delta_e = phi_dst(t) - phi_src(s) over the
/// dependence space [s | t | p | 1], as affine functions of layout vars.
/// Sign +1 produces +delta, -1 produces -delta.
IntMatrix deltaCoeffs(const Dependence &D, const Program &Prog,
                      const VarLayout &Layout, int Sign) {
  const Statement &Src = Prog.Stmts[D.SrcStmt];
  const Statement &Dst = Prog.Stmts[D.DstStmt];
  unsigned NS = Src.numIters(), NT = Dst.numIters();
  unsigned NX = D.Poly.numVars();
  IntMatrix M(NX + 1, Layout.numVars() + 1);
  BigInt S(Sign);
  for (unsigned I = 0; I < NS; ++I)
    M(I, Layout.coeffCol(D.SrcStmt, I)) -= S;
  for (unsigned J = 0; J < NT; ++J)
    M(NS + J, Layout.coeffCol(D.DstStmt, J)) += S;
  // Parameters carry no phi coefficients (paper eq. (1)).
  M(NX, Layout.stmtC0(D.DstStmt)) += S;
  M(NX, Layout.stmtC0(D.SrcStmt)) -= S;
  return M;
}

/// Adds a bounding function (u.p + w, columns starting at UOff/WOff) to
/// coefficient rows M.
void addBoundingForm(IntMatrix &M, const Dependence &D, const Program &Prog,
                     unsigned UOff, unsigned WOff) {
  const Statement &Src = Prog.Stmts[D.SrcStmt];
  const Statement &Dst = Prog.Stmts[D.DstStmt];
  unsigned NS = Src.numIters(), NT = Dst.numIters();
  unsigned NX = D.Poly.numVars();
  unsigned NP = Prog.numParams();
  assert(NX == NS + NT + NP && "unexpected dependence space layout");
  for (unsigned P = 0; P < NP; ++P)
    M(NS + NT + P, UOff + P) += BigInt(1);
  M(NX, WOff) += BigInt(1);
}

} // namespace

IntMatrix pluto::legalityForm(const Dependence &D, const Program &Prog,
                              const VarLayout &Layout) {
  assert(D.isLegalityDep() && "input dependences impose no legality");
  return deltaCoeffs(D, Prog, Layout, /*Sign=*/+1);
}

std::vector<IntMatrix> pluto::boundingForms(const Dependence &D,
                                            const Program &Prog,
                                            const VarLayout &Layout) {
  // Input dependences use the secondary bounding pair (ur, wr).
  bool IsInput = D.Kind == DepKind::Input;
  unsigned UOff = IsInput ? Layout.uRarOffset() : Layout.uOffset();
  unsigned WOff = IsInput ? Layout.wRarOffset() : Layout.wOffset();
  // u.p + w - delta >= 0 on P_e.
  std::vector<IntMatrix> Forms = {deltaCoeffs(D, Prog, Layout, /*Sign=*/-1)};
  // Input dependences may have negative components in the transformed
  // space: bound from below as well (paper Section 4.1).
  if (IsInput)
    Forms.push_back(deltaCoeffs(D, Prog, Layout, /*Sign=*/+1));
  for (IntMatrix &F : Forms)
    addBoundingForm(F, D, Prog, UOff, WOff);
  return Forms;
}

ConstraintSystem pluto::legalityConstraints(const FarkasDomain &Dom,
                                            const Program &Prog,
                                            const VarLayout &Layout) {
  return farkasEliminate(Dom, legalityForm(Dom.Dep, Prog, Layout),
                         Layout.numVars());
}

ConstraintSystem pluto::boundingConstraints(const FarkasDomain &Dom,
                                            const Program &Prog,
                                            const VarLayout &Layout) {
  ConstraintSystem Sys(Layout.numVars());
  for (const IntMatrix &Form : boundingForms(Dom.Dep, Prog, Layout))
    Sys.append(farkasEliminate(Dom, Form, Layout.numVars()));
  Sys.normalize();
  return Sys;
}
