//===- poly/ConstraintSystem.h - Integer polyhedra ---------------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constraint representation of (unions of) integer polyhedra: a set of
/// inequality rows a.x + c >= 0 and equality rows a.x + c == 0 over a fixed
/// number of variables. This is the workhorse type for iteration domains,
/// dependence polyhedra, Farkas systems and code-generation regions - the
/// role PolyLib plays in the original tool-chain. Projection is
/// Fourier-Motzkin (with exact equality substitution), emptiness is the
/// integer-exact ILP test, and redundancy removal / gist use implication
/// queries. We deliberately avoid the dual (generator) representation; see
/// DESIGN.md section 4.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_POLY_CONSTRAINTSYSTEM_H
#define PLUTOPP_POLY_CONSTRAINTSYSTEM_H

#include "ilp/LexMin.h"
#include "support/Matrix.h"

#include <string>
#include <vector>

namespace pluto {

/// A conjunction of affine equalities and inequalities over NumVars integer
/// variables. Rows have NumVars + 1 columns; the last column is the constant.
class ConstraintSystem {
public:
  ConstraintSystem() : NumVars(0), Ineqs(1), Eqs(1) {}
  explicit ConstraintSystem(unsigned NumVars)
      : NumVars(NumVars), Ineqs(NumVars + 1), Eqs(NumVars + 1) {}

  unsigned numVars() const { return NumVars; }
  unsigned numIneqs() const { return Ineqs.numRows(); }
  unsigned numEqs() const { return Eqs.numRows(); }

  const IntMatrix &ineqs() const { return Ineqs; }
  const IntMatrix &eqs() const { return Eqs; }

  /// Adds the inequality Row . (x, 1) >= 0.
  void addIneq(std::vector<BigInt> Row);
  /// Adds the equality Row . (x, 1) == 0.
  void addEq(std::vector<BigInt> Row);
  /// Convenience: adds an (in)equality from int64 literals.
  void addIneq(std::initializer_list<long long> Row);
  void addEq(std::initializer_list<long long> Row);

  /// Adds Lower <= x_Var (i.e. x_Var - Lower >= 0).
  void addLowerBound(unsigned Var, long long Lower);
  /// Adds x_Var <= Upper.
  void addUpperBound(unsigned Var, long long Upper);

  /// Conjunction of two systems over the same variable space.
  static ConstraintSystem intersection(const ConstraintSystem &A,
                                       const ConstraintSystem &B);
  /// Appends all constraints of Other (same variable count) to this system.
  void append(const ConstraintSystem &Other);

  /// Inserts Count fresh unconstrained variables at position Pos.
  void insertDims(unsigned Pos, unsigned Count);

  /// True iff the system has no integer solution (exact). A solve-budget
  /// abort answers false (conservatively non-empty); callers that must
  /// distinguish the abort use integerFeasibility().
  bool isIntegerEmpty() const;

  /// Tri-state integer feasibility (ilp::Feasibility::Unknown on a solve
  /// budget abort instead of the conservative answer).
  ilp::Feasibility integerFeasibility() const;

  /// True iff every integer point of this system satisfies Row.(x,1) >= 0.
  bool impliesIneq(const std::vector<BigInt> &Row) const;

  /// Projects onto all variables except [Pos, Pos+Count); the variable
  /// space shrinks by Count (columns shift left). Targets an equality
  /// involves go by exact substitution, the rest by one batch of
  /// Fourier-Motzkin steps, on int64 rows first and from the start on
  /// BigInt rows if an entry does not fit or a step overflows (both runs
  /// give the same rows). The result is the rational shadow, a superset
  /// of the integer shadow - always safe for the uses in this code base
  /// (bounds enumeration and dependence-test preprocessing).
  void projectOut(unsigned Pos, unsigned Count);

  /// Drops constraints that are implied by Context (and the remaining
  /// constraints of this system). Context has the same variable count. A
  /// row dominated by a context or remaining row with the same coefficient
  /// vector is dropped without an implication query.
  void gist(const ConstraintSystem &Context);

  /// Removes constraints implied by the remaining ones (integer-exact
  /// implication test; quadratic in the number of rows).
  void removeRedundant();

  /// Cheap cleanup: gcd-normalizes rows (tightening inequality constants),
  /// drops duplicates and trivially true rows, and collapses inequalities
  /// with identical coefficient vectors to the tightest constant (syntactic
  /// dominance). Rows keep their order. Returns false if a trivially false
  /// row was found (system is empty); a false inequality is kept as one
  /// canonical -1 >= 0 row and a contradictory system of equalities is left
  /// untouched, so the system stays empty.
  bool normalize();

  /// Renders the system for debugging; Names may name a prefix of the dims.
  std::string toString(const std::vector<std::string> &Names = {}) const;

private:
  unsigned NumVars;
  IntMatrix Ineqs;
  IntMatrix Eqs;
};

} // namespace pluto

#endif // PLUTOPP_POLY_CONSTRAINTSYSTEM_H
