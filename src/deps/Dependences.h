//===- deps/Dependences.h - Polyhedral dependence analysis ------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact polyhedral dependence analysis (the role of LooPo's dependence
/// tester; paper Section 2.1). For every pair of accesses to the same array
/// with at least one write, and every possible carrying level, a dependence
/// polyhedron P_e over [source iters | target iters | params | 1] is built
/// from the two domains, the access-equality rows, the lexicographic
/// ordering at that level and the program context; integer-empty candidates
/// are discarded with the exact ILP test. Read-after-read (input)
/// dependences are also collected (paper Section 4.1): they carry no
/// ordering constraint and participate only in the cost bounding.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_DEPS_DEPENDENCES_H
#define PLUTOPP_DEPS_DEPENDENCES_H

#include "ir/Program.h"

#include <string>
#include <vector>

namespace pluto {

enum class DepKind {
  Flow,   ///< Write -> read (RAW).
  Anti,   ///< Read -> write (WAR).
  Output, ///< Write -> write (WAW).
  Input,  ///< Read -> read (RAR); no legality constraint.
};

const char *depKindName(DepKind K);

/// One dependence edge of the data dependence graph.
struct Dependence {
  unsigned SrcStmt = 0;
  unsigned DstStmt = 0;
  unsigned SrcAcc = 0; ///< Index into source statement's Accesses.
  unsigned DstAcc = 0;
  DepKind Kind = DepKind::Flow;
  /// Loop level carrying the dependence: 1-based depth into the common
  /// nest, or 0 for a loop-independent dependence. Input dependences use 0.
  unsigned CarryLevel = 0;
  /// Polyhedron over [src iters | dst iters | params | 1].
  ConstraintSystem Poly;

  /// Bookkeeping for the transformation framework: the transformed-space
  /// level (row) at which the dependence became strongly satisfied, or -1.
  int SatisfiedAtRow = -1;

  /// True for self dependences of an associative compound assignment
  /// (`x += e`, `-=`, `*=` with x not read by e): the paper's framework must
  /// still honor them when choosing transformations, but a loop that carries
  /// only reduction dependences can run parallel under an OpenMP
  /// `reduction(Op:x)` clause, so parallelism detection ignores them.
  bool IsReduction = false;
  /// Reduction operator ('+', '-', '*'); meaningful when IsReduction.
  char RedOp = 0;

  bool isLegalityDep() const { return Kind != DepKind::Input; }
  bool satisfied() const { return SatisfiedAtRow >= 0; }
};

/// The data dependence graph of a program.
class DependenceGraph {
public:
  std::vector<Dependence> Deps;

  /// Strongly connected components of the statement graph induced by the
  /// not-yet-satisfied legality dependences; Result[stmt] is a component id
  /// numbered in topological order (sources first).
  std::vector<unsigned> sccIds(unsigned NumStmts) const;
  /// Number of distinct component ids returned by sccIds.
  unsigned numSccs(unsigned NumStmts) const;

  /// Weakly connected components of the statement graph induced by EVERY
  /// edge, input (RAR) dependences included: statements in different
  /// components share no constraint of the transformation ILP - neither
  /// legality nor the cost bounding - so the scheduler can solve them as
  /// independent sub-problems (the clustered decomposition). Components are
  /// ordered by their smallest statement id and list members ascending;
  /// statements touched by no dependence form singleton components.
  std::vector<std::vector<unsigned>> weakComponents(unsigned NumStmts) const;

  /// Edges with Kind != Input.
  unsigned numLegalityDeps() const;

  std::string toString(const Program &Prog) const;
};

/// Options for dependence computation.
struct DepOptions {
  /// Collect read-after-read dependences (paper Section 4.1). Costly on
  /// read-heavy stencils but enables reuse-driven fusion (the paper's MVT
  /// experiment). Only arrays of maximal rank (the asymptotically dominant
  /// data) get them: O(N) vector reuse (e.g. y1/x1 in MVT) would force a
  /// parametric reuse bound on every hyperplane, and the cost function
  /// could no longer see the O(N^2) reuse on the matrix.
  bool IncludeInputDeps = true;
  /// Worker threads for the per-access-pair loop: 0 uses the OpenMP
  /// default, 1 forces serial execution. The result is bit-identical for
  /// every thread count (pairs are emitted in the serial iteration order).
  int NumThreads = 0;
};

/// Computes the dependence graph of Prog.
DependenceGraph computeDependences(const Program &Prog,
                                   const DepOptions &Opts = DepOptions());

} // namespace pluto

#endif // PLUTOPP_DEPS_DEPENDENCES_H
