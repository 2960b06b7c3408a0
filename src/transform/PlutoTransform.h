//===- transform/PlutoTransform.h - The Pluto algorithm ---------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's automatic transformation algorithm (Section 3): iteratively
/// find statement-wise tiling hyperplanes by solving the lexmin ILP (5) over
/// the Farkas-eliminated legality (2) and bounding (4) constraints, with
/// per-statement linear-independence constraints from the orthogonal
/// complement (6), non-negative coefficients and the trivial-solution guard
/// sum(c_i) >= 1 (Section 4.2). When no hyperplane exists the band is cut:
/// a scalar dimension orders the SCCs of the dependence graph topologically
/// (enabling fusion across weakly connected components); dependences
/// satisfied by earlier bands are then dropped from the legality set so the
/// next band can be found.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_TRANSFORM_PLUTOTRANSFORM_H
#define PLUTOPP_TRANSFORM_PLUTOTRANSFORM_H

#include "deps/Dependences.h"
#include "support/Result.h"
#include "transform/Schedule.h"

namespace pluto {

struct TransformOptions {
  /// The scheduler's three scaling fast paths, on or off together. Off is
  /// the exact monolithic search; each fast path falls back to it whenever
  /// it cannot prove it matches, so both settings give the same schedule
  /// on the supported corpus.
  ///  - Clustered decomposition: partition the dependence graph into
  ///    weakly connected clusters (every edge counts, input dependences
  ///    included), run the algorithm on cluster-local constraint systems
  ///    and stitch the per-cluster schedules back together. Clusters share
  ///    no ILP constraint, so this turns one O(all statements) lexmin into
  ///    many small ones.
  ///  - Dimension matching: before paying for a lexmin solve, propose
  ///    candidate hyperplanes by matching original loop dimensions across
  ///    statements and verify legality, zero cost and linear independence
  ///    by direct evaluation against the same Farkas-eliminated systems the
  ///    exact ILP would solve.
  ///  - Warm-started lexmin: keep the simplex tableau of the band's shared
  ///    constraint rows warm between lexmin calls (only the
  ///    linear-independence rows change from one hyperplane to the next
  ///    within a band).
  bool FastPaths = true;
};

/// Runs the Pluto algorithm. On success the returned schedule has one
/// linearly independent hyperplane per statement dimension (plus scalar
/// fusion dimensions), every legality dependence in DG is annotated with the
/// row that strongly satisfies it, and per-row parallelism and band ids are
/// filled in. DG is modified (satisfaction bookkeeping).
Result<Schedule> computeSchedule(const Program &Prog, DependenceGraph &DG,
                                 const TransformOptions &Opts = {});

/// Builds the delta row (phi_dst(t) - phi_src(s)) of schedule row R for
/// dependence D, over [dep vars | 1].
std::vector<BigInt> deltaRow(const Dependence &D, const Schedule &Sched,
                             unsigned R);

/// True if delta_R >= 1 for every point of D (strong satisfaction at R).
bool stronglySatisfiedAt(const Dependence &D, const Schedule &Sched,
                         unsigned R);
/// True if delta_R >= 0 for every point of D (weak legality at R).
bool weaklyLegalAt(const Dependence &D, const Schedule &Sched, unsigned R);
/// True if delta_R == 0 for every point of D.
bool zeroAt(const Dependence &D, const Schedule &Sched, unsigned R);

/// Recomputes SatisfiedAtRow for every legality dependence and the IsParallel
/// flags of Sched for an externally supplied (forced) schedule - used to
/// evaluate the paper's comparison transformations. Returns false if the
/// schedule is illegal (some dependence violated before being satisfied, or
/// never satisfied).
bool analyzeSchedule(const Program &Prog, DependenceGraph &DG,
                     Schedule &Sched);

/// Appends a scalar dimension ordering statements by their original textual
/// position. computeSchedule does this automatically when loop-independent
/// dependences survive all hyperplanes; externally forced (comparison)
/// schedules usually need it before analyzeSchedule accepts them.
void appendTextualOrderRow(const Program &Prog, Schedule &Sched);

/// Fills Sched.Rows[*].IsParallel from the satisfaction bookkeeping in DG:
/// a loop row R is parallel iff no legality dependence satisfied at or after
/// R has a positive component along R. Reduction-tagged self dependences
/// (Dependence::IsReduction) are exempt: a row whose only positive deltas
/// come from reduction cycles is still marked parallel, with the needed
/// `reduction(Op:Array)` clauses recorded in Rows[R].Reductions for the
/// code emitter. They still constrain every other use (legality, tiling).
void detectParallelism(const Program &Prog, const DependenceGraph &DG,
                       Schedule &Sched);

} // namespace pluto

#endif // PLUTOPP_TRANSFORM_PLUTOTRANSFORM_H
