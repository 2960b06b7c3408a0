//===- tile/Scop.h - Scheduled program for tiling & codegen -----*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduled form of a program: per statement, a (possibly supernode-
/// extended) iteration domain and a scattering function (paper Section 5).
/// Built from a Program + Schedule, transformed in place by the tiling and
/// wavefront passes, and finally consumed by the code generator. This is
/// the interface contract the original tool-chain has between Pluto and
/// CLooG: domains + statement-wise scatterings.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_TILE_SCOP_H
#define PLUTOPP_TILE_SCOP_H

#include "ir/Program.h"
#include "transform/Schedule.h"

#include <string>
#include <vector>

namespace pluto {

/// One statement with its (extended) domain and scattering.
struct ScopStmt {
  unsigned Id = 0;
  /// Names of the domain iterators, outermost first. Tiling prepends
  /// supernode iterators (zT...); the trailing entries remain the original
  /// loop iterators.
  std::vector<std::string> IterNames;
  /// Domain over [IterNames | params | 1].
  ConstraintSystem Domain;
  /// Scattering: one row per transformed dimension, over
  /// [IterNames | params | 1]. All statements share the same row count.
  IntMatrix Scatter;
  /// Index (into IterNames) of each ORIGINAL iterator of the statement, in
  /// original order - used to reconstruct statement-body arguments.
  std::vector<unsigned> OrigIterPos;
};

/// A scheduled program: statements plus per-row metadata.
struct Scop {
  const Program *Prog = nullptr;
  std::vector<ScopStmt> Stmts;
  /// Metadata per scattering row (shared across statements).
  std::vector<RowInfo> Rows;

  unsigned numRows() const { return static_cast<unsigned>(Rows.size()); }

  /// A permutable band of scattering rows (recomputed after each pass).
  std::vector<Schedule::Band> bands() const {
    Schedule S;
    S.Rows = Rows;
    return S.bands();
  }

  std::string toString() const;
};

/// The loop class of one scattering row: the taxonomy of the compile
/// report and of the tuner's features.
enum class LoopClass {
  Scalar,     ///< a statement-ordering row, not a loop
  Parallel,   ///< a communication-free parallel loop
  Pipeline,   ///< sequential, in a band with a parallel row: the
              ///< pipelined (wavefront) direction
  Sequential, ///< every other loop
};

/// The class of every scattering row of Sc.
std::vector<LoopClass> classifyLoops(const Scop &Sc);

/// Builds the initial Scop from a schedule: domains are the statements'
/// original domains, scatterings are the schedule rows (parameter
/// coefficients zero).
Scop buildScop(const Program &Prog, const Schedule &Sched);

} // namespace pluto

#endif // PLUTOPP_TILE_SCOP_H
