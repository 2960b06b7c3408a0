//===- support/StressGen.h - Synthetic scheduler stress programs -*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic generator of large restricted-C programs for scheduler
/// scaling experiments (bench_schedule, ci-sanitize.sh, the E9 table).
///
/// A generated program is a textual concatenation of independent "clusters":
/// small loop-nest idioms (pointwise map, j-carried recurrence, 2-d stencil,
/// producer/consumer chain, shared-read pair, producer + recurrence) whose
/// arrays and iterators are namespaced per cluster so no dependence crosses
/// a cluster boundary. The dependence graph therefore decomposes into
/// weakly connected components of 1-2 statements each, which is exactly the
/// shape clustered decomposition (one of TransformOptions::FastPaths)
/// exploits - while the exact monolithic path must still solve one ILP over
/// all statements, making the corpus a sharp A/B for the fast paths.
///
/// The generator is seeded by a hand-rolled LCG (no <random>, whose output
/// is implementation-defined) so the same (NumStatements, Seed) pair yields
/// byte-identical source on every platform and run.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SUPPORT_STRESSGEN_H
#define PLUTOPP_SUPPORT_STRESSGEN_H

#include <string>

namespace pluto {

/// Returns a restricted-C program (the dialect of examples/*.c) with exactly
/// \p NumStatements assignment statements, all in 2-d loop nests over a
/// single size parameter N. Deterministic in (NumStatements, Seed).
std::string generateStressProgram(unsigned NumStatements,
                                  unsigned long long Seed = 1);

} // namespace pluto

#endif // PLUTOPP_SUPPORT_STRESSGEN_H
