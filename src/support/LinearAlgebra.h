//===- support/LinearAlgebra.h - Rank and orthogonal space ------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact integer linear algebra helpers used by the transformation
/// framework: row rank (to check linear independence of hyperplanes) and
/// the orthogonal complement of a row space
///   H_perp = I - H^T (H H^T)^{-1} H          (paper equation (6))
/// scaled to an integer matrix, which provides the linear-independence
/// constraints when searching for the next tiling hyperplane. Both work by
/// fraction-free elimination on integer rows, as the solvers do.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SUPPORT_LINEARALGEBRA_H
#define PLUTOPP_SUPPORT_LINEARALGEBRA_H

#include "support/Matrix.h"

namespace pluto {

/// Row rank of an integer matrix.
unsigned rank(const IntMatrix &M);

/// Orthogonal complement of the row space of H (paper eq. (6)), as an
/// integer matrix whose rows span the complement. H has full row rank by
/// construction (hyperplanes are added only when linearly independent).
/// Row J of the result is row J of H_perp scaled to a primitive integer
/// vector; zero rows and rows dependent on earlier ones are dropped, so
/// N - rank(H) rows remain. Returns the identity when H has no rows and
/// an empty matrix when H spans the full space.
IntMatrix orthogonalComplement(const IntMatrix &H);

/// True if appending Row to the row space of M increases its rank.
bool isLinearlyIndependent(const IntMatrix &M, const std::vector<BigInt> &Row);

} // namespace pluto

#endif // PLUTOPP_SUPPORT_LINEARALGEBRA_H
