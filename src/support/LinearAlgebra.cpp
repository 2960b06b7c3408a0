//===- support/LinearAlgebra.cpp - Rank and orthogonal space --------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "support/LinearAlgebra.h"

#include "support/CheckedEntry.h"

#include <algorithm>

using namespace pluto;

/// Zeroes column Col of Row against Pivot without fractions: Row becomes
/// P * Row - F * Pivot, for P = Pivot[Col] and F = Row[Col], divided by
/// the gcd of its entries.
static void eliminate(std::vector<BigInt> &Row,
                      const std::vector<BigInt> &Pivot, unsigned Col) {
  BigInt P = Pivot[Col], F = Row[Col];
  for (unsigned C = 0; C < Row.size(); ++C)
    Row[C] = P * Row[C] - F * Pivot[C];
  checked::normalizeByGcd(Row);
}

unsigned pluto::rank(const IntMatrix &M) {
  // Reduce a copy to row echelon form by fraction-free elimination.
  IntMatrix E = M;
  unsigned Rank = 0;
  for (unsigned Col = 0; Col < E.numCols() && Rank < E.numRows(); ++Col) {
    unsigned Pivot = Rank;
    while (Pivot < E.numRows() && E(Pivot, Col).isZero())
      ++Pivot;
    if (Pivot == E.numRows())
      continue;
    std::swap(E.row(Pivot), E.row(Rank));
    for (unsigned R = Rank + 1; R < E.numRows(); ++R)
      if (!E(R, Col).isZero())
        eliminate(E.row(R), E.row(Rank), Col);
    ++Rank;
  }
  return Rank;
}

IntMatrix pluto::orthogonalComplement(const IntMatrix &H) {
  unsigned K = H.numRows(), N = H.numCols();
  if (K == 0)
    return IntMatrix::identity(N);

  // Gauss-Jordan over the integers on A = [H H^T | H]. H H^T is positive
  // definite, so each diagonal pivot is positive, and eliminate() scales
  // the rows whose pivot is done by positive factors only. Row I ends as
  // (D_I e_I | W_I) with D_I > 0 and W_I = D_I ((H H^T)^{-1} H)_I.
  IntMatrix A = H * H.transpose();
  A.insertZeroColumns(K, N);
  for (unsigned I = 0; I < K; ++I)
    std::copy(H.row(I).begin(), H.row(I).end(), A.row(I).begin() + K);
  for (unsigned Col = 0; Col < K; ++Col) {
    assert(A(Col, Col).isPositive() &&
           "orthogonalComplement requires full row-rank H");
    for (unsigned R = 0; R < K; ++R)
      if (R != Col && !A(R, Col).isZero())
        eliminate(A.row(R), A.row(Col), Col);
  }

  // With L = lcm(D_I), row J of L * H_perp is
  // L e_J - sum_I H(I, J) (L / D_I) W_I. Divided by its gcd it is the
  // primitive vector the rational formula gives, since L > 0. Zero and
  // dependent rows are dropped, keeping a basis of N - K rows.
  BigInt L(1);
  for (unsigned I = 0; I < K; ++I)
    L = BigInt::lcm(L, A(I, I));
  IntMatrix Result(N);
  for (unsigned J = 0; J < N; ++J) {
    std::vector<BigInt> Row(N, BigInt(0));
    Row[J] = L;
    for (unsigned I = 0; I < K; ++I) {
      if (H(I, J).isZero())
        continue;
      BigInt F = H(I, J) * L.divExact(A(I, I));
      for (unsigned C = 0; C < N; ++C)
        Row[C] -= F * A(I, K + C);
    }
    if (std::all_of(Row.begin(), Row.end(),
                    [](const BigInt &V) { return V.isZero(); }))
      continue;
    checked::normalizeByGcd(Row);
    if (isLinearlyIndependent(Result, Row))
      Result.addRow(std::move(Row));
  }
  assert(Result.numRows() == N - K &&
         H * Result.transpose() == IntMatrix(K, N - K) &&
         "the complement has N - K rows, all orthogonal to H");
  return Result;
}

bool pluto::isLinearlyIndependent(const IntMatrix &M,
                                  const std::vector<BigInt> &Row) {
  IntMatrix Ext = M;
  Ext.addRow(Row);
  return rank(Ext) == M.numRows() + 1;
}
