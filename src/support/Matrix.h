//===- support/Matrix.h - Dense integer matrices -----------------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense row-major matrix template used for constraint systems, affine access
/// functions, transformation matrices and the Farkas products. Rows can be
/// appended/removed cheaply; columns are fixed per matrix but helpers exist
/// to insert columns (needed when domains gain supernode dimensions during
/// tiling, Algorithm 1 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SUPPORT_MATRIX_H
#define PLUTOPP_SUPPORT_MATRIX_H

#include "support/BigInt.h"

#include <cassert>
#include <initializer_list>
#include <string>
#include <vector>

namespace pluto {

/// Dense row-major matrix over integer entries T (BigInt).
template <typename T> class Matrix {
public:
  Matrix() : Cols(0) {}
  explicit Matrix(unsigned NumCols) : Cols(NumCols) {}
  Matrix(unsigned NumRows, unsigned NumCols) : Cols(NumCols) {
    Data.resize(NumRows, std::vector<T>(NumCols, T(0)));
  }
  /// Builds a matrix from int literals, e.g. {{1, 0}, {0, 1}}.
  Matrix(std::initializer_list<std::initializer_list<long long>> Rows)
      : Cols(0) {
    for (const auto &R : Rows) {
      if (Cols == 0)
        Cols = static_cast<unsigned>(R.size());
      assert(R.size() == Cols && "ragged initializer");
      std::vector<T> Row;
      Row.reserve(Cols);
      for (long long V : R)
        Row.push_back(T(V));
      Data.push_back(std::move(Row));
    }
  }

  static Matrix identity(unsigned N) {
    Matrix M(N, N);
    for (unsigned I = 0; I < N; ++I)
      M(I, I) = T(1);
    return M;
  }

  unsigned numRows() const { return static_cast<unsigned>(Data.size()); }
  unsigned numCols() const { return Cols; }
  bool empty() const { return Data.empty(); }

  T &operator()(unsigned R, unsigned C) {
    assert(R < numRows() && C < Cols && "matrix index out of range");
    return Data[R][C];
  }
  const T &operator()(unsigned R, unsigned C) const {
    assert(R < numRows() && C < Cols && "matrix index out of range");
    return Data[R][C];
  }

  std::vector<T> &row(unsigned R) {
    assert(R < numRows());
    return Data[R];
  }
  const std::vector<T> &row(unsigned R) const {
    assert(R < numRows());
    return Data[R];
  }

  void addRow(std::vector<T> Row) {
    assert(Row.size() == Cols && "row width mismatch");
    Data.push_back(std::move(Row));
  }
  void addZeroRow() { Data.push_back(std::vector<T>(Cols, T(0))); }
  void insertRow(unsigned Pos, std::vector<T> Row) {
    assert(Pos <= numRows() && Row.size() == Cols);
    Data.insert(Data.begin() + Pos, std::move(Row));
  }
  void removeRow(unsigned R) {
    assert(R < numRows());
    Data.erase(Data.begin() + R);
  }
  void clearRows() { Data.clear(); }
  /// Keeps the first NumRows rows.
  void truncateRows(unsigned NumRows) {
    assert(NumRows <= numRows());
    Data.resize(NumRows);
  }

  /// Inserts Count zero columns starting at position Pos in every row.
  void insertZeroColumns(unsigned Pos, unsigned Count) {
    assert(Pos <= Cols && "column insert position out of range");
    for (auto &Row : Data)
      Row.insert(Row.begin() + Pos, Count, T(0));
    Cols += Count;
  }

  /// Removes every column C with Drop[C] set (Drop has one flag per
  /// column), keeping the order of the others.
  void eraseColumns(const std::vector<bool> &Drop) {
    assert(Drop.size() == Cols && "column mask width mismatch");
    unsigned Kept = 0;
    for (unsigned C = 0; C < Cols; ++C)
      Kept += !Drop[C];
    if (Kept == Cols)
      return;
    for (auto &Row : Data) {
      unsigned Out = 0;
      for (unsigned C = 0; C < Cols; ++C) {
        if (Drop[C])
          continue;
        if (Out != C)
          Row[Out] = std::move(Row[C]);
        ++Out;
      }
      Row.resize(Kept);
    }
    Cols = Kept;
  }

  /// Matrix product; asserts dimension compatibility. Zero entries of
  /// either factor are skipped: row K of RHS is read through the list of
  /// its nonzero columns, NonZero[Start[K]] .. NonZero[Start[K + 1]] - 1
  /// (the Farkas forms multiplied here are almost all zeros).
  Matrix operator*(const Matrix &RHS) const {
    assert(Cols == RHS.numRows() && "matrix product dimension mismatch");
    std::vector<unsigned> Start(1, 0), NonZero;
    for (const std::vector<T> &Row : RHS.Data) {
      for (unsigned J = 0; J < RHS.Cols; ++J)
        if (!Row[J].isZero())
          NonZero.push_back(J);
      Start.push_back(static_cast<unsigned>(NonZero.size()));
    }
    Matrix R(numRows(), RHS.numCols());
    for (unsigned I = 0; I < numRows(); ++I)
      for (unsigned K = 0; K < Cols; ++K) {
        const T &A = Data[I][K];
        if (A.isZero())
          continue;
        for (unsigned N = Start[K]; N < Start[K + 1]; ++N)
          R.Data[I][NonZero[N]] += A * RHS.Data[K][NonZero[N]];
      }
    return R;
  }

  Matrix transpose() const {
    Matrix R(Cols, numRows());
    for (unsigned I = 0; I < numRows(); ++I)
      for (unsigned J = 0; J < Cols; ++J)
        R(J, I) = Data[I][J];
    return R;
  }

  bool operator==(const Matrix &RHS) const {
    return Cols == RHS.Cols && Data == RHS.Data;
  }
  bool operator!=(const Matrix &RHS) const { return !(*this == RHS); }

  std::string toString() const {
    std::string S;
    for (unsigned I = 0; I < numRows(); ++I) {
      S += "[";
      for (unsigned J = 0; J < Cols; ++J) {
        if (J)
          S += " ";
        S += Data[I][J].toString();
      }
      S += "]\n";
    }
    return S;
  }

private:
  unsigned Cols;
  std::vector<std::vector<T>> Data;
};

using IntMatrix = Matrix<BigInt>;

} // namespace pluto

#endif // PLUTOPP_SUPPORT_MATRIX_H
