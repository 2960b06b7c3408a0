//===- support/Budget.cpp - Cooperative resource budgets ------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"

using namespace pluto;

BudgetLimits BudgetLimits::tightest(const BudgetLimits &A,
                                    const BudgetLimits &B) {
  auto Min = [](uint64_t X, uint64_t Y) {
    if (X == 0)
      return Y;
    if (Y == 0)
      return X;
    return X < Y ? X : Y;
  };
  BudgetLimits L;
  L.WallMs = Min(A.WallMs, B.WallMs);
  L.MaxMemoryBytes = Min(A.MaxMemoryBytes, B.MaxMemoryBytes);
  L.MaxWorkUnits = Min(A.MaxWorkUnits, B.MaxWorkUnits);
  return L;
}

bool Budget::checkWall() {
  if (Exhausted)
    return false;
  if (!Limits.WallMs)
    return true;
  auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  if (static_cast<uint64_t>(Elapsed) > Limits.WallMs) {
    trip("wall-clock");
    return false;
  }
  return true;
}
