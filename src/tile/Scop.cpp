//===- tile/Scop.cpp - Scheduled program for tiling & codegen -------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "tile/Scop.h"

using namespace pluto;

Scop pluto::buildScop(const Program &Prog, const Schedule &Sched) {
  Scop S;
  S.Prog = &Prog;
  S.Rows = Sched.Rows;
  unsigned NP = Prog.numParams();
  for (unsigned St = 0; St < Prog.Stmts.size(); ++St) {
    const Statement &Stmt = Prog.Stmts[St];
    ScopStmt CS;
    CS.Id = St;
    CS.IterNames = Stmt.IterNames;
    CS.Domain = Stmt.Domain;
    unsigned M = Stmt.numIters();
    CS.Scatter = IntMatrix(Sched.numRows(), M + NP + 1);
    const IntMatrix &T = Sched.StmtRows[St];
    for (unsigned R = 0; R < Sched.numRows(); ++R) {
      for (unsigned I = 0; I < M; ++I)
        CS.Scatter(R, I) = T(R, I);
      CS.Scatter(R, M + NP) = T(R, M); // c0; params carry no coefficients.
    }
    for (unsigned I = 0; I < M; ++I)
      CS.OrigIterPos.push_back(I);
    S.Stmts.push_back(std::move(CS));
  }
  return S;
}

std::vector<LoopClass> pluto::classifyLoops(const Scop &Sc) {
  std::vector<LoopClass> Classes(Sc.numRows(), LoopClass::Sequential);
  for (const Schedule::Band &B : Sc.bands()) {
    bool AnyParallel = false;
    for (unsigned Row = B.Start; Row < B.Start + B.Width; ++Row)
      AnyParallel |= Sc.Rows[Row].IsParallel;
    if (AnyParallel)
      for (unsigned Row = B.Start; Row < B.Start + B.Width; ++Row)
        Classes[Row] = LoopClass::Pipeline;
  }
  for (unsigned Row = 0; Row < Sc.numRows(); ++Row)
    if (Sc.Rows[Row].IsScalar)
      Classes[Row] = LoopClass::Scalar;
    else if (Sc.Rows[Row].IsParallel)
      Classes[Row] = LoopClass::Parallel;
  return Classes;
}

std::string Scop::toString() const {
  std::string Out;
  for (const ScopStmt &St : Stmts) {
    Out += "S" + std::to_string(St.Id) + " iters:";
    for (const std::string &N : St.IterNames)
      Out += " " + N;
    Out += "\n domain:\n";
    std::vector<std::string> Names = St.IterNames;
    if (Prog)
      Names.insert(Names.end(), Prog->ParamNames.begin(),
                   Prog->ParamNames.end());
    Out += St.Domain.toString(Names);
    Out += " scatter:\n" + St.Scatter.toString();
  }
  return Out;
}
