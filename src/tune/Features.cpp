//===- tune/Features.cpp - Static variant features for pruning ------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "tune/Features.h"

#include <cstdio>
#include <map>
#include <set>
#include <sstream>

using namespace pluto;
using namespace pluto::tune;

uint64_t pluto::tune::countLoops(const CgNode &N) {
  uint64_t Count = N.K == CgNode::Kind::Loop ? 1 : 0;
  for (const CgNodePtr &C : N.Children)
    Count += countLoops(*C);
  return Count;
}

namespace {

/// Per-scope differentiation context for the stride walk: for every Let
/// variable in scope, its rate of change per step of the innermost
/// enclosing loop (the codegen reconstructs original iterators with Let
/// chains like `i = c2 - t; j = c3 - 2*t - i;`, so plain coefficient
/// lookup on the Call arguments would see only constants).
struct StrideCtx {
  std::map<std::string, BigInt> Coeff;
  std::set<std::string> Complex; ///< Lets bound to non-affine values
};

/// d(E)/d(Var) for an affine E, chaining through in-scope Let bindings;
/// sets Complex for non-affine expressions (floord/ceild/min/max) or
/// references to non-affine Lets. Loop variables other than Var and the
/// program parameters differentiate to zero (constant per innermost step).
BigInt coeffOf(const CgExpr &E, const std::string &Var, const StrideCtx &Ctx,
               bool &Complex) {
  if (E.K != CgExpr::Kind::Affine) {
    Complex = true;
    return BigInt(0);
  }
  BigInt C(0);
  for (const auto &T : E.Terms) {
    if (T.first == Var) {
      C += T.second;
    } else {
      auto It = Ctx.Coeff.find(T.first);
      if (It != Ctx.Coeff.end())
        C += T.second * It->second;
      if (Ctx.Complex.count(T.first))
        Complex = true;
    }
  }
  return C;
}

/// Walks the AST accumulating the stride-class census: at each Call, the
/// stride of every access's fastest-varying dimension with respect to the
/// innermost enclosing generated loop.
void censusStrides(const CgNode &N, const Program &Prog,
                   const std::string &Var, const StrideCtx &Ctx,
                   VariantFeatures &F) {
  if (N.K == CgNode::Kind::Loop) {
    // New innermost variable; everything bound outside is constant per
    // step of this loop, so the context starts fresh (lookup miss = 0).
    StrideCtx Fresh;
    for (const CgNodePtr &C : N.Children)
      censusStrides(*C, Prog, N.Var, Fresh, F);
    return;
  }
  if (N.K == CgNode::Kind::Let) {
    StrideCtx Ext = Ctx;
    bool Cx = false;
    BigInt C = coeffOf(N.Value, Var, Ctx, Cx);
    if (Cx)
      Ext.Complex.insert(N.Var);
    else
      Ext.Coeff[N.Var] = C;
    for (const CgNodePtr &Ch : N.Children)
      censusStrides(*Ch, Prog, Var, Ext, F);
    return;
  }
  if (N.K == CgNode::Kind::Call) {
    if (N.StmtId >= Prog.Stmts.size())
      return;
    const Statement &S = Prog.Stmts[N.StmtId];
    for (const Access &A : S.Accesses) {
      if (A.Map.numRows() == 0)
        continue; // scalar reference: no strided dimension
      // Stride of the fastest-varying (last) array dimension in the
      // innermost loop: the access row is over the ORIGINAL iterators, and
      // Args[j] reconstructs original iterator j from the generated loop
      // variables - compose and read off the rate of change per Var step.
      bool Complex = false;
      BigInt Stride(0);
      unsigned Last = A.Map.numRows() - 1;
      for (unsigned J = 0; J < S.numIters() && J < N.Args.size(); ++J) {
        BigInt C = A.Map(Last, J);
        if (C.isZero())
          continue;
        Stride += C * coeffOf(N.Args[J], Var, Ctx, Complex);
      }
      if (Complex)
        ++F.StrideComplex;
      else if (Var.empty() || Stride.isZero())
        ++F.StrideZero;
      else if (Stride == BigInt(1) || Stride == BigInt(-1))
        ++F.StrideUnit;
      else
        ++F.StrideStrided;
    }
    return;
  }
  for (const CgNodePtr &C : N.Children)
    censusStrides(*C, Prog, Var, Ctx, F);
}

} // namespace

VariantFeatures pluto::tune::extractFeatures(const PlutoResult &R,
                                             uint64_t CodeBytes) {
  VariantFeatures F;
  F.CodeBytes = CodeBytes;
  if (R.Ast)
    F.Loops = countLoops(*R.Ast);

  const Scop &Sc = R.Sc;
  F.Bands = Sc.bands().size();
  unsigned SchedRows = R.Sched.numRows();
  F.TileDepth = Sc.numRows() > SchedRows ? Sc.numRows() - SchedRows : 0;

  std::vector<LoopClass> Classes = classifyLoops(Sc);
  for (unsigned Row = 0; Row < Sc.numRows(); ++Row) {
    if (Classes[Row] == LoopClass::Scalar)
      continue;
    if (Sc.Rows[Row].IsVector)
      ++F.VectorLoops;
    if (Classes[Row] == LoopClass::Parallel)
      ++F.ParallelLoops;
    else if (Classes[Row] == LoopClass::Pipeline)
      ++F.PipelineLoops;
    else
      ++F.SequentialLoops;
  }

  if (R.Ast)
    censusStrides(*R.Ast, R.program(), std::string(), StrideCtx(), F);

  // Reuse proxy: where in the transformed space dependences are satisfied.
  // A dependence satisfied at row r has its source and sink separated only
  // by loops at depth >= r, so deeper satisfaction = shorter reuse
  // distance. Average the normalized depth over all satisfied edges.
  uint64_t Satisfied = 0;
  double DepthSum = 0.0;
  for (const Dependence &D : R.DG.Deps) {
    if (D.SatisfiedAtRow < 0 || SchedRows == 0)
      continue;
    ++Satisfied;
    DepthSum += static_cast<double>(D.SatisfiedAtRow + 1) / SchedRows;
  }
  F.ReuseProxy = Satisfied ? DepthSum / Satisfied : 0.0;
  return F;
}

std::string VariantFeatures::toJson() const {
  std::ostringstream OS;
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", ReuseProxy);
  OS << "{\"loops\": " << Loops << ", \"bands\": " << Bands
     << ", \"tile_depth\": " << TileDepth
     << ", \"parallel_loops\": " << ParallelLoops
     << ", \"pipeline_loops\": " << PipelineLoops
     << ", \"sequential_loops\": " << SequentialLoops
     << ", \"vector_loops\": " << VectorLoops
     << ", \"stride_zero\": " << StrideZero
     << ", \"stride_unit\": " << StrideUnit
     << ", \"stride_strided\": " << StrideStrided
     << ", \"stride_complex\": " << StrideComplex
     << ", \"reuse_proxy\": " << Buf << ", \"code_bytes\": " << CodeBytes
     << "}";
  return OS.str();
}

double pluto::tune::defaultScore(const VariantFeatures &F) {
  double S = 0.0;
  // Locality first (the paper's objective): dependences satisfied deep in
  // the transformed space mean reuse carried by inner loops.
  S += 3.0 * F.ReuseProxy;
  // Coarse-grained parallelism is a step function: one communication-free
  // outer loop saturates the cores; more adds nothing by itself.
  if (F.ParallelLoops > 0)
    S += 2.0;
  else if (F.PipelineLoops > 0)
    S += 1.0; // wavefront parallelism: usable but pays sync per front
  // Tiling at all (tile-space rows present) promises cache reuse.
  if (F.TileDepth > 0)
    S += 1.0;
  // Unit-stride fraction of the access census: streaming + vectorizable.
  uint64_t Accesses =
      F.StrideZero + F.StrideUnit + F.StrideStrided + F.StrideComplex;
  if (Accesses > 0)
    S += 1.5 * (static_cast<double>(F.StrideZero + F.StrideUnit) / Accesses);
  if (F.VectorLoops > 0)
    S += 0.5;
  // Penalize code explosion (separation blow-up): every 64 KiB of emitted
  // C beyond the first costs a little.
  if (F.CodeBytes > 65536)
    S -= 0.25 * (static_cast<double>(F.CodeBytes - 65536) / 65536.0);
  return S;
}
