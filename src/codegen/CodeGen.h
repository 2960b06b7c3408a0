//===- codegen/CodeGen.h - Polyhedral code generation -----------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Polyhedral scanning code generator (the role of CLooG, paper Section 5):
/// given per-statement domains and scattering functions, produce a loop AST
/// that visits every statement instance in the lexicographic order of its
/// scattering value.
///
/// The algorithm is Quillere-Rajopadhye-Wilde style: per level, project
/// every active statement's extended system {(c, i) : c = T_S(i), i in D_S}
/// onto the outer dimensions, separate the projections into disjoint
/// regions, sort the regions, and recurse. Equality-determined dimensions
/// become exact integer assignments with divisibility guards; scalar
/// scattering dimensions become pure statement ordering. If separation
/// would explode (or regions cannot be totally ordered), the generator
/// falls back to a single loop over the union with per-statement guards at
/// the leaves - always correct, merely slower code.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_CODEGEN_CODEGEN_H
#define PLUTOPP_CODEGEN_CODEGEN_H

#include "codegen/Ast.h"
#include "support/Result.h"
#include "tile/Scop.h"

#include <set>

namespace pluto {

/// generateAst()'s knobs. Pipeline::lowerSchedule picks the pragma rows
/// when parallelization is on; benches and tests reach guard mode and
/// explicit pragma rows by calling generateAst() directly.
struct CodeGenOptions {
  /// Disable to force guard mode everywhere.
  bool EnableSeparation = true;
  /// Scattering rows whose loops get "#pragma omp parallel for".
  std::set<unsigned> ParallelPragmaRows;
};

/// Generates the loop AST scanning Scop. Fails only on malformed input
/// (e.g. statements with inconsistent scattering widths).
Result<CgNodePtr> generateAst(const Scop &S,
                              const CodeGenOptions &Opts = CodeGenOptions());

} // namespace pluto

#endif // PLUTOPP_CODEGEN_CODEGEN_H
