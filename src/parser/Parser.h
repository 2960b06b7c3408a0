//===- parser/Parser.h - Restricted-C frontend ------------------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Frontend that turns the affine loop-nest subset of C into the polyhedral
/// IR (the role of LooPo's scanner/parser in the original tool-chain).
///
/// Accepted input: sequences of possibly imperfectly nested
///   for (i = LB; i <= UB; i++) { ... }
/// loops (also `<`, `++i`, `i += 1`, `i = i + 1`; `max(...)` in lower and
/// `min(...)` in upper bounds), whose bodies are assignment statements
/// `lhs = expr;` (also `+=`, `-=`, `*=`) with affine array subscripts.
/// Simple declarations are skipped; `#pragma` lines and comments ignored.
///
/// Name classification: loop-bound names are iterators; subscripted names
/// (or scalar assignment targets) are arrays; remaining names used in bounds
/// or subscripts are integer parameters; remaining names read in bodies are
/// opaque runtime constants (SymConsts, e.g. `coeff1` in the paper's FDTD
/// kernel) that take part in no dependence.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_PARSER_PARSER_H
#define PLUTOPP_PARSER_PARSER_H

#include "ir/Program.h"
#include "parser/Diagnostics.h"
#include "support/Result.h"

#include <optional>
#include <string>

namespace pluto {

/// Parsed program plus frontend side information.
struct ParsedProgram {
  Program Prog;
  /// Names of double-valued opaque constants read by statement bodies.
  std::vector<std::string> SymConsts;
};

/// Outcome of one frontend pass: the program when the input was clean, and
/// every diagnostic either way. The frontend recovers at statement/loop
/// boundaries, so Diags lists all problems of the input, each with a
/// 1-based line:column span, not just the first.
struct ParseResult {
  std::optional<ParsedProgram> Program;
  std::vector<Diagnostic> Diags;

  bool ok() const { return Program.has_value(); }
};

/// Parses Source into the polyhedral IR with full error recovery.
ParseResult parseSourceDiags(const std::string &Source);

} // namespace pluto

#endif // PLUTOPP_PARSER_PARSER_H
