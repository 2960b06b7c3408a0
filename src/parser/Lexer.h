//===- parser/Lexer.h - Tokenizer for the restricted-C frontend -*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for the affine loop-nest subset of C accepted by the frontend
/// (the role of LooPo's scanner in the original tool-chain). Handles
/// identifiers, integer/float literals, the operator/punctuation set used by
/// loop nests, and skips comments and #pragma lines.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_PARSER_LEXER_H
#define PLUTOPP_PARSER_LEXER_H

#include "parser/Diagnostics.h"

#include <string>
#include <vector>

namespace pluto {

struct Token {
  enum class Kind {
    Ident,
    IntLit,
    FloatLit,
    Punct, ///< Operators and punctuation; Text holds the spelling.
    End,
  };
  Kind K = Kind::End;
  std::string Text;
  unsigned Line = 0;
  unsigned Col = 0;

  bool is(Kind Kd) const { return K == Kd; }
  bool isPunct(const char *P) const {
    return K == Kind::Punct && Text == P;
  }
  bool isIdent(const char *Name) const {
    return K == Kind::Ident && Text == Name;
  }
};

/// Tokenizes Source. Invalid characters produce one error diagnostic each
/// (with the exact line:column span) and are skipped, so the stream always
/// covers the whole input; it ends with an End token. Source is read as
/// UTF-8: a multi-byte character outside the accepted ASCII subset is one
/// diagnostic naming its code point, and each byte that starts no
/// well-formed sequence (RFC 3629) is one "invalid UTF-8 byte" diagnostic.
/// Line/column tracking counts characters (code points, or single invalid
/// bytes): a tab occupies one column, and CR, LF and CRLF all terminate a
/// line (a CR that is part of a CRLF pair occupies no column).
std::vector<Token> tokenize(const std::string &Source,
                            std::vector<Diagnostic> &Diags);

} // namespace pluto

#endif // PLUTOPP_PARSER_LEXER_H
