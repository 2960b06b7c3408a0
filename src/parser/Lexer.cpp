//===- parser/Lexer.cpp - Tokenizer for the restricted-C frontend ---------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"

#include "support/Json.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

using namespace pluto;

/// The code point of the well-formed Len-byte UTF-8 sequence at S[I].
static unsigned decodeUtf8(const std::string &S, size_t I, size_t Len) {
  unsigned CodePoint = static_cast<unsigned char>(S[I]) & (0x7F >> Len);
  for (size_t K = 1; K < Len; ++K)
    CodePoint =
        (CodePoint << 6) | (static_cast<unsigned char>(S[I + K]) & 0x3Fu);
  return CodePoint;
}

std::vector<Token> pluto::tokenize(const std::string &Source,
                                   std::vector<Diagnostic> &Diags) {
  std::vector<Token> Tokens;
  unsigned Line = 1, Col = 1;
  size_t I = 0, N = Source.size();

  // Advances over Count characters. A character is the code point of a
  // well-formed UTF-8 sequence, or any other single byte.
  auto advance = [&](size_t Count) {
    for (size_t K = 0; K < Count && I < N; ++K) {
      char C = Source[I];
      if (C == '\n') {
        ++Line;
        Col = 1;
      } else if (C == '\r') {
        // CRLF: the CR occupies no column, the LF ends the line. A lone CR
        // (classic-Mac line ending) ends the line itself.
        if (I + 1 >= N || Source[I + 1] != '\n') {
          ++Line;
          Col = 1;
        }
      } else {
        // Character-based columns: a tab is one column, like any other
        // character (diagnostic rendering expands tabs to single spaces so
        // carets still line up).
        ++Col;
      }
      I += std::max<size_t>(1, detail::utf8SequenceLength(Source, I));
    }
  };
  auto push = [&](Token::Kind K, std::string Text, unsigned L, unsigned C) {
    Token T;
    T.K = K;
    T.Text = std::move(Text);
    T.Line = L;
    T.Col = C;
    Tokens.push_back(std::move(T));
  };

  while (I < N) {
    char C = Source[I];
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance(1);
      continue;
    }
    // Line comments, block comments and #pragma / preprocessor lines.
    if (C == '/' && I + 1 < N && Source[I + 1] == '/') {
      while (I < N && Source[I] != '\n' && Source[I] != '\r')
        advance(1);
      continue;
    }
    if (C == '/' && I + 1 < N && Source[I + 1] == '*') {
      advance(2);
      while (I + 1 < N && !(Source[I] == '*' && Source[I + 1] == '/'))
        advance(1);
      advance(2);
      continue;
    }
    if (C == '#') {
      while (I < N && Source[I] != '\n' && Source[I] != '\r')
        advance(1);
      continue;
    }
    unsigned TLine = Line, TCol = Col;
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t S = I;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        advance(1);
      push(Token::Kind::Ident, Source.substr(S, I - S), TLine, TCol);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t S = I;
      bool IsFloat = false;
      while (I < N && (std::isdigit(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '.' || Source[I] == 'e' ||
                       Source[I] == 'E' ||
                       ((Source[I] == '+' || Source[I] == '-') && I > S &&
                        (Source[I - 1] == 'e' || Source[I - 1] == 'E')))) {
        if (Source[I] == '.' || Source[I] == 'e' || Source[I] == 'E')
          IsFloat = true;
        advance(1);
      }
      // Trailing float suffix (f/F/l/L).
      if (I < N && (Source[I] == 'f' || Source[I] == 'F' ||
                    Source[I] == 'l' || Source[I] == 'L')) {
        IsFloat = true;
        advance(1);
      }
      push(IsFloat ? Token::Kind::FloatLit : Token::Kind::IntLit,
           Source.substr(S, I - S), TLine, TCol);
      continue;
    }
    // Multi-character punctuation, longest match first.
    static const char *TwoChar[] = {"<=", ">=", "==", "!=", "++", "--",
                                    "+=", "-=", "*=", "/=", "&&", "||"};
    bool Matched = false;
    if (I + 1 < N) {
      std::string Two = Source.substr(I, 2);
      for (const char *P : TwoChar) {
        if (Two == P) {
          push(Token::Kind::Punct, Two, TLine, TCol);
          advance(2);
          Matched = true;
          break;
        }
      }
    }
    if (Matched)
      continue;
    static const std::string OneChar = "()[]{};,=+-*/%<>!&|?:.";
    if (OneChar.find(C) != std::string::npos) {
      push(Token::Kind::Punct, std::string(1, C), TLine, TCol);
      advance(1);
      continue;
    }
    // Invalid character: report with the exact span and keep going, so one
    // pass surfaces every bad character of the input. A byte that starts
    // no well-formed UTF-8 sequence is named as such.
    Diagnostic D;
    D.Line = Line;
    D.Col = Col;
    D.Len = 1;
    char Hex[16];
    unsigned char Byte = static_cast<unsigned char>(C);
    if (size_t Len = detail::utf8SequenceLength(Source, I)) {
      std::snprintf(Hex, sizeof(Hex), "%04X", decodeUtf8(Source, I, Len));
      D.Message = "unexpected character '" + Source.substr(I, Len) +
                  "' (U+" + Hex + ")";
    } else if (Byte >= 0x80) {
      std::snprintf(Hex, sizeof(Hex), "%02X", Byte);
      D.Message = std::string("invalid UTF-8 byte 0x") + Hex;
    } else {
      D.Message = "unexpected character '" + std::string(1, C) + "'";
    }
    Diags.push_back(std::move(D));
    advance(1);
  }
  push(Token::Kind::End, "", Line, Col);
  return Tokens;
}

