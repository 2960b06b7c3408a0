//===- tests/diagnostics_test.cpp - Frontend diagnostics tests ------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// The multi-error frontend: exact line:column tracking through tabs, CR,
// LF and CRLF line endings; lexer recovery over invalid characters; parser
// recovery at statement/loop boundaries so one pass reports every problem;
// snippet rendering; the joined error string of Pipeline::parsed(); and the
// malformed-input corpus under tests/corpus/ (golden span assertions).
//
//===----------------------------------------------------------------------===//

#include "parser/Diagnostics.h"
#include "parser/Lexer.h"
#include "parser/Parser.h"
#include "service/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef PLUTOPP_CORPUS_DIR
#error "PLUTOPP_CORPUS_DIR must be defined by the build"
#endif

using namespace pluto;

namespace {

/// True if Diags contains an error at exactly (Line, Col).
bool hasSpan(const std::vector<Diagnostic> &Diags, unsigned Line,
             unsigned Col) {
  return std::any_of(Diags.begin(), Diags.end(), [&](const Diagnostic &D) {
    return D.Line == Line && D.Col == Col;
  });
}

/// True if Diags contains a diagnostic on Line (any column).
bool hasLine(const std::vector<Diagnostic> &Diags, unsigned Line) {
  return std::any_of(Diags.begin(), Diags.end(),
                     [&](const Diagnostic &D) { return D.Line == Line; });
}

const Token *findToken(const std::vector<Token> &Toks, const char *Text) {
  for (const Token &T : Toks)
    if (T.Text == Text)
      return &T;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Lexer source tracking: tabs, CR, LF, CRLF
//===----------------------------------------------------------------------===//

TEST(LexerTracking, TabOccupiesOneColumn) {
  std::vector<Diagnostic> Diags;
  auto Toks = tokenize("\t\tx = y;", Diags);
  EXPECT_TRUE(Diags.empty());
  const Token *X = findToken(Toks, "x");
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(X->Line, 1u);
  EXPECT_EQ(X->Col, 3u); // Two tabs = two columns, not two tab stops.
}

TEST(LexerTracking, CrLfTerminatesLineWithoutExtraColumn) {
  std::vector<Diagnostic> Diags;
  auto Toks = tokenize("a = b;\r\nc = d;", Diags);
  EXPECT_TRUE(Diags.empty());
  const Token *C = findToken(Toks, "c");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Line, 2u);
  EXPECT_EQ(C->Col, 1u);
}

TEST(LexerTracking, LoneCrTerminatesLine) {
  std::vector<Diagnostic> Diags;
  auto Toks = tokenize("a\rb", Diags);
  EXPECT_TRUE(Diags.empty());
  const Token *B = findToken(Toks, "b");
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->Line, 2u);
  EXPECT_EQ(B->Col, 1u);
}

TEST(LexerTracking, CommentBeforeCrLfDoesNotEatTheLineBreak) {
  std::vector<Diagnostic> Diags;
  auto Toks = tokenize("// note\r\nq = 1;", Diags);
  EXPECT_TRUE(Diags.empty());
  const Token *Q = findToken(Toks, "q");
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Q->Line, 2u);
  EXPECT_EQ(Q->Col, 1u);
}

TEST(LexerTracking, InvalidCharIsDiagnosedAndSkipped) {
  std::vector<Diagnostic> Diags;
  auto Toks = tokenize("a $ b", Diags);
  ASSERT_EQ(errorCount(Diags), 1u);
  EXPECT_EQ(Diags[0].Line, 1u);
  EXPECT_EQ(Diags[0].Col, 3u);
  // The stream keeps going: both identifiers survive, End terminates.
  EXPECT_NE(findToken(Toks, "a"), nullptr);
  EXPECT_NE(findToken(Toks, "b"), nullptr);
  EXPECT_TRUE(Toks.back().is(Token::Kind::End));
}

TEST(LexerTracking, TabThenInvalidCharColumn) {
  std::vector<Diagnostic> Diags;
  tokenize("\t@", Diags);
  ASSERT_EQ(errorCount(Diags), 1u);
  EXPECT_EQ(Diags[0].Line, 1u);
  EXPECT_EQ(Diags[0].Col, 2u);
}

TEST(LexerTracking, NonAsciiCharacterIsOneDiagnosticNamingIt) {
  std::vector<Diagnostic> Diags;
  auto Toks = tokenize("x = caf\xC3\xA9;", Diags);
  ASSERT_EQ(errorCount(Diags), 1u);
  EXPECT_EQ(Diags[0].Col, 8u);
  EXPECT_EQ(Diags[0].Len, 1u);
  EXPECT_EQ(Diags[0].Message, "unexpected character '\xC3\xA9' (U+00E9)");
  EXPECT_NE(findToken(Toks, ";"), nullptr);
}

TEST(LexerTracking, InvalidUtf8ByteIsNamed) {
  std::vector<Diagnostic> Diags;
  auto Toks = tokenize("x = y \xFF z;", Diags);
  ASSERT_EQ(errorCount(Diags), 1u);
  EXPECT_EQ(Diags[0].Col, 7u);
  EXPECT_EQ(Diags[0].Message, "invalid UTF-8 byte 0xFF");
  const Token *Z = findToken(Toks, "z");
  ASSERT_NE(Z, nullptr);
  EXPECT_EQ(Z->Col, 9u);
}

TEST(LexerTracking, ColumnsCountCodePointsInsideComments) {
  std::vector<Diagnostic> Diags;
  tokenize("  a[i] = /* \xC3\xA9 */ b[i] $ 1;", Diags);
  ASSERT_EQ(errorCount(Diags), 1u);
  EXPECT_EQ(Diags[0].Line, 1u);
  EXPECT_EQ(Diags[0].Col, 23u); // The 'e' with its accent is one column.
}

//===----------------------------------------------------------------------===//
// Parser recovery: every problem, one pass
//===----------------------------------------------------------------------===//

const char *ThreeErrors = "for (i = 0; i < N; i++) {\n"
                          "  a[i] = ;\n"
                          "  b[i] @ 1.0;\n"
                          "  c[i] = a[i] +;\n"
                          "}\n";

TEST(ParserRecovery, ThreeErrorInputReportsAllThreeSpans) {
  ParseResult R = parseSourceDiags(ThreeErrors);
  EXPECT_FALSE(R.ok());
  EXPECT_GE(errorCount(R.Diags), 3u) << joinDiagnostics(R.Diags);
  // Missing rhs: the error points at the ';' that cut the expression off.
  EXPECT_TRUE(hasSpan(R.Diags, 2, 10)) << joinDiagnostics(R.Diags);
  // '@' is a lexer-level error with the exact column.
  EXPECT_TRUE(hasSpan(R.Diags, 3, 8)) << joinDiagnostics(R.Diags);
  // Dangling '+': recovery reached line 4 despite both earlier errors.
  EXPECT_TRUE(hasLine(R.Diags, 4)) << joinDiagnostics(R.Diags);
}

TEST(ParserRecovery, RecoversAcrossTopLevelLoops) {
  ParseResult R = parseSourceDiags("for (i = 0; i < N; i++) {\n"
                                   "  a[i] = ;\n"
                                   "}\n"
                                   "for (j = 0; j < N; j++) {\n"
                                   "  b[j] = ;\n"
                                   "}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_GE(errorCount(R.Diags), 2u);
  EXPECT_TRUE(hasLine(R.Diags, 2)) << joinDiagnostics(R.Diags);
  EXPECT_TRUE(hasLine(R.Diags, 5)) << joinDiagnostics(R.Diags);
}

TEST(ParserRecovery, TabIndentedErrorColumnIsCharacterBased) {
  ParseResult R = parseSourceDiags("for (i = 0; i < N; i++) {\n"
                                   "\ta[i] = ;\n"
                                   "}\n");
  EXPECT_FALSE(R.ok());
  // \t a [ i ]  space = space ; -> the ';' is the 9th character.
  EXPECT_TRUE(hasSpan(R.Diags, 2, 9)) << joinDiagnostics(R.Diags);
}

TEST(ParserRecovery, CrLfSourceKeepsLineNumbers) {
  ParseResult R = parseSourceDiags("for (i = 0; i < N; i++) {\r\n"
                                   "  a[i] = ;\r\n"
                                   "}\r\n");
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasSpan(R.Diags, 2, 10)) << joinDiagnostics(R.Diags);
}

TEST(ParserRecovery, ErrorFloodIsCapped) {
  std::string Source;
  for (int I = 0; I < 60; ++I)
    Source += "x = ;\n";
  ParseResult R = parseSourceDiags(Source);
  EXPECT_FALSE(R.ok());
  // Recovery is bounded: at most MaxErrors plus the giving-up notice.
  EXPECT_LE(R.Diags.size(), 21u);
  EXPECT_NE(joinDiagnostics(R.Diags).find("too many errors"),
            std::string::npos);
}

TEST(ParserRecovery, EmptyInputIsOneDiagnosticAtOrigin) {
  ParseResult R = parseSourceDiags("/* nothing */\n");
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Diags.size(), 1u);
  EXPECT_EQ(R.Diags[0].Line, 1u);
  EXPECT_EQ(R.Diags[0].Col, 1u);
  EXPECT_NE(R.Diags[0].Message.find("no statements"), std::string::npos);
}

TEST(ParserRecovery, ValidInputHasNoDiagnostics) {
  ParseResult R = parseSourceDiags("for (i = 0; i < N; i++) {\n"
                                   "  a[i] = b[i] + 1.0;\n"
                                   "}\n");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Diags.empty()) << joinDiagnostics(R.Diags);
}

TEST(ParserRecovery, ParsedErrorJoinsEveryDiagnostic) {
  auto P = Pipeline::create(PlutoOptions());
  ASSERT_TRUE(P) << P.error();
  P->setSource(ThreeErrors);
  auto R = P->parsed();
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().find("line 2"), std::string::npos) << R.error();
  EXPECT_NE(R.error().find("line 4"), std::string::npos) << R.error();
  EXPECT_NE(R.error().find('\n'), std::string::npos);
}

TEST(ParserRecovery, PipelineExposesStructuredDiagnostics) {
  auto P = Pipeline::create(PlutoOptions());
  ASSERT_TRUE(P) << P.error();
  P->setSource(ThreeErrors);
  auto Parsed = P->parsed();
  EXPECT_FALSE(Parsed);
  EXPECT_GE(errorCount(P->diagnostics()), 3u)
      << joinDiagnostics(P->diagnostics());
  EXPECT_TRUE(hasSpan(P->diagnostics(), 2, 10));
  // The stage error string is the joined form of the same list.
  EXPECT_EQ(Parsed.error(), joinDiagnostics(P->diagnostics()));
  // A clean source resets the list.
  P->setSource("for (i = 0; i < N; i++) {\n  a[i] = 1.0;\n}\n");
  EXPECT_TRUE(P->parsed());
  EXPECT_TRUE(P->diagnostics().empty());
}

//===----------------------------------------------------------------------===//
// Snippet rendering
//===----------------------------------------------------------------------===//

TEST(Snippet, CaretMarksTheSpan) {
  Diagnostic D;
  D.Line = 1;
  D.Col = 3;
  D.Len = 2;
  EXPECT_EQ(renderSnippet("abcdef", D), "  abcdef\n    ^^\n");
}

TEST(Snippet, TabsExpandToOneSpaceSoCaretAligns) {
  Diagnostic D;
  D.Line = 1;
  D.Col = 2;
  EXPECT_EQ(renderSnippet("\tx = 1;", D), "   x = 1;\n   ^\n");
}

TEST(Snippet, InvalidUtf8BytesRenderAsReplacementCharacters) {
  // Each byte that starts no well-formed sequence (0xFF, and 0xC3 before
  // ';') becomes one U+FFFD, one column as in the lexer, so the snippet is
  // valid UTF-8 and the caret still lines up under the byte.
  std::string Source = "a[i] = b[i] + caf\xC3\xA9 \xFF\xC3;";
  std::vector<Diagnostic> Diags;
  tokenize(Source, Diags);
  auto It = std::find_if(Diags.begin(), Diags.end(), [](const Diagnostic &D) {
    return D.Message == "invalid UTF-8 byte 0xFF";
  });
  ASSERT_NE(It, Diags.end());
  EXPECT_EQ(It->Col, 20u);
  EXPECT_EQ(renderSnippet(Source, *It),
            "  a[i] = b[i] + caf\xC3\xA9 \xEF\xBF\xBD\xEF\xBF\xBD;\n  " +
                std::string(19, ' ') + "^\n");
}

TEST(Snippet, PicksTheRightLineUnderMixedEndings) {
  Diagnostic D;
  D.Line = 3;
  D.Col = 1;
  EXPECT_EQ(renderSnippet("one\r\ntwo\rthree", D), "  three\n  ^\n");
}

TEST(Snippet, OutOfRangeLineRendersEmpty) {
  Diagnostic D;
  D.Line = 9;
  EXPECT_EQ(renderSnippet("just one line", D), "");
}

//===----------------------------------------------------------------------===//
// Malformed-input corpus: golden span assertions
//===----------------------------------------------------------------------===//

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(Corpus, EveryFileYieldsLocatedErrorsAndNoCrash) {
  unsigned Files = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(PLUTOPP_CORPUS_DIR)) {
    if (Entry.path().extension() != ".c")
      continue;
    ++Files;
    SCOPED_TRACE(Entry.path().filename().string());
    ParseResult R = parseSourceDiags(readFile(Entry.path()));
    EXPECT_FALSE(R.ok());
    EXPECT_TRUE(hasErrors(R.Diags));
    for (const Diagnostic &D : R.Diags) {
      EXPECT_GE(D.Line, 1u);
      EXPECT_GE(D.Col, 1u);
      EXPECT_GE(D.Len, 1u);
      EXPECT_FALSE(D.Message.empty());
    }
  }
  EXPECT_GE(Files, 5u) << "corpus went missing?";
}

TEST(Corpus, ThreeErrorsGolden) {
  ParseResult R =
      parseSourceDiags(readFile(std::filesystem::path(PLUTOPP_CORPUS_DIR) /
                                "three_errors.c"));
  EXPECT_FALSE(R.ok());
  EXPECT_GE(errorCount(R.Diags), 3u) << joinDiagnostics(R.Diags);
  EXPECT_TRUE(hasSpan(R.Diags, 2, 10)) << joinDiagnostics(R.Diags);
  EXPECT_TRUE(hasSpan(R.Diags, 3, 8)) << joinDiagnostics(R.Diags);
  EXPECT_TRUE(hasLine(R.Diags, 4)) << joinDiagnostics(R.Diags);
}

TEST(Corpus, UnclosedLoopPointsAtEndOfInput) {
  ParseResult R =
      parseSourceDiags(readFile(std::filesystem::path(PLUTOPP_CORPUS_DIR) /
                                "unclosed_loop.c"));
  EXPECT_FALSE(R.ok());
  ASSERT_TRUE(hasErrors(R.Diags));
  EXPECT_NE(joinDiagnostics(R.Diags).find("unterminated loop body"),
            std::string::npos)
      << joinDiagnostics(R.Diags);
}

} // namespace
