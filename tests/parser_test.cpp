//===- tests/parser_test.cpp - Frontend unit tests ------------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "driver/Kernels.h"
#include "parser/Lexer.h"

#include <gtest/gtest.h>

using namespace pluto;

namespace {

TEST(LexerTest, TokenKinds) {
  std::vector<Diagnostic> Diags;
  auto Toks = tokenize("for (i = 0; i <= N-1; i++) a[i] += 0.5;", Diags);
  EXPECT_TRUE(Diags.empty());
  ASSERT_GE(Toks.size(), 5u);
  EXPECT_TRUE(Toks[0].isIdent("for"));
  EXPECT_TRUE(Toks[1].isPunct("("));
  EXPECT_TRUE(Toks[2].isIdent("i"));
  bool SawLe = false, SawIncr = false, SawPlusEq = false, SawFloat = false;
  for (const Token &T : Toks) {
    SawLe |= T.isPunct("<=");
    SawIncr |= T.isPunct("++");
    SawPlusEq |= T.isPunct("+=");
    SawFloat |= T.is(Token::Kind::FloatLit) && T.Text == "0.5";
  }
  EXPECT_TRUE(SawLe && SawIncr && SawPlusEq && SawFloat);
}

TEST(LexerTest, SkipsCommentsAndPragmas) {
  std::vector<Diagnostic> Diags;
  auto Toks = tokenize("// line\n#pragma scop\n/* block\n */ x", Diags);
  EXPECT_TRUE(Diags.empty());
  ASSERT_EQ(Toks.size(), 2u); // "x" + End.
  EXPECT_TRUE(Toks[0].isIdent("x"));
}

TEST(LexerTest, TracksLines) {
  std::vector<Diagnostic> Diags;
  auto Toks = tokenize("a\nb", Diags);
  EXPECT_EQ(Toks[0].Line, 1u);
  EXPECT_EQ(Toks[1].Line, 2u);
}

TEST(ExprTest, ToAffine) {
  // 2*i - j + 3*N + 4 over dims {i: 0, j: 1, N: 2}.
  ExprPtr E = Expr::binary(
      "+",
      Expr::binary("-", Expr::binary("*", Expr::intLit(2), Expr::var("i")),
                   Expr::var("j")),
      Expr::binary("+", Expr::binary("*", Expr::intLit(3), Expr::var("N")),
                   Expr::intLit(4)));
  DimMap Dims = {{"i", 0}, {"j", 1}, {"N", 2}};
  auto Row = toAffine(*E, Dims, 4);
  ASSERT_TRUE(Row.has_value());
  EXPECT_EQ((*Row)[0].toInt64(), 2);
  EXPECT_EQ((*Row)[1].toInt64(), -1);
  EXPECT_EQ((*Row)[2].toInt64(), 3);
  EXPECT_EQ((*Row)[3].toInt64(), 4);
}

TEST(ExprTest, ToAffineRejectsNonAffine) {
  DimMap Dims = {{"i", 0}, {"j", 1}};
  ExprPtr Prod = Expr::binary("*", Expr::var("i"), Expr::var("j"));
  EXPECT_FALSE(toAffine(*Prod, Dims, 3).has_value());
  ExprPtr Unknown = Expr::var("z");
  EXPECT_FALSE(toAffine(*Unknown, Dims, 3).has_value());
  ExprPtr Div = Expr::binary("/", Expr::var("i"), Expr::intLit(2));
  EXPECT_FALSE(toAffine(*Div, Dims, 3).has_value());
}

TEST(ExprTest, ToCWithSubstitution) {
  ExprPtr E = Expr::binary("+", Expr::arrayRef("a", {Expr::var("i")}),
                           Expr::floatLit("0.5"));
  std::map<std::string, std::string> Subst = {{"i", "c1 - c2"}};
  EXPECT_EQ(E->toC(Subst), "(a[(c1 - c2)] + 0.5)");
}

TEST(ParserTest, MatMul) {
  ParseResult P = parseSourceDiags(kernels::MatMul);
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  const Program &Prog = P.Program->Prog;
  ASSERT_EQ(Prog.Stmts.size(), 1u);
  const Statement &S = Prog.Stmts[0];
  EXPECT_EQ(S.IterNames, (std::vector<std::string>{"i", "j", "k"}));
  EXPECT_EQ(Prog.ParamNames, (std::vector<std::string>{"N"}));
  // c write, c read, a read, b read.
  ASSERT_EQ(S.Accesses.size(), 4u);
  EXPECT_TRUE(S.Accesses[0].IsWrite);
  EXPECT_EQ(S.Accesses[0].Array, "c");
  // Domain: 6 inequalities (3 loops x lb/ub).
  EXPECT_EQ(S.Domain.numIneqs(), 6u);
  EXPECT_EQ(S.Domain.numVars(), 4u); // i, j, k, N.
}

TEST(ParserTest, MatMulAccessMaps) {
  ParseResult P = parseSourceDiags(kernels::MatMul);
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  const Statement &S = P.Program->Prog.Stmts[0];
  // a[i][k]: row0 selects i, row1 selects k. Columns: i j k N 1.
  const Access *ARead = nullptr;
  for (const Access &A : S.Accesses)
    if (A.Array == "a")
      ARead = &A;
  ASSERT_NE(ARead, nullptr);
  ASSERT_EQ(ARead->Map.numRows(), 2u);
  EXPECT_EQ(ARead->Map(0, 0).toInt64(), 1);
  EXPECT_EQ(ARead->Map(1, 2).toInt64(), 1);
}

TEST(ParserTest, Jacobi1DImperfectNest) {
  ParseResult P = parseSourceDiags(kernels::Jacobi1D);
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  const Program &Prog = P.Program->Prog;
  ASSERT_EQ(Prog.Stmts.size(), 2u);
  EXPECT_EQ(Prog.Stmts[0].IterNames,
            (std::vector<std::string>{"t", "i"}));
  EXPECT_EQ(Prog.Stmts[1].IterNames,
            (std::vector<std::string>{"t", "j"}));
  // Both share the t loop only.
  EXPECT_EQ(Prog.commonLoopDepth(Prog.Stmts[0], Prog.Stmts[1]), 1u);
  EXPECT_TRUE(Prog.textuallyBefore(Prog.Stmts[0], Prog.Stmts[1]));
  EXPECT_FALSE(Prog.textuallyBefore(Prog.Stmts[1], Prog.Stmts[0]));
  // Params: T and N.
  EXPECT_EQ(Prog.ParamNames, (std::vector<std::string>{"T", "N"}));
}

TEST(ParserTest, Fdtd2DSymConsts) {
  ParseResult P = parseSourceDiags(kernels::Fdtd2D);
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  EXPECT_EQ(P.Program->Prog.Stmts.size(), 4u);
  // coeff1/coeff2 are read-only scalars in bodies: symbolic constants.
  EXPECT_EQ(P.Program->SymConsts,
            (std::vector<std::string>{"coeff1", "coeff2"}));
  // fict is a read-only 1-d array.
  const ArrayInfo *Fict = P.Program->Prog.findArray("fict");
  ASSERT_NE(Fict, nullptr);
  EXPECT_EQ(Fict->Rank, 1u);
  EXPECT_FALSE(Fict->IsWritten);
  const ArrayInfo *Hz = P.Program->Prog.findArray("hz");
  ASSERT_NE(Hz, nullptr);
  EXPECT_TRUE(Hz->IsWritten);
}

TEST(ParserTest, LUTriangularDomain) {
  ParseResult P = parseSourceDiags(kernels::LU);
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  ASSERT_EQ(P.Program->Prog.Stmts.size(), 2u);
  const Statement &S2 = P.Program->Prog.Stmts[1];
  EXPECT_EQ(S2.IterNames, (std::vector<std::string>{"k", "i", "j"}));
  // Domain contains i >= k+1, i.e. row (-1, 1, 0, 0, -1) over (k,i,j,N,1).
  ConstraintSystem D = S2.Domain;
  EXPECT_TRUE(D.impliesIneq({BigInt(-1), BigInt(1), BigInt(0), BigInt(0),
                             BigInt(-1)}));
}

TEST(ParserTest, CompoundAssignmentReads) {
  ParseResult P = parseSourceDiags("for (i = 0; i < N; i++) { s[i] += q[i]; }");
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  const Statement &S = P.Program->Prog.Stmts[0];
  // s write, s read (compound), q read.
  ASSERT_EQ(S.Accesses.size(), 3u);
  EXPECT_TRUE(S.Accesses[0].IsWrite);
  EXPECT_FALSE(S.Accesses[1].IsWrite);
  EXPECT_EQ(S.Accesses[1].Array, "s");
}

TEST(ParserTest, MinMaxBounds) {
  ParseResult P = parseSourceDiags(
      "for (i = max(0, M - 4); i <= min(N, M + 4); i++) { a[i] = i; }");
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  const Statement &S = P.Program->Prog.Stmts[0];
  // 2 lower + 2 upper bounds.
  EXPECT_EQ(S.Domain.numIneqs(), 4u);
}

TEST(ParserTest, StrictBoundAndDeclSkipping) {
  ParseResult P = parseSourceDiags("int i, j;\ndouble a[100];\n"
                                   "for (i = 0; i < 10; i++) a[i] = 1.0;");
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  const Statement &S = P.Program->Prog.Stmts[0];
  // i <= 9 must be implied.
  EXPECT_TRUE(
      S.Domain.impliesIneq({BigInt(-1), BigInt(9)}));
}

TEST(ParserTest, RejectsNonAffine) {
  ParseResult P1 = parseSourceDiags("for (i = 0; i < N; i++) a[i*i] = 0.0;");
  EXPECT_FALSE(P1.ok());
  ParseResult P2 = parseSourceDiags("for (i = 0; i < N*M; i++) a[i] = 0.0;");
  EXPECT_FALSE(P2.ok());
  ParseResult P3 =
      parseSourceDiags("for (i = 0; i < N; i++) if (i > 2) a[i] = 0.0;");
  EXPECT_FALSE(P3.ok());
  ParseResult P4 = parseSourceDiags("for (i = N; i > 0; i--) a[i] = 0.0;");
  EXPECT_FALSE(P4.ok());
}

TEST(ParserTest, RejectsEmptyRegion) {
  EXPECT_FALSE(parseSourceDiags("int x;").ok());
}

TEST(ParserTest, ScalarWriteBecomesZeroDimArray) {
  ParseResult P = parseSourceDiags("for (i = 0; i < N; i++) { s = s + a[i]; }");
  ASSERT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  const ArrayInfo *S = P.Program->Prog.findArray("s");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Rank, 0u);
  EXPECT_TRUE(S->IsWritten);
}

TEST(ParserTest, AllPaperKernelsParse) {
  for (const char *Src :
       {kernels::Jacobi1D, kernels::Fdtd2D, kernels::LU, kernels::MVT,
        kernels::Seidel2D, kernels::MatMul, kernels::Sweep2D}) {
    ParseResult P = parseSourceDiags(Src);
    EXPECT_TRUE(P.ok()) << joinDiagnostics(P.Diags);
  }
}

} // namespace
