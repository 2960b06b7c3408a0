//===- parser/Parser.cpp - Restricted-C frontend --------------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Error handling: every problem is recorded as a Diagnostic with the
// offending token's line:column span. The parser recovers at statement and
// loop boundaries (synchronize() skips to the next ';', 'for' or block
// edge), and the lowerer accumulates every semantic error, so one pass over
// a broken input reports all of its problems.
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "parser/Lexer.h"
#include "support/Budget.h"

#include <algorithm>
#include <memory>
#include <set>

using namespace pluto;

namespace {

/// Hard cap on reported errors: past this the input is garbage and more
/// messages only bury the signal.
constexpr unsigned MaxErrors = 20;

//===----------------------------------------------------------------------===//
// Phase 1: syntax tree
//===----------------------------------------------------------------------===//

struct SynLoop;

struct SynStmt {
  ExprPtr Lhs;
  std::string AsgnOp;
  ExprPtr Rhs;
  std::string Text;
  unsigned Line = 0;
  unsigned Col = 1;
};

/// Either a nested loop or a statement.
struct SynItem {
  std::unique_ptr<SynLoop> Loop; // Exactly one of Loop/Stmt is set.
  std::unique_ptr<SynStmt> Stmt;
};

struct SynLoop {
  std::string Iter;
  std::vector<ExprPtr> Lbs; ///< Iter >= each of these.
  std::vector<ExprPtr> Ubs; ///< Iter <= each of these.
  std::vector<SynItem> Body;
  unsigned Line = 0;
  unsigned Col = 1;
};

bool isTypeKeyword(const std::string &S) {
  static const std::set<std::string> Keywords = {
      "int",   "double", "float",    "long", "short",   "char",
      "const", "static", "register", "void", "unsigned", "signed"};
  return Keywords.count(S) != 0;
}

class Parser {
public:
  Parser(std::vector<Token> Tokens, std::vector<Diagnostic> &Diags)
      : Tokens(std::move(Tokens)), Diags(Diags) {}

  std::vector<SynItem> parseTopLevel() {
    std::vector<SynItem> Items;
    while (!cur().is(Token::Kind::End)) {
      // One work unit per top-level item; when the compile budget trips,
      // stop consuming input (the stage driver classifies the truncation
      // as resource-exhausted, so the partial item list is never used).
      if (!budgetCharge())
        break;
      if (errorCount(Diags) >= MaxErrors) {
        Diagnostic D;
        D.Line = cur().Line;
        D.Col = cur().Col;
        D.Message = "too many errors; giving up on the rest of the input";
        Diags.push_back(std::move(D));
        break;
      }
      size_t Before = Pos;
      auto Item = parseItem();
      if (!Item) {
        synchronize(Before);
        continue;
      }
      if (Item->Loop || Item->Stmt)
        Items.push_back(std::move(*Item));
    }
    return Items;
  }

private:
  std::vector<Token> Tokens;
  std::vector<Diagnostic> &Diags;
  size_t Pos = 0;

  const Token &cur() const { return Tokens[Pos]; }
  const Token &peek(size_t Ahead = 1) const {
    return Tokens[std::min(Pos + Ahead, Tokens.size() - 1)];
  }
  void advance() {
    if (Pos + 1 < Tokens.size())
      ++Pos;
  }

  /// Records an error diagnostic spanning the current token.
  Err fail(const std::string &Msg) {
    Diagnostic D;
    D.Line = cur().Line;
    D.Col = cur().Col;
    D.Len = cur().Text.empty()
                ? 1
                : static_cast<unsigned>(cur().Text.size());
    D.Message =
        Msg + (cur().Text.empty() ? "" : " (at '" + cur().Text + "')");
    Diags.push_back(D);
    return Err(D.toString());
  }

  bool expectPunct(const char *P) {
    if (cur().isPunct(P)) {
      advance();
      return true;
    }
    fail("expected '" + std::string(P) + "'" +
         (cur().Text.empty() ? "" : " before"));
    // fail() appended "(at 'tok')"; reword into the traditional "expected
    // ';' before 'x'" by fixing up the message we just pushed.
    Diagnostic &D = Diags.back();
    D.Message = "expected '" + std::string(P) + "'" +
                (cur().Text.empty() ? " before end of input"
                                    : " before '" + cur().Text + "'");
    return false;
  }

  /// Skips to a plausible recovery point: just past the next ';' (skipping
  /// over balanced braces entered along the way), or right before a '}',
  /// 'for' or end-of-input at the current nesting level. Always makes
  /// progress: a token stream position that did not move since Before (a
  /// stray '}' at top level, say) is force-advanced by one token.
  void synchronize(size_t Before) {
    unsigned Depth = 0;
    while (!cur().is(Token::Kind::End)) {
      if (cur().isPunct("{")) {
        advance();
        ++Depth;
        continue;
      }
      if (cur().isPunct("}")) {
        if (Depth == 0)
          break; // Enclosing block's closer: let the caller see it.
        advance();
        if (--Depth == 0)
          break; // Skipped a whole block (a broken loop's body).
        continue;
      }
      if (Depth == 0) {
        if (cur().isPunct(";")) {
          advance();
          break;
        }
        if (cur().isIdent("for"))
          break;
      }
      advance();
    }
    if (Pos == Before && !cur().is(Token::Kind::End))
      advance();
  }

  /// Parses one item: loop, declaration (skipped, returns empty item) or
  /// assignment statement.
  Result<SynItem> parseItem() {
    SynItem Item;
    // Every loop/statement/declaration is one work unit, so deeply nested
    // inputs charge at every level, not once per top-level item.
    if (!budgetCharge())
      return fail("compile budget exhausted while parsing");
    if (cur().isIdent("for")) {
      auto L = parseLoop();
      if (!L)
        return Err(L.error());
      Item.Loop = std::move(*L);
      return Item;
    }
    if (cur().is(Token::Kind::Ident) && isTypeKeyword(cur().Text)) {
      // Declaration: skip to ';'.
      while (!cur().is(Token::Kind::End) && !cur().isPunct(";"))
        advance();
      if (cur().isPunct(";"))
        advance();
      return Item;
    }
    if (cur().isPunct(";")) { // Stray semicolon.
      advance();
      return Item;
    }
    if (cur().isIdent("if") || cur().isIdent("while"))
      return fail("control flow other than affine 'for' loops is not "
                  "supported by the polyhedral frontend");
    auto S = parseStmt();
    if (!S)
      return Err(S.error());
    Item.Stmt = std::move(*S);
    return Item;
  }

  Result<std::unique_ptr<SynLoop>> parseLoop() {
    auto Loop = std::make_unique<SynLoop>();
    Loop->Line = cur().Line;
    Loop->Col = cur().Col;
    advance(); // 'for'
    if (!expectPunct("("))
      return Err(std::string());
    if (!cur().is(Token::Kind::Ident))
      return fail("expected loop iterator name");
    Loop->Iter = cur().Text;
    advance();
    if (!expectPunct("="))
      return Err(std::string());
    auto Lb = parseExpr();
    if (!Lb)
      return Err(Lb.error());
    // max(a, b, ...) lower bound splits into several affine bounds.
    if ((*Lb)->K == Expr::Kind::Call && (*Lb)->Name == "max")
      Loop->Lbs = (*Lb)->Args;
    else
      Loop->Lbs.push_back(*Lb);
    if (!expectPunct(";"))
      return Err(std::string());
    if (!cur().is(Token::Kind::Ident) || cur().Text != Loop->Iter)
      return fail("loop condition must test the loop iterator '" +
                  Loop->Iter + "'");
    advance();
    bool Strict;
    if (cur().isPunct("<="))
      Strict = false;
    else if (cur().isPunct("<"))
      Strict = true;
    else
      return fail("only ascending loops with '<' or '<=' are supported");
    advance();
    auto Ub = parseExpr();
    if (!Ub)
      return Err(Ub.error());
    std::vector<ExprPtr> Ubs;
    if ((*Ub)->K == Expr::Kind::Call && (*Ub)->Name == "min")
      Ubs = (*Ub)->Args;
    else
      Ubs.push_back(*Ub);
    for (ExprPtr &U : Ubs)
      Loop->Ubs.push_back(Strict ? Expr::binary("-", U, Expr::intLit(1)) : U);
    if (!expectPunct(";"))
      return Err(std::string());
    if (!parseIncrement(Loop->Iter))
      return fail("loop increment must be a unit step on '" + Loop->Iter +
                  "'");
    if (!expectPunct(")"))
      return Err(std::string());
    // Body: block or single item. Broken items inside a block recover at
    // statement boundaries, so every problem in the body is reported while
    // the block structure (and everything after it) survives.
    if (cur().isPunct("{")) {
      advance();
      while (!cur().isPunct("}")) {
        if (cur().is(Token::Kind::End))
          return fail("unterminated loop body");
        if (errorCount(Diags) >= MaxErrors)
          return Err(std::string());
        size_t Before = Pos;
        auto Item = parseItem();
        if (!Item) {
          synchronize(Before);
          continue;
        }
        if (Item->Loop || Item->Stmt)
          Loop->Body.push_back(std::move(*Item));
      }
      advance(); // '}'
    } else {
      auto Item = parseItem();
      if (!Item)
        return Err(Item.error());
      if (Item->Loop || Item->Stmt)
        Loop->Body.push_back(std::move(*Item));
    }
    return Loop;
  }

  /// Accepts i++, ++i, i += 1, i = i + 1.
  bool parseIncrement(const std::string &Iter) {
    if (cur().isPunct("++") && peek().isIdent(Iter.c_str())) {
      advance();
      advance();
      return true;
    }
    if (cur().isIdent(Iter.c_str())) {
      advance();
      if (cur().isPunct("++")) {
        advance();
        return true;
      }
      if (cur().isPunct("+=") && peek().is(Token::Kind::IntLit) &&
          peek().Text == "1") {
        advance();
        advance();
        return true;
      }
      if (cur().isPunct("=") && peek().isIdent(Iter.c_str()) &&
          peek(2).isPunct("+") && peek(3).is(Token::Kind::IntLit) &&
          peek(3).Text == "1") {
        advance();
        advance();
        advance();
        advance();
        return true;
      }
    }
    return false;
  }

  Result<std::unique_ptr<SynStmt>> parseStmt() {
    auto Stmt = std::make_unique<SynStmt>();
    Stmt->Line = cur().Line;
    Stmt->Col = cur().Col;
    size_t StartTok = Pos;
    auto Lhs = parsePrimary();
    if (!Lhs)
      return Err(Lhs.error());
    if ((*Lhs)->K != Expr::Kind::Var && (*Lhs)->K != Expr::Kind::ArrayRef)
      return fail("assignment target must be a scalar or array reference");
    Stmt->Lhs = *Lhs;
    if (cur().isPunct("=") || cur().isPunct("+=") || cur().isPunct("-=") ||
        cur().isPunct("*=")) {
      Stmt->AsgnOp = cur().Text;
      advance();
    } else {
      return fail("expected assignment operator");
    }
    auto Rhs = parseExpr();
    if (!Rhs)
      return Err(Rhs.error());
    Stmt->Rhs = *Rhs;
    if (!expectPunct(";"))
      return Err(std::string());
    // Reconstruct the statement text from the token spellings.
    std::string Text;
    for (size_t T = StartTok; T + 1 < Pos; ++T) {
      if (!Text.empty() && Tokens[T].is(Token::Kind::Ident) &&
          Tokens[T - 1].is(Token::Kind::Ident))
        Text += " ";
      Text += Tokens[T].Text;
    }
    Stmt->Text = Text + ";";
    return Stmt;
  }

  //===--------------------------------------------------------------------===//
  // Expressions (precedence climbing)
  //===--------------------------------------------------------------------===//

  Result<ExprPtr> parseExpr() { return parseAdditive(); }

  Result<ExprPtr> parseAdditive() {
    auto L = parseMultiplicative();
    if (!L)
      return L;
    while (cur().isPunct("+") || cur().isPunct("-")) {
      std::string Op = cur().Text;
      advance();
      auto R = parseMultiplicative();
      if (!R)
        return R;
      L = Expr::binary(Op, *L, *R);
    }
    return L;
  }

  Result<ExprPtr> parseMultiplicative() {
    auto L = parseUnary();
    if (!L)
      return L;
    while (cur().isPunct("*") || cur().isPunct("/") || cur().isPunct("%")) {
      std::string Op = cur().Text;
      advance();
      auto R = parseUnary();
      if (!R)
        return R;
      L = Expr::binary(Op, *L, *R);
    }
    return L;
  }

  Result<ExprPtr> parseUnary() {
    if (cur().isPunct("-") || cur().isPunct("+")) {
      std::string Op = cur().Text;
      advance();
      auto E = parseUnary();
      if (!E)
        return E;
      return Expr::unary(Op, *E);
    }
    return parsePrimary();
  }

  Result<ExprPtr> parsePrimary() {
    if (cur().is(Token::Kind::IntLit)) {
      long long V = std::stoll(cur().Text);
      advance();
      return Expr::intLit(V);
    }
    if (cur().is(Token::Kind::FloatLit)) {
      std::string T = cur().Text;
      advance();
      return Expr::floatLit(T);
    }
    if (cur().isPunct("(")) {
      advance();
      auto E = parseExpr();
      if (!E)
        return E;
      if (!expectPunct(")"))
        return Err(std::string());
      return E;
    }
    if (cur().is(Token::Kind::Ident)) {
      std::string Name = cur().Text;
      advance();
      if (cur().isPunct("(")) {
        advance();
        std::vector<ExprPtr> Args;
        if (!cur().isPunct(")")) {
          for (;;) {
            auto A = parseExpr();
            if (!A)
              return A;
            Args.push_back(*A);
            if (cur().isPunct(",")) {
              advance();
              continue;
            }
            break;
          }
        }
        if (!expectPunct(")"))
          return Err(std::string());
        return Expr::call(Name, std::move(Args));
      }
      if (cur().isPunct("[")) {
        std::vector<ExprPtr> Subs;
        while (cur().isPunct("[")) {
          advance();
          auto S = parseExpr();
          if (!S)
            return S;
          Subs.push_back(*S);
          if (!expectPunct("]"))
            return Err(std::string());
        }
        return Expr::arrayRef(Name, std::move(Subs));
      }
      return Expr::var(Name);
    }
    return fail("expected expression");
  }
};

//===----------------------------------------------------------------------===//
// Phase 2: lowering to the polyhedral IR
//===----------------------------------------------------------------------===//

class Lowerer {
public:
  explicit Lowerer(std::vector<Diagnostic> &Diags) : Diags(Diags) {}

  /// Lowers Items; semantic problems land in Diags (all of them, not just
  /// the first). Returns the program only when no error was recorded.
  std::optional<ParsedProgram> run(const std::vector<SynItem> &Items) {
    unsigned ErrorsBefore = errorCount(Diags);
    classify(Items);

    Out.Prog.ParamNames = Params;
    Out.Prog.Context = ConstraintSystem(Out.Prog.numParams());
    Out.SymConsts = SymConsts;

    std::vector<const SynLoop *> LoopStack;
    std::vector<unsigned> PosStack;
    walk(Items, LoopStack, PosStack);
    if (Out.Prog.Stmts.empty() && errorCount(Diags) == ErrorsBefore)
      error(1, 1, "no statements found in region");
    if (errorCount(Diags) != ErrorsBefore)
      return std::nullopt;

    for (const auto &Name : ArrayNames) {
      ArrayInfo AI;
      AI.Name = Name;
      AI.Rank = ArrayRank.at(Name);
      AI.IsWritten = WrittenArrays.count(Name) != 0;
      Out.Prog.Arrays.push_back(std::move(AI));
    }
    return std::move(Out);
  }

private:
  ParsedProgram Out;
  std::vector<Diagnostic> &Diags;

  std::vector<std::string> ArrayNames; ///< In first-appearance order.
  std::map<std::string, unsigned> ArrayRank;
  std::set<std::string> WrittenArrays;
  std::set<std::string> IterNames;
  std::vector<std::string> Params;    ///< First-appearance order.
  std::vector<std::string> SymConsts; ///< First-appearance order.
  std::set<std::string> ParamSet, SymSet;
  unsigned NextLoopId = 0;

  void error(unsigned Line, unsigned Col, const std::string &Msg) {
    // The classification passes may visit one name several times; identical
    // re-discoveries of one problem collapse into a single diagnostic.
    for (const Diagnostic &D : Diags)
      if (D.Line == Line && D.Col == Col && D.Message == Msg)
        return;
    Diagnostic D;
    D.Line = Line;
    D.Col = Col;
    D.Message = Msg;
    Diags.push_back(std::move(D));
  }

  void noteArray(const std::string &Name, unsigned Rank, unsigned Line,
                 unsigned Col) {
    auto It = ArrayRank.find(Name);
    if (It == ArrayRank.end()) {
      ArrayRank[Name] = Rank;
      ArrayNames.push_back(Name);
      return;
    }
    if (It->second != Rank)
      error(Line, Col, "array '" + Name + "' used with inconsistent rank");
  }

  /// Records names appearing in an affine position (bound or subscript).
  void noteAffineNames(const Expr &E, unsigned Line, unsigned Col) {
    switch (E.K) {
    case Expr::Kind::Var:
      if (!IterNames.count(E.Name) && !ArrayRank.count(E.Name) &&
          ParamSet.insert(E.Name).second)
        Params.push_back(E.Name);
      return;
    case Expr::Kind::ArrayRef:
      error(Line, Col, "array reference inside an affine expression");
      return;
    default:
      for (const ExprPtr &A : E.Args)
        noteAffineNames(*A, Line, Col);
      return;
    }
  }

  /// Records array uses / scalar reads in a body expression.
  void noteBodyNames(const Expr &E, unsigned Line, unsigned Col,
                     bool IsWrite) {
    switch (E.K) {
    case Expr::Kind::Var:
      if (IsWrite) {
        noteArray(E.Name, 0, Line, Col);
        WrittenArrays.insert(E.Name);
      } else if (!IterNames.count(E.Name) && !ArrayRank.count(E.Name) &&
                 !ParamSet.count(E.Name) && SymSet.insert(E.Name).second) {
        SymConsts.push_back(E.Name);
      }
      return;
    case Expr::Kind::ArrayRef:
      noteArray(E.Name, static_cast<unsigned>(E.Args.size()), Line, Col);
      if (IsWrite)
        WrittenArrays.insert(E.Name);
      for (const ExprPtr &S : E.Args)
        noteAffineNames(*S, Line, Col);
      return;
    default:
      for (const ExprPtr &A : E.Args)
        noteBodyNames(*A, Line, Col, /*IsWrite=*/false);
      return;
    }
  }

  /// First pass: classify every name (iterator / array / parameter /
  /// symbolic constant).
  void classify(const std::vector<SynItem> &Items) {
    // Iterators first, then arrays, so bound/subscript names left over
    // become parameters.
    collectIters(Items);
    collectArraysAndScalars(Items);
    collectAffine(Items);
    resolveSymConsts(Items);
  }

  void collectIters(const std::vector<SynItem> &Items) {
    for (const SynItem &It : Items) {
      if (!It.Loop)
        continue;
      IterNames.insert(It.Loop->Iter);
      collectIters(It.Loop->Body);
    }
  }

  void collectArraysAndScalars(const std::vector<SynItem> &Items) {
    for (const SynItem &It : Items) {
      if (It.Loop) {
        collectArraysAndScalars(It.Loop->Body);
        continue;
      }
      const SynStmt &S = *It.Stmt;
      if (S.Lhs->K == Expr::Kind::ArrayRef)
        noteArray(S.Lhs->Name, static_cast<unsigned>(S.Lhs->Args.size()),
                  S.Line, S.Col);
      else
        noteArray(S.Lhs->Name, 0, S.Line, S.Col);
      WrittenArrays.insert(S.Lhs->Name);
      collectArrayRefs(*S.Rhs, S.Line, S.Col);
    }
  }

  void collectArrayRefs(const Expr &E, unsigned Line, unsigned Col) {
    if (E.K == Expr::Kind::ArrayRef)
      noteArray(E.Name, static_cast<unsigned>(E.Args.size()), Line, Col);
    for (const ExprPtr &A : E.Args)
      collectArrayRefs(*A, Line, Col);
  }

  void collectAffine(const std::vector<SynItem> &Items) {
    for (const SynItem &It : Items) {
      if (It.Loop) {
        for (const ExprPtr &B : It.Loop->Lbs)
          noteAffineNames(*B, It.Loop->Line, It.Loop->Col);
        for (const ExprPtr &B : It.Loop->Ubs)
          noteAffineNames(*B, It.Loop->Line, It.Loop->Col);
        collectAffine(It.Loop->Body);
        continue;
      }
      const SynStmt &S = *It.Stmt;
      noteSubscripts(*S.Lhs, S.Line, S.Col);
      noteSubscripts(*S.Rhs, S.Line, S.Col);
    }
  }

  void noteSubscripts(const Expr &E, unsigned Line, unsigned Col) {
    if (E.K == Expr::Kind::ArrayRef) {
      for (const ExprPtr &S : E.Args)
        noteAffineNames(*S, Line, Col);
      return;
    }
    for (const ExprPtr &A : E.Args)
      noteSubscripts(*A, Line, Col);
  }

  void resolveSymConsts(const std::vector<SynItem> &Items) {
    for (const SynItem &It : Items) {
      if (It.Loop) {
        resolveSymConsts(It.Loop->Body);
        continue;
      }
      noteBodyNames(*It.Stmt->Lhs, It.Stmt->Line, It.Stmt->Col,
                    /*IsWrite=*/true);
      noteBodyNames(*It.Stmt->Rhs, It.Stmt->Line, It.Stmt->Col,
                    /*IsWrite=*/false);
    }
  }

  /// Second pass: emit Statement objects with domains and accesses.
  void walk(const std::vector<SynItem> &Items,
            std::vector<const SynLoop *> &LoopStack,
            std::vector<unsigned> &PosStack) {
    unsigned Slot = 0;
    for (const SynItem &It : Items) {
      if (It.Loop) {
        // Every loop consumes a fresh id so common prefixes identify shared
        // nests.
        unsigned LoopId = NextLoopId++;
        PosStack.push_back(Slot++);
        PosStack.push_back(LoopId);
        LoopStack.push_back(It.Loop.get());
        walk(It.Loop->Body, LoopStack, PosStack);
        LoopStack.pop_back();
        PosStack.pop_back();
        PosStack.pop_back();
        continue;
      }
      emitStatement(*It.Stmt, LoopStack, PosStack, Slot++);
    }
  }

  /// Builds the DimMap for a statement: iterators then parameters.
  DimMap dimMapFor(const std::vector<const SynLoop *> &LoopStack) const {
    DimMap M;
    for (unsigned I = 0; I < LoopStack.size(); ++I)
      M[LoopStack[I]->Iter] = I;
    unsigned Base = static_cast<unsigned>(LoopStack.size());
    for (unsigned P = 0; P < Params.size(); ++P)
      M[Params[P]] = Base + P;
    return M;
  }

  void emitStatement(const SynStmt &S,
                     const std::vector<const SynLoop *> &LoopStack,
                     const std::vector<unsigned> &PosStack, unsigned Slot) {
    Statement St;
    St.Id = static_cast<unsigned>(Out.Prog.Stmts.size());
    unsigned NIters = static_cast<unsigned>(LoopStack.size());
    unsigned NParams = static_cast<unsigned>(Params.size());
    unsigned NVars = NIters + NParams;
    DimMap Dims = dimMapFor(LoopStack);

    St.Domain = ConstraintSystem(NVars);
    for (unsigned L = 0; L < NIters; ++L) {
      const SynLoop &Loop = *LoopStack[L];
      St.IterNames.push_back(Loop.Iter);
      for (const ExprPtr &B : Loop.Lbs) {
        auto Row = toAffine(*B, Dims, NVars + 1);
        if (!Row) {
          error(Loop.Line, Loop.Col,
                "non-affine lower bound for loop '" + Loop.Iter + "'");
          return;
        }
        // iter - LB >= 0.
        std::vector<BigInt> C(NVars + 1, BigInt(0));
        for (unsigned I = 0; I <= NVars; ++I)
          C[I] = -(*Row)[I];
        C[L] += BigInt(1);
        St.Domain.addIneq(std::move(C));
      }
      for (const ExprPtr &B : Loop.Ubs) {
        auto Row = toAffine(*B, Dims, NVars + 1);
        if (!Row) {
          error(Loop.Line, Loop.Col,
                "non-affine upper bound for loop '" + Loop.Iter + "'");
          return;
        }
        // UB - iter >= 0.
        std::vector<BigInt> C = *Row;
        C[L] -= BigInt(1);
        St.Domain.addIneq(std::move(C));
      }
    }

    St.Body.Lhs = S.Lhs;
    St.Body.AsgnOp = S.AsgnOp;
    St.Body.Rhs = S.Rhs;
    St.Text = S.Text;
    for (unsigned L = 0; L < NIters; ++L)
      St.LoopPath.push_back(PosStack[2 * L + 1]);
    St.PosVec = PosStack;
    St.PosVec.push_back(Slot);

    // Accesses: write (and read for compound assignments) on the LHS, reads
    // in subscripts/RHS.
    addAccess(St, *S.Lhs, Dims, NVars, /*IsWrite=*/true, S.Line, S.Col);
    if (S.AsgnOp != "=")
      addAccess(St, *S.Lhs, Dims, NVars, /*IsWrite=*/false, S.Line, S.Col);
    collectReadAccesses(St, *S.Rhs, Dims, NVars, S.Line, S.Col);
    // Subscripts of the LHS may read arrays only in non-affine programs,
    // which the affine checks above already rejected.

    Out.Prog.Stmts.push_back(std::move(St));
  }

  void addAccess(Statement &St, const Expr &Ref, const DimMap &Dims,
                 unsigned NVars, bool IsWrite, unsigned Line, unsigned Col) {
    Access A;
    A.IsWrite = IsWrite;
    if (Ref.K == Expr::Kind::Var) {
      if (!ArrayRank.count(Ref.Name))
        return; // Iterator/parameter/symconst read: no dependence.
      A.Array = Ref.Name;
      A.Map = IntMatrix(0, NVars + 1);
      St.Accesses.push_back(std::move(A));
      return;
    }
    assert(Ref.K == Expr::Kind::ArrayRef && "access must be a reference");
    A.Array = Ref.Name;
    A.Map = IntMatrix(NVars + 1);
    for (const ExprPtr &Sub : Ref.Args) {
      auto Row = toAffine(*Sub, Dims, NVars + 1);
      if (!Row) {
        error(Line, Col,
              "non-affine subscript in access to '" + Ref.Name + "'");
        return;
      }
      A.Map.addRow(std::move(*Row));
    }
    St.Accesses.push_back(std::move(A));
  }

  void collectReadAccesses(Statement &St, const Expr &E, const DimMap &Dims,
                           unsigned NVars, unsigned Line, unsigned Col) {
    if (E.K == Expr::Kind::ArrayRef || E.K == Expr::Kind::Var) {
      addAccess(St, E, Dims, NVars, /*IsWrite=*/false, Line, Col);
      return;
    }
    for (const ExprPtr &A : E.Args)
      collectReadAccesses(St, *A, Dims, NVars, Line, Col);
  }
};

} // namespace

ParseResult pluto::parseSourceDiags(const std::string &Source) {
  ParseResult R;
  std::vector<Token> Tokens = tokenize(Source, R.Diags);
  Parser P(std::move(Tokens), R.Diags);
  std::vector<SynItem> Items = P.parseTopLevel();
  // Lexer and parser each append in their own pass order; present the
  // combined list in source order (stable, so ties keep discovery order).
  std::stable_sort(R.Diags.begin(), R.Diags.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     return A.Line != B.Line ? A.Line < B.Line
                                             : A.Col < B.Col;
                   });
  // Lowering semantic checks assume a syntactically clean tree; with syntax
  // (or lexical) errors already reported, stop here rather than pile
  // follow-on noise onto an incomplete tree.
  if (hasErrors(R.Diags))
    return R;
  Lowerer L(R.Diags);
  if (auto Prog = L.run(Items); Prog && !hasErrors(R.Diags))
    R.Program = std::move(*Prog);
  return R;
}
