//===- parser/Diagnostics.cpp - Structured frontend diagnostics -----------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "parser/Diagnostics.h"

#include "support/Json.h"

using namespace pluto;

std::string Diagnostic::toString() const {
  return "line " + std::to_string(Line) + ", col " + std::to_string(Col) +
         ": " + (Sev == Severity::Error ? "error: " : "warning: ") + Message;
}

bool pluto::hasErrors(const std::vector<Diagnostic> &Diags) {
  return errorCount(Diags) != 0;
}

unsigned pluto::errorCount(const std::vector<Diagnostic> &Diags) {
  unsigned N = 0;
  for (const Diagnostic &D : Diags)
    N += D.Sev == Severity::Error;
  return N;
}

std::string pluto::joinDiagnostics(const std::vector<Diagnostic> &Diags) {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    if (!Out.empty())
      Out += "\n";
    Out += D.toString();
  }
  return Out;
}

/// Extracts 1-based line Line of Source; CR, LF and CRLF all end a line.
/// Returns false when Source has fewer lines.
static bool sourceLine(const std::string &Source, unsigned Line,
                       std::string &Out) {
  unsigned Cur = 1;
  Out.clear();
  for (size_t I = 0; I < Source.size(); ++I) {
    char C = Source[I];
    if (C == '\r' || C == '\n') {
      if (C == '\r' && I + 1 < Source.size() && Source[I + 1] == '\n')
        ++I;
      if (Cur == Line)
        return true;
      ++Cur;
      continue;
    }
    if (Cur == Line)
      Out += C;
  }
  return Cur == Line; // Last line may lack a terminator.
}

std::string pluto::renderSnippet(const std::string &Source,
                                 const Diagnostic &D) {
  std::string Line;
  if (D.Line == 0 || !sourceLine(Source, D.Line, Line))
    return std::string();
  // Columns count characters, so the caret line aligns only if every
  // character renders one column wide: a tab becomes one space, and a byte
  // that starts no well-formed UTF-8 sequence (one column to the lexer)
  // becomes one U+FFFD, so the snippet is valid UTF-8.
  std::string Text;
  Text.reserve(Line.size());
  for (size_t I = 0; I < Line.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(Line[I]);
    if (C < 0x80) {
      Text += C == '\t' ? ' ' : static_cast<char>(C);
    } else if (size_t Len = detail::utf8SequenceLength(Line, I)) {
      Text.append(Line, I, Len);
      I += Len - 1;
    } else {
      Text += "\xEF\xBF\xBD"; // U+FFFD REPLACEMENT CHARACTER
    }
  }
  unsigned Col = D.Col == 0 ? 1 : D.Col;
  unsigned Len = D.Len == 0 ? 1 : D.Len;
  std::string Caret(Col - 1, ' ');
  Caret.append(Len, '^');
  return "  " + Text + "\n  " + Caret + "\n";
}

std::string pluto::renderDiagnostics(const std::string &Source,
                                     const std::vector<Diagnostic> &Diags) {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.toString();
    Out += "\n";
    Out += renderSnippet(Source, D);
  }
  return Out;
}
