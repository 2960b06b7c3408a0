//===- support/StressGen.cpp - Synthetic scheduler stress programs --------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "support/StressGen.h"

#include <sstream>

using namespace pluto;

namespace {

/// Minimal 64-bit LCG (Knuth's MMIX constants). The top 31 bits are used so
/// consecutive draws are well mixed even for small moduli.
class Lcg {
public:
  explicit Lcg(unsigned long long Seed) : State(Seed ? Seed : 1) {}

  unsigned next(unsigned Modulus) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<unsigned>((State >> 33) % Modulus);
  }

private:
  unsigned long long State;
};

/// One cluster idiom. \p K namespaces every array and iterator so clusters
/// share nothing but the parameter N. Returns the number of statements
/// emitted (1 or 2).
unsigned emitCluster(std::ostream &OS, unsigned Pattern, unsigned K) {
  std::string I = "i" + std::to_string(K);
  std::string J = "j" + std::to_string(K);
  auto Arr = [&](const char *Base) { return Base + std::to_string(K); };
  auto Nest = [&](const char *LoI, const char *LoJ) {
    OS << "for (" << I << " = " << LoI << "; " << I << " < N; " << I
       << "++) {\n";
    OS << "  for (" << J << " = " << LoJ << "; " << J << " < N; " << J
       << "++) {\n";
  };
  auto Close = [&] { OS << "  }\n}\n"; };
  std::string Ij = "[" + I + "][" + J + "]";
  std::string IjM1 = "[" + I + "][" + J + " - 1]";
  std::string Im1J = "[" + I + " - 1][" + J + "]";

  switch (Pattern) {
  case 0: // pointwise map: no dependences at all
    Nest("0", "0");
    OS << "    " << Arr("A") << Ij << " = " << Arr("B") << Ij << " + 1.5;\n";
    Close();
    return 1;
  case 1: // j-carried recurrence: (0,1) flow
    Nest("0", "1");
    OS << "    " << Arr("R") << Ij << " = " << Arr("R") << IjM1
       << " * 0.5 + 1.0;\n";
    Close();
    return 1;
  case 2: // 2-d stencil: (1,0) and (0,1) flows, no zero-cost row
    Nest("1", "1");
    OS << "    " << Arr("S") << Ij << " = " << Arr("S") << Im1J << " + "
       << Arr("S") << IjM1 << ";\n";
    Close();
    return 1;
  case 3: // producer/consumer chain: loop-independent flow -> textual row
    Nest("0", "0");
    OS << "    " << Arr("C") << Ij << " = " << Arr("B") << Ij << " + 1.0;\n";
    OS << "    " << Arr("D") << Ij << " = " << Arr("C") << Ij << " + 2.0;\n";
    Close();
    return 2;
  case 4: // shared read: cross-statement RAR plus loop-independent flow
    Nest("0", "0");
    OS << "    " << Arr("E") << Ij << " = " << Arr("B") << Ij << " * 2.0;\n";
    OS << "    " << Arr("F") << Ij << " = " << Arr("B") << Ij << " + "
       << Arr("E") << Ij << ";\n";
    Close();
    return 2;
  default: // producer + j-carried recurrence consumer
    Nest("0", "1");
    OS << "    " << Arr("P") << Ij << " = " << Arr("B") << Ij << " + 1.0;\n";
    OS << "    " << Arr("Q") << Ij << " = " << Arr("Q") << IjM1 << " + "
       << Arr("P") << Ij << ";\n";
    Close();
    return 2;
  }
}

} // namespace

std::string pluto::generateStressProgram(unsigned NumStatements,
                                         unsigned long long Seed) {
  std::ostringstream OS;
  Lcg Rng(Seed);
  unsigned Emitted = 0, K = 0;
  while (Emitted < NumStatements) {
    unsigned Left = NumStatements - Emitted;
    // Patterns 0-2 emit one statement, 3-5 emit two; with one slot left
    // only a single-statement pattern fits.
    unsigned Pattern = Left == 1 ? Rng.next(3) : Rng.next(6);
    Emitted += emitCluster(OS, Pattern, K++);
  }
  return OS.str();
}
