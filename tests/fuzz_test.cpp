//===- tests/fuzz_test.cpp - Randomized differential testing --------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Generates random affine programs (random nesting, bounds, access offsets
// and statement mixes), runs them through the full pipeline under random
// option sets (tile sizes, wavefronting, separation on/off), and checks
// that interpreting the transformed AST leaves every array bit-identical
// (up to FP reassociation tolerance) to interpreting the original program.
// Every case also re-validates the schedule with the independent legality
// oracle (analyzeSchedule).
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include "runtime/Interpreter.h"
#include "Session.h"

#include <gtest/gtest.h>

#include <random>

using namespace pluto;

namespace {

/// Deterministic random affine-program generator.
class ProgramGen {
public:
  explicit ProgramGen(unsigned Seed) : Rng(Seed) {}

  std::string generate() {
    Src.clear();
    NumArrays = 1 + pick(2); // 1..3 arrays named A0..A2.
    unsigned TopItems = 1 + pick(1);
    unsigned LoopId = 0;
    for (unsigned I = 0; I < TopItems; ++I)
      emitLoopNest(0, LoopId);
    return Src;
  }

  unsigned numArrays() const { return NumArrays; }

private:
  std::mt19937 Rng;
  std::string Src;
  unsigned NumArrays = 1;
  std::vector<std::string> Iters;

  unsigned pick(unsigned Max) { // Uniform in [0, Max].
    return std::uniform_int_distribution<unsigned>(0, Max)(Rng);
  }

  void indent(unsigned D) { Src.append(2 * D, ' '); }

  std::string freshIter(unsigned Depth, unsigned LoopId) {
    return "i" + std::to_string(Depth) + "_" + std::to_string(LoopId);
  }

  void emitLoopNest(unsigned Depth, unsigned &LoopId) {
    std::string It = freshIter(Depth, LoopId++);
    indent(Depth);
    // Lower bound 0..1; upper N-1 or triangular vs an outer iterator.
    std::string Lb = std::to_string(pick(1));
    std::string Ub = "N - 1";
    if (!Iters.empty() && pick(2) == 0)
      Ub = Iters.back() + " + 2";
    Src += "for (" + It + " = " + Lb + "; " + It + " <= " + Ub + "; " + It +
           "++) {\n";
    Iters.push_back(It);

    unsigned Body = pick(2); // 0: stmt; 1: stmt+stmt; 2: nested loop.
    if (Body == 2 && Depth < 2) {
      emitLoopNest(Depth + 1, LoopId);
      if (pick(1) == 0)
        emitStmt(Depth + 1);
    } else {
      emitStmt(Depth + 1);
      if (Body == 1)
        emitStmt(Depth + 1);
    }

    Iters.pop_back();
    indent(Depth);
    Src += "}\n";
  }

  /// An access with in-bounds-by-construction subscripts: every subscript
  /// is iter + offset with offset in [0, 2], and buffers are allocated with
  /// 3 cells of slack beyond N+2 (the max iterator value is N+1 for the
  /// triangular bounds).
  std::string access(unsigned Rank) {
    std::string A = "A" + std::to_string(pick(NumArrays - 1));
    for (unsigned R = 0; R < Rank; ++R) {
      const std::string &It = Iters[pick(
          static_cast<unsigned>(Iters.size()) - 1)];
      unsigned Off = pick(2);
      A += "[" + It + (Off ? " + " + std::to_string(Off) : "") + "]";
    }
    return A;
  }

  void emitStmt(unsigned Depth) {
    indent(Depth);
    std::string Lhs = access(1);
    std::string Rhs;
    unsigned Terms = 1 + pick(1);
    for (unsigned T = 0; T < Terms; ++T) {
      if (T)
        Rhs += " + ";
      switch (pick(2)) {
      case 0:
        Rhs += access(1);
        break;
      case 1:
        Rhs += "0.5 * " + access(1);
        break;
      default:
        Rhs += access(1) + " * 0.25";
        break;
      }
    }
    static const char *Ops[] = {"=", "+=", "-="};
    Src += Lhs + " " + Ops[pick(2)] + " " + Rhs + ";\n";
  }
};

struct FuzzCase {
  unsigned Seed;
};

class PipelineFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(PipelineFuzz, TransformedMatchesOriginal) {
  unsigned Seed = GetParam().Seed;
  ProgramGen Gen(Seed);
  std::string Src = Gen.generate();
  SCOPED_TRACE("seed " + std::to_string(Seed) + " program:\n" + Src);

  std::mt19937 Rng(Seed * 7919 + 1);
  PlutoOptions Opts;
  Opts.Tile = Rng() % 2 == 0;
  Opts.TileSize = 2 + Rng() % 7;
  Opts.Parallelize = Rng() % 2 == 0;
  Opts.WavefrontDegrees = 1 + Rng() % 2;
  Opts.Vectorize = Rng() % 2 == 0;
  Opts.IncludeInputDeps = Rng() % 2 == 0;
  // Guard mode is a generateAst knob: a quarter of the seeds scan the
  // lowered Scop again without separation and check that AST.
  bool Separate = Rng() % 4 != 0;

  Pipeline Session = session(Src, Opts);
  auto Lowered = Session.lowered();
  ASSERT_TRUE(Lowered) << Lowered.error();
  const PlutoResult &R = **Lowered;
  CgNodePtr Guarded = Separate ? nullptr : guardModeAst(R);
  const CgNode &Ast = Guarded ? *Guarded : *R.Ast;

  // Independent legality oracle on the found schedule.
  {
    DependenceGraph DG = R.DG;
    Schedule S = R.Sched;
    EXPECT_TRUE(analyzeSchedule(R.program(), DG, S))
        << "schedule fails the independent legality check";
  }

  auto Orig = Session.originalAst(R.program());
  ASSERT_TRUE(Orig) << Orig.error();

  for (long long N : {5LL, 11LL}) {
    std::map<std::string, std::vector<long long>> Extents;
    for (const ArrayInfo &A : R.program().Arrays)
      Extents[A.Name] = std::vector<long long>(A.Rank, N + 5);
    auto runWith = [&](const CgNode &Ast) {
      Interpreter I;
      I.allocate(R.program(), Extents);
      unsigned S = 1;
      for (auto &[Name, T] : I.Arrays)
        T.fillPattern(S++);
      I.Params = {{"N", N}};
      auto Ok = I.run(R.program(), Ast);
      EXPECT_TRUE(Ok) << (Ok ? "" : Ok.error());
      return I.Arrays;
    };
    auto Want = runWith(**Orig);
    auto Got = runWith(Ast);
    for (const auto &[Name, TW] : Want) {
      const Tensor &TG = Got.at(Name);
      ASSERT_EQ(TW.Data.size(), TG.Data.size());
      for (size_t I = 0; I < TW.Data.size(); ++I)
        ASSERT_NEAR(TW.Data[I], TG.Data[I],
                    1e-9 * (1.0 + std::fabs(TW.Data[I])))
            << Name << "[" << I << "] N=" << N;
    }
  }
}

std::vector<FuzzCase> seeds() {
  std::vector<FuzzCase> C;
  for (unsigned S = 1; S <= 40; ++S)
    C.push_back({S});
  return C;
}

INSTANTIATE_TEST_SUITE_P(Random, PipelineFuzz, ::testing::ValuesIn(seeds()),
                         [](const ::testing::TestParamInfo<FuzzCase> &I) {
                           return "seed" + std::to_string(I.param.Seed);
                         });

// Frontend robustness: mutate valid generated programs with random
// character edits and feed the wreckage to the recovering parser. Whatever
// comes back, the frontend must neither crash nor hang, and every
// diagnostic must carry a well-formed 1-based span into the mutated
// source; a rejected parse must come with at least one error.
TEST(ParserFuzz, MutatedSourcesNeverCrashAndAlwaysHaveSpans) {
  std::mt19937 Rng(20260808);
  auto pick = [&](unsigned Max) {
    return std::uniform_int_distribution<unsigned>(0, Max)(Rng);
  };
  const char Garbage[] = "{}()[];=+-*<>@$!\t\r\n aiN0123";
  for (unsigned Case = 0; Case < 200; ++Case) {
    ProgramGen Gen(Case + 1);
    std::string Src = Gen.generate();
    unsigned Edits = 1 + pick(7);
    for (unsigned E = 0; E < Edits && !Src.empty(); ++E) {
      unsigned At = pick(static_cast<unsigned>(Src.size()) - 1);
      switch (pick(2)) {
      case 0: // Delete a character.
        Src.erase(At, 1);
        break;
      case 1: // Overwrite with garbage.
        Src[At] = Garbage[pick(sizeof(Garbage) - 2)];
        break;
      default: // Insert garbage.
        Src.insert(Src.begin() + At, Garbage[pick(sizeof(Garbage) - 2)]);
        break;
      }
    }
    // Count lines the way the lexer does: LF, CRLF and lone CR all
    // terminate a line.
    unsigned Lines = 1;
    for (size_t I = 0; I < Src.size(); ++I) {
      if (Src[I] == '\n')
        ++Lines;
      else if (Src[I] == '\r' && (I + 1 >= Src.size() || Src[I + 1] != '\n'))
        ++Lines;
    }
    ParseResult R = parseSourceDiags(Src);
    if (!R.ok())
      EXPECT_TRUE(hasErrors(R.Diags)) << "seed " << Case << ":\n" << Src;
    for (const Diagnostic &D : R.Diags) {
      EXPECT_GE(D.Line, 1u) << "seed " << Case;
      EXPECT_LE(D.Line, Lines + 1) << "seed " << Case << ":\n" << Src;
      EXPECT_GE(D.Col, 1u) << "seed " << Case;
      EXPECT_GE(D.Len, 1u) << "seed " << Case;
      EXPECT_FALSE(D.Message.empty()) << "seed " << Case;
    }
  }
}

} // namespace
