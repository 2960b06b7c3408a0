//===- driver/Driver.h - Pipeline options and results ------------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options and result types for the end-to-end source-to-source pipeline
/// (paper Figure 5): parse -> dependence analysis -> Pluto transformation
/// -> tiling -> wavefront -> intra-tile reordering -> code generation.
///
/// The pipeline itself runs in `pluto::Pipeline` (service/Pipeline.h): a
/// session object that validates and fingerprints its PlutoOptions once,
/// exposes every stage with memoized intermediate artifacts, and plugs
/// into the content-addressed result cache and the concurrent batch driver
/// (service/Batch.h). One-shot traffic uses its CompileRequest /
/// CompileResponse API (service/CompileService.h), whose StatusCode
/// taxonomy is shared by the CLI exit codes and the plutod wire protocol.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_DRIVER_DRIVER_H
#define PLUTOPP_DRIVER_DRIVER_H

#include "codegen/CEmitter.h"
#include "codegen/CodeGen.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "tile/Tiling.h"
#include "support/Budget.h"
#include "transform/PlutoTransform.h"

#include <climits>
#include <optional>
#include <span>
#include <string_view>

namespace pluto {

/// Options for the optimization pipeline. Construct, adjust fields, then
/// hand to Pipeline::create(), which rejects invalid combinations via
/// validate(). The fields are exactly the nine PlutoOptions rows of
/// optionTable() below.
struct PlutoOptions {
  /// Tile every permutable band of width >= 2 (Algorithm 1).
  bool Tile = true;
  unsigned TileSize = 32;
  /// Tile the tile space once more (L2 tiling, Section 5.2 "Tiling multiple
  /// times"); the L2 size multiplies the L1 size.
  bool SecondLevelTile = false;
  unsigned L2TileSize = 8;
  /// Extract coarse-grained parallelism: mark communication-free bands
  /// parallel, wavefront pipelined bands (Algorithm 2).
  bool Parallelize = true;
  unsigned WavefrontDegrees = 1;
  /// Intra-tile reordering + vectorization pragma (Section 5.4).
  bool Vectorize = true;
  /// Consider read-after-read dependences (Section 4.1).
  bool IncludeInputDeps = true;
  /// Context assumption added for every parameter: p >= ParamMin.
  long long ParamMin = 4;

  /// Checks every field against its row's minimum (zero tile sizes would
  /// build degenerate supernodes, zero wavefront degrees an empty
  /// wavefront, a negative ParamMin an unintended context). Returns true
  /// on success, an error message naming the offending flag otherwise.
  Result<bool> validate() const;

  bool operator==(const PlutoOptions &O) const = default;

  /// Canonical form for fingerprinting: fields the pipeline ignores under
  /// the current toggles are reset to their defaults, so semantically
  /// identical option sets collapse onto one fingerprint (and one cache
  /// key). Concretely: TileSize and the whole L2 level when Tile is off,
  /// L2TileSize when SecondLevelTile is off, and WavefrontDegrees when the
  /// wavefront can never fire (it requires Parallelize and Tile). Equality
  /// stays field-wise; only fingerprint() looks through this.
  PlutoOptions normalized() const;

  /// Stable, human-readable canonical encoding of every field, computed on
  /// normalized(): `name=value;` for each table row in table order. Two
  /// option sets that cannot produce different output share one
  /// fingerprint, and any output-affecting field change produces a
  /// different one; the service layer hashes it into the content-addressed
  /// cache key (DESIGN.md section 9).
  std::string fingerprint() const;
};

/// One client-settable value, described once: a PlutoOptions field the
/// wire carries or a BudgetLimits member. Name is the wire key and the
/// fingerprint token; the command-line flag is `--` plus Name with `-` for
/// `_`, and bool rows also take `--no-`. Flag parsing and help, the NDJSON
/// codec, fingerprint() and validate() are all generated from
/// optionTable(), so a field is spelled in exactly one place.
struct OptionField {
  enum class Kind { Bool, Unsigned, Int, Budget };

  constexpr OptionField(const char *N, bool PlutoOptions::*M, const char *H)
      : Name(N), K(Kind::Bool), Help(H), Flag(M) {}
  constexpr OptionField(const char *N, unsigned PlutoOptions::*M,
                        long long Lo, const char *H)
      : Name(N), K(Kind::Unsigned), Min(Lo), Help(H), Uint(M) {}
  constexpr OptionField(const char *N, long long PlutoOptions::*M,
                        long long Lo, const char *H)
      : Name(N), K(Kind::Int), Min(Lo), Help(H), Int(M) {}
  /// A budget row; its value is the member >> Shift (MiB for bytes).
  constexpr OptionField(const char *N, uint64_t BudgetLimits::*M,
                        const char *H, unsigned S = 0)
      : Name(N), K(Kind::Budget), Help(H), Limit(M), Shift(S) {}

  const char *Name;
  Kind K;
  /// Smallest value validate() accepts.
  long long Min = 0;
  const char *Help;
  bool PlutoOptions::*Flag = nullptr;
  unsigned PlutoOptions::*Uint = nullptr;
  long long PlutoOptions::*Int = nullptr;
  uint64_t BudgetLimits::*Limit = nullptr;
  unsigned Shift = 0;

  bool isBudget() const { return K == Kind::Budget; }
  /// "--tile-size" for the row "tile_size".
  std::string flag() const;
  /// The range the member can hold, in the units of get() (bools: 0..1).
  long long lowest() const;
  long long highest() const;
  /// The value as the wire and the fingerprint spell it.
  long long get(const PlutoOptions &O, const BudgetLimits &B) const;
  /// Stores V; false, storing nothing, when V is outside lowest()..highest().
  bool set(PlutoOptions &O, BudgetLimits &B, long long V) const;
};

/// The nine PlutoOptions rows, then the three BudgetLimits rows, in wire
/// and fingerprint order.
std::span<const OptionField> optionTable();

/// Applies Arg when it is a table flag: `--name=N` for integer rows,
/// `--name` / `--no-name` for bool rows. Returns false when Arg is not a
/// table flag (the caller goes on to its own flags) and an error - a bad
/// request, exit 2 - when the value does not parse or does not fit.
Result<bool> parseOptionFlag(std::string_view Arg, PlutoOptions &O,
                             BudgetLimits &B);

/// The --help lines of every table flag, each showing its default.
std::string optionFlagsHelp();

/// The one integer parser of the command lines and the tune spec: the
/// whole of Text must be a decimal integer in [Lo, Hi]. Empty text,
/// trailing junk and out-of-range values yield nullopt.
std::optional<long long> parseInteger(std::string_view Text,
                                      long long Lo = LLONG_MIN,
                                      long long Hi = LLONG_MAX);

/// Everything the pipeline produced, stage by stage.
struct PlutoResult {
  ParsedProgram Parsed;
  DependenceGraph DG;
  Schedule Sched;
  Scop Sc;
  CgNodePtr Ast;

  const Program &program() const { return Parsed.Prog; }
};

} // namespace pluto

#endif // PLUTOPP_DRIVER_DRIVER_H
