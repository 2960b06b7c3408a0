//===- driver/Driver.cpp - The option table and its users -----------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// The option table every client-facing spelling of an option comes from,
// with the PlutoOptions contract (validate / fingerprint) built on it. The
// stage implementations live in service/Pipeline.cpp.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include <algorithm>
#include <charconv>

using namespace pluto;

namespace {

using Kind = OptionField::Kind;

constexpr OptionField Table[] = {
    {"tile", &PlutoOptions::Tile, "tile permutable bands"},
    {"tile_size", &PlutoOptions::TileSize, 1, "tile size"},
    {"l2tile", &PlutoOptions::SecondLevelTile, "second-level tiling"},
    {"l2tile_size", &PlutoOptions::L2TileSize, 1,
     "L2 factor, multiplies the L1 size"},
    {"parallel", &PlutoOptions::Parallelize,
     "extract parallelism + pragmas"},
    {"wavefront_degrees", &PlutoOptions::WavefrontDegrees, 1,
     "degrees of pipelined parallelism"},
    {"vectorize", &PlutoOptions::Vectorize, "intra-tile reordering + simd"},
    {"include_input_deps", &PlutoOptions::IncludeInputDeps,
     "RAR deps in the cost model"},
    {"param_min", &PlutoOptions::ParamMin, 0, "context assumption p >= N"},
    {"timeout_ms", &BudgetLimits::WallMs, "wall-clock milliseconds"},
    {"max_memory_mb", &BudgetLimits::MaxMemoryBytes,
     "tracked transient allocations, MiB", 20},
    {"max_work", &BudgetLimits::MaxWorkUnits,
     "work units: statements, FM rows, pivots"},
};

} // namespace

std::span<const OptionField> pluto::optionTable() { return Table; }

std::string OptionField::flag() const {
  std::string F = std::string("--") + Name;
  std::replace(F.begin() + 2, F.end(), '_', '-');
  return F;
}

long long OptionField::lowest() const {
  return K == Kind::Int ? LLONG_MIN : 0;
}

long long OptionField::highest() const {
  switch (K) {
  case Kind::Bool:
    return 1;
  case Kind::Unsigned:
    return UINT_MAX;
  case Kind::Int:
    return LLONG_MAX;
  case Kind::Budget:
    return static_cast<long long>(std::min<uint64_t>(UINT64_MAX >> Shift,
                                                     LLONG_MAX));
  }
  return 0;
}

long long OptionField::get(const PlutoOptions &O,
                           const BudgetLimits &B) const {
  switch (K) {
  case Kind::Bool:
    return O.*Flag;
  case Kind::Unsigned:
    return O.*Uint;
  case Kind::Int:
    return O.*Int;
  case Kind::Budget:
    return static_cast<long long>(B.*Limit >> Shift);
  }
  return 0;
}

bool OptionField::set(PlutoOptions &O, BudgetLimits &B, long long V) const {
  if (V < lowest() || V > highest())
    return false;
  switch (K) {
  case Kind::Bool:
    O.*Flag = V != 0;
    break;
  case Kind::Unsigned:
    O.*Uint = static_cast<unsigned>(V);
    break;
  case Kind::Int:
    O.*Int = V;
    break;
  case Kind::Budget:
    B.*Limit = static_cast<uint64_t>(V) << Shift;
    break;
  }
  return true;
}

std::optional<long long> pluto::parseInteger(std::string_view Text,
                                             long long Lo, long long Hi) {
  long long V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Ptr != End || V < Lo || V > Hi)
    return std::nullopt;
  return V;
}

Result<bool> pluto::parseOptionFlag(std::string_view Arg, PlutoOptions &O,
                                    BudgetLimits &B) {
  for (const OptionField &F : Table) {
    std::string Flag = F.flag();
    if (F.K == Kind::Bool) {
      if (Arg == Flag || Arg == "--no-" + Flag.substr(2)) {
        F.set(O, B, Arg == Flag);
        return true;
      }
      continue;
    }
    if (!Arg.starts_with(Flag + "="))
      continue;
    std::string_view Text = Arg.substr(Flag.size() + 1);
    auto V = parseInteger(Text);
    if (!V || !F.set(O, B, *V))
      return Err("bad value '" + std::string(Text) + "' for " + Flag +
                 " (expected an integer in [" + std::to_string(F.lowest()) +
                 ", " + std::to_string(F.highest()) + "])");
    return true;
  }
  return false;
}

std::string pluto::optionFlagsHelp() {
  const PlutoOptions DefaultOpts;
  const BudgetLimits DefaultBudget;
  std::string Out = "transformation options (defaults shown):\n";
  bool InBudget = false;
  for (const OptionField &F : Table) {
    if (F.isBudget() && !InBudget) {
      InBudget = true;
      Out += "\nresource budget per compile (0 = unlimited; exceeding a "
             "limit exits 4):\n";
    }
    std::string Flag = F.flag();
    long long Default = F.get(DefaultOpts, DefaultBudget);
    std::string Shown = std::to_string(Default);
    if (F.K == Kind::Bool) {
      Flag += " / --no-" + Flag.substr(2);
      Shown = Default ? "on" : "off";
    } else {
      Flag += "=N";
    }
    Out += "  " + Flag;
    Out += Flag.size() < 32 ? std::string(32 - Flag.size(), ' ')
                            : "\n" + std::string(34, ' ');
    Out += std::string(F.Help) + " (" + Shown + ")\n";
  }
  return Out;
}

Result<bool> PlutoOptions::validate() const {
  for (const OptionField &F : Table)
    if (!F.isBudget() && F.get(*this, BudgetLimits()) < F.Min)
      return Err("invalid options: " + F.flag() + " must be at least " +
                 std::to_string(F.Min) + " (" + F.Help + ")");
  return true;
}

PlutoOptions PlutoOptions::normalized() const {
  // Reset every field the pipeline cannot observe under the current
  // toggles to its default, so "tiled off but tile size 64" and "tiled
  // off, tile size 16" fingerprint (and cache) identically. The defaults
  // come from a fresh PlutoOptions so this never drifts from the header.
  const PlutoOptions Defaults;
  PlutoOptions N = *this;
  if (!N.Tile) {
    // Tiling off: no supernodes are built, so the sizes and the second
    // level are dead knobs.
    N.TileSize = Defaults.TileSize;
    N.SecondLevelTile = Defaults.SecondLevelTile;
    N.L2TileSize = Defaults.L2TileSize;
  }
  if (!N.SecondLevelTile)
    N.L2TileSize = Defaults.L2TileSize;
  // The wavefront only fires on tiled bands with parallelism extraction on
  // (lowerSchedule applies it under Parallelize && Tile).
  if (!N.Parallelize || !N.Tile)
    N.WavefrontDegrees = Defaults.WavefrontDegrees;
  return N;
}

std::string PlutoOptions::fingerprint() const {
  // `name=value;` per table row in table order, computed on the normalized
  // form so semantically identical option sets alias to one fingerprint.
  // The encoding itself is the fingerprint (it is short and diffable in
  // logs); the service layer hashes it together with the canonical source
  // into the cache key.
  const PlutoOptions N = normalized();
  std::string Out;
  for (const OptionField &F : Table)
    if (!F.isBudget())
      Out += std::string(F.Name) + "=" +
             std::to_string(F.get(N, BudgetLimits())) + ";";
  return Out;
}
