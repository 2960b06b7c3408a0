//===- tools/CliFiles.h - Input and output files of the CLIs ----*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How plutopp and plutoctl read their inputs and create, name and write
/// their output files, kept in one place so the in-process and daemon
/// paths cannot drift apart. Every failure is reported on stderr as
/// `TOOL: ...` and is an I/O error (exit 1).
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_TOOLS_CLIFILES_H
#define PLUTOPP_TOOLS_CLIFILES_H

#include "service/CompileService.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

namespace pluto::cli {

/// One request per path in Paths under Opts and Budget, or a single
/// `<stdin>` unit when Paths is empty. nullopt when a path cannot be
/// opened or names a directory.
inline std::optional<std::vector<CompileRequest>>
readInputs(const char *Tool, const std::vector<std::string> &Paths,
           const PlutoOptions &Opts, const BudgetLimits &Budget) {
  auto Unit = [&](std::string Name, std::istream &In) {
    std::ostringstream SS;
    SS << In.rdbuf();
    return CompileRequest{std::move(Name), SS.str(), Opts, Budget};
  };
  std::vector<CompileRequest> Units;
  if (Paths.empty())
    Units.push_back(Unit("<stdin>", std::cin));
  for (const std::string &Path : Paths) {
    std::error_code Ec;
    std::ifstream In(Path);
    if (!In || std::filesystem::is_directory(Path, Ec)) {
      std::fprintf(stderr, "%s: cannot open '%s'\n", Tool, Path.c_str());
      return std::nullopt;
    }
    Units.push_back(Unit(Path, In));
  }
  return Units;
}

/// Creates the --out-dir Dir and its parents.
inline bool makeOutDir(const char *Tool, const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec || !std::filesystem::is_directory(Dir)) {
    std::fprintf(stderr, "%s: cannot create --out-dir '%s'\n", Tool,
                 Dir.c_str());
    return false;
  }
  return true;
}

/// The --out-dir file of the unit Name: `path/to/foo.c` -> `Dir/foo.pluto.c`.
inline std::string outDirPath(const std::string &Dir,
                              const std::string &Name) {
  std::string Stem = std::filesystem::path(Name).stem().string();
  return Dir + "/" + (Stem.empty() ? "unit" : Stem) + ".pluto.c";
}

/// False, after naming both inputs on stderr, when two of Paths would
/// write the same --out-dir file. That is a bad request (exit 2), caught
/// before any input is read.
inline bool distinctOutDirPaths(const char *Tool, const std::string &Dir,
                                const std::vector<std::string> &Paths) {
  std::map<std::string, const std::string *> Owner;
  for (const std::string &Path : Paths) {
    auto [It, Fresh] = Owner.emplace(outDirPath(Dir, Path), &Path);
    if (!Fresh) {
      std::fprintf(stderr, "%s: '%s' and '%s' would both write '%s'\n", Tool,
                   It->second->c_str(), Path.c_str(), It->first.c_str());
      return false;
    }
  }
  return true;
}

/// Writes Text to Path, replacing it.
inline bool writeFile(const char *Tool, const std::string &Path,
                      const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (Out)
    Out.write(Text.data(), static_cast<std::streamsize>(Text.size()));
  if (!Out)
    std::fprintf(stderr, "%s: cannot write '%s'\n", Tool, Path.c_str());
  return bool(Out);
}

} // namespace pluto::cli

#endif // PLUTOPP_TOOLS_CLIFILES_H
