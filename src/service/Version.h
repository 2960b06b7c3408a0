//===- service/Version.h - Toolchain and cache-format versions --*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Version identifiers the compilation service bakes into every
/// content-addressed cache key and into the on-disk cache layout. Bump
/// ToolchainVersion whenever any pass can emit different C for the same
/// (source, options) pair - stale entries then miss instead of serving
/// wrong code. Bump CacheDiskFormatVersion only when the on-disk layout
/// itself changes; old `v<N>` subdirectories are simply ignored by newer
/// binaries (DESIGN.md section 9).
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SERVICE_VERSION_H
#define PLUTOPP_SERVICE_VERSION_H

namespace pluto {

/// Identity of the transformation toolchain, part of every cache key.
inline constexpr const char ToolchainVersion[] = "plutopp-5";

/// Layout version of the persistent cache directory (the `v1/` subdir).
inline constexpr unsigned CacheDiskFormatVersion = 1;

} // namespace pluto

#endif // PLUTOPP_SERVICE_VERSION_H
