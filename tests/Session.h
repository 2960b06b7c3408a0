//===- tests/Session.h - The shared Pipeline session shorthand ---*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one shorthand over Pipeline the tests and the figure benchmarks
/// share: a session already set to a source unit. The stage accessors
/// return pointers into the session, so keep it alive while they are used:
///
///   Pipeline S = session(Src, Opts);
///   auto R = S.lowered();
///   ASSERT_TRUE(R) << R.error();
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_TESTS_SESSION_H
#define PLUTOPP_TESTS_SESSION_H

#include "service/Pipeline.h"

#include <stdexcept>

namespace pluto {

/// A session over Source under Opts. Invalid options throw, which fails the
/// calling test.
inline Pipeline session(const std::string &Source,
                        const PlutoOptions &Opts = PlutoOptions()) {
  auto P = Pipeline::create(Opts);
  if (!P)
    throw std::invalid_argument(P.error());
  P->setSource(Source);
  return P.takeValue();
}

} // namespace pluto

#endif // PLUTOPP_TESTS_SESSION_H
