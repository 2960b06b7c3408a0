//===- observe/Trace.h - Human-readable decision trace ----------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An ordered log of the decisions the toolchain made during one run: the
/// hyperplane found for each band level, every SCC cut and the reason, each
/// band tiled or wavefronted, and the final per-loop classification. Like
/// PassStats, the trace is opt-in through a global pointer and free when
/// disabled; unlike the counters it builds strings, so producers must guard
/// message construction behind activeTrace(), and only a run that compiles
/// one unit at a time may install one.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_OBSERVE_TRACE_H
#define PLUTOPP_OBSERVE_TRACE_H

#include <atomic>
#include <string>
#include <vector>

namespace pluto {

/// One recorded decision.
struct TraceEvent {
  std::string Stage;   ///< "transform", "tile", "codegen", "driver", ...
  std::string Message; ///< e.g. "found hyperplane (1, 1) for S0"
};

/// The ordered decision log of one run.
class Trace {
public:
  void record(std::string Stage, std::string Message) {
    Events.push_back({std::move(Stage), std::move(Message)});
  }
  const std::vector<TraceEvent> &events() const { return Events; }
  void clear() { Events.clear(); }

  /// Renders the trace as indented text, one "[stage] message" per line.
  std::string toText() const;

  /// Renders the trace as a JSON array of {"stage", "message"} objects
  /// (the "trace" member of the DESIGN.md section 8 report document).
  std::string toJson() const;

private:
  std::vector<TraceEvent> Events;
};

namespace detail {
extern std::atomic<Trace *> ActiveTrace;
} // namespace detail

/// The currently-installed trace, or null when tracing is off. Producers
/// must build messages only inside `if (Trace *T = activeTrace())`.
inline Trace *activeTrace() {
  return detail::ActiveTrace.load(std::memory_order_relaxed);
}

/// Installs (or removes, with null) the global trace. Serial passes only.
inline void setActiveTrace(Trace *T) {
  detail::ActiveTrace.store(T, std::memory_order_relaxed);
}

} // namespace pluto

#endif // PLUTOPP_OBSERVE_TRACE_H
