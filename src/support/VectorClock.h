//===-- support/VectorClock.h - Vector clocks -------------------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vector clocks tracking the happens-before relation, in the style of the
/// tsan/FastTrack race-detection algorithms the paper builds on (§2).
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_VECTORCLOCK_H
#define TSR_SUPPORT_VECTORCLOCK_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace tsr {

/// Thread identifier. Thread 0 is the controlled main thread.
using Tid = uint32_t;

/// Capacity of every per-thread table (scheduler, race detector, trace
/// rings), fixed so entries never move under lock-free readers. Tids are
/// dense and never reused, so a session registers at most this many.
inline constexpr Tid MaxThreads = 1024;

/// Sentinel: no thread.
inline constexpr Tid InvalidTid = ~static_cast<Tid>(0);

/// Sentinel designation used by the queue strategy when no thread is
/// waiting: the next thread to arrive at Wait() proceeds immediately
/// (first come, first served).
inline constexpr Tid AnyTid = InvalidTid - 1;

/// A scalar clock component.
using Epoch = uint64_t;

/// A vector clock: one logical clock per thread, extended on demand.
///
/// Missing components are implicitly zero, so clocks for sessions with many
/// short-lived threads stay small until those threads synchronise.
class VectorClock {
public:
  VectorClock() = default;

  /// Returns the component for \p T (zero if never set).
  Epoch get(Tid T) const { return T < Clock.size() ? Clock[T] : 0; }

  /// Sets the component for \p T.
  void set(Tid T, Epoch E) {
    grow(T);
    Clock[T] = E;
  }

  /// Increments and returns the new component for \p T.
  Epoch tick(Tid T) {
    grow(T);
    return ++Clock[T];
  }

  /// Pointwise maximum with \p Other (the "join" at acquire operations).
  void join(const VectorClock &Other) {
    if (Other.Clock.size() > Clock.size())
      Clock.resize(Other.Clock.size(), 0);
    for (size_t I = 0, E = Other.Clock.size(); I != E; ++I)
      Clock[I] = std::max(Clock[I], Other.Clock[I]);
  }

  /// True if every component of this clock is <= the corresponding
  /// component of \p Other, i.e. this clock happens-before-or-equals Other.
  bool leq(const VectorClock &Other) const {
    for (size_t I = 0, E = Clock.size(); I != E; ++I)
      if (Clock[I] > Other.get(static_cast<Tid>(I)))
        return false;
    return true;
  }

  /// True if the single epoch (\p T, \p E) is covered by this clock, i.e.
  /// the event it denotes happens-before any event at or after this clock.
  bool covers(Tid T, Epoch E) const { return get(T) >= E; }

  bool operator==(const VectorClock &Other) const {
    const size_t N = std::max(Clock.size(), Other.Clock.size());
    for (size_t I = 0; I != N; ++I)
      if (get(static_cast<Tid>(I)) != Other.get(static_cast<Tid>(I)))
        return false;
    return true;
  }

  void clear() { Clock.clear(); }

  /// Number of explicitly stored components.
  size_t size() const { return Clock.size(); }

  /// Raw component storage (size() entries; components beyond it are
  /// implicitly zero). Lets hot comparison loops avoid per-component
  /// bounds checks.
  const Epoch *components() const { return Clock.data(); }

  /// Renders the clock as "[c0, c1, ...]" for diagnostics.
  std::string str() const {
    std::string S = "[";
    for (size_t I = 0, E = Clock.size(); I != E; ++I) {
      if (I)
        S += ", ";
      S += std::to_string(Clock[I]);
    }
    S += "]";
    return S;
  }

private:
  void grow(Tid T) {
    if (T >= Clock.size())
      Clock.resize(T + 1, 0);
  }

  std::vector<Epoch> Clock;
};

} // namespace tsr

#endif // TSR_SUPPORT_VECTORCLOCK_H
