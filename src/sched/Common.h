//===-- sched/Common.h - Shared scheduler definitions -----------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Definitions shared between the scheduler, the runtime layer and the
/// record/replay machinery.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SCHED_COMMON_H
#define TSR_SCHED_COMMON_H

#include "support/Desync.h"
#include "support/VectorClock.h"

#include <cstdint>

namespace tsr {

/// Session execution mode (§4): Free runs without a demo, Record captures
/// one, Replay enforces one.
enum class Mode : unsigned {
  Free = 0,
  Record,
  Replay,
};

/// Scheduling strategy (§3). Random and Queue are the paper's strategies;
/// RoundRobin is a deterministic debugging aid; Pct implements the
/// probabilistic concurrency testing algorithm and DelayBounded the
/// schedule-bounding family the paper names as future work (§7; [12] and
/// [26, 61]).
enum class StrategyKind : unsigned {
  Random = 0,
  Queue,
  RoundRobin,
  Pct,
  DelayBounded,
};

/// Returns a human-readable strategy name.
const char *strategyName(StrategyKind Kind);

/// What a disabled thread is blocked on (§3.2).
enum class WaitKind : unsigned {
  None = 0,
  Join,  ///< ThreadJoin(tid): waiting for a thread to finish.
  Mutex, ///< MutexLockFail(m): waiting for a mutex to be released.
  Cond,  ///< CondWait(c): waiting for a signal or broadcast.
};

/// Virtual signal numbers. Values mirror POSIX for readability but carry no
/// OS meaning; delivery is entirely within the session.
using Signo = int;

} // namespace tsr

#endif // TSR_SCHED_COMMON_H
