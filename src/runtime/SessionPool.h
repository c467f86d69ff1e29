//===-- runtime/SessionPool.h - Multi-session record service ----*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SessionPool runs N independent record/replay sessions concurrently in
/// one process — the fleet-scale deployment story of sparse recording:
/// always-on capture of many workloads, each with its own scheduler,
/// demo directory, metrics and recovery state, sharing nothing but the
/// process-wide fatal-signal flush registry. A pooled session writes its
/// streams through its own chunked writer, exactly as a solo session
/// does; the pool only picks the directory.
///
/// Typical use:
/// \code
///   tsr::SessionPool::Options PO;
///   PO.DemoRoot = "demos";
///   tsr::SessionPool Pool(PO);
///   for (int I = 0; I != 256; ++I)
///     Pool.submit({tsr::formatString("httpd-%03d", I), makeConfig(I),
///                  setupWorld, workload});
///   tsr::FleetReport Fleet = Pool.runAll();
/// \endcode
///
/// Salvaged sessions (deadlock or watchdog stall) leave straggler
/// threads parked forever; the pool retires them through the scheduler's
/// straggler-retire protocol so their OS threads, sessions and parked
/// schedulers are actually reclaimed — a long-lived pool does not leak
/// one scheduler per salvage the way a lone Session does.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_RUNTIME_SESSIONPOOL_H
#define TSR_RUNTIME_SESSIONPOOL_H

#include "runtime/Session.h"

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tsr {

/// One workload the pool will run as its own session.
struct PoolSessionSpec {
  /// Names the session's demo subdirectory (DemoRoot/Name) and its row in
  /// the fleet report. A recording under DemoRoot needs a name that is
  /// one path component (non-empty, not "." or "..", no '/'), and no two
  /// recordings of one runAll() may share a directory.
  std::string Name;

  /// Full per-session configuration (preset + mode + seeds). When the
  /// pool has a DemoRoot and the session records, Flush.Directory and
  /// Flush.EveryTicks are overwritten to record into DemoRoot/Name.
  SessionConfig Config;

  /// Optional world setup (peers, files) run against the session before
  /// run() — the equivalent of touching Session::env() directly.
  std::function<void(Session &)> Setup;

  /// The controlled main thread's body.
  std::function<void()> Body;
};

/// One session's outcome inside the fleet.
struct PoolSessionResult {
  std::string Name;
  size_t Index = 0;
  RunReport Report;
  /// Wall seconds of this session's run() alone.
  double WallSeconds = 0.0;
  /// The run ended salvaged (deadlock or watchdog stall) and went through
  /// straggler retire.
  bool Salvaged = false;
  /// The session ran in replay mode (feeds FleetReport::CleanReplays).
  bool Replay = false;
};

/// Fleet-level rollup of a runAll() batch: per-session results plus the
/// summed metrics registry (the same aggregation shape tsr-telemetry-
/// rollup applies to streamed telemetry).
struct FleetReport {
  std::vector<PoolSessionResult> Sessions;

  /// Every dotted counter summed across the fleet.
  MetricsSnapshot Totals;

  size_t SessionsRun = 0;
  /// Replay sessions that finished without a hard desync.
  size_t CleanReplays = 0;
  size_t HardDesyncs = 0;
  size_t Deadlocks = 0;
  size_t StallSalvages = 0;
  /// Salvaged sessions whose stragglers retired in time (fully
  /// reclaimed) vs. those parked as zombies past the retire timeout.
  size_t ZombiesRetired = 0;
  size_t ZombiesLeaked = 0;
  double WallSeconds = 0.0;

  /// {"sessions":N,...,"totals":{...}} — summary plus Totals.toJson().
  std::string toJson() const;
};

/// Runs submitted session specs on a bounded worker set. Owns no thread
/// outside runAll(). Not reusable concurrently: submit() then runAll()
/// from one controlling thread (runAll may be called again after further
/// submits).
class SessionPool {
public:
  struct Options {
    /// Sessions running concurrently; 0 means hardware_concurrency.
    unsigned Concurrency = 0;

    /// Root directory for fleet recordings: session \c Name records into
    /// DemoRoot/Name. Empty leaves each spec's own Flush policy alone.
    std::string DemoRoot;

    /// Flush cadence applied to DemoRoot recordings. Every recording
    /// with a live writer registers for the fatal-signal fleet flush.
    uint64_t FlushEveryTicks = 64;

    /// How long to wait for a salvaged session's stragglers to retire
    /// before parking it as a zombie.
    uint64_t RetireTimeoutMs = 2000;
  };

  SessionPool();
  explicit SessionPool(Options Opts);
  ~SessionPool();
  SessionPool(const SessionPool &) = delete;
  SessionPool &operator=(const SessionPool &) = delete;

  /// Enqueues one session spec for the next runAll().
  void submit(PoolSessionSpec Spec);

  /// Runs every queued spec to completion (bounded concurrency) and
  /// returns the fleet rollup. Before any session starts, fatal()s naming
  /// the spec when a recording's DemoRoot name is not one path component
  /// or two recordings would write the same directory. Salvaged sessions
  /// are retired; parked schedulers whose stragglers exited are drained
  /// before returning.
  FleetReport runAll();

  /// Salvaged sessions whose stragglers have still not exited. Each one
  /// pins its Session object and parked scheduler alive.
  size_t zombieCount() const;

  /// Retries reclaiming zombies (stragglers may have exited since);
  /// returns how many were reclaimed.
  size_t reapZombies(uint64_t TimeoutMs);

private:
  struct Zombie {
    std::unique_ptr<Session> S;
    std::string Name;
  };

  PoolSessionResult runOne(PoolSessionSpec &&Spec, size_t Index,
                           size_t &RetiredOut, size_t &LeakedOut);

  /// The demo directory \p Spec records into, or "" when it writes none.
  std::string recordDirectory(const PoolSessionSpec &Spec) const;

  Options Opts;
  std::deque<PoolSessionSpec> Pending;

  mutable std::mutex ZombiesMu;
  std::vector<Zombie> Zombies;
};

} // namespace tsr

#endif // TSR_RUNTIME_SESSIONPOOL_H
