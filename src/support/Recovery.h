//===-- support/Recovery.h - Adaptive replay recovery -----------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recovery subsystem: structured actions taken to keep a divergent or
/// stalled run alive instead of failing it.
///
/// Sparse recording leaves invisible work unrecorded, so replay divergence
/// is an *expected* operating mode (§4), not an error. Strict mode keeps
/// today's bit-exact behaviour: the first unenforceable constraint is a
/// hard desynchronisation. Resync adds a bounded windowed forward search
/// in the per-stream cursors — a run that merely skipped or reordered a
/// few visible ops re-locks onto the script. Adaptive additionally
/// degrades persistently-divergent threads to per-thread free-run and
/// synthesizes missing SYSCALL results from the live environment, so a
/// batch sweep over thousands of partially-divergent demos never wedges.
///
/// Every recovery decision is recorded as a RecoveryAction in a
/// RecoveryLog owned by the session; the actions are attached to the
/// DesyncReport timeline, surfaced in RunReport::Recovered, exported as
/// recovery.* metrics, and optionally persisted next to the demo as a
/// RECOVERY sidecar that `tsr-demo-dump verify` reports.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_RECOVERY_H
#define TSR_SUPPORT_RECOVERY_H

#include "support/Demo.h"
#include "support/VectorClock.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tsr {

/// How much divergence replay tolerates before declaring a hard desync.
enum class RecoveryMode : uint8_t {
  /// Today's bit-exact behaviour: any unenforceable recorded constraint is
  /// a hard desynchronisation (free-run with a frozen report). The
  /// default; every pre-existing test and demo replays identically.
  Strict = 0,

  /// Bounded windowed forward search: a mismatched QUEUE entry or SYSCALL
  /// record is skipped (with annotation) if a matching one exists within
  /// the search window; window exhaustion falls back to Strict's hard
  /// desync.
  Resync,

  /// Resync plus graceful degradation: window exhaustion synthesizes the
  /// syscall from the live environment instead of desyncing, and a
  /// persistently-divergent thread drops to per-thread free-run while the
  /// rest stay on script. Adaptive replay never hard-desyncs on the
  /// SYSCALL stream.
  Adaptive,
};

/// Human-readable name of \p Mode ("strict", "resync", "adaptive").
const char *recoveryModeName(RecoveryMode Mode);

/// One kind of recovery decision.
enum class RecoveryActionKind : uint8_t {
  /// A windowed forward search skipped Count mismatched records/entries in
  /// Stream and re-locked onto the script.
  SkipForward = 0,

  /// A missing or unmatched SYSCALL record was synthesized by issuing the
  /// call against the live environment.
  SynthesizeSyscall,

  /// Thread degraded to per-thread free-run after Count consecutive
  /// divergences; its later recordable syscalls issue natively while the
  /// other threads stay on script.
  ThreadFreeRun,

  /// The QUEUE search window was exhausted; the whole schedule fell back
  /// to first-come-first-served free-run (soft desync).
  ScheduleFreeRun,

  /// A transient syscall error (EINTR/EAGAIN/short transfer) was absorbed
  /// by the deterministic retry policy; Count is the attempt number.
  RetryBackoff,

  /// Watchdog rung 1: the tick frontier stalled past the warn deadline.
  WatchdogWarn,

  /// Watchdog rung 2: a forced strategy decision / broadcast wake.
  WatchdogNudge,

  /// Watchdog rung 3: salvaging shutdown — the recording was flushed and
  /// the run unwound with a consistent, replayable demo prefix.
  WatchdogSalvage,
};

/// Number of RecoveryActionKind values.
inline constexpr unsigned NumRecoveryActionKinds = 8;

/// Human-readable name of \p Kind ("skip-forward", ...).
const char *recoveryActionKindName(RecoveryActionKind Kind);

/// One recovery decision, stamped with where it happened.
struct RecoveryAction {
  RecoveryActionKind Kind = RecoveryActionKind::SkipForward;

  /// Global tick counter when the action was taken.
  uint64_t Tick = 0;

  /// Thread on whose behalf the action was taken (InvalidTid when no
  /// single thread is implicated, e.g. watchdog rungs).
  Tid Thread = InvalidTid;

  /// The demo stream the action applies to (Meta for watchdog rungs).
  StreamKind Stream = StreamKind::Meta;

  /// Kind-specific magnitude: records/entries skipped (SkipForward),
  /// consecutive divergences (ThreadFreeRun), retry attempt number
  /// (RetryBackoff), stalled milliseconds (watchdog rungs).
  uint64_t Count = 0;

  /// Free-form human-readable context.
  std::string Detail;
};

/// Renders \p A as a one-line diagnostic.
std::string renderRecoveryAction(const RecoveryAction &A);

/// Tuning knobs for adaptive recovery (SessionConfig::Recovery). The
/// forward-search windows are fixed: 8 whole SYSCALL records
/// (runtime/Session.cpp) and 64 QUEUE entries (sched/Scheduler.cpp).
struct RecoveryPolicy {
  RecoveryMode Mode = RecoveryMode::Strict;

  /// Consecutive per-thread divergences before the thread degrades to
  /// per-thread free-run (Adaptive only).
  uint32_t ThreadFreeRunThreshold = 3;

  /// When non-empty, the session writes a RECOVERY sidecar summarising
  /// the actions into this demo directory at the end of the run (the
  /// watchdog's salvaging shutdown also writes one into the live flush
  /// directory automatically).
  std::string SidecarDir;
};

/// Thread-safe collector of RecoveryActions. The scheduler appends under
/// its own lock and the session from inside critical sections; the
/// internal mutex is a leaf lock.
class RecoveryLog {
public:
  /// Cap on retained RecoveryAction records; later actions are counted
  /// (dropped()) but left off the timeline.
  static constexpr uint32_t MaxActions = 4096;

  /// Appends one action (drops the record but counts it past MaxActions).
  void record(RecoveryAction A);

  /// Copy of every retained action, in order.
  std::vector<RecoveryAction> snapshot() const;

  /// Total actions of \p Kind recorded (including dropped ones).
  uint64_t countOf(RecoveryActionKind Kind) const;

  /// Total actions touching \p Stream (including dropped ones).
  uint64_t countForStream(StreamKind Stream) const;

  /// Total actions recorded (including dropped ones).
  uint64_t total() const;

  /// Actions dropped past the retention limit.
  uint64_t dropped() const;

private:
  mutable std::mutex Mu;
  std::vector<RecoveryAction> Actions;
  uint64_t Dropped = 0;
  uint64_t ByKind[NumRecoveryActionKinds] = {};
  uint64_t ByStream[NumStreamKinds] = {};
};

/// On-disk file name of the recovery sidecar inside a demo directory.
inline constexpr const char *RecoverySidecarFileName = "RECOVERY";

/// Parsed (or failed-to-parse) RECOVERY sidecar.
struct RecoverySidecarInfo {
  /// A RECOVERY file exists in the directory.
  bool Present = false;

  /// It decoded and its checksum matched.
  bool Valid = false;

  /// Typed parse error when Present && !Valid.
  std::string Error;

  /// Action totals (valid sidecars only).
  uint64_t Total = 0;
  uint64_t ByKind[NumRecoveryActionKinds] = {};
  uint64_t ByStream[NumStreamKinds] = {};

  /// The retained action records.
  std::vector<RecoveryAction> Actions;
};

/// Writes \p Actions as a checksummed RECOVERY sidecar into demo
/// directory \p Dir. Returns false with \p Error set on I/O failure.
bool saveRecoverySidecar(const std::string &Dir,
                         const std::vector<RecoveryAction> &Actions,
                         std::string &Error);

/// Loads the RECOVERY sidecar from \p Dir, tolerating any corruption:
/// a damaged sidecar yields Present && !Valid with a typed error, never a
/// crash. Returns Out.Present.
bool loadRecoverySidecar(const std::string &Dir, RecoverySidecarInfo &Out);

} // namespace tsr

#endif // TSR_SUPPORT_RECOVERY_H
