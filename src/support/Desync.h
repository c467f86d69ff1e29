//===-- support/Desync.h - Structured desynchronisation reports -*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The desynchronisation taxonomy (§4). The paper's central robustness
/// claim is that sparse replay degrades *diagnosably*: a mis-tuned
/// recording policy produces a desynchronisation the user can act on, not
/// silent corruption. A one-line string cannot carry what "act on" needs
/// — which stream disagreed, at which tick, what was expected versus what
/// the program did, and how far each replay cursor had advanced — so the
/// runtime reports desyncs as a structured DesyncReport.
///
/// Two severities:
///
///   Soft — a stream ran out (the recording simply ended early). The
///   replayer falls back to free-running; the run completes. Soft events
///   are counted, not fatal.
///
///   Hard — a recorded constraint could not be enforced (the program took
///   a different path than the recording). The replayer drops to
///   uncontrolled execution, completes the run, and surfaces the report.
///
//======----------------------------------------------------------------===//

#ifndef TSR_SUPPORT_DESYNC_H
#define TSR_SUPPORT_DESYNC_H

#include "support/Demo.h"
#include "support/Recovery.h"
#include "support/VectorClock.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tsr {

/// Replay health (§4): a synchronised replay satisfies every recorded
/// constraint; a hard desynchronisation is a constraint the tool could not
/// enforce.
enum class DesyncKind : unsigned {
  None = 0,
  /// A stream ran out or a benign fallback fired: replay completed
  /// free-running and the report explains why (e.g. a salvaged, truncated
  /// demo ended mid-run). Informational, never fatal.
  Soft,
  Hard,
};

/// What specifically went wrong. Each reason maps to one enforcement
/// point in the scheduler or the session's syscall layer.
enum class DesyncReason : unsigned {
  None = 0,
  /// QUEUE designates a thread that does not exist or has finished.
  QueueBadThread,
  /// SIGNAL targets a thread that does not exist.
  SignalBadThread,
  /// ASYNC wakeup targets a thread that does not exist.
  AsyncBadThread,
  /// SYSCALL stream expects one kind, the program issued another — the
  /// classic symptom of an under-recording policy (§4.4).
  SyscallKindMismatch,
  /// SYSCALL stream contains an undecodable kind value.
  SyscallCorrupt,
  /// A SYSCALL record ends mid-field.
  SyscallTruncated,
  /// The watchdog saw no progress: a recorded schedule constraint can
  /// never be satisfied by this program.
  WatchdogStall,
  /// The demo is the salvaged prefix of an interrupted recording
  /// (Demo::truncated()) and replay consumed it to its frontier; the run
  /// finished free-running. Soft by construction: the truncation was
  /// declared at load time, so running out is expected, not divergence.
  TruncatedDemo,
  /// Every live thread became disabled: a deadlock. In the default
  /// salvaging mode the scheduler flushes the demo, fills this report and
  /// returns instead of calling fatal().
  Deadlock,
  /// Declared by a caller through the legacy free-form-string interface.
  Other,
};

/// Human-readable name of \p Reason ("syscall-kind-mismatch", ...).
const char *desyncReasonName(DesyncReason Reason);

/// Position of one replay cursor when the desync was declared: how much
/// of the stream had been consumed versus its total.
struct StreamCursor {
  uint64_t Consumed = 0;
  uint64_t Total = 0;
};

/// Everything known about a desynchronisation, assembled by the scheduler
/// (QUEUE/SIGNAL/ASYNC enforcement) and the session (SYSCALL enforcement,
/// watchdog). Kind == None means the run stayed synchronised.
struct DesyncReport {
  DesyncKind Kind = DesyncKind::None;
  DesyncReason Reason = DesyncReason::None;

  /// Global tick counter at declaration time.
  uint64_t Tick = 0;

  /// Thread whose operation exposed the divergence (InvalidTid when no
  /// single thread is implicated, e.g. watchdog stall).
  Tid Thread = InvalidTid;

  /// The demo stream whose constraint failed.
  StreamKind Stream = StreamKind::Meta;

  /// The recorded expectation versus what the program actually did, as
  /// short operation descriptions ("recv on a socket" vs "clock_gettime").
  std::string Expected;
  std::string Actual;

  /// Replay cursor positions at declaration time. QUEUE counts ticks;
  /// SIGNAL and ASYNC count records; SYSCALL counts bytes.
  StreamCursor QueueCursor;
  StreamCursor SignalCursor;
  StreamCursor AsyncCursor;
  StreamCursor SyscallCursor;

  /// Soft events survived before (or without) any hard desync: each is a
  /// stream exhaustion that resynchronised by falling back to native
  /// execution (demo ended, SYSCALL ran dry).
  uint64_t SoftResyncs = 0;

  /// Rendered one-line message (renderDesyncReport of this report).
  std::string Message;

  /// Virtual-time timeline excerpt around Tick (±8 ticks), one event per
  /// line. Filled by the session when
  /// tracing was enabled; empty otherwise. A TruncatedDemo or desync
  /// report thus shows *what the run was doing* when it diverged, not
  /// just where.
  std::string Timeline;

  /// Recovery actions taken during the run (skips, syntheses, per-thread
  /// free-runs, retries, watchdog rungs), in order. Filled by the session
  /// from its RecoveryLog; empty under RecoveryMode::Strict with the
  /// watchdog off.
  std::vector<RecoveryAction> Recovery;

  bool hard() const { return Kind == DesyncKind::Hard; }
};

/// Renders \p R as a diagnostic string: reason, tick, thread, stream,
/// expected/actual and every cursor. Used for RunReport.DesyncMessage and
/// the scheduler's warning output.
std::string renderDesyncReport(const DesyncReport &R);

} // namespace tsr

#endif // TSR_SUPPORT_DESYNC_H
