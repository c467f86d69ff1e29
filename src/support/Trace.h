//===-- support/Trace.h - Virtual-time execution tracing --------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead execution tracing keyed by virtual time. Every event is
/// stamped with the scheduler tick at which it happened (the run's virtual
/// clock, §3) plus a secondary wall-clock timestamp; the scheduler, the
/// session's syscall layer and the race detector emit into per-thread ring
/// buffers through a TraceRecorder.
///
/// The taxonomy distinguishes two classes of events:
///
///   *Virtual* (deterministic) events — Tick, SyscallEnter/Exit,
///   ThreadStart/Exit — are emitted under the scheduler lock or inside a
///   critical section, where the tick counter is stable. A recording and
///   its synchronised replay produce the *same* sequence of virtual events
///   (same ticks, same threads, same kinds); TraceTest asserts this and
///   diffTraces() exploits it to pinpoint the first divergence.
///
///   *Timing* events — Park, Wake, StrategyDecision, DemoFlush,
///   RaceReport, Desync, SignalDeliver — carry arrival-order or
///   mode-specific tick stamps (a park races with the ticker; a flush only
///   happens when recording). They appear in exported timelines but are
///   excluded from the record/replay identity.
///
/// Tracing is off by default. When disabled no recorder exists and every
/// instrumentation site reduces to one branch on a cached null pointer.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_TRACE_H
#define TSR_SUPPORT_TRACE_H

#include "support/VectorClock.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tsr {

/// What happened. Append-only: exported timelines name kinds by string,
/// but tests compare the numeric values.
enum class TraceEventKind : uint8_t {
  // Virtual (deterministic) events.
  Tick = 0,     ///< Thread completed a visible operation. A = none.
  ThreadStart,  ///< Emitted by the creating thread; A = child tid.
  ThreadExit,   ///< The thread ran its deletion visible op.
  SyscallEnter, ///< A = SyscallKind, B = FdClass.
  SyscallExit,  ///< A = SyscallKind, B = packSyscallExit(...).

  // Timing events (excluded from the record/replay identity).
  Park,             ///< Thread blocked in Scheduler::wait.
  Wake,             ///< Thread left Scheduler::wait after blocking.
  StrategyDecision, ///< Engine designated Thread; A = 1 for a reschedule.
  SignalDeliver,    ///< A = signal number.
  DemoFlush,        ///< Live-writer chunk flush; A = pending bytes.
  RaceReport,       ///< A = racy granule address.
  Desync,           ///< A = DesyncReason, B = DesyncKind.

  NumKinds
};

/// Stable short name ("tick", "syscall-enter", ...).
const char *traceEventKindName(TraceEventKind K);

/// True for the virtual (deterministic) subset: these events recur at
/// identical ticks across a recording and its synchronised replay.
inline bool traceEventVirtual(TraceEventKind K) {
  return K <= TraceEventKind::SyscallExit;
}

/// Packs the SyscallExit B argument: errno (16 bits), injected-fault flag
/// (bit 16), charged virtual cost in ns (remaining bits).
inline uint64_t packSyscallExit(uint64_t Err, bool Injected,
                                uint64_t CostNs) {
  return (Err & 0xffff) | (static_cast<uint64_t>(Injected) << 16) |
         (CostNs << 17);
}
inline uint64_t syscallExitErr(uint64_t B) { return B & 0xffff; }
inline bool syscallExitInjected(uint64_t B) { return (B >> 16) & 1; }
inline uint64_t syscallExitCostNs(uint64_t B) { return B >> 17; }

/// One trace event. POD; 48 bytes.
struct TraceEvent {
  uint64_t Seq = 0;    ///< Global emission order (merge key).
  uint64_t Tick = 0;   ///< Virtual time: the scheduler tick counter.
  uint64_t WallNs = 0; ///< Wall clock, ns since the recorder was created.
  uint64_t A = 0;      ///< Kind-specific argument.
  uint64_t B = 0;      ///< Kind-specific argument.
  Tid Thread = InvalidTid;
  TraceEventKind Kind = TraceEventKind::Tick;
};

/// SessionConfig::Trace. Off by default; the enabled path costs one ring
/// append (plus one clock read when WallClock) per event.
struct TraceOptions {
  /// Master switch. When false the session creates no recorder and every
  /// emission site is a single branch on a null pointer.
  bool Enabled = false;

  /// Per-thread ring capacity in events. When a buffer is full the oldest
  /// events are overwritten (dropped) and accounted in trace.dropped.
  size_t BufferEvents = 1 << 14;

  /// Stamp events with a wall-clock reading (one steady_clock call per
  /// event). Virtual-time stamps are unconditional.
  bool WallClock = true;

  /// When non-empty, the session writes the run's Chrome trace-event JSON
  /// here at the end of run().
  std::string ExportChromePath;
};

/// The merged, ordered result of a traced run.
struct TraceSnapshot {
  /// All events in global emission order (by Seq).
  std::vector<TraceEvent> Events;

  /// Events emitted (including any that were later overwritten).
  uint64_t Emitted = 0;

  /// Events lost to ring overwrites.
  uint64_t Dropped = 0;

  /// The virtual (deterministic) subset, ordered by (Tick, Seq). Two
  /// synchronised runs of the same demo yield identical sequences of
  /// (Tick, Thread, Kind) here.
  std::vector<TraceEvent> virtualEvents() const;
};

/// Per-thread ring-buffer trace recorder. emit() is called concurrently by
/// controlled threads; each (thread, slot) pair has a single writer — a
/// thread emits only into its own buffer, and the shared engine buffer is
/// only written under the scheduler lock — so the hot path is one atomic
/// Seq fetch_add plus a ring store, with no locks.
///
/// snapshot() must only run after the emitting threads have been joined
/// (the session calls it at the end of run()).
class TraceRecorder {
public:
  explicit TraceRecorder(const TraceOptions &Opts);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  /// Emits an event into \p Thread's own buffer. Must be called from the
  /// thread itself.
  void emit(Tid Thread, TraceEventKind Kind, uint64_t Tick, uint64_t A = 0,
            uint64_t B = 0);

  /// Emits an event attributed to \p Thread (which may be InvalidTid)
  /// into the shared engine buffer. Caller must hold the scheduler lock —
  /// that is what serialises engine emissions.
  void emitEngine(TraceEventKind Kind, uint64_t Tick, Tid Thread,
                  uint64_t A = 0, uint64_t B = 0);

  /// Tick stamp of the most recent Tick event, maintained by emit(). Lets
  /// code that cannot take the scheduler lock (the race detector's plain-
  /// access path) stamp timing events with the current virtual time.
  uint64_t lastTick() const { return LastTick.load(std::memory_order_relaxed); }

  /// Events emitted / lost so far.
  uint64_t emitted() const;
  uint64_t dropped() const;

  /// Merges every buffer into one ordered snapshot.
  TraceSnapshot snapshot() const;

  const TraceOptions &options() const { return Opts; }

private:
  struct Buffer;

  Buffer *bufferForSlot(size_t Slot);
  void emitToSlot(size_t Slot, Tid Thread, TraceEventKind Kind,
                  uint64_t Tick, uint64_t A, uint64_t B);

  /// Slot 0 is the engine buffer; slot T+1 belongs to thread T, so every
  /// tid the scheduler hands out has a ring.
  static constexpr size_t MaxBuffers = MaxThreads + 1;

  TraceOptions Opts;
  std::atomic<uint64_t> NextSeq{0};
  std::atomic<uint64_t> LastTick{0};
  std::atomic<Buffer *> Buffers[MaxBuffers];
  uint64_t EpochNs = 0;
};

/// First virtual-time divergence between two traces.
struct TraceDivergence {
  /// False when the virtual event sequences are identical (same length,
  /// same (Tick, Thread, Kind) everywhere).
  bool Diverged = false;

  /// Index into the virtual event sequences of the first difference (==
  /// the shorter length when one trace is a strict prefix of the other).
  size_t Index = 0;

  /// Tick of the first differing event.
  uint64_t Tick = 0;

  /// One-line description of the difference.
  std::string Summary;

  /// Side-by-side context: every event of both traces within
  /// ±Context ticks of the divergence.
  std::string Excerpt;
};

/// Compares the virtual (deterministic) event subsequences of two traces
/// — typically a recording and its replay — and reports the first
/// divergence with a ±\p Context tick window. Timing events are ignored.
TraceDivergence diffTraces(const TraceSnapshot &Recorded,
                           const TraceSnapshot &Replayed,
                           unsigned Context = 8);

/// Renders every event of \p S within ±\p Context ticks of \p Tick, one
/// per line (capped at \p MaxLines). Used for DesyncReport::Timeline.
std::string excerptAround(const TraceSnapshot &S, uint64_t Tick,
                          unsigned Context, size_t MaxLines = 64);

/// One-line rendering of \p E ("[tick 42] t1 syscall-enter a=5 b=2").
std::string formatTraceEvent(const TraceEvent &E);

/// Serialises \p S as Chrome trace-event JSON (the format Perfetto and
/// chrome://tracing load): tick-coalesced per-thread execution slices plus
/// instants for the timing events, with ts measured in ticks.
std::string chromeTraceJson(const TraceSnapshot &S);

/// Same, with \p ExtraEvents — pre-rendered, comma-separated trace-event
/// objects (no enclosing array) — spliced into the traceEvents stream.
/// The session's export path layers profile counter tracks and
/// critical-path flow arrows (profileChromeEvents) in this way.
std::string chromeTraceJson(const TraceSnapshot &S,
                            const std::string &ExtraEvents);

} // namespace tsr

#endif // TSR_SUPPORT_TRACE_H
