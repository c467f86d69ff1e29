//===-- support/Profile.h - Schedule-aware causal profiling -----*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A causal profiler for controlled runs. The scheduler gives us what
/// wall-clock profilers never have: a total order of visible operations
/// (the tick sequence) plus the exact reason every off-processor thread is
/// off the processor. From that this layer derives *why* a run took N
/// ticks, not merely where they went (DESIGN.md §12).
///
/// The analysis is split in two tiers:
///
///   The *core* is a pure function of exactly what the sparse demo streams
///   carry — the QUEUE schedule, SIGNAL deliveries and SYSCALL results
///   (ProfileInputs). analyzeProfile() derives the virtual-time critical
///   path (the coalesced segment chain with per-handoff gap attribution),
///   per-thread utilization (running / waiting / absent ticks) and the
///   aggregated waiter→blocker contention matrix of the schedule's
///   turn-wait edges. Because the in-process profiler collects its own
///   copy of the same inputs and runs the same function, the core is
///   bit-identical between a recording, its synchronised replay, and an
///   offline reconstruction from the demo directory
///   (`tsr-demo-dump profile <dir>` — no re-execution needed, so salvaged
///   and recovered demos are profilable after the fact).
///
///   The *extensions* need live scheduler state the streams do not carry:
///   the per-lock contention ledger (hold/wait ticks keyed by sync-object
///   id), the blocking-cause breakdown of each thread's waiting ticks
///   (mutex / condvar / join / signal vs runnable-but-not-scheduled), and
///   the blocked-on wait-for edges attributed to the waking thread (lock
///   releaser, condvar signaler, join target). They are deterministic
///   across record and replay — every hook fires under the scheduler lock
///   or inside a critical section, at tick values fixed by the schedule —
///   but are absent from the offline reconstruction.
///
/// Profiling is off by default; when disabled no Profiler exists and every
/// instrumentation site reduces to one branch on a cached null pointer,
/// mirroring the tracing contract (§8).
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_PROFILE_H
#define TSR_SUPPORT_PROFILE_H

#include "support/Demo.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace tsr {

struct DemoInfo;

/// Why an off-processor thread is off the processor. Turn is the
/// schedule-level cause (runnable, waiting for its recorded turn); the
/// rest are blocking causes reported by the scheduler.
enum class ProfileWaitKind : uint8_t {
  Turn = 0, ///< Runnable but not scheduled (the recorded-schedule turn).
  Mutex,    ///< Parked on a contended Mutex; Obj = sync-object id.
  Cond,     ///< Parked in a CondVar wait; Obj = sync-object id.
  Join,     ///< Parked in Thread::join; Obj = target tid.
  Signal,   ///< Parked until a signal wakeup re-enabled it.
  Syscall,  ///< Charged virtual syscall latency.

  NumKinds
};

/// Number of ProfileWaitKind values.
inline constexpr unsigned NumProfileWaitKinds = 6;

/// Stable short name ("turn", "mutex", ...).
const char *profileWaitKindName(ProfileWaitKind K);

/// The pure inputs of the core analysis: exactly the records the QUEUE /
/// SIGNAL / SYSCALL streams of a demo carry, so an offline reconstruction
/// sees the same records the in-process profiler collected.
struct ProfileInputs {
  /// Tid per tick, in tick order (the QUEUE stream).
  std::vector<uint64_t> Schedule;
  std::vector<SignalRecord> Signals;
  /// Out-buffers are not collected: the analysis reads kind/ret/err only.
  std::vector<SyscallRecord> Syscalls;
};

/// Builds core-analysis inputs from a decoded demo (tsr-demo-dump
/// profile).
ProfileInputs profileInputsFromDemo(const DemoInfo &Info);

/// One segment of the virtual-time critical path: a maximal run of
/// consecutive ticks by one thread. On a single virtual processor the
/// critical path *is* the whole schedule; the value added here is the
/// per-handoff attribution — how long the thread had been off the
/// processor before this segment (GapTicks) and which thread occupied the
/// processor for most of that gap (GapHolder).
struct ProfileSegment {
  uint64_t Thread = 0;
  uint64_t StartTick = 0;
  uint64_t Ticks = 0;

  /// Ticks between this thread's previous segment and this one (0 for a
  /// thread's first segment).
  uint64_t GapTicks = 0;

  /// The thread that held the processor for the most ticks of the gap
  /// (lowest tid on ties); UINT64_MAX when GapTicks is 0.
  uint64_t GapHolder = UINT64_MAX;
};

/// Per-thread utilization in virtual ticks.
struct ProfileThreadUsage {
  uint64_t Thread = 0;
  uint64_t RunningTicks = 0;
  /// Ticks within [FirstTick, LastTick] the thread was not scheduled.
  uint64_t WaitingTicks = 0;
  /// Ticks before the thread's first appearance / after its last.
  uint64_t AbsentTicks = 0;
  uint64_t FirstTick = 0;
  uint64_t LastTick = 0;
  uint64_t Segments = 0;
};

/// One aggregated edge of the wait-for graph: Waiter spent Ticks of its
/// gaps while Blocker occupied the processor, across Gaps distinct gaps.
struct ProfileEdge {
  uint64_t Waiter = 0;
  uint64_t Blocker = 0;
  uint64_t Ticks = 0;
  uint64_t Gaps = 0;
};

/// The schedule-level analysis — identical across record, replay and
/// offline reconstruction of the same demo.
struct ProfileCore {
  uint64_t TotalTicks = 0;
  uint64_t Threads = 0;
  /// Critical-path handoffs (CriticalPath.size() - 1 when non-empty).
  uint64_t ContextSwitches = 0;
  uint64_t LongestSegmentTicks = 0;
  std::vector<ProfileSegment> CriticalPath;
  /// Dense by tid; threads that never ran report zero usage.
  std::vector<ProfileThreadUsage> Usage;
  /// Sorted by Ticks descending, then (Waiter, Blocker) ascending.
  std::vector<ProfileEdge> Contention;
  uint64_t SignalCount = 0;
  uint64_t SyscallCount = 0;
  /// Syscalls that returned a nonzero errno (includes injected faults:
  /// the recorded errno is identical across record and replay).
  uint64_t SyscallErrors = 0;
  /// (kind, count), ascending by kind.
  std::vector<std::pair<uint64_t, uint64_t>> SyscallsByKind;
};

/// Runs the core analysis. Pure; O(Schedule.size() * live threads).
ProfileCore analyzeProfile(const ProfileInputs &In);

/// Canonical JSON of \p C ("tsr-profile-core-v1"). Byte-stable: the
/// record / replay / offline identity tests compare these strings.
std::string profileCoreJson(const ProfileCore &C);

/// Per-lock contention ledger entry (record/replay only: the sparse
/// streams carry no sync-object identities).
struct ProfileLockStats {
  /// Process-global sync-object id (allocation order of Mutex/CondVar
  /// construction — deterministic when construction is scheduled).
  uint64_t LockId = 0;
  /// Name from the race detector's name registry when the storage was
  /// registered (Var<T> or an explicit registerName); empty otherwise.
  std::string Name;
  uint64_t Acquisitions = 0;
  /// Acquisitions that parked at least once before succeeding.
  uint64_t Contended = 0;
  uint64_t HoldTicks = 0;
  /// Total ticks threads spent parked waiting for this lock.
  uint64_t WaitTicks = 0;
  /// Park events on this lock.
  uint64_t Waiters = 0;
};

/// Per-thread blocking-cause breakdown (record/replay only).
struct ProfileThreadWaits {
  uint64_t Thread = 0;
  /// Parked ticks by cause ([Turn] is always 0 here).
  uint64_t BlockedTicks[NumProfileWaitKinds] = {};
  /// Park events by cause.
  uint64_t BlockEvents[NumProfileWaitKinds] = {};
  /// WaitingTicks not explained by parking: runnable but not scheduled.
  uint64_t RunnableWaitTicks = 0;
};

/// One aggregated blocked-on edge with causal attribution: Waiter was
/// parked for Ticks until Blocker woke it (the lock releaser, condvar
/// signaler or join target; UINT64_MAX when the engine woke it).
struct ProfileBlockEdge {
  uint64_t Waiter = 0;
  uint64_t Blocker = UINT64_MAX;
  ProfileWaitKind Kind = ProfileWaitKind::Mutex;
  uint64_t Ticks = 0;
  uint64_t Events = 0;
};

/// RunReport::Profile: the core plus the in-process extensions. The full
/// report is deterministic across record and replay of the same demo.
struct ProfileReport {
  /// False when the session ran without a profiler (everything below is
  /// empty).
  bool Enabled = false;

  ProfileCore Core;

  /// Sorted by WaitTicks descending, then HoldTicks descending, then
  /// LockId ascending.
  std::vector<ProfileLockStats> Locks;

  /// Dense by tid.
  std::vector<ProfileThreadWaits> Waits;

  /// Sorted by Ticks descending, then (Waiter, Blocker, Kind) ascending.
  std::vector<ProfileBlockEdge> BlockedOn;

  uint64_t LockAcquisitions = 0;
  uint64_t LockContended = 0;
  uint64_t LockHoldTicks = 0;
  uint64_t LockWaitTicks = 0;
  uint64_t BlockedTicks = 0;
  uint64_t RunnableWaitTicks = 0;
};

/// Canonical JSON of the full report ("tsr-profile-v1"); embeds the core
/// JSON under "core".
std::string profileReportJson(const ProfileReport &R);

/// Chrome trace-event fragments (comma-separated event objects, no
/// enclosing array) derived from the core: a "waiting threads" counter
/// track sampled at every segment boundary plus flow arrows linking
/// consecutive critical-path segments across thread rows. Layered onto
/// chromeTraceJson's event stream by the session's export path.
std::string profileChromeEvents(const ProfileCore &Core);

/// SessionConfig::Profile.
struct ProfileOptions {
  /// Master switch. When false the session creates no Profiler and every
  /// hook site is a single branch on a null pointer.
  bool Enabled = false;
};

/// The in-process collector. Hooks come from two serialization domains
/// that never interleave on the same containers:
///
///   Scheduler hooks (onTick / onBlock / onUnblock / onSignal) run under
///   the scheduler lock and append to the schedule + block-event logs.
///
///   Critical-section hooks (onLockAcquired / onLockReleased / onSyscall)
///   run from the single thread inside its critical section and append to
///   the lock + syscall logs.
///
/// Every hook is O(1) (amortised vector push); the analysis runs once in
/// finish(). No internal locking.
class Profiler {
public:
  explicit Profiler(const ProfileOptions &Opts) : Opts(Opts) {}

  Profiler(const Profiler &) = delete;
  Profiler &operator=(const Profiler &) = delete;

  // — Scheduler hooks (caller holds the scheduler lock) —

  /// \p Thread completed the visible operation committed as \p Tick.
  void onTick(uint64_t Tick, uint64_t Thread) {
    (void)Tick;
    In.Schedule.push_back(Thread);
  }

  /// \p Thread parked at \p Tick waiting on \p Obj for cause \p Kind.
  void onBlock(uint64_t Tick, uint64_t Thread, ProfileWaitKind Kind,
               uint64_t Obj) {
    Blocks.push_back({Tick, Thread, Obj, Kind, true});
  }

  /// \p Thread was re-enabled at \p Tick by \p Waker (UINT64_MAX for
  /// engine wakeups such as signal delivery or salvage).
  void onUnblock(uint64_t Tick, uint64_t Thread, uint64_t Waker,
                 ProfileWaitKind Kind, uint64_t Obj) {
    Blocks.push_back({Tick, Thread, Obj, Kind, false, Waker});
  }

  /// A signal became deliverable (record: when noticed; replay: at the
  /// recorded tick — both pass the same SIGNAL-stream record).
  void onSignal(const SignalRecord &S) { In.Signals.push_back(S); }

  // — Critical-section hooks (at most one thread is ever inside) —

  /// \p Thread acquired lock \p LockId at \p Tick. \p Addr is the runtime
  /// address for name-registry resolution; \p Contended marks an
  /// acquisition that parked at least once first.
  void onLockAcquired(uint64_t Tick, uint64_t Thread, uint64_t LockId,
                      uint64_t Addr, bool Contended) {
    LockEvents.push_back({Tick, Thread, LockId, Addr, Contended, true});
  }

  /// Lock \p LockId was released at \p Tick.
  void onLockReleased(uint64_t Tick, uint64_t LockId) {
    LockEvents.push_back({Tick, 0, LockId, 0, false, false});
  }

  /// One syscall completed with the given demo-stream record (record:
  /// what was recorded; replay: what the demo replayed).
  void onSyscall(const SyscallRecord &S) { In.Syscalls.push_back(S); }

  /// Resolves a runtime address to a registered name ("" when unknown).
  using NameResolver = std::function<std::string(uint64_t Addr)>;

  /// Runs the analysis over everything collected. Call after the
  /// controlled threads have been joined (the session calls it at the end
  /// of run()). Open holds and parks — threads parked forever by a
  /// salvaging shutdown — are closed at the final tick.
  ProfileReport finish(const NameResolver &Names = nullptr) const;

  /// The collected core inputs (tests compare them against a demo's).
  const ProfileInputs &inputs() const { return In; }

private:
  struct BlockEvent {
    uint64_t Tick;
    uint64_t Thread;
    uint64_t Obj;
    ProfileWaitKind Kind;
    bool Block; ///< true = park, false = re-enable.
    uint64_t Waker = UINT64_MAX;
  };

  struct LockEvent {
    uint64_t Tick;
    uint64_t Thread;
    uint64_t LockId;
    uint64_t Addr;
    bool Contended;
    bool Acquire; ///< true = acquired, false = released.
  };

  ProfileOptions Opts;
  ProfileInputs In;
  std::vector<BlockEvent> Blocks;
  std::vector<LockEvent> LockEvents;
};

/// SessionConfig::Telemetry: periodic delta metrics frames streamed as
/// JSONL while the run executes, for fleet-level rollup
/// (tsr-telemetry-rollup). Observability only — framing is driven by the
/// virtual tick counter but emission is wall-clock work outside the
/// critical path and never affects the schedule.
struct TelemetryOptions {
  /// Master switch. When false the session creates no sink and the pump
  /// site is a single branch on a null pointer.
  bool Enabled = false;

  /// Emit one frame every this many virtual ticks.
  uint64_t EveryTicks = 1000;

  /// JSONL sink path ("-" = stdout).
  std::string Path;
};

/// Writes telemetry frames. One JSONL object per frame:
///   {"type":"tsr-telemetry","seq":K,"tick":N,"final":false,
///    "counters":{cumulative...},"deltas":{since previous frame...}}
class TelemetrySink {
public:
  explicit TelemetrySink(const TelemetryOptions &Opts);
  ~TelemetrySink();

  TelemetrySink(const TelemetrySink &) = delete;
  TelemetrySink &operator=(const TelemetrySink &) = delete;

  /// False when the sink could not be opened (frames are dropped).
  bool ok() const { return Out != nullptr; }

  /// Emits one frame. \p Counters are cumulative (name, value) pairs;
  /// deltas against the previous frame are computed here. Caller
  /// serialises calls (the session pumps under its telemetry mutex).
  void emitFrame(uint64_t Tick,
                 const std::vector<std::pair<std::string, uint64_t>> &Counters,
                 bool Final = false);

  uint64_t frames() const { return Frames; }
  uint64_t bytes() const { return Bytes; }

private:
  void *Out = nullptr; ///< FILE*, type-erased to keep <cstdio> out.
  bool OwnsFile = false;
  uint64_t Seq = 0;
  uint64_t Frames = 0;
  uint64_t Bytes = 0;
  std::vector<std::pair<std::string, uint64_t>> Last;
};

} // namespace tsr

#endif // TSR_SUPPORT_PROFILE_H
