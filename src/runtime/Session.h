//===-- runtime/Session.h - Top-level tsr session ---------------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point. A Session owns one controlled execution: the
/// scheduler, the race detector, the weak-memory atomic model, the
/// simulated environment and the demo being recorded or replayed.
///
/// Typical use:
/// \code
///   tsr::SessionConfig Cfg;
///   Cfg.Strategy = tsr::StrategyKind::Random;
///   Cfg.ExecMode = tsr::Mode::Record;
///   tsr::Session S(Cfg);
///   tsr::RunReport R = S.run([] {
///     tsr::Atomic<int> Flag(0);
///     tsr::Thread T = tsr::Thread::spawn([&] {
///       Flag.store(1, std::memory_order_release);
///     });
///     while (Flag.load(std::memory_order_acquire) == 0) {
///     }
///     T.join();
///   });
///   R.RecordedDemo.saveToDirectory("demo", Err);
/// \endcode
///
/// The lambda passed to run() becomes the controlled main thread (tid 0).
/// Inside it, the tsr API types (Atomic, Mutex, CondVar, Var, Thread,
/// sys::*) route every visible operation through the session.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_RUNTIME_SESSION_H
#define TSR_RUNTIME_SESSION_H

#include "env/CostModel.h"
#include "env/FaultPlan.h"
#include "env/SimEnv.h"
#include "env/Syscall.h"
#include "race/AtomicModel.h"
#include "race/RaceDetector.h"
#include "sched/Scheduler.h"
#include "support/Compiler.h"
#include "support/Demo.h"
#include "support/DemoWriter.h"
#include "support/Metrics.h"
#include "support/Profile.h"
#include "support/Recovery.h"
#include "support/Trace.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace tsr {

/// When and where a recording is incrementally flushed to disk. With a
/// non-empty Directory, record mode opens a live chunked writer there and
/// pushes CRC-framed chunks of every stream as the run progresses, so a
/// crash (SIGKILL, segfault, deadlock abort) leaves a salvageable demo
/// prefix instead of losing the recording. See Demo::salvageDirectory and
/// `tsr-demo-dump repair` for post-crash recovery.
struct RecordFlushPolicy {
  /// Demo directory for incremental flushing; empty keeps the legacy
  /// end-of-run-only serialisation (RunReport::RecordedDemo is filled
  /// either way).
  std::string Directory;

  /// Flush every N scheduler ticks (0 flushes only at the end of the
  /// run). A session with a live writer also registers for the
  /// fatal-signal flush: process-wide handlers (SIGABRT/SIGSEGV/SIGBUS/
  /// SIGILL/SIGFPE), installed once, perform one best-effort
  /// async-signal-safe flush of every registered session before the
  /// process dies, then re-raise with the default disposition.
  uint64_t EveryTicks = 64;
};

/// Tick-watchdog supervision, always armed: the thread blocked in
/// Session::run polls the scheduler's tick frontier and escalates through
/// three rungs when it stops advancing — warn (diagnostics), nudge
/// (forced strategy decision or broadcast wake), salvage (consistent
/// shutdown that leaves a replayable demo, extending the deadlock salvage
/// to non-deadlock hangs). Every rung lands on the recovery timeline.
struct WatchdogPolicy {
  /// Wall-clock ms of frozen tick frontier before each rung fires.
  uint32_t WarnAfterMs = 5000;
  uint32_t NudgeAfterMs = 10000;
  uint32_t SalvageAfterMs = 20000;
};

/// Deterministic retry/backoff for transient virtual errors (VEINTR,
/// VEAGAIN — typically FaultPlan-injected). Retries happen on the native
/// issue path and only the final result is recorded, so a demo recorded
/// under retry replays bit-identically; backoff advances virtual time
/// only: 100 us << (attempt-1), capped at 10 ms, plus a seeded jitter
/// draw below 50 us — no wall-clock sleeping.
struct RetryPolicy {
  /// Off by default: programs that assert on observing EINTR/EAGAIN
  /// (fault-injection tests) keep seeing them.
  bool Enabled = false;

  /// Total attempts including the first issue.
  uint32_t MaxAttempts = 4;

  /// Also resume short transfers: a send/write that moved fewer bytes
  /// than asked continues from the offset reached (each continuation is
  /// its own recorded visible op).
  bool RetryShortTransfers = false;
};

/// What adaptive recovery did during a run, summarised from the
/// session's RecoveryLog (RunReport::Recovered).
struct RecoveryOutcome {
  /// Any recovery action at all was taken.
  bool Any = false;

  uint64_t SkipsForward = 0;
  uint64_t SyscallsSynthesized = 0;
  uint64_t ThreadFreeRuns = 0;
  uint64_t ScheduleFreeRuns = 0;
  uint64_t Retries = 0;
  uint64_t WatchdogWarns = 0;
  uint64_t WatchdogNudges = 0;
  uint64_t WatchdogSalvages = 0;

  /// The full ordered action timeline (bounded by
  /// RecoveryLog::MaxActions).
  std::vector<RecoveryAction> Actions;
};

/// Complete configuration of a session; every paper "tool configuration"
/// (native, tsan11, tsan11rec rnd/queue, ±rec, rr-sim) is a preset over
/// these fields (see Presets.h).
struct SessionConfig {
  /// Controlled-scheduling strategy (§3).
  StrategyKind Strategy = StrategyKind::Random;
  StrategyParams Params;

  /// Free / Record / Replay (§4).
  Mode ExecMode = Mode::Free;

  /// False disables designation entirely: visible operations serialize
  /// first-come-first-served and the OS scheduler drives exploration —
  /// plain tsan11 (§2).
  bool Controlled = true;

  /// How a tick is committed (sched/Scheduler.h). Pipelined — the
  /// ticket/epoch fast path that commits common-case ticks with a handful
  /// of atomics and falls back to the mutex for pending work — is the
  /// default; Mutex restores the all-ticks-under-Mu baseline and exists
  /// as the bit-identity oracle (bench/sched_throughput). The schedule,
  /// recordings, and replays are identical across both modes.
  TickCommitMode TickCommit = TickCommitMode::Pipelined;

  /// Enable happens-before race detection.
  bool RaceDetection = true;

  /// Shadow-memory backend for the race detector (race/RaceDetector.h).
  /// The two-level packed table with the lock-free same-epoch fast path
  /// is the default; StripedMap restores the legacy striped hash map and
  /// exists as a measurable baseline (bench/race_overhead). Detection
  /// semantics are identical.
  RaceShadowMode RaceShadow = RaceShadowMode::TwoLevel;

  /// Enable tsan11 weak-memory semantics for atomics; false restricts the
  /// model to sequential consistency.
  bool WeakMemory = true;

  /// Scheduler PRNG seeds. Zero means "draw fresh entropy" (recorded into
  /// META so replay reuses them).
  uint64_t Seed0 = 0;
  uint64_t Seed1 = 0;

  /// Sparse syscall recording policy (§4.4).
  RecordPolicy Policy = RecordPolicy::none();

  /// Deterministic fault injection plan. Applied in Free and Record modes
  /// only — it sits before the record/replay split, so a demo recorded
  /// under injection replays the faults from the SYSCALL stream with the
  /// injector disarmed. Ignored (with a warning) during replay.
  FaultPlan Faults = FaultPlan::none();

  /// Demo to replay (required when ExecMode == Replay).
  const Demo *ReplayDemo = nullptr;

  /// Environment options (seeds, latencies).
  SimEnv::Options Env = SimEnv::Options();

  /// Virtual-time cost model for this tool configuration.
  CostModelConfig Cost;

  /// Liveness rescheduler (§3.3): force a reschedule if the designated
  /// thread makes no progress for this long. Zero disables.
  uint32_t LivenessIntervalMs = 25;

  /// Abort the process when every live thread is disabled (the legacy
  /// fatal()). The default is a salvaging shutdown: the live recording is
  /// flushed, the deadlocked threads are parked and detached, and run()
  /// returns a RunReport with Deadlocked set and a structured Deadlock
  /// desync report.
  bool AbortOnDeadlock = false;

  /// Incremental crash-consistent flushing of the recording (record mode
  /// only; ignored otherwise).
  RecordFlushPolicy Flush;

  /// Adaptive desync recovery (support/Recovery.h). Strict (the default)
  /// preserves today's bit-exact replay behaviour; Resync adds the
  /// bounded forward search; Adaptive additionally degrades persistently
  /// divergent threads to free-run and synthesizes missing syscall
  /// results from the live environment. Applies to replay only.
  RecoveryPolicy Recovery;

  /// Tick-watchdog thresholds (all modes). A run whose tick frontier stays
  /// frozen — a genuinely hung program or an unrecoverable replay
  /// divergence — ends in a salvage.
  WatchdogPolicy Watchdog;

  /// Deterministic retry/backoff for transient virtual errors.
  RetryPolicy Retry;

  /// Virtual-time execution tracing (support/Trace.h). Off by default;
  /// when off the session creates no recorder and every emission site is
  /// one branch on a cached null pointer.
  TraceOptions Trace;

  /// Schedule-aware causal profiling (support/Profile.h). Off by default;
  /// same cached-null-pointer discipline as Trace. When on, the report's
  /// Profile carries the critical path, contention ledger and per-thread
  /// utilization, and `profile.*` metrics are published.
  ProfileOptions Profile;

  /// Live telemetry streaming (support/Profile.h): periodic delta
  /// MetricsSnapshot frames as JSONL on a virtual-tick cadence.
  TelemetryOptions Telemetry;
};

/// Everything a run produced.
struct RunReport {
  std::vector<RaceReport> Races;
  SchedulerStats Sched;
  AtomicModelStats Atomics;

  /// Replay health. Desync/DesyncMessage summarise DesyncInfo (the
  /// message is empty unless a hard desync occurred); DesyncInfo carries
  /// the full structured report — reason, tick, thread, expected vs
  /// actual, per-stream cursors and the soft-resync count.
  DesyncKind Desync = DesyncKind::None;
  std::string DesyncMessage;
  DesyncReport DesyncInfo;

  uint64_t SyscallsIssued = 0;
  uint64_t SyscallsRecorded = 0;
  uint64_t SyscallsReplayed = 0;

  /// Faults the injector placed into this run (zero in replay, where
  /// recorded faults come back through the SYSCALL stream instead).
  FaultInjector::Counters FaultsInjected;
  uint64_t SyscallsInjected = 0; ///< == FaultsInjected.ErrnosInjected.

  /// Deterministic virtual makespan (see CostModel.h).
  VTime VirtualNs = 0;

  /// Host wall-clock duration of run().
  double WallSeconds = 0.0;

  /// Demo captured when recording.
  Demo RecordedDemo;

  /// The run ended in a deadlock handled by the salvaging shutdown
  /// (SessionConfig::AbortOnDeadlock == false): every live thread became
  /// disabled, the recording was flushed and the deadlocked threads were
  /// detached. DesyncInfo carries the structured Deadlock report.
  bool Deadlocked = false;

  /// The watchdog's salvage rung ended the run: the tick frontier stalled
  /// past every escalation deadline, the recording was flushed (record
  /// mode leaves a truncated, replayable demo) and the stuck threads were
  /// detached. DesyncInfo carries the structured WatchdogStall report.
  bool StallSalvaged = false;

  /// What adaptive recovery and the watchdog did (empty under
  /// RecoveryMode::Strict with retry off and no watchdog rung fired).
  RecoveryOutcome Recovered;

  /// Seeds actually used (match META).
  uint64_t Seed0 = 0;
  uint64_t Seed1 = 0;

  /// The uniform metrics registry: every counter above (scheduler,
  /// atomics, faults, syscalls, demo writer, races, trace drops) under
  /// one dot-namespaced snapshot, serialisable with Metrics.toJson().
  /// The legacy struct accessors (Sched, Atomics, FaultsInjected, ...)
  /// keep working; the snapshot is built from them at the end of run().
  MetricsSnapshot Metrics;

  /// Merged execution trace (empty unless SessionConfig::Trace.Enabled).
  TraceSnapshot Trace;

  /// Causal profile (Enabled false unless SessionConfig::Profile.Enabled).
  /// Profile.Core is a pure function of the QUEUE/SIGNAL/SYSCALL streams,
  /// so a recording, its replay and an offline `tsr-demo-dump profile` of
  /// the demo agree bit-for-bit; the extensions (lock ledger, wait-kind
  /// breakdown, waker edges) are deterministic across record/replay.
  ProfileReport Profile;
};

class Session;
class ThreadRegistry;

/// The calling controlled thread's session and tid, fetched together.
/// The race-detector hot path (Var<T>::get/set, plainRead/plainWrite)
/// needs both on every access; bundling them in one thread_local object
/// makes that a single TLS address computation instead of two.
struct AccessContext {
  Session *S = nullptr; ///< Null outside a controlled thread.
  Tid T = 0;
};

/// One controlled execution. Not reusable: construct, set up the
/// environment, run once, read the report.
class Session {
public:
  explicit Session(SessionConfig Config);
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// The simulated environment, for world setup (peers, files) before
  /// run().
  SimEnv &env() { return *Env; }

  /// Runs \p MainFn as the controlled main thread and blocks until every
  /// controlled thread has finished.
  RunReport run(std::function<void()> MainFn);

  /// Injects an asynchronous virtual signal from outside the controlled
  /// world (ignored during replay; the demo drives delivery).
  void postSignal(Tid Target, Signo S);

  /// Session of the calling controlled thread (null outside one).
  static Session *current();

  /// Tid of the calling controlled thread.
  static Tid currentTid();

  /// Session and tid of the calling controlled thread from one TLS read
  /// (AccessContext.S is null outside a controlled thread).
  static AccessContext currentAccessContext();

  // --- Internal API used by the tsr wrapper types (Atomic, Mutex, ...).
  // These are public because the wrappers are free templates/classes, but
  // they are not part of the stable user surface.

  Scheduler &sched() { return *Sched; }
  RaceDetector &race() { return *Race; }
  AtomicModel &atomics() { return *Atomics; }
  CostModel &cost() { return *Cost; }
  const SessionConfig &config() const { return Config; }

  /// Enters a critical section: blocks until designated, delivering any
  /// pending signal handlers first (each handler entry consumes one
  /// designation, §4.3).
  void enterCritical(Tid Self);

  /// Leaves the critical section: accounts virtual cost and ticks.
  void leaveCritical(Tid Self, VTime ExtraCost = 0);

  /// Runs \p F inside one critical section and returns its result.
  template <typename Fn> auto visibleOp(Fn &&F, VTime ExtraCost = 0) {
    const Tid Self = currentTid();
    enterCritical(Self);
    if constexpr (std::is_void_v<decltype(F(Self))>) {
      F(Self);
      leaveCritical(Self, ExtraCost);
    } else {
      auto Result = F(Self);
      leaveCritical(Self, ExtraCost);
      return Result;
    }
  }

  /// Spawns a controlled thread (used by tsr::Thread).
  Tid spawnThread(std::function<void()> Fn);

  /// Registers a signal handler (used by tsr::installSignalHandler).
  void setSignalHandler(Signo S, std::function<void()> Handler);

  /// Issues a virtual syscall with record/replay applied per the policy.
  /// \p Class is the fd class for fd-based calls (None otherwise);
  /// \p Issue performs the call against the environment.
  SyscallResult doSyscall(SyscallKind Kind, FdClass Class,
                          const std::function<SyscallResult()> &Issue);

  /// Tracks the class of an fd the wrapper layer created (fd tables must
  /// work during replay, when calls are not re-issued).
  void noteFdClass(int Fd, FdClass Class);
  FdClass fdClassOf(int Fd);

  /// Fresh id for a mutex or condition variable.
  uint64_t allocSyncId() { return NextSyncId.fetch_add(1); }

  /// Profiler lock-ledger hooks, called by Mutex from inside the owning
  /// thread's critical section (single running thread — no lock needed).
  /// One null-pointer branch when profiling is off.
  void profileLockAcquired(uint64_t LockId, const void *Addr,
                           bool Contended) {
    if (TSR_UNLIKELY(Prof != nullptr))
      Prof->onLockAcquired(Sched->currentTickRelaxed(), currentTid(), LockId,
                           reinterpret_cast<uintptr_t>(Addr), Contended);
  }
  void profileLockReleased(uint64_t LockId) {
    if (TSR_UNLIKELY(Prof != nullptr))
      Prof->onLockReleased(Sched->currentTickRelaxed(), LockId);
  }

  /// Rebuilds \p R.Metrics (and the trace/profile-derived histograms)
  /// from the report's structs. Idempotent: calling it again on the same
  /// report replaces the snapshot instead of double-counting. Public so
  /// tests can assert the idempotency.
  void fillMetrics(RunReport &R);

  /// Declared invisible compute (virtual ns) by the calling thread.
  void work(VTime Ns);

  /// Records one recovery action on the session's timeline (used by the
  /// sys wrapper layer for short-transfer continuations; internal sites
  /// call the log directly).
  void noteRecoveryAction(RecoveryActionKind Kind, Tid Thread,
                          StreamKind Stream, uint64_t Count,
                          std::string Detail);

  /// Best-effort flush of the live recording from a fatal-signal handler:
  /// pushes the unflushed suffix of every record stream as final chunks.
  /// Skips any stream whose state cannot be snapshotted consistently
  /// (locks unavailable) — the durable prefix from earlier flushes
  /// remains salvageable. Async-signal-safe apart from try-locks.
  void emergencyFlushDemo();

  // --- Straggler management after a salvaged run (used by SessionPool and
  // tests). A salvaged run() returns with its leftover threads detached
  // and parked forever inside the scheduler, which moves to a process-
  // wide parked registry so the threads' parking place stays alive.

  /// Asks the scheduler to retire every straggler: each one gets
  /// ControlledThreadRetire thrown out of its next wait() and its OS
  /// thread exits. Only call when this Session object is guaranteed to
  /// stay alive until liveStragglers() reaches zero — the unwind still
  /// runs destructors with visible operations through this session.
  void beginStragglerRetire();

  /// OS threads spawned by this session that have not yet fully exited
  /// (includes parked-forever stragglers).
  size_t liveStragglers() const;

  /// Blocks until every straggler has exited, or \p TimeoutMs elapsed
  /// (returns false). With retire never begun, stragglers of a salvaged
  /// run park forever and this can only time out.
  bool waitStragglersRetired(uint64_t TimeoutMs);

  /// Schedulers currently held by the process-wide parked registry
  /// (salvaged runs whose stragglers have not been drained).
  static size_t parkedSchedulerCount();

  /// Frees parked schedulers whose threads have all exited (retired
  /// stragglers); returns how many were drained. Safe to call any time.
  static size_t drainParkedSchedulers();

  /// Live sessions registered for the fatal-signal emergency flush.
  static size_t liveEmergencySessionCountForTest();

private:
  void mainThreadBody(std::function<void()> MainFn);
  void childThreadBody(Tid Self, std::function<void()> Fn);
  void runHandlerIfPending(Tid Self);
  void writeMeta();
  bool checkMeta(std::string &Error);
  /// Replays one recorded syscall under the active recovery mode. Sets
  /// \p IssueNative when the caller must fall through to the native issue
  /// path (stream exhausted, hard desync, or an adaptive synthesis/free-
  /// run decision); the returned result is only meaningful when it stays
  /// false.
  SyscallResult replaySyscall(SyscallKind Kind, Tid Self, bool &IssueNative);
  void recordSyscall(const SyscallRecord &Rec,
                     const std::vector<uint8_t> &OutBuf);
  void drainSyscallStream(uint64_t Tick, bool Final);
  /// Appends the unflushed SYSCALL suffix as one chunk at \p Tick and
  /// advances SyscallFlushed. Caller holds SyscallStreamMu.
  void appendSyscallChunkLocked(uint64_t Tick);
  /// Emits one telemetry frame when the tick cadence has elapsed (called
  /// from leaveCritical outside the scheduler lock) or the final frame.
  void pumpTelemetry(uint64_t Tick, bool Final);
  DesyncReport syscallDesyncReport(DesyncReason Reason, Tid Self) const;

  SessionConfig Config;
  Demo RecordDemo;

  std::unique_ptr<CostModel> Cost;
  std::unique_ptr<SimEnv> Env;
  /// The scheduler is owned through SchedOwner but used through the raw
  /// Sched pointer everywhere: after a salvaging shutdown (deadlock or
  /// watchdog stall) SchedOwner moves into a never-destroyed registry
  /// while detached straggler threads may still reach the scheduler
  /// through this session — the raw pointer stays valid, the moved-from
  /// unique_ptr would not.
  std::unique_ptr<Scheduler> SchedOwner;
  Scheduler *Sched = nullptr;
  std::unique_ptr<RaceDetector> Race;
  std::unique_ptr<AtomicModel> Atomics;

  /// Null unless Config.Trace.Enabled — the null pointer IS the cached
  /// disabled flag every emission site branches on.
  std::unique_ptr<TraceRecorder> Tracer;

  /// Null unless Config.Profile.Enabled (same discipline as Tracer).
  std::unique_ptr<Profiler> Prof;

  /// Telemetry streaming state (null sink unless Config.Telemetry is on
  /// and its sink opened). NextDue is checked with one relaxed load per
  /// tick; TelemetryMu serialises the actual frame emission.
  std::unique_ptr<TelemetrySink> Telemetry;
  std::atomic<uint64_t> TelemetryNextDue{0};
  std::mutex TelemetryMu;

  std::mutex ThreadsMu;
  std::vector<std::thread> OsThreads;

  std::mutex HandlersMu;
  std::map<Signo, std::function<void()>> Handlers;

  std::mutex FdClassMu;
  std::map<int, FdClass> FdClasses;

  // SYSCALL stream state (record side writer / replay side reader).
  ByteWriter SyscallBytes;
  ByteReader SyscallReader;

  /// Live incremental demo writer (record mode with a flush directory).
  ChunkedDemoWriter LiveWriter;
  /// Bytes of SyscallBytes already flushed to the live writer.
  size_t SyscallFlushed = 0;
  /// Serialises SyscallBytes/SyscallFlushed between the recording thread,
  /// the flush hook and the fatal-signal path (which only try-locks).
  std::mutex SyscallStreamMu;
  /// This session is registered in the process-wide fatal-signal flush
  /// registry (the handlers themselves are installed once per process,
  /// by whichever registration takes the live count from zero).
  bool EmergencyRegistered = false;

  /// Registry of this session's controlled OS threads and their TLS
  /// slots. Shared with the thread-entry lambdas and the parked-scheduler
  /// registry so it outlives the Session object: a detached straggler
  /// deregisters itself as its very last act, and teardown orphans any
  /// slot still present so a thread that outlives its session fails with
  /// a deterministic diagnostic instead of using freed memory.
  std::shared_ptr<ThreadRegistry> Reg;

  std::atomic<uint64_t> NextSyncId{1};
  std::atomic<uint64_t> SyscallsIssued{0};
  std::atomic<uint64_t> SyscallsRecorded{0};
  std::atomic<uint64_t> SyscallsReplayed{0};

  /// Executes SessionConfig::Faults (armed outside replay only).
  FaultInjector Injector;

  /// Set when the SYSCALL stream ran dry mid-replay: one soft resync.
  bool SyscallStreamExhausted = false;

  /// Latched once replay stops consuming the SYSCALL stream (exhausted,
  /// or a truncated demo ended mid-record): later syscalls issue
  /// natively without re-probing the reader.
  bool SyscallReplayStopped = false;

  /// Recovery action timeline shared with the scheduler.
  RecoveryLog Recoveries;

  /// Per-thread adaptive divergence state, indexed by tid and accessed
  /// only inside the owner's critical section (the total order of visible
  /// ops serialises all accesses). Streak counts consecutive failed
  /// syscall resyncs; at RecoveryPolicy::ThreadFreeRunThreshold the
  /// thread degrades to free-run (its syscalls issue natively) while the
  /// rest stay on script.
  std::vector<uint32_t> SyscallDivergenceStreak;
  std::vector<uint8_t> SyscallThreadFreeRun;

  /// Blocks run()'s thread until the run ends, meanwhile driving the
  /// liveness poll (§3.3) every LivenessIntervalMs and the watchdog ladder
  /// every 50 ms — the session needs no helper threads.
  void superviseRun();

  bool HasRun = false;
  uint64_t UsedSeed0 = 0;
  uint64_t UsedSeed1 = 0;
};

} // namespace tsr

#endif // TSR_RUNTIME_SESSION_H
