//===-- sched/Scheduler.h - The controlled scheduler ------------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The controlled scheduler (§3) with integrated schedule record/replay
/// (§4.2), signal record/replay (§4.3) and asynchronous events (§4.5).
///
/// There is no scheduler thread: "details of scheduling decisions are
/// stored in a designated piece of shared state. The threads interact
/// indirectly via this shared state using a protocol, to cooperatively
/// determine when they should be scheduled" (§3). The protocol is:
///
///   wait(T)  — block T until the scheduler designates it.
///   <bookkeeping calls: threadNew, mutexLockFail, condWait, ...>
///   tick(T)  — complete T's visible operation and designate a successor.
///
/// The region between wait() and tick() is a critical section: at most one
/// thread is inside one at any time, so visible operations are totally
/// ordered while invisible code runs in parallel (Figure 3).
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SCHED_SCHEDULER_H
#define TSR_SCHED_SCHEDULER_H

#include "sched/Common.h"
#include "sched/Strategy.h"
#include "support/ByteStream.h"
#include "support/Demo.h"
#include "support/Prng.h"
#include "support/Recovery.h"
#include "support/Rle.h"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace tsr {

class ChunkedDemoWriter;
class TraceRecorder;
class Profiler;

// DesyncKind and the structured DesyncReport live in support/Desync.h
// (pulled in through sched/Common.h): the session's syscall layer fills
// the same report type without depending on the scheduler.

/// Thrown out of Scheduler::wait() (once per thread) after
/// requestRetire(): unwinds a straggler thread out of the controlled
/// body so its OS thread can exit instead of parking forever. Not
/// derived from std::exception on purpose — application catch blocks
/// must not swallow it. Visible operations executed by destructors
/// during the unwind still work: wait() hands the retiring thread a
/// serialised degenerate grant instead of throwing again.
struct ControlledThreadRetire {};

/// How a visible operation's tick is committed (DESIGN.md §14).
enum class TickCommitMode : uint8_t {
  /// Sequenced ticket pipeline: the committing thread publishes its
  /// successor as a (tid, ticket) grant with a handful of atomic
  /// operations and never touches the scheduler mutex on the hot path.
  /// The mutex survives as the slow path for everything that needs
  /// global machinery — AnyTid FCFS grants, signal/async injections,
  /// live-writer flush boundaries, recovery/watchdog/desync handling and
  /// thread retire — detected by pre-commit pending-work checks that
  /// make the fast path fall back before mutating anything. The schedule
  /// (and every recorded byte) is identical to Mutex mode.
  Pipelined,

  /// Legacy behaviour: every wait()/tick() takes the global scheduler
  /// mutex. Kept as the measurable baseline for bench/sched_throughput
  /// and as the cross-mode bit-identity oracle in tests.
  Mutex,
};

/// Scheduler configuration.
struct SchedulerOptions {
  /// Scheduling strategy for designations.
  StrategyKind Strategy = StrategyKind::Random;

  /// Strategy tuning parameters.
  StrategyParams Params;

  /// Free / Record / Replay (§4).
  Mode ExecMode = Mode::Free;

  /// Scheduler PRNG seeds. Recorded in META by the session; must match the
  /// recording when replaying.
  uint64_t Seed0 = 1;
  uint64_t Seed1 = 2;

  /// When false, designation is disabled entirely and visible operations
  /// are granted first-come-first-served with mutual exclusion only. This
  /// models plain tsan11 — race detection "at the mercy of the OS
  /// scheduler" (§2) — and is also the fallback after hard desync or demo
  /// exhaustion.
  bool Controlled = true;

  /// Abort the process when every live thread is disabled (deadlock). The
  /// default is a salvaging shutdown instead: flush the live recording,
  /// fill a structured Deadlock report, and unwind so the session can
  /// return a RunReport (the demo then replays the deadlock).
  bool AbortOnDeadlock = false;

  /// The replay demo is the salvaged prefix of an interrupted recording
  /// (Demo::truncated()). Running out of QUEUE entries mid-run is then
  /// reported as a soft TruncatedDemo desync rather than being merely
  /// counted as a resync.
  bool ReplayTruncated = false;

  /// Live incremental demo writer (record mode, may be null): record
  /// streams are flushed to it as CRC-framed chunks so a crash leaves a
  /// salvageable prefix on disk.
  ChunkedDemoWriter *LiveWriter = nullptr;

  /// Flush the live writer every N ticks (0 disables flushing until the
  /// final one).
  uint64_t FlushEveryTicks = 0;

  /// Called (under the scheduler lock) at every live-writer flush so the
  /// session can flush its SYSCALL stream at the same tick frontier;
  /// \p Final marks the flush performed by finishRecording, after which
  /// the session must close its stream.
  std::function<void(uint64_t Tick, bool Final)> SyscallFlushHook;

  /// Invoked (under the scheduler lock) whenever an eager strategy (one
  /// that designates without regard to arrival — see
  /// Strategy::designatesEagerly) designates a concrete thread. The cost
  /// model prices the potential chain stall deterministically in virtual
  /// time; the hook must NOT consult physical state such as whether the
  /// thread is parked, or two same-seed recordings diverge.
  std::function<void(Tid T)> DesignationHook;

  /// Virtual-time trace recorder (null when tracing is off; every
  /// emission site then reduces to one branch on this cached pointer).
  TraceRecorder *Trace = nullptr;

  /// Causal profiler (null when profiling is off; every hook site then
  /// reduces to one branch on this cached pointer). The scheduler feeds
  /// it the tick sequence plus every park / re-enable with its cause and
  /// waker, all under the scheduler lock (support/Profile.h).
  Profiler *Profile = nullptr;

  /// Tick-commit discipline (see TickCommitMode). The pipeline engages
  /// only for controlled runs; uncontrolled runs silently use the mutex
  /// path. Schedule semantics and recorded bytes are identical under both
  /// modes.
  TickCommitMode TickCommit = TickCommitMode::Pipelined;

  /// Replay divergence tolerance (support/Recovery.h). Strict preserves
  /// the bit-exact legacy behaviour; Resync/Adaptive enable the bounded
  /// windowed forward search over the QUEUE stream and the skip-with-
  /// annotation handling of SIGNAL/ASYNC entries for unknown threads.
  RecoveryMode Recovery = RecoveryMode::Strict;

  /// Recovery action sink shared with the session (null disables action
  /// recording; recovery decisions still apply).
  RecoveryLog *RecoveryActions = nullptr;
};

/// Counters exposed for tests and benchmark harnesses.
struct SchedulerStats {
  uint64_t Ticks = 0;
  uint64_t Reschedules = 0;
  uint64_t SignalsDelivered = 0;
  uint64_t SignalWakeups = 0;
  uint64_t DemoExhaustedAtTick = 0;
  bool DemoExhausted = false;

  /// Soft resyncs: the QUEUE stream ran dry while threads were still live,
  /// so replay fell back to free-running. Exhaustion at the natural end of
  /// the program (all threads finished) is not counted.
  uint64_t SoftResyncs = 0;

  /// The run ended in a deadlock handled by the salvaging shutdown
  /// (SchedulerOptions::AbortOnDeadlock == false).
  bool Deadlocked = false;

  /// Incremental flushes performed by the live demo writer.
  uint64_t DemoFlushes = 0;

  /// Targeted notify_one handoffs issued.
  uint64_t TargetedWakeups = 0;

  /// Parked threads that woke without being able to proceed and had to
  /// re-block. Zero in clean controlled runs (the per-slot token also
  /// absorbs OS-level spurious condvar wakeups); nonzero only in free-run
  /// FCFS races and desync/deadlock fan-outs.
  uint64_t SpuriousWakeups = 0;

  /// Fan-outs to every parked thread (deadlock salvage, hard desync,
  /// watchdog nudge, straggler retire).
  uint64_t BroadcastWakeups = 0;

  /// QUEUE entries skipped by the recovery forward search (the skew
  /// between the live tick counter and the recorded schedule index).
  uint64_t QueueEntriesSkipped = 0;

  /// Forced strategy decisions / broadcast wakes issued by the watchdog's
  /// nudge rung.
  uint64_t WatchdogNudges = 0;

  /// The run ended in the watchdog's salvaging shutdown: the tick
  /// frontier stalled past every escalation deadline, the recording was
  /// flushed, and the remaining threads were frozen out (parked forever).
  bool StallSalvaged = false;

  /// Ticks committed on the lock-free pipeline fast path (zero under
  /// TickCommitMode::Mutex).
  uint64_t FastPathCommits = 0;

  /// Ticks committed under the scheduler mutex (every tick in Mutex
  /// mode; only pending-work fallbacks in Pipelined mode).
  uint64_t SlowPathCommits = 0;

  /// Fast commits that won the commit gate, hit a pending-work
  /// disqualifier before mutating anything, and fell back to the mutex.
  /// Bounded by SlowPathCommits: every abort becomes one slow commit.
  uint64_t FastPathAborts = 0;
};

/// The controlled scheduler. All public methods are thread-safe.
class Scheduler final : public ThreadView {
public:
  /// \p RecordDemo receives the QUEUE/SIGNAL/ASYNC streams when recording
  /// (may be null otherwise); \p ReplayDemo supplies them when replaying.
  Scheduler(const SchedulerOptions &Opts, Demo *RecordDemo,
            const Demo *ReplayDemo);
  ~Scheduler() override;

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Registers the main controlled thread (always tid 0) and performs the
  /// initial designation.
  Tid addMainThread();

  /// Blocks until the calling thread is designated and enabled. On return
  /// the caller is inside a critical section and must eventually tick().
  void wait(Tid Self);

  /// Completes the caller's critical section: advances the tick counter,
  /// logs/enforces the schedule, delivers signals and async events, and
  /// designates the next thread.
  void tick(Tid Self);

  /// After wait() returns, the runtime asks whether a signal must be
  /// handled *instead of* the intended operation (the signal "floats" to
  /// this designation; §4.3, Figure 6). Returns the signal number to
  /// handle, or nullopt. Delivery is suppressed while the thread is inside
  /// a handler (beginHandler/endHandler).
  std::optional<Signo> takeDeliverableSignal(Tid Self);
  void beginHandler(Tid Self);
  void endHandler(Tid Self);

  /// Thread lifecycle (§3.2). threadNew registers and enables a child
  /// thread from within the parent's critical section and returns its tid.
  Tid threadNew(Tid Parent);

  /// True once \p Target ran threadDelete. Callable inside a critical
  /// section for the join fast path.
  bool threadFinished(Tid Target);

  /// Disables the caller, marking it as waiting for \p Target to finish.
  void threadJoinBlock(Tid Self, Tid Target);

  /// Marks the caller finished and re-enables any thread joining on it.
  void threadDelete(Tid Self);

  /// Mutex bookkeeping (§3.2, Figure 4). mutexLockFail disables the caller
  /// until mutexUnlock re-enables one waiter (chosen by the strategy).
  /// mutexAcquired clears a stale waiter-list entry when a woken thread
  /// wins the retry (or a signal wakeup let it acquire without being the
  /// picked waiter).
  void mutexLockFail(Tid Self, uint64_t MutexId);
  void mutexAcquired(Tid Self, uint64_t MutexId);
  void mutexUnlock(Tid Self, uint64_t MutexId);

  /// Condition-variable bookkeeping (§3.2, Figure 5). A timed waiter stays
  /// enabled — the wakeup timer is physical time, which the scheduler
  /// treats as nondeterministic — but "can still eat a signal".
  void condWait(Tid Self, uint64_t CondId, bool Timed);
  unsigned condSignal(Tid Self, uint64_t CondId);
  unsigned condBroadcast(Tid Self, uint64_t CondId);

  /// After reacquiring the mutex, a cond waiter asks how it woke: true if
  /// a signal/broadcast selected it, false for the timeout/spurious path
  /// (in which case it is removed from the waiter list).
  bool condConsumeSignaled(Tid Self, uint64_t CondId);

  /// Posts an asynchronous virtual signal to \p Target (from the
  /// environment or another thread). If the target is disabled it is
  /// re-enabled so it can enter the handler; the wakeup is logged as an
  /// ASYNC event (§4.5). Ignored during replay — recorded SIGNAL entries
  /// drive delivery instead.
  void postSignal(Tid Target, Signo S);

  /// Resolves a nondeterministic choice inside a critical section (e.g.
  /// which historical atomic store a load reads) through the scheduler
  /// PRNG; reproduced on replay by the seeds alone (§4).
  uint64_t drawChoice(uint64_t Bound);

  /// Called periodically by the thread supervising the run: if the
  /// designated thread has made no progress while others are parked,
  /// forces a reschedule (§3.3) and logs it as an ASYNC event.
  void livenessPoll();

  /// Blocks until every registered thread has finished, or the run ended
  /// in a salvaging shutdown (check deadlocked() and stallSalvaged()), and
  /// returns true; returns false once \p Deadline passes first, so the
  /// caller can run its periodic supervision and wait again.
  bool waitAllFinished(std::chrono::steady_clock::time_point Deadline);

  /// True when the run ended in a salvaged deadlock: every live thread is
  /// disabled and parked forever; the session must detach (not join) its
  /// OS threads and keep this scheduler alive.
  bool deadlocked();

  /// Watchdog rung 2: forces progress on a stalled run. In controlled
  /// Free/Record mode this takes (and records) a Reschedule async event
  /// and re-picks the designation — recovering a designation of a thread
  /// that will never arrive; in replay or free-run it broadcasts a wake
  /// to every parked thread — recovering a lost wakeup. Returns false if
  /// the run already finished, deadlocked or salvaged.
  bool watchdogNudge();

  /// Watchdog rung 3: the salvaging shutdown for non-deadlock hangs,
  /// mirroring the deadlock salvage. Flushes the live recording at the
  /// current (stalled) tick frontier, fills a hard WatchdogStall report
  /// annotated with \p Why, freezes designation so no further visible op
  /// is granted (stragglers park forever; the session detaches them), and
  /// wakes waitAllFinished. Returns false if the run already finished,
  /// deadlocked or salvaged.
  bool salvageStall(const std::string &Why);

  /// True when salvageStall latched: the session must detach (not join)
  /// its OS threads and keep this scheduler alive, exactly like a
  /// salvaged deadlock.
  bool stallSalvaged();

  /// Begins retiring the stragglers of a salvaged run: every thread
  /// still alive gets ControlledThreadRetire thrown out of its next
  /// wait() (parked threads are woken into it), unwinding it off the
  /// controlled body so its OS thread can exit and the scheduler can be
  /// reclaimed instead of leaking in the parked registry. Only safe
  /// when the owning session object is kept alive until every straggler
  /// has exited — the unwind still runs destructors with visible
  /// operations.
  void requestRetire();

  /// Blocks until every unfinished thread is physically parked inside
  /// wait() (false on timeout). After a salvaged deadlock the session
  /// must not tear anything down before this: a thread can be *disabled*
  /// (its wait registered) but still on its way into wait(), where it
  /// will dereference session state one last time.
  bool waitLiveParked(uint64_t TimeoutMs);

  /// Declares a hard desynchronisation discovered by a higher layer (e.g.
  /// a SYSCALL kind mismatch): drops to uncontrolled first-come-first-
  /// served execution and keeps the report. The caller fills Reason,
  /// Stream, Thread, Expected/Actual and (for SYSCALL desyncs) the
  /// SyscallCursor; the scheduler stamps the tick and its own cursors and
  /// renders the message.
  void declareDesync(DesyncReport Report);

  /// Legacy free-form variant (Reason::Other).
  void declareHardDesync(const std::string &Message);

  /// Declares a soft (informational) desynchronisation: recorded if no
  /// report is present yet; a later hard desync overwrites it. Used for
  /// the TruncatedDemo exhaustion report.
  void declareSoftDesync(DesyncReport Report);

  /// Best-effort flush of the record streams to the live writer from a
  /// fatal-signal handler: skips entirely (returning nullopt) when the
  /// scheduler lock cannot be acquired — a torn flush would corrupt the
  /// prefix that earlier flushes already made durable. Returns the tick
  /// frontier flushed at so the caller can flush its SYSCALL stream to
  /// the same frontier.
  std::optional<uint64_t> emergencyFlush();

  /// Flushes record-mode streams into the record demo.
  void finishRecording();

  /// Current value of the global tick counter.
  uint64_t currentTick();

  /// Relaxed read of the tick counter without the scheduler lock. Stable
  /// inside a critical section (only the ticking thread advances it); used
  /// by the session to stamp trace events from within visible operations.
  uint64_t currentTickRelaxed() const {
    return CurTick.load(std::memory_order_relaxed);
  }

  /// Replay health.
  DesyncKind desyncKind();
  std::string desyncMessage();

  /// Snapshot of the structured desync report. For a synchronised run the
  /// report has Kind == None with the current cursor positions and soft-
  /// resync count filled in; after a hard desync it is the report frozen
  /// at declaration time (with SoftResyncs kept current).
  DesyncReport desyncReport();

  SchedulerStats statsSnapshot();

  /// Renders thread states for diagnostics (watchdog & deadlock reports).
  std::string dumpState();

  /// ThreadView — only valid while the scheduler lock is held; used by
  /// strategies from within scheduler callbacks.
  bool isEnabled(Tid T) const override;
  bool isFinished(Tid T) const override;
  Tid threadCount() const override;

private:
  /// One registered thread's scheduling state. Allocated when its tid is
  /// handed out and never moved (see Threads).
  struct ThreadState {
    bool Finished = false;
    /// Atomic because tryFastClaim reads its *own* Enabled flag outside
    /// the commit domain to decide whether an FCFS (AnyTid) grant is
    /// claimable. Writes stay in the commit domain / under Mu, and a
    /// thread is only ever disabled from its own critical section, so
    /// the lock-free self-read is never stale in the dangerous
    /// direction (enabled-looking while actually blocked).
    std::atomic<bool> Enabled{true};
    /// Parked/InCritical are atomic for the pipelined commit path: a
    /// fast committer reads its successor's Parked without the mutex
    /// (the Dekker wake pair below), and a fast claim publishes
    /// InCritical before consuming its grant so revoking asyncs observe
    /// the claim. Both still change under Mu on the slow path.
    std::atomic<bool> Parked{false};
    std::atomic<bool> InCritical{false};
    WaitKind Waiting = WaitKind::None;
    uint64_t WaitObj = 0;
    bool WokenBySignal = false;
    /// ControlledThreadRetire was thrown at this thread: it is finished
    /// as far as scheduling goes, and its re-entrant wait() calls (from
    /// destructors unwinding) get serialised degenerate grants.
    bool RetireThrown = false;
    unsigned HandlerDepth = 0;
    std::deque<Signo> RawSignals;
    /// Mirror of RawSignals.size(), release-published by every mutator.
    /// The fast claim/commit paths read it (acquire) where touching the
    /// deque itself would race with a gated postSignal.
    std::atomic<uint32_t> RawCount{0};
    std::deque<Signo> DeliverableSignals;
    /// Mirror of DeliverableSignals.size(): lets takeDeliverableSignal
    /// answer "nothing deliverable" without the scheduler mutex.
    std::atomic<uint32_t> DeliverableCount{0};
    /// The thread's private parking place. It sleeps on Cv until the wake
    /// token Notified (guarded by Mu) is set, which absorbs OS-level
    /// spurious condvar wakeups, making SpuriousWakeups a faithful count
    /// of protocol-level misdirected wakes.
    std::condition_variable Cv;
    bool Notified = false;
  };

  // Pipelined fast paths and the commit gate (no Mu unless noted).
  /// Spins briefly on FastGrant for a grant addressed to \p Self and
  /// CAS-claims it. True: the caller is in its critical section without
  /// ever taking Mu. Announces arrival to the strategy first (the queue
  /// strategy's FCFS fast path depends on it; internally synchronised).
  bool tryFastClaim(Tid Self);
  /// Attempts the lock-free commit of \p Self's tick: wins the commit
  /// gate, checks every pending-work disqualifier, and only then mutates
  /// committer-owned state, publishing the successor through FastGrant.
  /// False: nothing was mutated; the caller must take the Mu slow path.
  bool tryFastCommit(Tid Self);
  /// True when FastGrant currently holds a claimable grant for \p Self
  /// (seq_cst load — the parker half of the Dekker pair).
  bool fastGrantMine(Tid Self) const;
  /// Bookkeeping for a CAS-won FCFS (AnyTid) grant — the lock-free twin
  /// of grantIfAnyLocked: tells the strategy and maintains the self-grant
  /// streak. Returns true when the claimant should yield the processor
  /// once (single-core fairness, mirrors slowTick).
  bool noteFcfsClaim(Tid Self);
  /// An FCFS grant was published while some thread was parked (it
  /// enqueued after pickNext scanned and parked before the word landed).
  /// Converts the grant to a concrete one for a parked enabled thread
  /// and wakes it — waking it into the CAS race instead could lose and
  /// re-park it, which would break the SpuriousWakeups==0 contract.
  void convertFcfsGrantLocked(uint64_t Grant);
  /// The mutex commit path (the entire legacy tick body).
  void slowTick(Tid Self);
  /// Async halves of the commit gate; no-ops unless PipelineEnabled.
  /// asyncEnter must be called *before* locking Mu (an async may hold Mu
  /// while waiting out a fast commit, never the reverse).
  void asyncEnter();
  void asyncExit();
  /// RAII for external entry points: gate + Mu.
  struct AsyncSection {
    explicit AsyncSection(Scheduler &S) : S(S) {
      S.asyncEnter();
      L = std::unique_lock<std::mutex>(S.Mu);
    }
    ~AsyncSection() {
      L.unlock();
      S.asyncExit();
    }
    Scheduler &S;
    std::unique_lock<std::mutex> L;
  };

  // All private helpers below assume Mu is held.
  /// Retire check for wait(): returns false when no retire is pending
  /// for \p Self; throws ControlledThreadRetire (with \p L released) on
  /// the thread's first retire; returns true — with the caller granted a
  /// serialised degenerate critical section — for re-entrant waits
  /// during the unwind.
  bool maybeRetireLocked(Tid Self, std::unique_lock<std::mutex> &L);
  void chooseNextLocked();
  void grantIfAnyLocked(Tid Self);
  void wakeForDesignationLocked();
  void wakeTargetLocked(Tid T);
  void wakeAnyLocked();
  void wakeAllParkedLocked();
  void applyInjectionsLocked();
  void noticeSignalsLocked(Tid Self);
  void deadlockCheckLocked();
  void maybeFlushLocked();
  void flushRecordStreamsLocked(bool Final);
  /// Appends the unflushed QUEUE, SIGNAL and ASYNC suffixes to the live
  /// writer as one chunk each at \p Tick and advances their cursors.
  void appendRecordChunksLocked(uint64_t Tick);
  void hardDesyncLocked(DesyncReport Report);
  void softDesyncLocked(DesyncReport Report);
  void fillCursorsLocked(DesyncReport &Report) const;
  void enableForWakeupLocked(Tid T);
  void removeFromWaitListsLocked(Tid T);
  void recordAsyncLocked(AsyncEventKind Kind, Tid T);
  void recordRecoveryLocked(RecoveryActionKind Kind, Tid T, StreamKind S,
                            uint64_t Count, std::string Detail);
  unsigned enabledCountLocked() const;
  unsigned liveCountLocked() const;
  bool allFinishedLocked() const;
  std::string dumpStateLocked() const;
  void parseReplayStreams(const Demo &D);

  SchedulerOptions Opts;
  std::unique_ptr<Strategy> Strat;
  Prng Rng;

  /// Demo receiving the recorded streams (record mode only).
  Demo *RecordSink = nullptr;

  std::mutex Mu;

  /// Wakes waitAllFinished. Notified only on thread completion and the
  /// deadlock / stall-salvage latches, so the thread supervising the run
  /// stays off the per-tick hot path.
  std::condition_variable DoneCv;

  /// Slot T holds thread T's state from registration to the scheduler's
  /// destruction and never moves, so lock-free readers of a registered
  /// tid never touch freed storage. NumThreads changes only inside a
  /// critical section under Mu: stable to Mu holders and the commit chain.
  std::array<std::unique_ptr<ThreadState>, MaxThreads> Threads;
  Tid NumThreads = 0;
  std::span<const std::unique_ptr<ThreadState>> registered() const {
    return {Threads.data(), NumThreads};
  }
  std::unordered_map<uint64_t, std::vector<Tid>> MutexWaiters;
  std::unordered_map<uint64_t, std::vector<Tid>> CondWaiters;

  //===--------------------------------------------------------------------===//
  // Pipelined tick commit (DESIGN.md §14). Memory-ordering contract:
  //
  //  * CurTick — advanced only by the committing thread (fast path:
  //    store-release in tryFastCommit; slow path: under Mu). Pairs:
  //    commit release-store -> currentTick() acquire-load gives external
  //    readers (watchdog progress, telemetry stamps) a monotonic value;
  //    readers needing the *rest* of the commit's writes synchronise
  //    through FastGrant or Mu instead, so most internal loads stay
  //    relaxed. currentTickRelaxed() is unchanged: stable inside a
  //    critical section because only the critical thread advances it.
  //
  //  * FastGrant — the commit's publication point. The committer
  //    seq_cst-stores pack(successor, ticket) after every commit write;
  //    a claiming thread's seq_cst load + acq_rel CAS synchronises with
  //    it, carrying the whole committer chain (strategy state, PRNG,
  //    record streams, CurTick) to the next critical section. It is the
  //    only way into that section: the committer leaves Active at
  //    InvalidTid, and the claimant writes its own tid there. The
  //    seq_cst store also forms a Dekker pair with ThreadState::Parked:
  //    committer stores FastGrant then loads Parked; a parking thread
  //    stores Parked then loads FastGrant — one side always observes the
  //    other, so a grant is never lost between "not parked yet" and
  //    "asleep" (the parked case is handed off under Mu through
  //    wakeTargetLocked, whose predicate re-check keeps SpuriousWakeups
  //    at zero).
  //
  //  * AsyncGate / CommitBusy — the asymmetric gate between fast commits
  //    and every external entry point (postSignal, liveness poll,
  //    watchdog, desync declarations, stats). Asyncs fetch_add AsyncGate
  //    (seq_cst), spin until CommitBusy == 0, do their work under Mu,
  //    then fetch_sub (release). The fast committer fetch_adds CommitBusy
  //    (seq_cst), re-checks AsyncGate (seq_cst) and aborts if an async
  //    announced itself; its release fetch_sub pairs with the async's
  //    acquire spin, handing the commit's writes to the Mu domain.
  //    A count: a committer leaves after publishing FastGrant, so its
  //    successor's commit may already be inside. RULE: never acquire Mu
  //    while holding CommitBusy — an async may hold Mu while spinning on
  //    CommitBusy.
  //===--------------------------------------------------------------------===//

  /// Designated thread: a tid, AnyTid (first arrival proceeds) or
  /// InvalidTid (nobody runnable yet, or FastGrant names the successor).
  /// Mutex designations write it under Mu; the fast commit only stores
  /// InvalidTid before publishing, and a grant's owner names itself once
  /// it claims. Atomic because those writes skip Mu and wait()
  /// predicates read it (acquire).
  std::atomic<Tid> Active{InvalidTid};

  /// Global tick counter; ordering contract in the block comment above.
  std::atomic<uint64_t> CurTick{0};

  /// Packed fast-path grant: (successor tid << 32) | low 32 bits of the
  /// ticket (the tick the successor may commit at). The ticket rejects
  /// stale grants: a grant is claimable only while its ticket matches
  /// CurTick, and a published grant survives at most one commit (the
  /// successor's own tick overwrites or clears it), so 32 ticket bits
  /// cannot alias. The tid may be AnyTid — a lock-free FCFS grant
  /// (queue strategy, empty queue): any enabled arrival may take it,
  /// and because several can race, AnyTid grants are consumed strictly
  /// by CAS (concrete grants may be consumed by observation under Mu).
  /// While any grant is outstanding, Active holds the InvalidTid
  /// sentinel: it must match no thread's park predicate, and it must
  /// not be AnyTid, which would open the mutex-side grantIfAnyLocked as
  /// a second grant path for the same tick.
  std::atomic<uint64_t> FastGrant{~0ull};
  static constexpr uint64_t kNoFastGrant = ~0ull;
  static uint64_t packGrant(Tid T, uint64_t Tick) {
    return (static_cast<uint64_t>(T) << 32) | (Tick & 0xffffffffull);
  }
  static Tid grantTid(uint64_t G) { return static_cast<Tid>(G >> 32); }
  static uint32_t grantTicket(uint64_t G) {
    return static_cast<uint32_t>(G);
  }

  /// Async side of the commit gate: number of external entry points
  /// announced (waiting for or holding Mu).
  std::atomic<uint32_t> AsyncGate{0};

  /// Committer side of the commit gate: fast commits between gate entry
  /// and their final release (see the block comment).
  std::atomic<uint32_t> CommitBusy{0};

  /// Number of threads currently parked (any reason). An FCFS grant
  /// names no successor whose Parked flag the committer could check, so
  /// its wake check compares this count against a pre-publish snapshot.
  /// Dekker pair: the parker fetch_adds (seq_cst) before loading
  /// FastGrant; the committer stores FastGrant before loading the count.
  std::atomic<uint32_t> ParkedCount{0};

  /// TickCommit == Pipelined actually engaged (controlled runs only);
  /// immutable after construction.
  bool PipelineEnabled = false;

  /// When true, designation is first-come-first-served (uncontrolled
  /// modes, post-desync and post-exhaustion fallback).
  bool FreeRunFcfs = false;

  // Record-side streams.
  ByteWriter QueueBytes;
  std::unique_ptr<RleU64Writer> QueueLog;
  ByteWriter SignalBytes;
  ByteWriter AsyncBytes;

  // Live-writer flush cursors: how much of each record stream has already
  // been pushed to disk as chunks.
  size_t QueueFlushed = 0;
  size_t SignalFlushed = 0;
  size_t AsyncFlushed = 0;
  uint64_t LastFlushTick = 0;

  /// Deadlock latched by the salvaging shutdown.
  bool Deadlocked = false;

  /// Watchdog stall-salvage latched (salvageStall): designation is frozen
  /// (Active == InvalidTid forever), tick() is a no-op, and every
  /// unfinished thread parks forever in wait().
  bool StallSalvaged = false;

  /// requestRetire() latched: stragglers unwind out of wait() instead of
  /// parking forever. RetireCv/RetireCsBusy serialise the degenerate
  /// critical sections handed to destructors running during the unwind.
  /// Atomic because tryFastClaim polls it outside Mu before consuming a
  /// grant; the latch is sticky, so a stale false there costs at most
  /// one more critical section — the same window the mutex path has.
  std::atomic<bool> RetireRequested{false};
  std::condition_variable RetireCv;
  bool RetireCsBusy = false;

  // Replay-side parsed streams and cursors.
  std::vector<uint64_t> ReplayQueue;

  /// Recovery skew: QUEUE entries skipped by the forward search. The
  /// effective replay index is CurTick + QueueSkew, and recorded
  /// SIGNAL/ASYNC ticks compare against that skewed index. Always zero
  /// under RecoveryMode::Strict.
  uint64_t QueueSkew = 0;
  std::vector<SignalRecord> ReplaySignals;
  size_t ReplaySignalPos = 0;
  std::vector<AsyncRecord> ReplayAsync;
  size_t ReplayAsyncPos = 0;

  /// Consecutive first-come-first-served self-grants by the same thread;
  /// bounded by a yield so one spinning thread cannot monopolise a
  /// single-CPU host (see tick()).
  Tid LastGranter = InvalidTid;
  unsigned SelfGrantStreak = 0;

  /// Consecutive pipelined FCFS commits that bypassed a parked, enabled
  /// arrival (tryFastCommit's bounded self-preference). Committer-owned:
  /// written by fast commits inside the gate and by slowTick under Mu,
  /// both on the commit chain. Once the streak hits the current limit
  /// the next commit designates the waiter concretely, so a parked
  /// thread waits at most kFcfsBypassMax ticks before it is scheduled.
  /// The limit cycles through [kFcfsBypassMin, kFcfsBypassMax] one step
  /// per forced handoff so preemption points never alias with a
  /// fixed-period critical section in the workload (Scheduler.cpp).
  unsigned FcfsBypassStreak = 0;
  unsigned FcfsBypassLimit = 16; ///< == kFcfsBypassMax initially.

  /// Rotation point for first-come-first-served wakes (wakeAnyLocked):
  /// an AnyTid grant wakes one parked enabled thread, and the cursor
  /// advances so repeated grants cannot starve a parked thread.
  size_t AnyWakeCursor = 0;

  /// Structured desync state; Report.Kind doubles as the health flag.
  DesyncReport Report;

  uint64_t LastLivenessTick = ~0ull;
  SchedulerStats Stats;

  /// Cached from Opts.Trace: null compiles every emission to one branch.
  TraceRecorder *const Trace;

  /// Cached from Opts.Profile: null compiles every hook to one branch.
  Profiler *const Prof;
};

} // namespace tsr

#endif // TSR_SCHED_SCHEDULER_H
