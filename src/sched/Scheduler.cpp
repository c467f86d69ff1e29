//===-- sched/Scheduler.cpp - The controlled scheduler ----------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "sched/Scheduler.h"

#include "support/Compiler.h"
#include "support/DemoWriter.h"
#include "support/Diag.h"
#include "support/Profile.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>

using namespace tsr;

namespace {
/// Trace attribution for a designation result: AnyTid/InvalidTid carry no
/// concrete thread.
Tid traceTid(Tid T) { return T == AnyTid || T == InvalidTid ? InvalidTid : T; }

/// Polite spin body for the fast-claim and commit-gate loops.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// How long a thread arriving at wait() watches FastGrant before parking.
/// On a multi-core host: long enough to catch a committer mid-designation
/// (the common handoff is a few hundred nanoseconds), short enough that an
/// oversubscribed host falls back to the condvar instead of burning a
/// core. On a single-core host spinning only steals the committer's
/// timeslice, so the claim degrades to one probe — which still catches the
/// already-published case (self-grants, and grants issued before we
/// arrived), the only case a lone core can ever observe.
int claimSpins() {
  static const int Spins =
      std::thread::hardware_concurrency() > 1 ? 2048 : 1;
  return Spins;
}

/// Bounds for how many consecutive fast FCFS commits may bypass a
/// parked, enabled arrival before the committer must designate it
/// concretely. Large enough to amortise the condvar round trip a
/// concrete designation of a sleeping thread costs, small enough that a
/// waiter is never more than a brief burst of ticks from running. The
/// burst length cycles Max..Min (one step per forced handoff) rather
/// than staying fixed: a constant bound aliases with fixed-period
/// workload loops — an even bound against a two-tick lock/unlock cycle
/// lands every preemption right after the unlock, so waiters never
/// observe a held lock and contention vanishes from the schedule.
constexpr unsigned kFcfsBypassMin = 9;
constexpr unsigned kFcfsBypassMax = 16;
static_assert(kFcfsBypassMin < kFcfsBypassMax,
              "burst cycle needs a non-empty range");

/// Recovery forward-search window in QUEUE entries (Resync/Adaptive).
constexpr uint32_t kQueueSearchWindow = 64;
} // namespace

Scheduler::Scheduler(const SchedulerOptions &Opts, Demo *RecordDemo,
                     const Demo *ReplayDemo)
    : Opts(Opts), Strat(makeStrategy(Opts.Strategy, Opts.Params)),
      Rng(Opts.Seed0, Opts.Seed1), Trace(Opts.Trace), Prof(Opts.Profile) {
  PipelineEnabled =
      Opts.TickCommit == TickCommitMode::Pipelined && Opts.Controlled;
  if (!Opts.Controlled)
    FreeRunFcfs = true;
  if (Opts.ExecMode == Mode::Record) {
    assert(RecordDemo && "record mode requires a demo to fill");
    RecordSink = RecordDemo;
    QueueLog = std::make_unique<RleU64Writer>(QueueBytes);
  }
  if (Opts.ExecMode == Mode::Replay) {
    assert(ReplayDemo && "replay mode requires a demo to read");
    parseReplayStreams(*ReplayDemo);
  }
}

Scheduler::~Scheduler() = default;

void Scheduler::parseReplayStreams(const Demo &D) {
  // QUEUE: run-length-encoded tid-per-tick sequence (§4.2).
  {
    RleU64Reader R(D.reader(StreamKind::Queue));
    uint64_t V;
    while (R.pop(V))
      ReplayQueue.push_back(V);
  }
  // SIGNAL: (tid, tick, signo) records (§4.3).
  if (decodeSignals(D.stream(StreamKind::Signal), ReplaySignals) !=
      D.streamSize(StreamKind::Signal))
    warn("truncated SIGNAL stream; ignoring tail");
  // ASYNC: (tick, kind, tid) events (§4.5).
  if (decodeAsyncs(D.stream(StreamKind::Async), ReplayAsync) !=
      D.streamSize(StreamKind::Async))
    warn("truncated ASYNC stream; ignoring tail");
}

Tid Scheduler::addMainThread() {
  std::lock_guard<std::mutex> L(Mu);
  assert(NumThreads == 0 && "main thread must be registered first");
  Threads[0] = std::make_unique<ThreadState>();
  NumThreads = 1;
  Strat->onThreadNew(0, Rng);
  if (TSR_UNLIKELY(Trace != nullptr))
    Trace->emit(0, TraceEventKind::ThreadStart, 0, /*Child=*/0);
  chooseNextLocked();
  applyInjectionsLocked();
  return 0;
}

bool Scheduler::fastGrantMine(Tid Self) const {
  // The ticket must match the *current* tick: CurTick cannot advance past
  // an unclaimed valid grant (only the granted thread may commit that
  // tick), so `==` is exact and a stale grant from an earlier tick — left
  // behind when its owner was woken through the mutex instead — can never
  // be claimed again.
  const uint64_t G = FastGrant.load(std::memory_order_seq_cst);
  return G != kNoFastGrant && grantTid(G) == Self &&
         grantTicket(G) ==
             static_cast<uint32_t>(CurTick.load(std::memory_order_relaxed));
}

bool Scheduler::tryFastClaim(Tid Self) {
  // Announce the arrival before spinning: the queue strategy's FCFS
  // order is defined by onArrive, and it must see us whether the grant
  // comes through the pipeline or the mutex. This is the one strategy
  // hook that runs outside the commit chain (see Strategy.h).
  Strat->onArrive(Self);
  ThreadState &TS = *Threads[Self];
  for (int I = 0, E = claimSpins(); I != E; ++I) {
    const uint64_t G = FastGrant.load(std::memory_order_acquire);
    const Tid Who = G == kNoFastGrant ? InvalidTid : grantTid(G);
    if (Who == Self || Who == AnyTid) {
      if (grantTicket(G) !=
          static_cast<uint32_t>(CurTick.load(std::memory_order_relaxed)))
        return false; // our own stale grant; park and let slowTick clear it
      // Anything that needs the slow path's pre-commit work (pending raw
      // signals -> noticeSignalsLocked, retire) declines the claim. The
      // grant stays published, so the park predicate passes immediately.
      if (RetireRequested || TS.RawCount.load(std::memory_order_acquire) != 0)
        return false;
      // An FCFS grant is for enabled arrivals only; a blocked thread is
      // here just to park. (Own flag: only we disable ourselves, so the
      // lock-free read cannot claim while actually blocked.)
      if (Who == AnyTid && !TS.Enabled)
        return false;
      // Claim order matters: InCritical goes up *before* the CAS so a
      // revoker whose exchange() comes back empty can tell "claimed and
      // running" from "never granted" by reading InCritical (the RMW on
      // FastGrant carries the store).
      TS.InCritical.store(true, std::memory_order_seq_cst);
      uint64_t Expected = G;
      if (FastGrant.compare_exchange_strong(Expected, kNoFastGrant,
                                            std::memory_order_acq_rel)) {
        Active.store(Self, std::memory_order_release);
        if (Who == AnyTid && noteFcfsClaim(Self))
          std::this_thread::yield();
        return true;
      }
      // Revoked under us, or another arrival won the FCFS race.
      TS.InCritical.store(false, std::memory_order_seq_cst);
      return false;
    }
    cpuRelax();
  }
  return false;
}

bool Scheduler::noteFcfsClaim(Tid Self) {
  // The lock-free twin of grantIfAnyLocked. The claimant owns the
  // critical section (its CAS won the word), and every mutex-side reader
  // of these fields sits behind an Active == AnyTid guard, which a
  // pipelined FCFS grant never sets — so the plain writes cannot race.
  Strat->onDesignated(Self);
  if (Self == LastGranter) {
    ++SelfGrantStreak;
  } else {
    LastGranter = Self;
    SelfGrantStreak = 1;
  }
  if (SelfGrantStreak < 16)
    return false;
  // Single-core fairness, mirroring slowTick: a thread re-claiming its
  // own FCFS grant indefinitely would keep runnable threads off the
  // processor.
  SelfGrantStreak = 0;
  return true;
}

void Scheduler::wait(Tid Self) {
  if (PipelineEnabled) {
    if (tryFastClaim(Self))
      return;
  }
  std::unique_lock<std::mutex> L(Mu);
  assert(Self < NumThreads && "unknown thread in wait()");
  ThreadState &TS = *Threads[Self];
  if (TSR_UNLIKELY(RetireRequested) && maybeRetireLocked(Self, L))
    return; // degenerate retire grant; tick() releases it
  noticeSignalsLocked(Self);
  TS.Parked.store(true, std::memory_order_seq_cst);
  ParkedCount.fetch_add(1, std::memory_order_seq_cst);
  if (!PipelineEnabled)
    Strat->onArrive(Self); // pipelined mode announced in tryFastClaim
  grantIfAnyLocked(Self);
  // Park predicate: a designation through the mutex (Enabled && Active ==
  // Self) or an unclaimed pipelined grant published while we were parking.
  // The FastGrant check is the parker's half of the Dekker pair with
  // tryFastCommit: we store Parked+ParkedCount (seq_cst) *then* load
  // FastGrant (seq_cst); the committer stores FastGrant then loads its
  // successor's Parked (or, for an FCFS grant, ParkedCount) — one of the
  // two must observe the other, so the handoff is never lost. A concrete
  // grant observed here is consumed without a CAS: the mutex serialises
  // us against revokers, and slowTick's hygiene clears the leftover word.
  // An FCFS (AnyTid) grant is shared with running claimants that do not
  // take Mu, so it is consumed by CAS only; the designation bookkeeping
  // runs after the park loop exits.
  bool ClaimedFcfs = false;
  const auto Granted = [&] {
    if (TS.Enabled && Active.load(std::memory_order_acquire) == Self)
      return true;
    if (!PipelineEnabled)
      return false;
    if (fastGrantMine(Self))
      return true;
    const uint64_t G = FastGrant.load(std::memory_order_seq_cst);
    if (G == kNoFastGrant || grantTid(G) != AnyTid ||
        grantTicket(G) !=
            static_cast<uint32_t>(CurTick.load(std::memory_order_relaxed)) ||
        !TS.Enabled)
      return false;
    uint64_t Expected = G;
    if (!FastGrant.compare_exchange_strong(Expected, kNoFastGrant,
                                           std::memory_order_acq_rel))
      return false;
    ClaimedFcfs = true;
    return true;
  };
  // One Granted() per wake: its FCFS CAS consumes the grant, so a second
  // call would park the grant's new owner.
  bool Blocked = false;
  while (!Granted()) {
    if (Blocked)
      ++Stats.SpuriousWakeups; // woken, yet the predicate still fails
    else if (TSR_UNLIKELY(Trace != nullptr))
      Trace->emit(Self, TraceEventKind::Park,
                  CurTick.load(std::memory_order_relaxed));
    Blocked = true;
    TS.Cv.wait(L, [&TS] { return TS.Notified; });
    TS.Notified = false;
    if (TSR_UNLIKELY(RetireRequested) && maybeRetireLocked(Self, L))
      return;
    grantIfAnyLocked(Self);
  }
  if (TSR_UNLIKELY(Trace != nullptr) && Blocked)
    Trace->emit(Self, TraceEventKind::Wake,
                CurTick.load(std::memory_order_relaxed));
  ParkedCount.fetch_sub(1, std::memory_order_seq_cst);
  TS.Parked.store(false, std::memory_order_relaxed);
  TS.InCritical.store(true, std::memory_order_relaxed);
  Active.store(Self, std::memory_order_release); // see tryFastCommit
  if (ClaimedFcfs)
    noteFcfsClaim(Self); // yield hint irrelevant: we already slept on Mu
}

bool Scheduler::maybeRetireLocked(Tid Self, std::unique_lock<std::mutex> &L) {
  ThreadState &TS = *Threads[Self];
  if (!TS.RetireThrown) {
    // First retire of this thread: finish it for scheduling purposes and
    // unwind it out of the controlled body. The throw happens with the
    // lock released — the unwind immediately re-enters scheduler methods
    // (destructors run visible operations).
    TS.RetireThrown = true;
    if (TS.Parked.load(std::memory_order_relaxed))
      ParkedCount.fetch_sub(1, std::memory_order_seq_cst);
    TS.Parked = false;
    TS.InCritical = false;
    if (!TS.Finished) {
      TS.Finished = true;
      TS.Enabled = false;
      removeFromWaitListsLocked(Self);
      DoneCv.notify_all();
    }
    L.unlock();
    throw ControlledThreadRetire{};
  }
  // Re-entrant wait() during the unwind. Hand out a degenerate critical
  // section — no designation, no schedule entry — but serialised, so the
  // bookkeeping calls between wait() and tick() keep their mutual
  // exclusion against other retiring threads.
  RetireCv.wait(L, [this] { return !RetireCsBusy; });
  RetireCsBusy = true;
  if (TS.Parked.load(std::memory_order_relaxed))
    ParkedCount.fetch_sub(1, std::memory_order_seq_cst);
  TS.Parked = false;
  TS.InCritical = true;
  return true;
}

void Scheduler::grantIfAnyLocked(Tid Self) {
  if (Active != AnyTid || !Threads[Self]->Enabled || Threads[Self]->Finished)
    return;
  Active = Self;
  Strat->onDesignated(Self);
  if (Self == LastGranter) {
    ++SelfGrantStreak;
  } else {
    LastGranter = Self;
    SelfGrantStreak = 1;
  }
}

void Scheduler::asyncEnter() {
  if (!PipelineEnabled)
    return;
  // Announce, then wait out any in-flight fast commit. The seq_cst RMW
  // orders against the committer's gate checks: either the committer sees
  // our announcement and falls back to the mutex, or we see its
  // CommitBusy and spin until the commit retires. CommitBusy is never
  // held across a mutex acquisition, so this spin cannot deadlock.
  AsyncGate.fetch_add(1, std::memory_order_seq_cst);
  while (CommitBusy.load(std::memory_order_acquire) != 0)
    cpuRelax();
}

void Scheduler::asyncExit() {
  if (!PipelineEnabled)
    return;
  AsyncGate.fetch_sub(1, std::memory_order_release);
}

bool Scheduler::tryFastCommit(Tid Self) {
  // Gate, phase 1: an announced async wins outright — this is not an
  // abort, the commit never began.
  if (AsyncGate.load(std::memory_order_seq_cst) != 0)
    return false;
  CommitBusy.fetch_add(1, std::memory_order_seq_cst);
  if (AsyncGate.load(std::memory_order_seq_cst) != 0) {
    CommitBusy.fetch_sub(1, std::memory_order_release);
    return false;
  }
  // Commit owner from here until FastGrant is published (or the commit
  // aborts): gated entry points spin behind our CommitBusy count and the
  // single-critical-section invariant keeps other committers out, so
  // plain committer-owned state (Stats, Strat, Rng, record byte streams,
  // flush cursors, replay cursors) is safe to touch.
  assert(Active.load(std::memory_order_relaxed) == Self &&
         "tick() by a non-designated thread");
  bool Committed = false;
  Tid Next = InvalidTid;
  bool RacerPossible = false;
  bool FcfsBypass = false;
  uint32_t ParkSnap = 0;
  uint64_t EventTick = 0;
  do {
    ThreadState &TS = *Threads[Self];
    // Slow-path-only machinery: terminal latches, degenerate retire
    // grants, free-run FCFS, pending raw signals (need
    // noticeSignalsLocked's SIGNAL bytes before the tick is logged).
    if (TSR_UNLIKELY(TS.RetireThrown || RetireRequested || StallSalvaged ||
                     Deadlocked || FreeRunFcfs))
      break;
    if (TS.RawCount.load(std::memory_order_acquire) != 0)
      break;
    EventTick = CurTick.load(std::memory_order_relaxed);
    if (Opts.ExecMode == Mode::Record && Opts.LiveWriter) {
      // Flush boundaries stay a slow-path exclusive so chunk framing is
      // identical across commit modes (compared at the post-advance tick,
      // like maybeFlushLocked).
      if (Opts.FlushEveryTicks != 0 &&
          EventTick + 1 - LastFlushTick >= Opts.FlushEveryTicks)
        break;
    }
    if (Opts.ExecMode == Mode::Replay) {
      // A due injection (compared at the post-advance tick, exactly like
      // applyInjectionsLocked) is slow-path machinery.
      const uint64_t EffNext = EventTick + 1 + QueueSkew;
      if (ReplaySignalPos < ReplaySignals.size() &&
          ReplaySignals[ReplaySignalPos].Tick <= EffNext)
        break;
      if (ReplayAsyncPos < ReplayAsync.size() &&
          ReplayAsync[ReplayAsyncPos].Tick <= EffNext)
        break;
    }
    if (Opts.ExecMode == Mode::Replay &&
        Opts.Strategy == StrategyKind::Queue) {
      // The QUEUE stream designates directly; anything that needs the
      // recovery forward search, exhaustion bookkeeping, or a desync
      // report falls back.
      const uint64_t Idx = EventTick + 1 + QueueSkew;
      if (Idx >= ReplayQueue.size())
        break;
      const uint64_t T = ReplayQueue[Idx];
      if (T >= NumThreads || Threads[T]->Finished || !Threads[T]->Enabled)
        break;
      Next = static_cast<Tid>(T);
    } else {
      // The queue strategy's AnyTid answer — first come, first served
      // for the next arrival — can commit fast in record/free mode
      // (replay needs the recovery machinery).
      const bool FcfsOk =
          (Opts.ExecMode == Mode::Record || Opts.ExecMode == Mode::Free) &&
          Opts.Strategy == StrategyKind::Queue;
      if (!Strat->fastPickPossible(*this)) {
        // An enabled thread must exist so the all-disabled case keeps
        // reaching slowTick's deadlock check. A parked thread is always
        // registered (onArrive precedes the park), so no pick here means
        // nobody is waiting: plain FCFS, nothing bypassed.
        if (!FcfsOk || enabledCountLocked() == 0)
          break; // InvalidTid designations need the deadlock check
        FcfsBypassStreak = 0;
        Next = AnyTid;
      } else if (FcfsOk && Threads[Self]->Enabled &&
                 FcfsBypassStreak < FcfsBypassLimit) {
        // Bounded FCFS self-preference. Designating a parked arrival
        // concretely costs a condvar round trip per tick and parks the
        // committer right behind it — on a single-CPU host the two
        // threads then hand the processor back and forth through the
        // futex on every commit. Preferring an open FCFS grant keeps
        // the committer (which is enabled and about to re-arrive, so
        // the grant cannot dangle) ticking at fast-path speed; the
        // streak bound forces a concrete designation of the waiter at
        // least every kFcfsBypassMax commits, so a parked thread's
        // wait stays bounded. The mutex path needs no analogue: its
        // commit serialisation delays arrival registration past the
        // pick, which breaks the wake-per-tick cycle by accident.
        bool ParkedWaiter = false;
        for (const auto &TS2 : registered())
          if (TS2->Parked.load(std::memory_order_seq_cst) && TS2->Enabled &&
              !TS2->Finished) {
            ParkedWaiter = true;
            break;
          }
        if (ParkedWaiter) {
          ++FcfsBypassStreak;
          FcfsBypass = true;
          Next = AnyTid;
        }
      }
    }
    // ---- Commit. Mirrors slowTick's order exactly for this case.
    TS.InCritical.store(false, std::memory_order_relaxed);
    CurTick.store(EventTick + 1, std::memory_order_release);
    ++Stats.Ticks;
    ++Stats.FastPathCommits;
    if (TSR_UNLIKELY(Trace != nullptr))
      Trace->emit(Self, TraceEventKind::Tick, EventTick);
    if (TSR_UNLIKELY(Prof != nullptr))
      Prof->onTick(EventTick, Self);
    Strat->onTick(EventTick, Self, Rng);
    if (Opts.ExecMode == Mode::Record && Opts.Strategy == StrategyKind::Queue)
      QueueLog->push(Self);
    if (Next == InvalidTid) {
      Next = Strat->pickNext(*this, Rng);
      assert(Next != AnyTid && Next != InvalidTid &&
             "fastPickPossible promised a concrete designation");
    }
    if (Next == AnyTid) {
      // FCFS grant: first claimant wins by CAS; the designation
      // bookkeeping (Active, onDesignated, streak) runs claimant-side in
      // noteFcfsClaim. Like the slow path, no StrategyDecision is traced
      // — the QUEUE stream's logged tick is the decision. Snapshot the
      // parked population first so the post-gate wake check can skip Mu
      // when no parked enabled claimant existed. A bypass commit skips
      // the scan on purpose: its waiters are known parked, the committer
      // itself is the guaranteed claimant, and converting the grant for
      // a waiter would undo the bypass.
      ParkSnap = ParkedCount.load(std::memory_order_seq_cst);
      if (!FcfsBypass)
        for (const auto &TS2 : registered())
          if (TS2->Parked.load(std::memory_order_seq_cst) && TS2->Enabled &&
              !TS2->Finished) {
            RacerPossible = true;
            break;
          }
    } else {
      if (FcfsBypassStreak != 0) {
        // This concrete designation ends a bypass burst: slide the next
        // burst's length one step (cycling Max..Min) so handoff points
        // never lock onto a fixed-period critical section.
        FcfsBypassLimit = FcfsBypassLimit == kFcfsBypassMin
                              ? kFcfsBypassMax
                              : FcfsBypassLimit - 1;
        FcfsBypassStreak = 0;
      }
      Strat->onDesignated(Next);
      if (TSR_UNLIKELY(Trace != nullptr))
        Trace->emitEngine(TraceEventKind::StrategyDecision, EventTick + 1,
                          Next);
      if (Opts.DesignationHook && Strat->designatesEagerly())
        Opts.DesignationHook(Next);
    }
    // Publish last: the ticket is the only way into the next critical
    // section. Active gets the InvalidTid sentinel, never the successor —
    // that would admit a mutex-path successor before the ticket lands,
    // whose late store would then overwrite the successor's own grant.
    // The claimant names itself once it holds the grant.
    Active.store(InvalidTid, std::memory_order_release);
    FastGrant.store(packGrant(Next, EventTick + 1), std::memory_order_seq_cst);
    Committed = true;
  } while (false);
  if (!Committed)
    ++Stats.FastPathAborts; // still gate-owned: plain increment is safe
  CommitBusy.fetch_sub(1, std::memory_order_release);
  if (!Committed)
    return false;
  // Dekker handoff, committer's half: FastGrant published seq_cst above,
  // the parked state loaded seq_cst here. A successor observed parked (or
  // mid-park) gets a mutex wake; wakeTargetLocked re-checks the full
  // predicate so SpuriousWakeups stays zero. CommitBusy is already
  // released — taking Mu while holding it would deadlock against
  // asyncEnter.
  if (Next == AnyTid) {
    // A parked enabled claimant cannot CAS (it sleeps on its condvar),
    // so the grant must be converted under Mu — but only when one could
    // exist. ABA on the count is benign: any unpark in the window means
    // the grant was already claimed through a park predicate, and the
    // convert CAS below fails harmlessly.
    if (RacerPossible ||
        ParkedCount.load(std::memory_order_seq_cst) != ParkSnap) {
      std::lock_guard<std::mutex> L(Mu);
      convertFcfsGrantLocked(packGrant(AnyTid, EventTick + 1));
    }
  } else if (Next != Self &&
             Threads[Next]->Parked.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> L(Mu);
    wakeTargetLocked(Next);
  }
  return true;
}

void Scheduler::convertFcfsGrantLocked(uint64_t Grant) {
  // Under Mu the table is stable and parkers are serialised against us,
  // so scanning and waking is safe. Rotate like wakeAnyLocked so FCFS
  // conversions spread wakeups fairly. Waking a parked thread *into* the
  // CAS race instead could lose it to a running claimant and re-park it,
  // which would break the SpuriousWakeups == 0 contract — so the grant
  // is converted to a concrete one for the chosen thread first.
  const Tid N = NumThreads;
  for (Tid Step = 1; Step <= N; ++Step) {
    const Tid T = (AnyWakeCursor + Step) % N;
    ThreadState &TS = *Threads[T];
    if (TS.Finished || !TS.Parked.load(std::memory_order_seq_cst) ||
        !TS.Enabled)
      continue;
    uint64_t Expected = Grant;
    if (!FastGrant.compare_exchange_strong(Expected,
                                           packGrant(T, grantTicket(Grant)),
                                           std::memory_order_acq_rel))
      return; // claimed (or revoked) in the window; nothing to convert
    AnyWakeCursor = T;
    // Mirror noteFcfsClaim/grantIfAnyLocked so the streak tracking stays
    // consistent across grant paths; T names itself in Active on waking.
    Strat->onDesignated(T);
    if (T == LastGranter) {
      ++SelfGrantStreak;
    } else {
      LastGranter = T;
      SelfGrantStreak = 1;
    }
    wakeTargetLocked(T);
    return;
  }
}

void Scheduler::tick(Tid Self) {
  if (PipelineEnabled && tryFastCommit(Self))
    return;
  slowTick(Self);
}

void Scheduler::slowTick(Tid Self) {
  bool YieldAfterUnlock = false;
  {
    std::unique_lock<std::mutex> L(Mu);
    if (TSR_UNLIKELY(Threads[Self]->RetireThrown)) {
      // Closing a degenerate retire grant: release the serialised
      // section and do no scheduling work (the thread is Finished).
      Threads[Self]->InCritical = false;
      RetireCsBusy = false;
      RetireCv.notify_one();
      return;
    }
    if (TSR_UNLIKELY(StallSalvaged)) {
      // The watchdog salvage froze designation while this thread was
      // mid-critical-section. Drop the section without ticking; the
      // thread parks forever at its next wait() and the session detaches
      // it.
      Threads[Self]->InCritical = false;
      return;
    }
    assert(Active == Self && "tick() by a non-designated thread");
    assert(Threads[Self]->InCritical && "tick() without a matching wait()");
    Threads[Self]->InCritical = false;
    // Grant hygiene: the only word that can linger here is our own
    // concrete grant, consumed through the park predicate instead of a
    // CAS (FCFS words are always CAS-consumed and never linger). Clear
    // it so the ticket check never has to reason about
    // claimed-but-uncleared state (no concurrent claimant exists — the
    // grant names us).
    if (PipelineEnabled)
      FastGrant.store(kNoFastGrant, std::memory_order_relaxed);

    const uint64_t EventTick = CurTick.load(std::memory_order_relaxed);
    CurTick.store(EventTick + 1, std::memory_order_release);
    ++Stats.Ticks;
    ++Stats.SlowPathCommits;
    if (TSR_UNLIKELY(Trace != nullptr))
      Trace->emit(Self, TraceEventKind::Tick, EventTick);
    if (TSR_UNLIKELY(Prof != nullptr))
      Prof->onTick(EventTick, Self);
    Strat->onTick(EventTick, Self, Rng);
    if (Opts.ExecMode == Mode::Record && Opts.Controlled &&
        Opts.Strategy == StrategyKind::Queue)
      QueueLog->push(Self);

    noticeSignalsLocked(Self);
    // Any slow pick serves waiters through the mutex (a concrete pick
    // directly, an AnyTid pick only happens with nobody parked), so the
    // fast path's bypass budget starts over.
    FcfsBypassStreak = 0;
    chooseNextLocked();
    applyInjectionsLocked();
    maybeFlushLocked();
    deadlockCheckLocked();
    // The single wake point of the tick: it must come after the replay
    // injections (a SignalWakeup may enable the thread the QUEUE stream
    // designated, a Reschedule may re-pick Active) so the handoff sees
    // the final designation and enabled set.
    wakeForDesignationLocked();
    // Designation handoffs to parked threads hand the processor over
    // naturally (the ticker blocks in its next wait()). The pathological
    // case on a single-CPU host is the first-come-first-served grant with
    // an empty queue: the ticking thread re-arrives and re-grants itself
    // indefinitely while runnable threads never get the processor. Bound
    // the streak with an occasional yield — occasional, so short
    // main-first stretches (which the paper's uncontrolled runs rely on,
    // §5.1) survive.
    if (Opts.Controlled && Active == AnyTid && SelfGrantStreak >= 16) {
      SelfGrantStreak = 0;
      YieldAfterUnlock = true;
    }
  }
  if (YieldAfterUnlock)
    std::this_thread::yield();
}

void Scheduler::wakeForDesignationLocked() {
  if (Active == InvalidTid)
    return; // Nobody can proceed; deadlockCheckLocked handles the rest.
  if (Active == AnyTid) {
    wakeAnyLocked();
    return;
  }
  wakeTargetLocked(Active);
}

void Scheduler::wakeTargetLocked(Tid T) {
  if (T >= NumThreads)
    return;
  ThreadState &TS = *Threads[T];
  // Notify only when the full wait() predicate holds: waking a thread
  // that cannot proceed would have it re-check and re-block — a spurious
  // wakeup by definition. A designated thread that has not parked yet
  // needs no notify either; it checks the predicate before first
  // sleeping.
  if (TS.Finished || !TS.Parked || !TS.Enabled ||
      (Active != T && !(PipelineEnabled && fastGrantMine(T))))
    return;
  if (TS.Notified)
    return;
  TS.Notified = true;
  TS.Cv.notify_one();
  ++Stats.TargetedWakeups;
}

void Scheduler::wakeAnyLocked() {
  // First-come-first-served grant: one parked enabled thread suffices —
  // whoever claims it ticks, and that tick wakes the next. The rotating
  // cursor keeps the wake order fair so no parked thread starves; every
  // claim ends in a tick, so the chain cannot stall.
  const size_t N = NumThreads;
  if (N == 0)
    return;
  for (size_t I = 0; I != N; ++I) {
    const size_t T = (AnyWakeCursor + I) % N;
    ThreadState &TS = *Threads[T];
    if (TS.Finished || !TS.Parked || !TS.Enabled)
      continue;
    AnyWakeCursor = (T + 1) % N;
    if (!TS.Notified) {
      TS.Notified = true;
      TS.Cv.notify_one();
      ++Stats.TargetedWakeups;
    }
    return;
  }
}

void Scheduler::wakeAllParkedLocked() {
  // Genuine fan-out: after a deadlock latch or a hard desync every parked
  // thread must reconsider its predicate (post-desync free-run lets any
  // of them proceed as they arrive). These sites are off the hot path.
  ++Stats.BroadcastWakeups;
  for (const auto &TS : registered()) {
    if (TS->Finished || !TS->Parked || TS->Notified)
      continue;
    TS->Notified = true;
    TS->Cv.notify_one();
  }
}

void Scheduler::chooseNextLocked() {
  if (FreeRunFcfs) {
    Active = AnyTid;
    return;
  }
  if (Opts.ExecMode == Mode::Replay &&
      Opts.Strategy == StrategyKind::Queue) {
    uint64_t Idx = CurTick + QueueSkew;
    if (Idx < ReplayQueue.size()) {
      uint64_t T = ReplayQueue[Idx];
      if (T >= NumThreads || Threads[T]->Finished) {
        const uint64_t Bad = T;
        // Recovery forward search (Resync/Adaptive): scan a bounded
        // window of QUEUE entries for the next one that designates a
        // runnable thread. The skipped entries become permanent skew —
        // every later QUEUE index and recorded SIGNAL/ASYNC tick shifts
        // by it — and each skip is annotated on the recovery timeline.
        bool Recovered = false;
        if (Opts.Recovery != RecoveryMode::Strict) {
          const uint64_t Limit = std::min<uint64_t>(
              ReplayQueue.size(), Idx + 1 + kQueueSearchWindow);
          for (uint64_t J = Idx + 1; J < Limit; ++J) {
            const uint64_t C = ReplayQueue[J];
            if (C >= NumThreads || Threads[C]->Finished)
              continue;
            const uint64_t Skipped = J - Idx;
            QueueSkew += Skipped;
            Stats.QueueEntriesSkipped += Skipped;
            recordRecoveryLocked(
                RecoveryActionKind::SkipForward, static_cast<Tid>(C),
                StreamKind::Queue, Skipped,
                formatString("skipped %llu QUEUE entr%s starting with "
                             "unrunnable thread %llu",
                             static_cast<unsigned long long>(Skipped),
                             Skipped == 1 ? "y" : "ies",
                             static_cast<unsigned long long>(Bad)));
            Idx = J;
            T = C;
            Recovered = true;
            break;
          }
        }
        if (!Recovered && Opts.Recovery != RecoveryMode::Strict &&
            allFinishedLocked()) {
          // The program ended before the recorded schedule did. With
          // nobody left to designate, the leftover entries are vacuous:
          // consume them as skew and let the run complete instead of
          // manufacturing a desync out of a finished replay.
          const uint64_t Remaining = ReplayQueue.size() - Idx;
          QueueSkew += Remaining;
          Stats.QueueEntriesSkipped += Remaining;
          recordRecoveryLocked(
              RecoveryActionKind::SkipForward, InvalidTid, StreamKind::Queue,
              Remaining,
              formatString("every thread finished with %llu recorded QUEUE "
                           "entr%s left; dropping the vacuous tail",
                           static_cast<unsigned long long>(Remaining),
                           Remaining == 1 ? "y" : "ies"));
          Active = AnyTid;
          return;
        }
        if (!Recovered && Opts.Recovery == RecoveryMode::Adaptive) {
          // No runnable designation inside the window: degrade the
          // schedule to free-run and keep the run alive — a soft
          // desynchronisation with an annotated cause, not a hard stop.
          recordRecoveryLocked(
              RecoveryActionKind::ScheduleFreeRun, InvalidTid,
              StreamKind::Queue, 0,
              formatString("no runnable designation within %u entries; "
                           "finishing free-run",
                           kQueueSearchWindow));
          FreeRunFcfs = true;
          ++Stats.SoftResyncs;
          DesyncReport R;
          R.Reason = DesyncReason::QueueBadThread;
          R.Stream = StreamKind::Queue;
          R.Thread = Bad < InvalidTid ? static_cast<Tid>(Bad) : InvalidTid;
          R.Expected = formatString(
              "thread %llu runnable", static_cast<unsigned long long>(Bad));
          R.Actual = formatString(
              "no runnable designation within the %u-entry recovery "
              "window; finishing free-run",
              kQueueSearchWindow);
          softDesyncLocked(std::move(R));
          Active = AnyTid;
          wakeAllParkedLocked();
          return;
        }
        if (!Recovered) {
          DesyncReport R;
          R.Reason = DesyncReason::QueueBadThread;
          R.Stream = StreamKind::Queue;
          R.Thread = T < InvalidTid ? static_cast<Tid>(T) : InvalidTid;
          R.Expected = formatString(
              "thread %llu runnable", static_cast<unsigned long long>(T));
          R.Actual = T >= NumThreads
                         ? formatString("only %u threads exist", NumThreads)
                         : "it has finished";
          hardDesyncLocked(std::move(R));
          return;
        }
      }
      Active = static_cast<Tid>(T);
      Strat->onDesignated(Active);
      if (TSR_UNLIKELY(Trace != nullptr))
        Trace->emitEngine(TraceEventKind::StrategyDecision,
                          CurTick.load(std::memory_order_relaxed), Active);
      if (Opts.DesignationHook && Strat->designatesEagerly())
        Opts.DesignationHook(Active);
      return;
    }
    // Demo exhausted (Idx accounts for recovery skew: skipped entries
    // are consumed entries): the recording ended here; continue
    // free-running (soft desynchronisation territory, §4). Exhaustion
    // with live threads is a soft resync; exhaustion at the natural end
    // of the program (every thread finished) is a clean replay.
    if (!Stats.DemoExhausted) {
      Stats.DemoExhausted = true;
      Stats.DemoExhaustedAtTick = CurTick;
      FreeRunFcfs = true;
      if (!allFinishedLocked()) {
        ++Stats.SoftResyncs;
        // A salvaged (truncated) demo is *expected* to run out with live
        // threads: surface it as a structured soft report so the caller
        // knows where the recorded prefix ended.
        if (Opts.ReplayTruncated) {
          DesyncReport R;
          R.Reason = DesyncReason::TruncatedDemo;
          R.Stream = StreamKind::Queue;
          R.Actual = "the salvaged recording's schedule ends here; "
                     "finishing free-run";
          softDesyncLocked(std::move(R));
        }
      }
    }
    Active = AnyTid;
    return;
  }
  const Tid T = Strat->pickNext(*this, Rng);
  Active = T;
  if (T != AnyTid && T != InvalidTid) {
    Strat->onDesignated(T);
    if (TSR_UNLIKELY(Trace != nullptr))
      Trace->emitEngine(TraceEventKind::StrategyDecision,
                        CurTick.load(std::memory_order_relaxed), T);
    if (Opts.DesignationHook && Strat->designatesEagerly())
      Opts.DesignationHook(T);
  }
}

void Scheduler::applyInjectionsLocked() {
  if (Opts.ExecMode != Mode::Replay)
    return;
  // Recorded ticks compare against the skewed index: after the recovery
  // forward search skipped K QUEUE entries, recorded tick r corresponds
  // to live tick r - K. Strict keeps QueueSkew at zero, so this is the
  // legacy comparison bit-for-bit.
  const uint64_t EffTick = CurTick + QueueSkew;
  // SIGNAL deliveries scheduled for this completed-tick count.
  while (ReplaySignalPos < ReplaySignals.size() &&
         ReplaySignals[ReplaySignalPos].Tick <= EffTick) {
    const SignalRecord &E = ReplaySignals[ReplaySignalPos++];
    const Tid T = static_cast<Tid>(E.Thread);
    const Signo Sig = static_cast<Signo>(E.Signo);
    if (T >= NumThreads) {
      if (Opts.Recovery != RecoveryMode::Strict) {
        // Skip-with-annotation: a delivery for a thread that never came
        // to exist cannot be satisfied, but dropping one signal record
        // is recoverable — annotate and keep replaying.
        recordRecoveryLocked(
            RecoveryActionKind::SkipForward, T, StreamKind::Signal, 1,
            formatString("dropped recorded signal %d for unknown thread "
                         "%u (recorded tick %llu)",
                         Sig, T, static_cast<unsigned long long>(E.Tick)));
        continue;
      }
      DesyncReport R;
      R.Reason = DesyncReason::SignalBadThread;
      R.Stream = StreamKind::Signal;
      R.Thread = T;
      R.Expected = formatString("thread %u registered for signal %d at "
                                "tick %llu",
                                T, Sig,
                                static_cast<unsigned long long>(E.Tick));
      R.Actual = formatString("only %u threads exist", NumThreads);
      hardDesyncLocked(std::move(R));
      return;
    }
    ThreadState &TS = *Threads[T];
    TS.DeliverableSignals.push_back(Sig);
    TS.DeliverableCount.store(
        static_cast<uint32_t>(TS.DeliverableSignals.size()),
        std::memory_order_release);
    // Replay-side half of the profile SIGNAL identity: the recorded
    // (thread, tick, signo) record, not the live delivery tick.
    if (TSR_UNLIKELY(Prof != nullptr))
      Prof->onSignal(E);
  }
  // ASYNC events in recorded order; their relative order within a tick is
  // significant (a SignalWakeup may change the enabled set a Reschedule's
  // re-pick observes).
  while (ReplayAsyncPos < ReplayAsync.size() &&
         ReplayAsync[ReplayAsyncPos].Tick <= EffTick) {
    const AsyncRecord &E = ReplayAsync[ReplayAsyncPos++];
    const Tid Target = static_cast<Tid>(E.Thread);
    switch (E.Kind) {
    case AsyncEventKind::SignalWakeup:
      if (Target >= NumThreads) {
        if (Opts.Recovery != RecoveryMode::Strict) {
          recordRecoveryLocked(
              RecoveryActionKind::SkipForward, Target, StreamKind::Async,
              1,
              formatString("dropped recorded wakeup for unknown thread "
                           "%u (recorded tick %llu)",
                           Target,
                           static_cast<unsigned long long>(E.Tick)));
          break;
        }
        DesyncReport R;
        R.Reason = DesyncReason::AsyncBadThread;
        R.Stream = StreamKind::Async;
        R.Thread = Target;
        R.Expected = formatString(
            "thread %u registered for a wakeup at tick %llu", Target,
            static_cast<unsigned long long>(E.Tick));
        R.Actual = formatString("only %u threads exist", NumThreads);
        hardDesyncLocked(std::move(R));
        return;
      }
      enableForWakeupLocked(Target);
      break;
    case AsyncEventKind::Reschedule: {
      ++Stats.Reschedules;
      const Tid T = Strat->pickNext(*this, Rng);
      if (T != InvalidTid) {
        Active = T;
        if (T != AnyTid)
          Strat->onDesignated(T);
        if (TSR_UNLIKELY(Trace != nullptr))
          Trace->emitEngine(TraceEventKind::StrategyDecision,
                            CurTick.load(std::memory_order_relaxed),
                            traceTid(T), /*Reschedule=*/1);
      }
      break;
    }
    }
  }
}

void Scheduler::noticeSignalsLocked(Tid Self) {
  auto &T = *Threads[Self];
  if (Opts.ExecMode == Mode::Replay) {
    T.RawSignals.clear();
    T.RawCount.store(0, std::memory_order_release);
    return;
  }
  if (T.RawSignals.empty())
    return;
  do {
    const Signo S = T.RawSignals.front();
    T.RawSignals.pop_front();
    T.DeliverableSignals.push_back(S);
    if (Opts.ExecMode == Mode::Record) {
      const SignalRecord Rec{Self, CurTick.load(), static_cast<uint64_t>(S)};
      encodeSignal(SignalBytes, Rec);
      if (TSR_UNLIKELY(Prof != nullptr))
        Prof->onSignal(Rec);
    }
  } while (!T.RawSignals.empty());
  T.RawCount.store(0, std::memory_order_release);
  T.DeliverableCount.store(static_cast<uint32_t>(T.DeliverableSignals.size()),
                           std::memory_order_release);
}

void Scheduler::deadlockCheckLocked() {
  if (StallSalvaged)
    return; // The watchdog already salvaged; the frozen state is final.
  if (enabledCountLocked() != 0 || liveCountLocked() == 0)
    return;
  if (Opts.AbortOnDeadlock)
    fatal("deadlock: every live thread is disabled\n%s",
          dumpStateLocked().c_str());
  if (Deadlocked)
    return;
  // Salvaging shutdown: flush the recording (the frozen prefix is exactly
  // what reproduces this deadlock), fill a structured report, and wake
  // waitAllFinished so the session can unwind. The deadlocked threads
  // stay parked forever; the session detaches them.
  Deadlocked = true;
  Stats.Deadlocked = true;
  flushRecordStreamsLocked(false);
  if (Report.Kind != DesyncKind::Hard) {
    DesyncReport R;
    R.Kind = DesyncKind::Hard;
    R.Reason = DesyncReason::Deadlock;
    R.Tick = CurTick;
    R.Actual = dumpStateLocked();
    fillCursorsLocked(R);
    R.SoftResyncs = Stats.SoftResyncs;
    R.Message = renderDesyncReport(R);
    Report = std::move(R);
    if (TSR_UNLIKELY(Trace != nullptr))
      Trace->emitEngine(TraceEventKind::Desync,
                        CurTick.load(std::memory_order_relaxed),
                        InvalidTid,
                        static_cast<uint64_t>(DesyncReason::Deadlock),
                        static_cast<uint64_t>(DesyncKind::Hard));
  }
  warn("deadlock: every live thread is disabled at tick %llu — salvaging "
       "shutdown (SchedulerOptions::AbortOnDeadlock restores the abort)\n%s",
       static_cast<unsigned long long>(CurTick), dumpStateLocked().c_str());
  wakeAllParkedLocked();
  DoneCv.notify_all();
}

void Scheduler::maybeFlushLocked() {
  if (Opts.ExecMode != Mode::Record || !Opts.LiveWriter)
    return;
  if (Opts.FlushEveryTicks != 0 &&
      CurTick - LastFlushTick >= Opts.FlushEveryTicks)
    flushRecordStreamsLocked(false);
}

void Scheduler::flushRecordStreamsLocked(bool Final) {
  if (Opts.ExecMode != Mode::Record || !Opts.LiveWriter)
    return;
  if (QueueLog)
    QueueLog->flush(); // safe mid-run: splitting an RLE run decodes the same
  if (TSR_UNLIKELY(Trace != nullptr))
    Trace->emitEngine(TraceEventKind::DemoFlush,
                      CurTick.load(std::memory_order_relaxed), InvalidTid,
                      (QueueBytes.size() - QueueFlushed) +
                          (SignalBytes.size() - SignalFlushed) +
                          (AsyncBytes.size() - AsyncFlushed));
  // Every stream gets a chunk at every flush — even an empty one — so the
  // four data streams always share the same frontier sequence and salvage
  // can cross-trim them consistently.
  appendRecordChunksLocked(CurTick);
  LastFlushTick = CurTick;
  ++Stats.DemoFlushes;
  if (Opts.SyscallFlushHook)
    Opts.SyscallFlushHook(CurTick, Final);
  if (Final) {
    Opts.LiveWriter->closeStream(StreamKind::Queue);
    Opts.LiveWriter->closeStream(StreamKind::Signal);
    Opts.LiveWriter->closeStream(StreamKind::Async);
  }
}

void Scheduler::appendRecordChunksLocked(uint64_t Tick) {
  ChunkedDemoWriter &W = *Opts.LiveWriter;
  W.appendChunk(StreamKind::Queue, QueueBytes.data() + QueueFlushed,
                QueueBytes.size() - QueueFlushed, Tick);
  QueueFlushed = QueueBytes.size();
  W.appendChunk(StreamKind::Signal, SignalBytes.data() + SignalFlushed,
                SignalBytes.size() - SignalFlushed, Tick);
  SignalFlushed = SignalBytes.size();
  W.appendChunk(StreamKind::Async, AsyncBytes.data() + AsyncFlushed,
                AsyncBytes.size() - AsyncFlushed, Tick);
  AsyncFlushed = AsyncBytes.size();
}

std::optional<uint64_t> Scheduler::emergencyFlush() {
  if (Opts.ExecMode != Mode::Record || !Opts.LiveWriter)
    return std::nullopt;
  // A fatal signal may have landed while another thread held the lock (or
  // the commit gate) and was mutating these streams; flushing anyway
  // would write garbage after the consistent prefix already on disk.
  // Everything here must try, never block: the signal may have landed on
  // the lock holder itself. Skipping keeps the durable prefix intact —
  // that is what salvage recovers.
  if (PipelineEnabled) {
    AsyncGate.fetch_add(1, std::memory_order_seq_cst);
    if (CommitBusy.load(std::memory_order_acquire) != 0) {
      AsyncGate.fetch_sub(1, std::memory_order_release);
      return std::nullopt;
    }
  }
  if (!Mu.try_lock()) {
    if (PipelineEnabled)
      AsyncGate.fetch_sub(1, std::memory_order_release);
    return std::nullopt;
  }
  const uint64_t Tick = CurTick;
  if (QueueLog)
    QueueLog->flush();
  appendRecordChunksLocked(Tick);
  Mu.unlock();
  if (PipelineEnabled)
    AsyncGate.fetch_sub(1, std::memory_order_release);
  return Tick;
}

void Scheduler::fillCursorsLocked(DesyncReport &R) const {
  const uint64_t Total = ReplayQueue.size();
  // Skipped entries count as consumed: the QUEUE cursor reports how far
  // into the recorded schedule the replay has advanced.
  const uint64_t Tick = CurTick.load(std::memory_order_relaxed) + QueueSkew;
  R.QueueCursor = {Tick < Total ? Tick : Total, Total};
  R.SignalCursor = {ReplaySignalPos, ReplaySignals.size()};
  R.AsyncCursor = {ReplayAsyncPos, ReplayAsync.size()};
  // SyscallCursor belongs to the session; it stays as the caller set it.
}

void Scheduler::hardDesyncLocked(DesyncReport R) {
  if (Report.Kind == DesyncKind::Hard)
    return; // First report wins; later ones are downstream noise.
  R.Kind = DesyncKind::Hard;
  R.Tick = CurTick;
  fillCursorsLocked(R);
  R.SoftResyncs = Stats.SoftResyncs;
  R.Message = renderDesyncReport(R);
  Report = std::move(R);
  if (TSR_UNLIKELY(Trace != nullptr))
    Trace->emitEngine(TraceEventKind::Desync,
                      CurTick.load(std::memory_order_relaxed),
                      Report.Thread,
                      static_cast<uint64_t>(Report.Reason),
                      static_cast<uint64_t>(DesyncKind::Hard));
  warn("replay hard desynchronisation: %s (continuing uncontrolled)",
       Report.Message.c_str());
  FreeRunFcfs = true;
  // Post-desync free-run never fast-commits; revoke any unclaimed grant
  // so its owner re-parks into the FCFS predicate. Callers are either the
  // committer itself or a gated async, so no claim races the store.
  if (PipelineEnabled)
    FastGrant.store(kNoFastGrant, std::memory_order_seq_cst);
  // Reset the designation unless a thread is mid-critical-section (its
  // tick() will re-designate through the free-run path).
  bool AnyCritical = false;
  for (const auto &T : registered())
    AnyCritical = AnyCritical || T->InCritical.load(std::memory_order_seq_cst);
  if (!AnyCritical)
    Active = AnyTid;
  wakeAllParkedLocked();
}

void Scheduler::enableForWakeupLocked(Tid T) {
  auto &TS = *Threads[T];
  if (TS.Finished)
    return;
  ++Stats.SignalWakeups;
  if (TSR_UNLIKELY(Prof != nullptr) && !TS.Enabled)
    Prof->onUnblock(CurTick.load(std::memory_order_relaxed), T, UINT64_MAX,
                    ProfileWaitKind::Signal, 0);
  TS.Enabled = true;
  TS.Waiting = WaitKind::None;
  TS.WaitObj = 0;
  removeFromWaitListsLocked(T);
}

void Scheduler::removeFromWaitListsLocked(Tid T) {
  for (auto &Entry : MutexWaiters) {
    auto &V = Entry.second;
    V.erase(std::remove(V.begin(), V.end(), T), V.end());
  }
  for (auto &Entry : CondWaiters) {
    auto &V = Entry.second;
    V.erase(std::remove(V.begin(), V.end(), T), V.end());
  }
}

void Scheduler::recordAsyncLocked(AsyncEventKind Kind, Tid T) {
  if (Opts.ExecMode != Mode::Record)
    return;
  encodeAsync(AsyncBytes, {CurTick.load(), Kind, T});
}

void Scheduler::recordRecoveryLocked(RecoveryActionKind Kind, Tid T,
                                     StreamKind S, uint64_t Count,
                                     std::string Detail) {
  // RecoveryLog is a leaf lock (it takes nothing else), so recording
  // under Mu is safe.
  if (!Opts.RecoveryActions)
    return;
  RecoveryAction A;
  A.Kind = Kind;
  A.Tick = CurTick.load(std::memory_order_relaxed);
  A.Thread = T;
  A.Stream = S;
  A.Count = Count;
  A.Detail = std::move(Detail);
  Opts.RecoveryActions->record(std::move(A));
}

bool Scheduler::watchdogNudge() {
  AsyncSection G(*this);
  if (allFinishedLocked() || Deadlocked || StallSalvaged)
    return false;
  ++Stats.WatchdogNudges;
  if (Opts.ExecMode == Mode::Replay || FreeRunFcfs || !Opts.Controlled) {
    // Replay or free-run: the likeliest stall is a lost wakeup — fan out
    // so every parked thread re-checks its predicate.
    wakeAllParkedLocked();
    return true;
  }
  // Controlled Free/Record: force (and record) a strategy re-pick — the
  // same recovery the liveness poll applies, but unconditionally — then
  // fan out so the new designation is observed. Any unclaimed fast grant
  // is revoked first; a claimant that lost the race to our exchange()
  // parks and is re-woken by the fan-out below.
  if (PipelineEnabled) {
    FastGrant.exchange(kNoFastGrant, std::memory_order_acq_rel);
    // If a claimant won before the exchange it is already critical and
    // stores Active itself — re-picking here would double-designate.
    // Stand down; InCritical was raised before the claim CAS, so the RMW
    // above orders this read.
    for (const auto &TS : registered())
      if (TS->InCritical.load(std::memory_order_seq_cst)) {
        wakeAllParkedLocked();
        return true;
      }
  }
  recordAsyncLocked(AsyncEventKind::Reschedule, 0);
  ++Stats.Reschedules;
  const Tid T = Strat->pickNext(*this, Rng);
  if (T != InvalidTid) {
    Active = T;
    if (T != AnyTid)
      Strat->onDesignated(T);
    if (TSR_UNLIKELY(Trace != nullptr))
      Trace->emitEngine(TraceEventKind::StrategyDecision,
                        CurTick.load(std::memory_order_relaxed),
                        traceTid(T), /*Reschedule=*/1);
  }
  wakeAllParkedLocked();
  return true;
}

bool Scheduler::salvageStall(const std::string &Why) {
  AsyncSection G(*this);
  if (allFinishedLocked() || Deadlocked || StallSalvaged)
    return false;
  // Freeze the pipeline along with the designation: a claimant that
  // already holds the grant still ticks once more, hits the StallSalvaged
  // latch, and drops its section — same straggler contract as Mutex mode.
  if (PipelineEnabled)
    FastGrant.store(kNoFastGrant, std::memory_order_seq_cst);
  StallSalvaged = true;
  Stats.StallSalvaged = true;
  // The flushed prefix is a consistent recording up to the stalled
  // frontier — replaying it reproduces the run up to the hang.
  flushRecordStreamsLocked(false);
  if (Report.Kind != DesyncKind::Hard) {
    DesyncReport R;
    R.Kind = DesyncKind::Hard;
    R.Reason = DesyncReason::WatchdogStall;
    R.Tick = CurTick;
    R.Actual = Why.empty() ? dumpStateLocked() : Why + "\n" + dumpStateLocked();
    fillCursorsLocked(R);
    R.SoftResyncs = Stats.SoftResyncs;
    R.Message = renderDesyncReport(R);
    Report = std::move(R);
    if (TSR_UNLIKELY(Trace != nullptr))
      Trace->emitEngine(TraceEventKind::Desync,
                        CurTick.load(std::memory_order_relaxed), InvalidTid,
                        static_cast<uint64_t>(DesyncReason::WatchdogStall),
                        static_cast<uint64_t>(DesyncKind::Hard));
  }
  warn("watchdog: tick frontier stalled at %llu — salvaging shutdown: %s\n%s",
       static_cast<unsigned long long>(CurTick), Why.c_str(),
       dumpStateLocked().c_str());
  // Freeze designation: no thread is granted again. Stragglers park
  // forever in wait() (or drop their critical section in tick()); the
  // session detaches them and keeps this scheduler alive.
  FreeRunFcfs = false;
  Active = InvalidTid;
  DoneCv.notify_all();
  return true;
}

bool Scheduler::stallSalvaged() {
  std::lock_guard<std::mutex> L(Mu);
  return StallSalvaged;
}

void Scheduler::requestRetire() {
  AsyncSection G(*this);
  if (RetireRequested)
    return;
  // Revoke any unclaimed grant so its owner parks into the retire check
  // instead of claiming a critical section nobody will wait for.
  if (PipelineEnabled)
    FastGrant.store(kNoFastGrant, std::memory_order_seq_cst);
  RetireRequested = true;
  // Every parked straggler wakes into the retire check at the top of its
  // park loop; threads still running invisible code hit the check at
  // their next wait(). No further designations are needed — retiring
  // threads never wait for one.
  wakeAllParkedLocked();
}

std::optional<Signo> Scheduler::takeDeliverableSignal(Tid Self) {
  // Hot-path fast-out: one acquire load per visible op instead of a mutex
  // round trip. Deliverables reach us from our own commit chain or from a
  // gated async; a push racing this load is picked up at the next visible
  // op — the same timing a post arriving a moment later has in Mutex
  // mode. Replay injections are committer-chain writes, so the exact
  // delivery tick replay needs is always visible here.
  if (PipelineEnabled &&
      Threads[Self]->DeliverableCount.load(std::memory_order_acquire) == 0)
    return std::nullopt;
  std::lock_guard<std::mutex> L(Mu);
  auto &T = *Threads[Self];
  // A retiring thread's degenerate grants never deliver signals: the
  // thread is unwinding, and a handler frame would re-enter user code.
  if (T.RetireThrown || T.HandlerDepth > 0 || T.DeliverableSignals.empty())
    return std::nullopt;
  const Signo S = T.DeliverableSignals.front();
  T.DeliverableSignals.pop_front();
  T.DeliverableCount.store(static_cast<uint32_t>(T.DeliverableSignals.size()),
                           std::memory_order_release);
  ++Stats.SignalsDelivered;
  if (TSR_UNLIKELY(Trace != nullptr))
    Trace->emit(Self, TraceEventKind::SignalDeliver,
                CurTick.load(std::memory_order_relaxed),
                static_cast<uint64_t>(S));
  return S;
}

void Scheduler::beginHandler(Tid Self) {
  std::lock_guard<std::mutex> L(Mu);
  ++Threads[Self]->HandlerDepth;
}

void Scheduler::endHandler(Tid Self) {
  std::lock_guard<std::mutex> L(Mu);
  assert(Threads[Self]->HandlerDepth > 0 && "endHandler without begin");
  --Threads[Self]->HandlerDepth;
}

Tid Scheduler::threadNew(Tid Parent) {
  std::lock_guard<std::mutex> L(Mu);
  assert(Parent < NumThreads && Threads[Parent]->InCritical &&
         "threadNew must run inside the parent's critical section");
  if (NumThreads == MaxThreads)
    fatal("threadNew: thread limit reached: a session hands out at most "
          "MaxThreads (%u) tids, and tids are never reused",
          MaxThreads);
  const Tid Child = NumThreads;
  Threads[Child] = std::make_unique<ThreadState>();
  ++NumThreads;
  Strat->onThreadNew(Child, Rng);
  // Attributed to the parent: it owns the critical section, so the tick
  // stamp is stable (the virtual identity depends on that).
  if (TSR_UNLIKELY(Trace != nullptr))
    Trace->emit(Parent, TraceEventKind::ThreadStart,
                CurTick.load(std::memory_order_relaxed), Child);
  return Child;
}

bool Scheduler::threadFinished(Tid Target) {
  std::lock_guard<std::mutex> L(Mu);
  assert(Target < NumThreads && "unknown join target");
  return Threads[Target]->Finished;
}

void Scheduler::threadJoinBlock(Tid Self, Tid Target) {
  std::lock_guard<std::mutex> L(Mu);
  assert(!Threads[Target]->Finished && "joining a finished thread blocks");
  auto &T = *Threads[Self];
  T.Enabled = false;
  T.Waiting = WaitKind::Join;
  T.WaitObj = Target;
  if (TSR_UNLIKELY(Prof != nullptr))
    Prof->onBlock(CurTick.load(std::memory_order_relaxed), Self,
                  ProfileWaitKind::Join, Target);
}

void Scheduler::threadDelete(Tid Self) {
  std::lock_guard<std::mutex> L(Mu);
  if (TSR_UNLIKELY(Trace != nullptr))
    Trace->emit(Self, TraceEventKind::ThreadExit,
                CurTick.load(std::memory_order_relaxed));
  auto &T = *Threads[Self];
  T.Finished = true;
  T.Enabled = false;
  // Re-enable every thread blocked joining on us (§3.2: "enabling the
  // parent thread if it is waiting for this thread to finish").
  for (Tid J = 0; J != NumThreads; ++J) {
    auto &JS = *Threads[J];
    if (!JS.Finished && JS.Waiting == WaitKind::Join && JS.WaitObj == Self) {
      JS.Enabled = true;
      JS.Waiting = WaitKind::None;
      if (TSR_UNLIKELY(Prof != nullptr))
        Prof->onUnblock(CurTick.load(std::memory_order_relaxed), J, Self,
                        ProfileWaitKind::Join, Self);
    }
  }
  // The re-enabled joiners are not yet designated: threadDelete runs
  // inside Self's critical section, and the tick() that follows it
  // designates a successor and issues the wake. Only the host's
  // waitAllFinished needs the completion signal here.
  DoneCv.notify_all();
}

void Scheduler::mutexLockFail(Tid Self, uint64_t MutexId) {
  std::lock_guard<std::mutex> L(Mu);
  auto &T = *Threads[Self];
  T.Enabled = false;
  T.Waiting = WaitKind::Mutex;
  T.WaitObj = MutexId;
  if (TSR_UNLIKELY(Prof != nullptr))
    Prof->onBlock(CurTick.load(std::memory_order_relaxed), Self,
                  ProfileWaitKind::Mutex, MutexId);
  auto &Waiters = MutexWaiters[MutexId];
  if (std::find(Waiters.begin(), Waiters.end(), Self) == Waiters.end())
    Waiters.push_back(Self);
}

void Scheduler::mutexAcquired(Tid Self, uint64_t MutexId) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = MutexWaiters.find(MutexId);
  if (It == MutexWaiters.end())
    return;
  auto &V = It->second;
  V.erase(std::remove(V.begin(), V.end(), Self), V.end());
}

void Scheduler::mutexUnlock(Tid Self, uint64_t MutexId) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = MutexWaiters.find(MutexId);
  if (It == MutexWaiters.end() || It->second.empty())
    return;
  auto &Waiters = It->second;
  const size_t Idx = Strat->pickWaiter(Waiters, Rng);
  const Tid T = Waiters[Idx];
  Waiters.erase(Waiters.begin() + Idx);
  auto &TS = *Threads[T];
  assert(TS.Waiting == WaitKind::Mutex && TS.WaitObj == MutexId &&
         "mutex waiter list out of sync");
  TS.Enabled = true;
  TS.Waiting = WaitKind::None;
  if (TSR_UNLIKELY(Prof != nullptr))
    Prof->onUnblock(CurTick.load(std::memory_order_relaxed), T, Self,
                    ProfileWaitKind::Mutex, MutexId);
  // The woken waiter is enabled, not designated: the unlocker still owns
  // the critical section, and its tick() hands the processor over.
}

void Scheduler::condWait(Tid Self, uint64_t CondId, bool Timed) {
  std::lock_guard<std::mutex> L(Mu);
  auto &T = *Threads[Self];
  T.WokenBySignal = false;
  auto &Waiters = CondWaiters[CondId];
  if (std::find(Waiters.begin(), Waiters.end(), Self) == Waiters.end())
    Waiters.push_back(Self);
  if (Timed)
    return; // Stays enabled: the timer is physical time (§3.2).
  T.Enabled = false;
  T.Waiting = WaitKind::Cond;
  T.WaitObj = CondId;
  if (TSR_UNLIKELY(Prof != nullptr))
    Prof->onBlock(CurTick.load(std::memory_order_relaxed), Self,
                  ProfileWaitKind::Cond, CondId);
}

unsigned Scheduler::condSignal(Tid Self, uint64_t CondId) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = CondWaiters.find(CondId);
  if (It == CondWaiters.end() || It->second.empty())
    return 0;
  auto &Waiters = It->second;
  const size_t Idx = Strat->pickWaiter(Waiters, Rng);
  const Tid T = Waiters[Idx];
  Waiters.erase(Waiters.begin() + Idx);
  auto &TS = *Threads[T];
  TS.WokenBySignal = true;
  if (!TS.Enabled) {
    TS.Enabled = true;
    TS.Waiting = WaitKind::None;
    // A timed waiter may be blocked on the mutex *reacquisition* when
    // the signal lands; pull it off that waiter list too — it retries
    // the trylock and re-registers if it loses (Figure 4's loop).
    removeFromWaitListsLocked(T);
    if (TSR_UNLIKELY(Prof != nullptr))
      Prof->onUnblock(CurTick.load(std::memory_order_relaxed), T, Self,
                      ProfileWaitKind::Cond, CondId);
  }
  // Enabled, not designated: the signaller's tick() issues the wake.
  return 1;
}

unsigned Scheduler::condBroadcast(Tid Self, uint64_t CondId) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = CondWaiters.find(CondId);
  if (It == CondWaiters.end())
    return 0;
  unsigned Woken = 0;
  // Take a copy: removeFromWaitListsLocked below may touch cond lists.
  const std::vector<Tid> Woke = It->second;
  It->second.clear();
  for (Tid T : Woke) {
    auto &TS = *Threads[T];
    TS.WokenBySignal = true;
    if (!TS.Enabled) {
      TS.Enabled = true;
      TS.Waiting = WaitKind::None;
      removeFromWaitListsLocked(T);
      if (TSR_UNLIKELY(Prof != nullptr))
        Prof->onUnblock(CurTick.load(std::memory_order_relaxed), T, Self,
                        ProfileWaitKind::Cond, CondId);
    }
    ++Woken;
  }
  // Enabled, not designated: the broadcaster's tick() issues the wake.
  return Woken;
}

bool Scheduler::condConsumeSignaled(Tid Self, uint64_t CondId) {
  std::lock_guard<std::mutex> L(Mu);
  auto &T = *Threads[Self];
  if (T.WokenBySignal) {
    T.WokenBySignal = false;
    return true;
  }
  // Timeout/spurious path: leave the waiter list so a later signal is not
  // wasted on us.
  auto It = CondWaiters.find(CondId);
  if (It != CondWaiters.end()) {
    auto &V = It->second;
    V.erase(std::remove(V.begin(), V.end(), Self), V.end());
  }
  return false;
}

void Scheduler::postSignal(Tid Target, Signo S) {
  AsyncSection G(*this);
  if (Opts.ExecMode == Mode::Replay)
    return; // Recorded SIGNAL/ASYNC entries drive delivery instead.
  if (Target >= NumThreads || Threads[Target]->Finished)
    return;
  auto &T = *Threads[Target];
  T.RawSignals.push_back(S);
  T.RawCount.store(static_cast<uint32_t>(T.RawSignals.size()),
                   std::memory_order_release);
  const bool WasDisabled = !T.Enabled;
  if (T.Parked || WasDisabled)
    noticeSignalsLocked(Target);
  if (WasDisabled) {
    // The thread must be able to enter its handler: wake it and log the
    // wakeup so replay reproduces the same enabled set (§4.5).
    recordAsyncLocked(AsyncEventKind::SignalWakeup, Target);
    enableForWakeupLocked(Target);
    if (Active == AnyTid) {
      // postSignal may arrive from a host thread with no tick to follow.
      // Under a first-come-first-served grant the newly enabled target
      // (or any other parked arrival) may proceed right now.
      wakeAnyLocked();
    } else {
      // A pipelined FCFS grant may be outstanding (Active holds the
      // InvalidTid sentinel). Reel it back to the mutex-side FCFS state
      // so the newly enabled target participates: CAS the word out, then
      // restore Active = AnyTid and fan a wake out. A failed CAS means
      // a claimant won — the running thread's next tick reconsiders.
      bool Handled = false;
      if (PipelineEnabled) {
        const uint64_t G = FastGrant.load(std::memory_order_seq_cst);
        if (G != kNoFastGrant && grantTid(G) == AnyTid &&
            grantTicket(G) == static_cast<uint32_t>(
                                  CurTick.load(std::memory_order_relaxed))) {
          uint64_t Expected = G;
          if (FastGrant.compare_exchange_strong(Expected, kNoFastGrant,
                                                std::memory_order_acq_rel)) {
            Active.store(AnyTid, std::memory_order_release);
            wakeAnyLocked();
            Handled = true;
          }
        }
      }
      // Under a concrete designation the target can proceed only if it
      // already holds it (no-op otherwise; the designated thread's next
      // tick reconsiders the enlarged enabled set).
      if (!Handled)
        wakeTargetLocked(Target);
    }
  }
}

uint64_t Scheduler::drawChoice(uint64_t Bound) {
  std::lock_guard<std::mutex> L(Mu);
  return Rng.nextBelow(Bound);
}

void Scheduler::livenessPoll() {
  AsyncSection G(*this);
  if (StallSalvaged)
    return;
  const bool Stalled = CurTick == LastLivenessTick;
  LastLivenessTick = CurTick;
  if (Opts.ExecMode == Mode::Replay || FreeRunFcfs || !Stalled)
    return;
  Tid Act = Active.load(std::memory_order_relaxed);
  if (Act == AnyTid)
    return; // mutex-side FCFS: grantIfAnyLocked serves the next arrival
  if (Act == InvalidTid) {
    // Either startup, or a pipelined grant nobody has claimed yet.
    if (!PipelineEnabled)
      return;
    const uint64_t G = FastGrant.load(std::memory_order_seq_cst);
    if (G == kNoFastGrant ||
        grantTicket(G) !=
            static_cast<uint32_t>(CurTick.load(std::memory_order_relaxed)))
      return;
    if (grantTid(G) == AnyTid) {
      // An FCFS grant whose claimants are all parked (claim races lost
      // to nobody — e.g. every enabled thread parked before the grant
      // published and the committer's convert raced a benign ABA). Reel
      // the grant back to the mutex-side FCFS state; a failed CAS means
      // it was claimed and the stall resolved itself.
      uint64_t Expected = G;
      if (FastGrant.compare_exchange_strong(Expected, kNoFastGrant,
                                            std::memory_order_acq_rel)) {
        Active.store(AnyTid, std::memory_order_release);
        wakeAnyLocked();
      }
      return;
    }
    Act = grantTid(G); // a concrete grant its owner has not claimed yet
  }
  const auto &A = *Threads[Act];
  if (A.InCritical.load(std::memory_order_seq_cst) ||
      A.Parked.load(std::memory_order_seq_cst))
    return; // The designated thread is running or about to run.
  bool OtherParked = false;
  for (Tid T = 0; T != NumThreads; ++T)
    if (T != Act && Threads[T]->Parked && Threads[T]->Enabled &&
        !Threads[T]->Finished) {
      OtherParked = true;
      break;
    }
  if (!OtherParked)
    return;
  if (PipelineEnabled) {
    // Revoke-or-stand-down: take the grant word atomically. If a valid
    // grant came back, its owner never claimed it — safe to re-pick. If
    // the word was already empty, the owner may have claimed it a moment
    // ago; the claimant raised InCritical *before* its CAS, so reading
    // InCritical after our exchange (the RMW on the same word orders us
    // behind the claim) distinguishes "running" from "never granted".
    const uint64_t Revoked =
        FastGrant.exchange(kNoFastGrant, std::memory_order_acq_rel);
    if (Revoked == kNoFastGrant &&
        Threads[Act]->InCritical.load(std::memory_order_seq_cst))
      return; // claimed and running; the stall resolved itself
  }
  recordAsyncLocked(AsyncEventKind::Reschedule, 0);
  ++Stats.Reschedules;
  const Tid T = Strat->pickNext(*this, Rng);
  if (T != InvalidTid) {
    Active = T;
    if (T != AnyTid)
      Strat->onDesignated(T);
    if (TSR_UNLIKELY(Trace != nullptr))
      Trace->emitEngine(TraceEventKind::StrategyDecision,
                        CurTick.load(std::memory_order_relaxed),
                        traceTid(T), /*Reschedule=*/1);
  }
  // The re-pick targets a parked enabled thread (the poll's own
  // precondition); hand off to it directly.
  wakeForDesignationLocked();
}

bool Scheduler::waitAllFinished(
    std::chrono::steady_clock::time_point Deadline) {
  std::unique_lock<std::mutex> L(Mu);
  return DoneCv.wait_until(L, Deadline, [this] {
    return allFinishedLocked() || Deadlocked || StallSalvaged;
  });
}

void Scheduler::declareDesync(DesyncReport Report) {
  AsyncSection G(*this);
  hardDesyncLocked(std::move(Report));
}

void Scheduler::declareHardDesync(const std::string &Message) {
  DesyncReport R;
  R.Reason = DesyncReason::Other;
  R.Actual = Message;
  declareDesync(std::move(R));
}

void Scheduler::declareSoftDesync(DesyncReport Report) {
  AsyncSection G(*this);
  softDesyncLocked(std::move(Report));
}

void Scheduler::softDesyncLocked(DesyncReport R) {
  if (Report.Kind != DesyncKind::None)
    return; // A report already exists; soft events never displace one.
  R.Kind = DesyncKind::Soft;
  R.Tick = CurTick;
  fillCursorsLocked(R);
  R.SoftResyncs = Stats.SoftResyncs;
  R.Message = renderDesyncReport(R);
  Report = std::move(R);
  if (TSR_UNLIKELY(Trace != nullptr))
    Trace->emitEngine(TraceEventKind::Desync,
                      CurTick.load(std::memory_order_relaxed),
                      Report.Thread,
                      static_cast<uint64_t>(Report.Reason),
                      static_cast<uint64_t>(DesyncKind::Soft));
  warn("replay soft desynchronisation: %s", Report.Message.c_str());
}

bool Scheduler::deadlocked() {
  std::lock_guard<std::mutex> L(Mu);
  return Deadlocked;
}

bool Scheduler::waitLiveParked(uint64_t TimeoutMs) {
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(TimeoutMs);
  for (;;) {
    {
      std::lock_guard<std::mutex> L(Mu);
      bool AllParked = true;
      for (const auto &T : registered())
        if (!T->Finished && !T->Parked) {
          AllParked = false;
          break;
        }
      // Once Parked is observed under Mu the thread's only remaining
      // reads are of this scheduler (the wait() loop), so the caller may
      // release everything else it references.
      if (AllParked)
        return true;
    }
    if (std::chrono::steady_clock::now() >= Deadline)
      return false;
    std::this_thread::yield();
  }
}

void Scheduler::finishRecording() {
  AsyncSection G(*this);
  if (Opts.ExecMode != Mode::Record || !RecordSink)
    return;
  QueueLog->flush();
  // After a watchdog salvage the on-disk streams stay open: the demo
  // must look interrupted so salvageDirectory cross-trims it to the
  // flushed frontier, exactly like a crashed recording.
  if (Opts.LiveWriter)
    flushRecordStreamsLocked(/*Final=*/!StallSalvaged);
  RecordSink->setStream(StreamKind::Queue, QueueBytes.take());
  RecordSink->setStream(StreamKind::Signal, SignalBytes.take());
  RecordSink->setStream(StreamKind::Async, AsyncBytes.take());
}

uint64_t Scheduler::currentTick() {
  // Lock-free: pairs with the committer's release store (fast or slow).
  // Callers needing more than the counter go through statsSnapshot or
  // desyncReport, which take the full gate.
  return CurTick.load(std::memory_order_acquire);
}

DesyncKind Scheduler::desyncKind() {
  std::lock_guard<std::mutex> L(Mu);
  return Report.Kind;
}

std::string Scheduler::desyncMessage() {
  std::lock_guard<std::mutex> L(Mu);
  return Report.Message;
}

DesyncReport Scheduler::desyncReport() {
  std::lock_guard<std::mutex> L(Mu);
  DesyncReport R = Report;
  if (R.Kind == DesyncKind::None)
    fillCursorsLocked(R);
  R.SoftResyncs = Stats.SoftResyncs;
  return R;
}

SchedulerStats Scheduler::statsSnapshot() {
  // Stats fields are plain and a fast commit writes them without Mu, so a
  // coherent snapshot needs the commit gate as well as the mutex.
  AsyncSection G(*this);
  return Stats;
}

std::string Scheduler::dumpState() {
  AsyncSection G(*this);
  return dumpStateLocked();
}

std::string Scheduler::dumpStateLocked() const {
  std::string Out = formatString(
      "tick=%llu active=%lld threads=%u\n",
      static_cast<unsigned long long>(CurTick),
      Active == AnyTid ? -2LL
                       : (Active == InvalidTid
                              ? -1LL
                              : static_cast<long long>(Active)),
      NumThreads);
  static const char *WaitNames[] = {"none", "join", "mutex", "cond"};
  for (Tid T = 0; T != NumThreads; ++T) {
    const auto &TS = *Threads[T];
    Out += formatString(
        "  t%u: %s%s%s%s wait=%s obj=%llu\n", T,
        TS.Finished ? "finished" : (TS.Enabled ? "enabled" : "disabled"),
        TS.Parked ? " parked" : "", TS.InCritical ? " critical" : "",
        TS.HandlerDepth ? " in-handler" : "",
        WaitNames[static_cast<unsigned>(TS.Waiting)],
        static_cast<unsigned long long>(TS.WaitObj));
  }
  return Out;
}

bool Scheduler::isEnabled(Tid T) const {
  return T < NumThreads && !Threads[T]->Finished && Threads[T]->Enabled;
}

bool Scheduler::isFinished(Tid T) const {
  return T < NumThreads && Threads[T]->Finished;
}

Tid Scheduler::threadCount() const {
  return NumThreads;
}

unsigned Scheduler::enabledCountLocked() const {
  unsigned N = 0;
  for (const auto &T : registered())
    if (!T->Finished && T->Enabled)
      ++N;
  return N;
}

unsigned Scheduler::liveCountLocked() const {
  unsigned N = 0;
  for (const auto &T : registered())
    if (!T->Finished)
      ++N;
  return N;
}

bool Scheduler::allFinishedLocked() const {
  for (const auto &T : registered())
    if (!T->Finished)
      return false;
  return true;
}
