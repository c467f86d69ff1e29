//===-- runtime/Session.cpp - Top-level tsr session -------------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "runtime/Session.h"

#include "support/Compiler.h"
#include "support/Diag.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>

#include <signal.h>

using namespace tsr;

namespace tsr {

/// Where each controlled OS thread of a session keeps its identity, and
/// the roster of threads still alive. The registry is shared (through a
/// shared_ptr) between the Session, its thread-entry lambdas and — after
/// a salvaged run — the parked-scheduler registry, so it outlives the
/// Session object itself: a detached straggler deregisters as its very
/// last act, and only a registry with zero live threads lets a parked
/// scheduler be reclaimed.
class ThreadRegistry {
public:
  /// One controlled thread's TLS identity. The session pointer is
  /// written by the owning thread (enter/exit) and by session teardown
  /// (orphanAll, through the registered pointer) — hence atomic, though
  /// the hot path only ever pays a relaxed load.
  struct Slot {
    std::atomic<Session *> S{nullptr};
    Tid T = 0;
    /// Teardown nulled this slot while the thread was still alive: any
    /// later instrumented access in the thread is the use-after-free bug
    /// this flag turns into a deterministic diagnostic.
    std::atomic<bool> Orphaned{false};
  };

  void enter(Slot *P, Session *S, Tid T) {
    P->T = T;
    P->Orphaned.store(false, std::memory_order_relaxed);
    P->S.store(S, std::memory_order_relaxed);
    std::lock_guard<std::mutex> L(Mu);
    Slots.push_back(P);
  }

  /// The exiting thread's LAST act — after this it must not touch its
  /// session or scheduler again (both may be reclaimed the moment the
  /// roster is empty).
  void exit(Slot *P) {
    P->S.store(nullptr, std::memory_order_relaxed);
    std::lock_guard<std::mutex> L(Mu);
    Slots.erase(std::remove(Slots.begin(), Slots.end(), P), Slots.end());
    Cv.notify_all();
  }

  /// Session teardown with threads still alive (detached stragglers):
  /// null their session pointers through the registered slots so an
  /// instrumented access in a thread that outlived its session fails
  /// fast instead of dereferencing freed memory.
  void orphanAll() {
    std::lock_guard<std::mutex> L(Mu);
    for (Slot *P : Slots) {
      P->S.store(nullptr, std::memory_order_relaxed);
      P->Orphaned.store(true, std::memory_order_relaxed);
    }
  }

  size_t live() const {
    std::lock_guard<std::mutex> L(Mu);
    return Slots.size();
  }

  bool waitExited(uint64_t TimeoutMs) {
    std::unique_lock<std::mutex> L(Mu);
    return Cv.wait_for(L, std::chrono::milliseconds(TimeoutMs),
                       [this] { return Slots.empty(); });
  }

private:
  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::vector<Slot *> Slots;
};

} // namespace tsr

namespace {
// One TLS slot for both the session pointer and the tid: the plain
// access hot path reads them together via currentAccessContext().
thread_local ThreadRegistry::Slot TlsSlot;

[[noreturn]] void orphanedAccess() {
  fatal("tsr API used by a thread that outlived its session: the session "
        "was torn down while this thread was still running (tid %u)",
        static_cast<unsigned>(TlsSlot.T));
}

// Fatal-signal emergency flush. The handlers are process-wide, so they
// are installed exactly once — by whichever registration takes the live
// count from zero — and every session with a live writer occupies a slot
// in this registry. The first fatal signal dispatches one best-effort
// flush to all of them, then restores the default disposition and
// re-raises so the process still dies with the original signal.
constexpr size_t MaxEmergencySessions = 4096;
std::atomic<Session *> EmergencySessions[MaxEmergencySessions];
std::atomic<bool> EmergencyRan{false};
std::mutex EmergencyMu; ///< serialises register/unregister/install
size_t EmergencyLive = 0;
constexpr int EmergencySignals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGILL,
                                    SIGFPE};
constexpr size_t NumEmergencySignals =
    sizeof(EmergencySignals) / sizeof(EmergencySignals[0]);
struct sigaction EmergencyOldActions[NumEmergencySignals];

void emergencyHandler(int Sig) {
  if (!EmergencyRan.exchange(true))
    for (size_t I = 0; I != MaxEmergencySessions; ++I)
      if (Session *S = EmergencySessions[I].load())
        S->emergencyFlushDemo();
  ::signal(Sig, SIG_DFL);
  ::raise(Sig);
}

void installEmergencyHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = emergencyHandler;
  sigemptyset(&SA.sa_mask);
  for (size_t I = 0; I != NumEmergencySignals; ++I)
    ::sigaction(EmergencySignals[I], &SA, &EmergencyOldActions[I]);
}

void uninstallEmergencyHandlers() {
  for (size_t I = 0; I != NumEmergencySignals; ++I)
    ::sigaction(EmergencySignals[I], &EmergencyOldActions[I], nullptr);
}

bool registerEmergencySession(Session *S) {
  std::lock_guard<std::mutex> L(EmergencyMu);
  for (size_t I = 0; I != MaxEmergencySessions; ++I) {
    Session *Expected = nullptr;
    if (EmergencySessions[I].compare_exchange_strong(Expected, S)) {
      if (EmergencyLive++ == 0) {
        EmergencyRan.store(false);
        installEmergencyHandlers();
      }
      return true;
    }
  }
  return false; // registry full: this session just goes unprotected
}

void unregisterEmergencySession(Session *S) {
  std::lock_guard<std::mutex> L(EmergencyMu);
  for (size_t I = 0; I != MaxEmergencySessions; ++I) {
    if (EmergencySessions[I].load() == S) {
      EmergencySessions[I].store(nullptr);
      if (--EmergencyLive == 0)
        uninstallEmergencyHandlers();
      return;
    }
  }
}

// Salvaged runs leave stragglers parked forever inside their scheduler;
// the scheduler survives here (reachable, so leak checkers stay quiet)
// together with the thread registry that says when every straggler has
// exited — at which point drainParkedSchedulers can reclaim the entry.
// Function-local leaked singletons: sessions may end during static
// destruction of the host program.
struct ParkedScheduler {
  std::unique_ptr<Scheduler> Sched;
  std::shared_ptr<ThreadRegistry> Threads;
};

std::mutex &parkedMu() {
  static std::mutex *const M = new std::mutex();
  return *M;
}

std::vector<ParkedScheduler> &parkedList() {
  static std::vector<ParkedScheduler> *const V =
      new std::vector<ParkedScheduler>();
  return *V;
}
} // namespace

Session *Session::current() {
  Session *S = TlsSlot.S.load(std::memory_order_relaxed);
  if (TSR_UNLIKELY(!S && TlsSlot.Orphaned.load(std::memory_order_relaxed)))
    orphanedAccess();
  return S;
}

Tid Session::currentTid() {
  if (TSR_UNLIKELY(TlsSlot.S.load(std::memory_order_relaxed) == nullptr)) {
    if (TlsSlot.Orphaned.load(std::memory_order_relaxed))
      orphanedAccess();
    assert(false && "tsr API used outside a controlled thread");
  }
  return TlsSlot.T;
}

AccessContext Session::currentAccessContext() {
  Session *S = TlsSlot.S.load(std::memory_order_relaxed);
  if (TSR_UNLIKELY(!S && TlsSlot.Orphaned.load(std::memory_order_relaxed)))
    orphanedAccess();
  return {S, TlsSlot.T};
}

void Session::beginStragglerRetire() {
  if (Sched)
    Sched->requestRetire();
}

size_t Session::liveStragglers() const { return Reg ? Reg->live() : 0; }

bool Session::waitStragglersRetired(uint64_t TimeoutMs) {
  return Reg ? Reg->waitExited(TimeoutMs) : true;
}

size_t Session::parkedSchedulerCount() {
  std::lock_guard<std::mutex> L(parkedMu());
  return parkedList().size();
}

size_t Session::drainParkedSchedulers() {
  std::lock_guard<std::mutex> L(parkedMu());
  auto &List = parkedList();
  const size_t Before = List.size();
  List.erase(std::remove_if(List.begin(), List.end(),
                            [](const ParkedScheduler &P) {
                              return !P.Threads || P.Threads->live() == 0;
                            }),
             List.end());
  return Before - List.size();
}

size_t Session::liveEmergencySessionCountForTest() {
  std::lock_guard<std::mutex> L(EmergencyMu);
  return EmergencyLive;
}

Session::Session(SessionConfig Config) : Config(std::move(Config)) {
  Reg = std::make_shared<ThreadRegistry>();
  Cost = std::make_unique<CostModel>(this->Config.Cost);
  Env = std::make_unique<SimEnv>(*Cost, this->Config.Env);
  if (this->Config.Trace.Enabled)
    Tracer = std::make_unique<TraceRecorder>(this->Config.Trace);
  if (this->Config.Profile.Enabled)
    Prof = std::make_unique<Profiler>(this->Config.Profile);
  if (this->Config.Telemetry.Enabled) {
    auto Sink = std::make_unique<TelemetrySink>(this->Config.Telemetry);
    if (Sink->ok()) {
      Telemetry = std::move(Sink);
      TelemetryNextDue.store(this->Config.Telemetry.EveryTicks,
                             std::memory_order_relaxed);
    }
  }
}

Session::~Session() {
  {
    std::lock_guard<std::mutex> L(ThreadsMu);
    for (std::thread &T : OsThreads)
      if (T.joinable())
        T.join();
  }
  // Detached stragglers (salvaged runs without a retire) may outlive this
  // object. Null their TLS session pointers through the registry so any
  // instrumented access they ever make fails with a deterministic
  // diagnostic instead of using freed session memory.
  if (Reg)
    Reg->orphanAll();
}

void Session::writeMeta() {
  MetaRecord M;
  M.FormatVersion = Demo::FormatVersion;
  M.Strategy = static_cast<uint8_t>(Config.Strategy);
  M.Controlled = Config.Controlled;
  M.WeakMemory = Config.WeakMemory;
  M.Seed0 = UsedSeed0;
  M.Seed1 = UsedSeed1;
  M.PolicyHash = Config.Policy.hash();
  // Informational: the faults themselves live in the SYSCALL stream, so
  // replay needs no plan — but tools and humans deserve to know.
  M.FaultPlanHash = Config.Faults.hash();
  ByteWriter W;
  encodeMeta(W, M);
  RecordDemo.setStream(StreamKind::Meta, W.take());
}

bool Session::checkMeta(std::string &Error) {
  MetaRecord M;
  const MetaField Stop =
      decodeMeta(Config.ReplayDemo->stream(StreamKind::Meta), M);
  if (Stop == MetaField::Magic) {
    Error = "demo META missing or not a tsr demo";
    return false;
  }
  if (Stop == MetaField::Version || M.FormatVersion != Demo::FormatVersion) {
    Error = "demo format version mismatch";
    return false;
  }
  if (Stop != MetaField::End) {
    Error = "truncated demo META";
    return false;
  }
  if (M.Strategy != static_cast<uint8_t>(Config.Strategy))
    Error = formatString("demo was recorded with strategy '%s'",
                         strategyName(static_cast<StrategyKind>(M.Strategy)));
  else if (M.Controlled != Config.Controlled)
    Error = "demo controlled-scheduling flag differs from configuration";
  else if (M.WeakMemory != Config.WeakMemory)
    Error = "demo weak-memory flag differs from configuration";
  else if (M.PolicyHash != Config.Policy.hash())
    Error = "demo was recorded under a different syscall recording policy";
  if (!Error.empty())
    return false;
  UsedSeed0 = M.Seed0;
  UsedSeed1 = M.Seed1;
  return true;
}

RunReport Session::run(std::function<void()> MainFn) {
  assert(!HasRun && "Session::run may only be called once");
  HasRun = true;
  const auto WallStart = std::chrono::steady_clock::now();

  if (Config.ExecMode == Mode::Replay) {
    assert(Config.ReplayDemo && "replay requires SessionConfig::ReplayDemo");
    std::string Error;
    if (!checkMeta(Error))
      fatal("cannot replay demo: %s", Error.c_str());
    SyscallReader = ByteReader(Config.ReplayDemo->stream(StreamKind::Syscall));
    if (Config.Faults.active())
      warn("fault plan ignored during replay: recorded faults replay "
           "from the SYSCALL stream with the injector disarmed");
  } else {
    UsedSeed0 = Config.Seed0;
    UsedSeed1 = Config.Seed1;
    if (UsedSeed0 == 0 && UsedSeed1 == 0) {
      // The paper seeds its PRNG from two rdtsc() calls at record time and
      // stores the seeds in the demo (§4); freshEntropy is our stand-in.
      const auto E = Prng::freshEntropy();
      UsedSeed0 = E.first;
      UsedSeed1 = E.second;
    }
    if (Config.Faults.active()) {
      // Armed from the META seeds: the recorded demo pins both the world
      // and the faults injected into it.
      Injector.arm(Config.Faults, UsedSeed0, UsedSeed1);
      Env->setFaultInjector(&Injector);
    }
    // META is complete the moment the seeds are pinned; writing it up
    // front (and pushing it through the live writer as a closed stream)
    // means even a first-tick crash leaves a demo whose header identifies
    // the run.
    writeMeta();
    if (!Config.Flush.Directory.empty()) {
      std::string WriterError;
      if (!LiveWriter.open(Config.Flush.Directory, WriterError)) {
        warn("incremental demo flushing disabled: %s", WriterError.c_str());
      } else {
        const auto &Meta = RecordDemo.stream(StreamKind::Meta);
        LiveWriter.appendChunk(StreamKind::Meta, Meta.data(), Meta.size(),
                               /*Frontier=*/0);
        LiveWriter.closeStream(StreamKind::Meta);
        EmergencyRegistered = registerEmergencySession(this);
      }
    }
  }

  SchedulerOptions SO;
  SO.Strategy = Config.Strategy;
  SO.Params = Config.Params;
  SO.ExecMode = Config.ExecMode;
  SO.Seed0 = UsedSeed0;
  SO.Seed1 = UsedSeed1;
  SO.Controlled = Config.Controlled;
  SO.TickCommit = Config.TickCommit;
  SO.AbortOnDeadlock = Config.AbortOnDeadlock;
  SO.ReplayTruncated = Config.ExecMode == Mode::Replay &&
                       Config.ReplayDemo && Config.ReplayDemo->truncated();
  SO.Trace = Tracer.get();
  SO.Profile = Prof.get();
  // Recovery applies to replay only: there is nothing to resynchronise
  // against in Free/Record mode. The log itself is shared in all modes
  // (the watchdog and retry sites write to it too).
  SO.Recovery = Config.ExecMode == Mode::Replay ? Config.Recovery.Mode
                                                : RecoveryMode::Strict;
  SO.RecoveryActions = &Recoveries;
  if (LiveWriter.isOpen()) {
    SO.LiveWriter = &LiveWriter;
    SO.FlushEveryTicks = Config.Flush.EveryTicks;
    SO.SyscallFlushHook = [this](uint64_t Tick, bool Final) {
      drainSyscallStream(Tick, Final);
    };
  }
  if (Config.Cost.ChainVisibleOps) {
    // Eagerly designating a thread that has not reached Wait() stalls the
    // whole visible-op chain until it arrives (§5.2's random-strategy
    // cost). Whether a stall actually occurred — and how long it was — is
    // decided by the cost model from virtual time alone, never from the
    // thread's physical parked state: recorded syscall results embed the
    // virtual clock, so any wall-clock input here would make two
    // same-seed recordings differ byte-for-byte.
    SO.DesignationHook = [this](Tid T) { Cost->markEagerStall(T); };
  }
  SchedOwner = std::make_unique<Scheduler>(SO, &RecordDemo, Config.ReplayDemo);
  Sched = SchedOwner.get();

  Race = std::make_unique<RaceDetector>(Config.RaceShadow);
  Race->setEnabled(Config.RaceDetection);
  Race->setTrace(Tracer.get());
  AtomicModelOptions AO;
  AO.WeakMemory = Config.WeakMemory;
  Atomics = std::make_unique<AtomicModel>(
      *Race, [this](uint64_t Bound) { return Sched->drawChoice(Bound); },
      AO);

  Sched->addMainThread();
  Race->registerMainThread();
  Cost->threadStart(0, InvalidTid);
  Env->start();

  {
    std::lock_guard<std::mutex> L(ThreadsMu);
    OsThreads.emplace_back([this, Fn = std::move(MainFn),
                            R = Reg]() mutable {
      R->enter(&TlsSlot, this, 0);
      try {
        mainThreadBody(std::move(Fn));
      } catch (const ControlledThreadRetire &) {
        // A straggler retire unwound this thread off the controlled
        // body; destructors already ran under degenerate grants.
      }
      // Deregistering is the thread's last act: after this the session
      // and scheduler may be reclaimed at any moment.
      R->exit(&TlsSlot);
    });
  }

  superviseRun();

  const bool DeadlockSalvaged = Sched->deadlocked();
  const bool StallSalvaged = Sched->stallSalvaged();
  const bool Salvaged = DeadlockSalvaged || StallSalvaged;
  if (Salvaged && !Sched->waitLiveParked(5000))
    warn("%s threads did not all park within 5s; "
         "proceeding with teardown",
         DeadlockSalvaged ? "deadlocked" : "stalled");

  {
    std::lock_guard<std::mutex> L(ThreadsMu);
    for (std::thread &T : OsThreads)
      if (T.joinable()) {
        if (Salvaged)
          // Salvaged threads are parked forever inside Scheduler::wait
          // (or still spinning towards it) and can never be joined.
          // Detach them: from here on they touch only this session and
          // the scheduler, both of which are kept alive below.
          T.detach();
        else
          T.join();
      }
    OsThreads.clear();
  }

  if (Config.ExecMode == Mode::Record) {
    Sched->finishRecording();
    {
      // A detached straggler may sit mid-recordSyscall when a watchdog
      // salvage unwound the run; the stream mutex orders its append
      // against this take().
      std::lock_guard<std::mutex> L(SyscallStreamMu);
      RecordDemo.setStream(StreamKind::Syscall, SyscallBytes.take());
    }
    if (StallSalvaged)
      // The in-memory demo mirrors what the live writer left on disk: a
      // consistent prefix that ends at the stalled frontier.
      RecordDemo.markTruncated(Sched->currentTick());
  }
  if (EmergencyRegistered) {
    unregisterEmergencySession(this);
    EmergencyRegistered = false;
  }
  LiveWriter.closeAll();

  RunReport R;
  R.Races = Race->reports();
  R.Sched = Sched->statsSnapshot();
  R.Atomics = Atomics->statsSnapshot();
  {
    DesyncReport DR = Sched->desyncReport();
    if (SyscallStreamExhausted)
      ++DR.SoftResyncs;
    if (DR.SyscallCursor.Total == 0 && DR.SyscallCursor.Consumed == 0)
      DR.SyscallCursor = {SyscallReader.position(), SyscallReader.size()};
    DR.Recovery = Recoveries.snapshot();
    DR.Message = renderDesyncReport(DR);
    R.Desync = DR.Kind;
    R.DesyncMessage = DR.hard() ? DR.Message : "";
    R.Sched.SoftResyncs = DR.SoftResyncs;
    R.DesyncInfo = std::move(DR);
  }
  R.StallSalvaged = StallSalvaged;
  R.Recovered.SkipsForward =
      Recoveries.countOf(RecoveryActionKind::SkipForward);
  R.Recovered.SyscallsSynthesized =
      Recoveries.countOf(RecoveryActionKind::SynthesizeSyscall);
  R.Recovered.ThreadFreeRuns =
      Recoveries.countOf(RecoveryActionKind::ThreadFreeRun);
  R.Recovered.ScheduleFreeRuns =
      Recoveries.countOf(RecoveryActionKind::ScheduleFreeRun);
  R.Recovered.Retries = Recoveries.countOf(RecoveryActionKind::RetryBackoff);
  R.Recovered.WatchdogWarns =
      Recoveries.countOf(RecoveryActionKind::WatchdogWarn);
  R.Recovered.WatchdogNudges =
      Recoveries.countOf(RecoveryActionKind::WatchdogNudge);
  R.Recovered.WatchdogSalvages =
      Recoveries.countOf(RecoveryActionKind::WatchdogSalvage);
  R.Recovered.Any = Recoveries.total() != 0;
  R.Recovered.Actions = R.DesyncInfo.Recovery;
  {
    // Persist the recovery timeline next to the demo: always when the
    // caller named a sidecar directory, and automatically into the live
    // flush directory when a salvage produced actions worth inspecting.
    std::string SidecarDir = Config.Recovery.SidecarDir;
    if (SidecarDir.empty() && Salvaged && R.Recovered.Any)
      SidecarDir = Config.Flush.Directory; // May be empty: no sidecar then.
    if (!SidecarDir.empty()) {
      std::string SidecarError;
      if (!saveRecoverySidecar(SidecarDir, R.Recovered.Actions,
                               SidecarError))
        warn("recovery sidecar not written: %s", SidecarError.c_str());
    }
  }
  R.SyscallsIssued = SyscallsIssued.load();
  R.SyscallsRecorded = SyscallsRecorded.load();
  R.SyscallsReplayed = SyscallsReplayed.load();
  R.FaultsInjected = Injector.counters();
  R.SyscallsInjected = R.FaultsInjected.ErrnosInjected;
  R.VirtualNs = Cost->makespan();
  R.WallSeconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - WallStart)
                      .count();
  if (Config.ExecMode == Mode::Record)
    R.RecordedDemo = RecordDemo;
  R.Deadlocked = DeadlockSalvaged;
  R.Seed0 = UsedSeed0;
  R.Seed1 = UsedSeed1;
  if (Prof) {
    // Lock call-site names come from the race detector's name registry
    // (Var<T>/Mutex registrations); unresolved addresses stay numeric.
    RaceDetector *RD = Race.get();
    R.Profile = Prof->finish([RD](uint64_t Addr) {
      return RD ? RD->resolveName(static_cast<uintptr_t>(Addr))
                : std::string();
    });
  }
  if (Tracer) {
    R.Trace = Tracer->snapshot();
    // A desync report carries the virtual-time context around its tick:
    // what every thread was doing when replay diverged.
    constexpr unsigned DesyncContextTicks = 8;
    if (R.DesyncInfo.Kind != DesyncKind::None)
      R.DesyncInfo.Timeline = excerptAround(R.Trace, R.DesyncInfo.Tick,
                                            DesyncContextTicks);
    if (!Config.Trace.ExportChromePath.empty()) {
      // A profiled run layers counter tracks and critical-path flow
      // arrows over the trace slices.
      const std::string Json = chromeTraceJson(
          R.Trace,
          Prof ? profileChromeEvents(R.Profile.Core) : std::string());
      FILE *F = std::fopen(Config.Trace.ExportChromePath.c_str(), "w");
      if (!F) {
        warn("cannot write trace export '%s'",
             Config.Trace.ExportChromePath.c_str());
      } else {
        std::fwrite(Json.data(), 1, Json.size(), F);
        std::fclose(F);
      }
    }
  }
  pumpTelemetry(Sched->currentTickRelaxed(), /*Final=*/true);
  fillMetrics(R);
  if (Salvaged) {
    // The detached salvaged threads are parked forever in this
    // scheduler's condition variable; destroying it would pull the state
    // out from under them. Park the scheduler in the process-wide
    // registry instead (still reachable, so leak checkers stay quiet),
    // paired with the thread registry that knows when every straggler
    // has exited — beginStragglerRetire + drainParkedSchedulers can then
    // reclaim it. The raw Sched pointer keeps aiming at the parked
    // instance, so a straggler calling back through this session stays
    // safe.
    std::lock_guard<std::mutex> L(parkedMu());
    parkedList().push_back({std::move(SchedOwner), Reg});
  }
  return R;
}

void Session::fillMetrics(RunReport &R) {
  // Re-entrancy guard: counters and gauges overwrite, but histogram()
  // appends samples, so filling into the existing snapshot twice would
  // double every trace-derived distribution. Build a fresh snapshot and
  // replace wholesale — snapshotting twice in one run is idempotent.
  assert((!R.Metrics.hasCounter("sched.ticks") ||
          R.Metrics.counterOr("sched.ticks", 0) == R.Sched.Ticks) &&
         "fillMetrics re-entered with a different report");
  MetricsSnapshot M;
  M.counter("sched.ticks", R.Sched.Ticks);
  M.counter("sched.reschedules", R.Sched.Reschedules);
  M.counter("sched.signals_delivered", R.Sched.SignalsDelivered);
  M.counter("sched.signal_wakeups", R.Sched.SignalWakeups);
  M.counter("sched.targeted_wakeups", R.Sched.TargetedWakeups);
  M.counter("sched.spurious_wakeups", R.Sched.SpuriousWakeups);
  M.counter("sched.broadcast_wakeups", R.Sched.BroadcastWakeups);
  M.counter("sched.fast_path_commits", R.Sched.FastPathCommits);
  M.counter("sched.slow_path_commits", R.Sched.SlowPathCommits);
  M.counter("sched.fast_path_aborts", R.Sched.FastPathAborts);
  M.counter("sched.soft_resyncs", R.Sched.SoftResyncs);
  M.counter("sched.demo_exhausted_at_tick", R.Sched.DemoExhaustedAtTick);
  M.gauge("sched.demo_exhausted", R.Sched.DemoExhausted ? 1.0 : 0.0);
  M.gauge("sched.deadlocked", R.Deadlocked ? 1.0 : 0.0);
  M.counter("atomics.loads", R.Atomics.Loads);
  M.counter("atomics.stores", R.Atomics.Stores);
  M.counter("atomics.rmws", R.Atomics.Rmws);
  M.counter("atomics.fences", R.Atomics.Fences);
  M.counter("atomics.stale_reads", R.Atomics.StaleReads);
  M.counter("faults.errnos_injected", R.FaultsInjected.ErrnosInjected);
  M.counter("faults.short_transfers", R.FaultsInjected.ShortTransfers);
  M.counter("faults.messages_dropped", R.FaultsInjected.MessagesDropped);
  M.counter("faults.messages_duplicated",
            R.FaultsInjected.MessagesDuplicated);
  M.counter("syscalls.issued", R.SyscallsIssued);
  M.counter("syscalls.recorded", R.SyscallsRecorded);
  M.counter("syscalls.replayed", R.SyscallsReplayed);
  M.counter("races.reported", R.Races.size());
  const RaceDetectorStats RS = Race->statsSnapshot();
  M.counter("race.plain_accesses", RS.PlainAccesses);
  M.counter("race.same_epoch_hits", RS.SameEpochHits);
  M.counter("race.fast_path_hits", RS.FastPathHits);
  M.counter("race.read_inflations", RS.ReadInflations);
  M.counter("race.shadow_pages_retired", RS.ShadowPagesRetired);
  M.gauge("race.shadow_pages", static_cast<double>(RS.ShadowPages));
  M.counter("demo.flushes", R.Sched.DemoFlushes);
  M.gauge("demo.io_error", LiveWriter.ioError() ? 1.0 : 0.0);
  M.gauge("desync.kind", static_cast<double>(R.Desync));
  M.counter("desync.soft_resyncs", R.DesyncInfo.SoftResyncs);
  M.gauge("recovery.mode", static_cast<double>(Config.Recovery.Mode));
  M.counter("recovery.actions", Recoveries.total());
  M.counter("recovery.actions_dropped", Recoveries.dropped());
  M.counter("recovery.skips_forward", R.Recovered.SkipsForward);
  M.counter("recovery.syscalls_synthesized", R.Recovered.SyscallsSynthesized);
  M.counter("recovery.thread_free_runs", R.Recovered.ThreadFreeRuns);
  M.counter("recovery.schedule_free_runs", R.Recovered.ScheduleFreeRuns);
  M.counter("recovery.retries", R.Recovered.Retries);
  M.counter("recovery.queue_entries_skipped", R.Sched.QueueEntriesSkipped);
  M.counter("watchdog.warns", R.Recovered.WatchdogWarns);
  M.counter("watchdog.nudges", R.Recovered.WatchdogNudges);
  M.counter("watchdog.salvages", R.Recovered.WatchdogSalvages);
  M.gauge("watchdog.stall_salvaged", R.StallSalvaged ? 1.0 : 0.0);
  M.gauge("run.wall_seconds", R.WallSeconds);
  M.gauge("run.virtual_ns", static_cast<double>(R.VirtualNs));
  M.counter("trace.events", Tracer ? Tracer->emitted() : 0);
  M.counter("trace.dropped", Tracer ? R.Trace.Dropped : 0);
  if (R.Profile.Enabled) {
    const ProfileCore &PC = R.Profile.Core;
    M.counter("profile.total_ticks", PC.TotalTicks);
    M.counter("profile.threads", PC.Threads);
    M.counter("profile.context_switches", PC.ContextSwitches);
    M.counter("profile.longest_segment_ticks", PC.LongestSegmentTicks);
    M.counter("profile.segments", PC.CriticalPath.size());
    M.counter("profile.contention_edges", PC.Contention.size());
    M.counter("profile.signals", PC.SignalCount);
    M.counter("profile.syscalls", PC.SyscallCount);
    M.counter("profile.syscall_errors", PC.SyscallErrors);
    M.counter("profile.lock_acquisitions", R.Profile.LockAcquisitions);
    M.counter("profile.lock_contended", R.Profile.LockContended);
    M.counter("profile.lock_hold_ticks", R.Profile.LockHoldTicks);
    M.counter("profile.lock_wait_ticks", R.Profile.LockWaitTicks);
    M.counter("profile.blocked_ticks", R.Profile.BlockedTicks);
    M.counter("profile.runnable_wait_ticks", R.Profile.RunnableWaitTicks);
  }
  if (Telemetry) {
    M.counter("telemetry.frames", Telemetry->frames());
    M.counter("telemetry.bytes", Telemetry->bytes());
  }
  if (!R.Trace.Events.empty()) {
    // Tick-bucketed histograms derived from the trace: per-syscall wall
    // latency (enter→exit, ns) and the length of each thread's
    // consecutive run of ticks (a scheduling-granularity profile).
    // Create both entries before taking references: histogram() appends
    // to a vector, and a second append would invalidate the first
    // reference.
    M.histogram("trace.syscall_wall_ns");
    M.histogram("trace.tick_run_length");
    SampleStats &Latency = M.histogram("trace.syscall_wall_ns");
    SampleStats &RunLen = M.histogram("trace.tick_run_length");
    std::map<Tid, uint64_t> OpenEnter;
    Tid RunThread = InvalidTid;
    uint64_t RunCount = 0;
    for (const TraceEvent &E : R.Trace.Events) {
      switch (E.Kind) {
      case TraceEventKind::SyscallEnter:
        OpenEnter[E.Thread] = E.WallNs;
        break;
      case TraceEventKind::SyscallExit: {
        auto It = OpenEnter.find(E.Thread);
        if (It != OpenEnter.end()) {
          Latency.add(static_cast<double>(E.WallNs - It->second));
          OpenEnter.erase(It);
        }
        break;
      }
      case TraceEventKind::Tick:
        if (E.Thread == RunThread) {
          ++RunCount;
        } else {
          if (RunCount)
            RunLen.add(static_cast<double>(RunCount));
          RunThread = E.Thread;
          RunCount = 1;
        }
        break;
      default:
        break;
      }
    }
    if (RunCount)
      RunLen.add(static_cast<double>(RunCount));
  }
  R.Metrics = std::move(M);
}

void Session::pumpTelemetry(uint64_t Tick, bool Final) {
  if (TSR_LIKELY(Telemetry == nullptr))
    return;
  if (!Final) {
    // One relaxed load per tick on the streaming path; the CAS elects a
    // single emitter per cadence window.
    uint64_t Due = TelemetryNextDue.load(std::memory_order_relaxed);
    if (Tick < Due)
      return;
    const uint64_t Every =
        Config.Telemetry.EveryTicks ? Config.Telemetry.EveryTicks : 1;
    if (!TelemetryNextDue.compare_exchange_strong(
            Due, Due + Every, std::memory_order_relaxed))
      return;
  }
  std::vector<std::pair<std::string, uint64_t>> Counters;
  Counters.reserve(8);
  const SchedulerStats SS = Sched->statsSnapshot();
  Counters.emplace_back("sched.ticks", SS.Ticks);
  Counters.emplace_back("sched.fast_path_commits", SS.FastPathCommits);
  Counters.emplace_back("sched.reschedules", SS.Reschedules);
  Counters.emplace_back("sched.signals_delivered", SS.SignalsDelivered);
  Counters.emplace_back("syscalls.issued", SyscallsIssued.load());
  Counters.emplace_back("syscalls.recorded", SyscallsRecorded.load());
  Counters.emplace_back("syscalls.replayed", SyscallsReplayed.load());
  Counters.emplace_back("races.reported", Race ? Race->reportCount() : 0);
  Counters.emplace_back("recovery.actions", Recoveries.total());
  std::lock_guard<std::mutex> L(TelemetryMu);
  Telemetry->emitFrame(Tick, Counters, Final);
}

void Session::superviseRun() {
  // The liveness poll and the watchdog ladder each keep their own
  // deadline, so a thread exit waking the wait early postpones neither.
  using Clock = std::chrono::steady_clock;
  constexpr uint32_t LadderPeriodMs = 50;
  const auto Millis = [](uint32_t Ms) { return std::chrono::milliseconds(Ms); };
  Clock::time_point NextLiveness =
      Config.LivenessIntervalMs
          ? Clock::now() + Millis(Config.LivenessIntervalMs)
          : Clock::time_point::max();
  Clock::time_point NextWatchdog = Clock::now() + Millis(LadderPeriodMs);

  // The ladder escalates warn -> nudge -> salvage while the tick frontier
  // stays frozen, each rung at its wall-clock deadline. A mid-run trace
  // snapshot is forbidden (TraceRecorder requires the emitting threads
  // joined), so the warn rung emits the scheduler state dump; the final
  // report still carries the trace excerpt around the salvage tick.
  uint64_t LastTick = ~0ull;
  Clock::time_point LastChange = Clock::now();
  unsigned Rung = 0;
  while (!Sched->waitAllFinished(std::min(NextLiveness, NextWatchdog))) {
    const Clock::time_point Now = Clock::now();
    if (Now >= NextLiveness) {
      Sched->livenessPoll();
      NextLiveness = Now + Millis(Config.LivenessIntervalMs);
    }
    if (Now < NextWatchdog)
      continue;
    NextWatchdog = Now + Millis(LadderPeriodMs);
    const uint64_t Tick = Sched->currentTick();
    if (Tick != LastTick) {
      LastTick = Tick;
      LastChange = Now;
      Rung = 0;
      continue;
    }
    const uint64_t StalledMs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Now - LastChange)
            .count());
    if (Rung == 0 && StalledMs >= Config.Watchdog.WarnAfterMs) {
      Rung = 1;
      const SchedulerStats S = Sched->statsSnapshot();
      warn("watchdog: tick frontier frozen at %llu for %llu ms "
           "(%llu ticks total, %llu reschedules)\n%s",
           static_cast<unsigned long long>(Tick),
           static_cast<unsigned long long>(StalledMs),
           static_cast<unsigned long long>(S.Ticks),
           static_cast<unsigned long long>(S.Reschedules),
           Sched->dumpState().c_str());
      Recoveries.record({RecoveryActionKind::WatchdogWarn, Tick, InvalidTid,
                         StreamKind::Meta, StalledMs, "tick frontier frozen"});
    }
    if (Rung == 1 && StalledMs >= Config.Watchdog.NudgeAfterMs) {
      Rung = 2;
      if (Sched->watchdogNudge())
        Recoveries.record({RecoveryActionKind::WatchdogNudge, Tick,
                           InvalidTid, StreamKind::Meta, StalledMs,
                           "forced strategy decision / broadcast wake"});
    }
    if (Rung == 2 && StalledMs >= Config.Watchdog.SalvageAfterMs) {
      Rung = 3;
      const std::string Why = formatString(
          "watchdog: no tick for %llu ms despite warn and nudge",
          static_cast<unsigned long long>(StalledMs));
      if (Sched->salvageStall(Why))
        Recoveries.record({RecoveryActionKind::WatchdogSalvage, Tick,
                           InvalidTid, StreamKind::Meta, StalledMs,
                           "salvaging shutdown"});
    }
  }
}

void Session::noteRecoveryAction(RecoveryActionKind Kind, Tid Thread,
                                 StreamKind Stream, uint64_t Count,
                                 std::string Detail) {
  Recoveries.record(
      {Kind, Sched ? Sched->currentTickRelaxed() : 0, Thread, Stream, Count,
       std::move(Detail)});
}

void Session::mainThreadBody(std::function<void()> MainFn) {
  // TLS registration happens in the OS-thread lambda (run/spawnThread),
  // bracketing the retire catch: a ControlledThreadRetire unwinding out
  // of here must still find the TLS context intact for the destructors
  // it runs.
  MainFn();
  // Thread deletion is a visible operation (§3.2).
  enterCritical(0);
  Sched->threadDelete(0);
  leaveCritical(0);
}

void Session::childThreadBody(Tid Self, std::function<void()> Fn) {
  Fn();
  enterCritical(Self);
  Sched->threadDelete(Self);
  leaveCritical(Self);
}

void Session::enterCritical(Tid Self) {
  for (;;) {
    Sched->wait(Self);
    const auto Sig = Sched->takeDeliverableSignal(Self);
    if (!Sig)
      return;
    // The signal floats to this designation: handler entry consumes it as
    // its own visible operation (§4.3, Figure 6).
    Cost->visibleOp(Self);
    Sched->tick(Self);
    std::function<void()> Handler;
    {
      std::lock_guard<std::mutex> L(HandlersMu);
      auto It = Handlers.find(*Sig);
      if (It != Handlers.end())
        Handler = It->second;
    }
    if (Handler) {
      Sched->beginHandler(Self);
      Handler();
      Sched->endHandler(Self);
    }
    // Loop: re-enter Wait() for the operation we originally came for.
  }
}

void Session::leaveCritical(Tid Self, VTime ExtraCost) {
  Cost->visibleOp(Self, ExtraCost);
  Sched->tick(Self);
  // Outside the scheduler lock, after the tick is published: the stream
  // observes a monotone tick frontier and never holds up the handoff.
  if (TSR_UNLIKELY(Telemetry != nullptr))
    pumpTelemetry(Sched->currentTickRelaxed(), /*Final=*/false);
}

Tid Session::spawnThread(std::function<void()> Fn) {
  const Tid Child = visibleOp([&](Tid Self) {
    const Tid C = Sched->threadNew(Self);
    Race->forkChild(Self, C);
    Cost->threadStart(C, Self);
    return C;
  });
  std::lock_guard<std::mutex> L(ThreadsMu);
  OsThreads.emplace_back([this, Child, F = std::move(Fn),
                          R = Reg]() mutable {
    R->enter(&TlsSlot, this, Child);
    try {
      childThreadBody(Child, std::move(F));
    } catch (const ControlledThreadRetire &) {
      // Unwound off the controlled body by a straggler retire.
    }
    R->exit(&TlsSlot);
  });
  return Child;
}

void Session::setSignalHandler(Signo S, std::function<void()> Handler) {
  // Binding a handler is itself a visible operation (§3.2).
  visibleOp([&](Tid) {
    std::lock_guard<std::mutex> L(HandlersMu);
    Handlers[S] = std::move(Handler);
  });
}

void Session::postSignal(Tid Target, Signo S) {
  if (Sched)
    Sched->postSignal(Target, S);
}

DesyncReport Session::syscallDesyncReport(DesyncReason Reason,
                                          Tid Self) const {
  DesyncReport R;
  R.Reason = Reason;
  R.Stream = StreamKind::Syscall;
  R.Thread = Self;
  R.SyscallCursor = {SyscallReader.position(), SyscallReader.size()};
  return R;
}

SyscallResult Session::replaySyscall(SyscallKind Kind, Tid Self,
                                     bool &IssueNative) {
  // Forward-search window of Resync and Adaptive, in whole records.
  constexpr uint32_t SyscallSearchWindow = 8;
  constexpr uint64_t NumKinds = static_cast<uint64_t>(SyscallKind::NumKinds);
  IssueNative = false;
  const RecoveryMode RMode = Config.Recovery.Mode;
  // Per-thread divergence state (adaptive). Accessed only inside the
  // owner's critical section, so plain resize is safe.
  if (Self >= SyscallDivergenceStreak.size()) {
    SyscallDivergenceStreak.resize(Self + 1, 0);
    SyscallThreadFreeRun.resize(Self + 1, 0);
  }
  if (SyscallReader.atEnd()) {
    // Demo exhausted: free-run from here on (soft desync territory).
    SyscallStreamExhausted = true;
    SyscallReplayStopped = true;
    if (Config.ReplayDemo->truncated()) {
      // Expected for a salvaged recording: the crash cut the stream here.
      // Surface it as a structured soft report rather than silence.
      DesyncReport D =
          syscallDesyncReport(DesyncReason::TruncatedDemo, Self);
      D.Expected = "more recorded syscalls";
      D.Actual = formatString(
          "the salvaged recording's SYSCALL stream ends before '%s'; "
          "finishing free-run",
          syscallKindName(Kind));
      Sched->declareSoftDesync(std::move(D));
    }
    IssueNative = true;
    return SyscallResult();
  }
  const size_t RecordStart = SyscallReader.position();
  SyscallRecord Rec;
  if (!decodeSyscallKind(SyscallReader, Rec) || Rec.Kind >= NumKinds) {
    if (RMode == RecoveryMode::Adaptive) {
      // The stream is undecodable from here: record boundaries are lost,
      // so no forward scan can help. Stop consuming it and synthesize
      // every later result from the live environment (soft, not hard).
      SyscallReplayStopped = true;
      Recoveries.record({RecoveryActionKind::SynthesizeSyscall,
                         Sched->currentTickRelaxed(), Self,
                         StreamKind::Syscall, 1,
                         formatString("undecodable SYSCALL stream at offset "
                                      "%zu; synthesizing '%s' and all later "
                                      "results from the live environment",
                                      RecordStart, syscallKindName(Kind))});
      DesyncReport D =
          syscallDesyncReport(DesyncReason::SyscallCorrupt, Self);
      D.Expected = "a syscall kind varint";
      D.Actual = formatString("undecodable value at stream offset %zu; "
                              "synthesizing results from the live "
                              "environment",
                              RecordStart);
      Sched->declareSoftDesync(std::move(D));
      IssueNative = true;
      return SyscallResult();
    }
    DesyncReport D = syscallDesyncReport(DesyncReason::SyscallCorrupt, Self);
    D.Expected = "a syscall kind varint";
    D.Actual = formatString("undecodable value at stream offset %zu",
                            RecordStart);
    Sched->declareDesync(std::move(D));
    IssueNative = true; // Hard desync: the run finishes uncontrolled.
    return SyscallResult();
  }
  if (Rec.Kind != static_cast<uint64_t>(Kind)) {
    const SyscallKind Recorded = static_cast<SyscallKind>(Rec.Kind);
    // Bounded forward search (Resync/Adaptive): the thread may have
    // skipped a few recorded calls (an under-recording policy, a dropped
    // branch); if its expected kind appears within the window, skip the
    // mismatched records with annotation and re-lock onto the script.
    if (RMode != RecoveryMode::Strict) {
      uint64_t Skipped = 0;
      bool Matched = false;
      SyscallResult R;
      SyscallRecord Scan = Rec;
      std::vector<uint8_t> SkipBuf;
      // Each pass skips the current (mismatched) record's body and reads
      // the next record's kind.
      while (Skipped < SyscallSearchWindow &&
             decodeSyscallBody(SyscallReader, Scan, SkipBuf)) {
        ++Skipped;
        if (SyscallReader.atEnd() ||
            !decodeSyscallKind(SyscallReader, Scan) || Scan.Kind >= NumKinds)
          break;
        if (Scan.Kind != static_cast<uint64_t>(Kind))
          continue;
        Matched = decodeSyscallBody(SyscallReader, Scan, R.OutBuf);
        break;
      }
      if (Matched) {
        R.Ret = Scan.Ret;
        R.Err = static_cast<int>(Scan.Err);
        SyscallDivergenceStreak[Self] = 0;
        Recoveries.record(
            {RecoveryActionKind::SkipForward, Sched->currentTickRelaxed(),
             Self, StreamKind::Syscall, Skipped,
             formatString("skipped %llu recorded syscall%s (next was '%s') "
                          "to re-lock on '%s'",
                          static_cast<unsigned long long>(Skipped),
                          Skipped == 1 ? "" : "s",
                          syscallKindName(Recorded),
                          syscallKindName(Kind))});
        return R;
      }
      // No match inside the window: rewind so on-script threads keep a
      // clean cursor, then degrade per mode.
      SyscallReader.seek(RecordStart);
      if (RMode == RecoveryMode::Adaptive) {
        const uint32_t Streak = ++SyscallDivergenceStreak[Self];
        if (Streak >= Config.Recovery.ThreadFreeRunThreshold) {
          // Persistently divergent: this thread leaves the script for
          // good (its syscalls issue natively) while the rest keep
          // replaying. One soft report marks the degradation.
          SyscallThreadFreeRun[Self] = 1;
          Recoveries.record({RecoveryActionKind::ThreadFreeRun,
                             Sched->currentTickRelaxed(), Self,
                             StreamKind::Syscall, Streak,
                             formatString("thread %u free-runs after %u "
                                          "consecutive divergences",
                                          Self, Streak)});
          DesyncReport D =
              syscallDesyncReport(DesyncReason::SyscallKindMismatch, Self);
          D.Expected = formatString(
              "'%s' (next recorded call, at stream offset %zu)",
              syscallKindName(Recorded), RecordStart);
          D.Actual = formatString(
              "thread %u persistently diverged (issued '%s' %u times "
              "against the script); degrading it to free-run",
              Self, syscallKindName(Kind), Streak);
          Sched->declareSoftDesync(std::move(D));
        } else {
          Recoveries.record(
              {RecoveryActionKind::SynthesizeSyscall,
               Sched->currentTickRelaxed(), Self, StreamKind::Syscall, 1,
               formatString("no '%s' within %u records (next recorded is "
                            "'%s'); synthesizing from the live environment",
                            syscallKindName(Kind), SyscallSearchWindow,
                            syscallKindName(Recorded))});
        }
        IssueNative = true;
        return SyscallResult();
      }
      // Resync: window exhausted, fall through to Strict's hard desync.
    }
    DesyncReport D =
        syscallDesyncReport(DesyncReason::SyscallKindMismatch, Self);
    D.Expected = formatString(
        "'%s' (next recorded call, at stream offset %zu)",
        syscallKindName(Recorded), RecordStart);
    D.Actual = formatString("the program issued '%s'", syscallKindName(Kind));
    Sched->declareDesync(std::move(D));
    IssueNative = true; // Hard desync: the run finishes uncontrolled.
    return SyscallResult();
  }
  SyscallResult R;
  if (!decodeSyscallBody(SyscallReader, Rec, R.OutBuf)) {
    if (Config.ReplayDemo->truncated() ||
        RMode == RecoveryMode::Adaptive) {
      // A salvaged recording may end mid-record; that is truncation, not
      // divergence. Downgrade to a soft report and free-run the rest.
      // Adaptive treats a mid-record end the same way even without the
      // truncation mark: the remaining bytes cannot drive replay, so
      // synthesize from the live environment instead of failing.
      SyscallStreamExhausted = true;
      SyscallReplayStopped = true;
      DesyncReport D =
          syscallDesyncReport(DesyncReason::TruncatedDemo, Self);
      D.Expected = formatString("a complete '%s' record starting at "
                                "stream offset %zu",
                                syscallKindName(Kind), RecordStart);
      D.Actual =
          "the recording ends mid-record; finishing free-run";
      if (!Config.ReplayDemo->truncated())
        Recoveries.record({RecoveryActionKind::SynthesizeSyscall,
                           Sched->currentTickRelaxed(), Self,
                           StreamKind::Syscall, 1,
                           formatString("SYSCALL stream ends mid-'%s' "
                                        "record; synthesizing from the "
                                        "live environment",
                                        syscallKindName(Kind))});
      Sched->declareSoftDesync(std::move(D));
      IssueNative = true;
      return SyscallResult();
    }
    DesyncReport D =
        syscallDesyncReport(DesyncReason::SyscallTruncated, Self);
    D.Expected = formatString("a complete '%s' record starting at "
                              "stream offset %zu",
                              syscallKindName(Kind), RecordStart);
    D.Actual = "the stream ends mid-record";
    Sched->declareDesync(std::move(D));
    IssueNative = true; // Hard desync: the run finishes uncontrolled.
    return SyscallResult();
  }
  R.Ret = Rec.Ret;
  R.Err = static_cast<int>(Rec.Err);
  SyscallDivergenceStreak[Self] = 0;
  return R;
}

void Session::recordSyscall(const SyscallRecord &Rec,
                            const std::vector<uint8_t> &OutBuf) {
  std::lock_guard<std::mutex> L(SyscallStreamMu);
  encodeSyscall(SyscallBytes, Rec, OutBuf);
}

void Session::appendSyscallChunkLocked(uint64_t Tick) {
  LiveWriter.appendChunk(StreamKind::Syscall,
                         SyscallBytes.data() + SyscallFlushed,
                         SyscallBytes.size() - SyscallFlushed, Tick);
  SyscallFlushed = SyscallBytes.size();
}

void Session::drainSyscallStream(uint64_t Tick, bool Final) {
  if (!LiveWriter.isOpen())
    return;
  std::lock_guard<std::mutex> L(SyscallStreamMu);
  appendSyscallChunkLocked(Tick);
  if (Final)
    LiveWriter.closeStream(StreamKind::Syscall);
}

void Session::emergencyFlushDemo() {
  if (!LiveWriter.isOpen() || !Sched)
    return;
  const auto Tick = Sched->emergencyFlush();
  if (!Tick)
    return; // Scheduler lock unavailable: keep the durable prefix as-is.
  if (!SyscallStreamMu.try_lock())
    return; // A record append is mid-flight; its bytes stay unflushed.
  appendSyscallChunkLocked(*Tick);
  SyscallStreamMu.unlock();
}

SyscallResult Session::doSyscall(SyscallKind Kind, FdClass Class,
                                 const std::function<SyscallResult()> &Issue) {
  const bool Recordable = Config.Policy.shouldRecord(Kind, Class);
  const VTime Extra = (Recordable && Config.ExecMode == Mode::Record)
                          ? Config.Cost.SyscallRecordCost
                          : 0;
  return visibleOp(
      [&](Tid Self) -> SyscallResult {
        SyscallsIssued.fetch_add(1);
        // Enter/exit bracket the call in the trace. Both land at the
        // critical section's tick (stable while we hold it), so they are
        // part of the record/replay virtual identity.
        if (TSR_UNLIKELY(Tracer != nullptr))
          Tracer->emit(Self, TraceEventKind::SyscallEnter,
                       Sched->currentTickRelaxed(),
                       static_cast<uint64_t>(Kind),
                       static_cast<uint64_t>(Class));
        const auto Finish = [&](const SyscallResult &R,
                                bool Injected) -> SyscallResult {
          if (TSR_UNLIKELY(Tracer != nullptr))
            Tracer->emit(Self, TraceEventKind::SyscallExit,
                         Sched->currentTickRelaxed(),
                         static_cast<uint64_t>(Kind),
                         packSyscallExit(static_cast<uint64_t>(
                                             static_cast<uint16_t>(R.Err)),
                                         Injected, Extra));
          return R;
        };
        if (Config.ExecMode == Mode::Replay && Recordable &&
            !SyscallReplayStopped &&
            !(Self < SyscallThreadFreeRun.size() &&
              SyscallThreadFreeRun[Self]) &&
            Sched->desyncKind() != DesyncKind::Hard) {
          bool IssueNative = false;
          SyscallResult R = replaySyscall(Kind, Self, IssueNative);
          if (!IssueNative) {
            SyscallsReplayed.fetch_add(1);
            // Replay half of the profile SYSCALL identity: the values
            // came from the stream, so they equal the recorded ones.
            if (TSR_UNLIKELY(Prof != nullptr))
              Prof->onSyscall({static_cast<uint64_t>(Kind), R.Ret,
                               static_cast<uint64_t>(R.Err)});
            return Finish(R, false);
          }
          // Exhausted (one soft resync: the recording simply ended
          // before the program did), hard-desynced, or an adaptive
          // synthesis/free-run decision: fall through and issue
          // natively.
        }
        // The fault injector sits before the record/replay split: an
        // injected failure is recorded like a genuine one, so replay
        // reproduces it from the stream with the injector disarmed.
        SyscallResult R;
        bool Faulted = false;
        uint32_t Attempt = 0;
        for (;;) {
          ++Attempt;
          Faulted = Config.ExecMode != Mode::Replay &&
                    Injector.preIssue(Kind, Class, R);
          if (!Faulted) {
            R = Issue();
            if (Config.ExecMode != Mode::Replay)
              Injector.postIssue(Kind, Class, R);
          }
          if (!Config.Retry.Enabled || Attempt >= Config.Retry.MaxAttempts ||
              R.Ret >= 0 || !isTransientVirtualErrno(R.Err))
            break;
          // Deterministic retry: exponential backoff advances virtual
          // time only (no wall sleeping), and the jitter draw is
          // stateless — a Prng seeded from the run seeds, the tick, the
          // kind and the attempt — so it perturbs no other draw and
          // reproduces exactly under the same seeds. Only the final
          // result is recorded, so replay of a recordable call never
          // re-runs the loop.
          constexpr VTime BaseDelayNs = 100000;
          constexpr VTime MaxDelayNs = 10000000;
          constexpr VTime JitterNs = 50000;
          const unsigned Shift = Attempt - 1 < 20 ? Attempt - 1 : 20;
          VTime Delay = std::min(BaseDelayNs << Shift, MaxDelayNs);
          Prng Jitter(UsedSeed0 ^ ((static_cast<uint64_t>(Kind) + 1) *
                                   0x9E3779B97F4A7C15ull),
                      UsedSeed1 ^ ((Sched->currentTickRelaxed() << 8) |
                                   Attempt));
          Delay += Jitter.nextBelow(JitterNs);
          Cost->advance(Self, Delay);
          Recoveries.record(
              {RecoveryActionKind::RetryBackoff,
               Sched->currentTickRelaxed(), Self, StreamKind::Syscall,
               Attempt,
               formatString("'%s' returned transient errno %d; retrying "
                            "after %llu virtual ns",
                            syscallKindName(Kind), R.Err,
                            static_cast<unsigned long long>(Delay))});
        }
        if (Config.ExecMode == Mode::Record && Recordable) {
          const SyscallRecord Rec{static_cast<uint64_t>(Kind), R.Ret,
                                  static_cast<uint64_t>(R.Err)};
          recordSyscall(Rec, R.OutBuf);
          SyscallsRecorded.fetch_add(1);
          // Record half of the profile SYSCALL identity: exactly the
          // records that land in the stream. Injected faults are
          // indistinguishable from genuine errors here by design — the
          // Injected flag is record-only state.
          if (TSR_UNLIKELY(Prof != nullptr))
            Prof->onSyscall(Rec);
        }
        return Finish(R, Faulted);
      },
      Extra);
}

void Session::noteFdClass(int Fd, FdClass Class) {
  if (Fd < 0)
    return;
  std::lock_guard<std::mutex> L(FdClassMu);
  FdClasses[Fd] = Class;
}

FdClass Session::fdClassOf(int Fd) {
  std::lock_guard<std::mutex> L(FdClassMu);
  auto It = FdClasses.find(Fd);
  return It == FdClasses.end() ? FdClass::None : It->second;
}

void Session::work(VTime Ns) { Cost->work(currentTid(), Ns); }
