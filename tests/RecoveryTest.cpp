//===-- tests/RecoveryTest.cpp - Self-healing replay tests ----------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// The recovery subsystem: adaptive desync recovery (windowed forward
// search, per-thread free-run degradation, syscall synthesis), the
// tick-watchdog escalation ladder (warn -> nudge -> salvaging shutdown),
// and the deterministic retry/backoff policy for transient errors. Strict
// mode must stay bit-exact — the litmus identity sweep pins that.
//
//===----------------------------------------------------------------------===//

#include "runtime/Tsr.h"
#include "support/Recovery.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <vector>

using namespace tsr;

namespace {

SessionConfig baseConfig(Mode M = Mode::Free,
                         RecordPolicy P = RecordPolicy::none()) {
  SessionConfig C = presets::tsan11rec(StrategyKind::Queue, M, P);
  C.Seed0 = 171;
  C.Seed1 = 172;
  C.Env.Seed0 = 173;
  C.Env.Seed1 = 174;
  C.LivenessIntervalMs = 0;
  C.Cost.SyscallRecordCost = 0;
  return C;
}

class Echo final : public Peer {
public:
  void onMessage(PeerApi &Api, uint64_t Conn,
                 const std::vector<uint8_t> &Data) override {
    Api.send(Conn, Data);
  }
};

RecordPolicy clientPolicy() {
  return RecordPolicy::httpd().enable(SyscallKind::Close);
}

/// The recorded program: six sends, then close. \p Trace collects every
/// observable result so divergence variants can be compared.
void sixSends(std::vector<int64_t> &Trace) {
  const int Fd = sys::socket();
  Trace.push_back(Fd);
  Trace.push_back(sys::connect(Fd, 7001));
  for (int I = 0; I != 6; ++I) {
    const uint8_t Msg[2] = {'m', static_cast<uint8_t>('0' + I)};
    Trace.push_back(sys::send(Fd, Msg, sizeof Msg));
  }
  Trace.push_back(sys::close(Fd));
}

/// Divergent variant: skips sends 2-3 — the recorded stream then holds
/// two extra send records the replayer must forward-skip at close.
void fourSends(std::vector<int64_t> &Trace) {
  const int Fd = sys::socket();
  Trace.push_back(Fd);
  Trace.push_back(sys::connect(Fd, 7001));
  for (int I = 0; I != 6; ++I) {
    if (I == 2 || I == 3)
      continue;
    const uint8_t Msg[2] = {'m', static_cast<uint8_t>('0' + I)};
    Trace.push_back(sys::send(Fd, Msg, sizeof Msg));
  }
  Trace.push_back(sys::close(Fd));
}

/// Divergent variant: one extra recv the recording never saw — no match
/// within the search window, so Adaptive must synthesize it from the
/// live environment while Resync hard-desyncs.
void sixSendsOneRecv(std::vector<int64_t> &Trace) {
  const int Fd = sys::socket();
  Trace.push_back(Fd);
  Trace.push_back(sys::connect(Fd, 7001));
  for (int I = 0; I != 6; ++I) {
    const uint8_t Msg[2] = {'m', static_cast<uint8_t>('0' + I)};
    Trace.push_back(sys::send(Fd, Msg, sizeof Msg));
  }
  uint8_t Buf[4];
  Trace.push_back(sys::recv(Fd, Buf, sizeof Buf));
  Trace.push_back(sys::close(Fd));
}

/// Divergent variant: four unmatched recvs in a row — past the default
/// ThreadFreeRunThreshold, so Adaptive degrades the thread to free-run.
void sixSendsManyRecvs(std::vector<int64_t> &Trace) {
  const int Fd = sys::socket();
  Trace.push_back(Fd);
  Trace.push_back(sys::connect(Fd, 7001));
  for (int I = 0; I != 6; ++I) {
    const uint8_t Msg[2] = {'m', static_cast<uint8_t>('0' + I)};
    Trace.push_back(sys::send(Fd, Msg, sizeof Msg));
  }
  uint8_t Buf[4];
  for (int I = 0; I != 4; ++I)
    Trace.push_back(sys::recv(Fd, Buf, sizeof Buf));
  Trace.push_back(sys::close(Fd));
}

RunReport recordSixSends(std::vector<int64_t> &Trace) {
  SessionConfig C = baseConfig(Mode::Record, clientPolicy());
  Session S(C);
  S.env().addPeer("echo", std::make_unique<Echo>(), 7001);
  return S.run([&Trace] { sixSends(Trace); });
}

RunReport replayWith(const Demo &D, RecoveryMode Mode,
                     void (*Program)(std::vector<int64_t> &),
                     std::vector<int64_t> &Trace) {
  SessionConfig C = baseConfig(Mode::Replay, clientPolicy());
  C.ReplayDemo = &D;
  C.Recovery.Mode = Mode;
  Session S(C);
  return S.run([&] { Program(Trace); });
}

// --- Strict litmus: record == replay, no recovery machinery -------------

TEST(RecoveryStrict, LitmusIdentitySweepStaysBitExact) {
  std::vector<int64_t> RecTrace;
  RunReport Rec = recordSixSends(RecTrace);
  ASSERT_EQ(Rec.Desync, DesyncKind::None);
  EXPECT_FALSE(Rec.Recovered.Any);

  for (int Run = 0; Run != 2; ++Run) {
    std::vector<int64_t> Trace;
    RunReport Rep =
        replayWith(Rec.RecordedDemo, RecoveryMode::Strict, sixSends, Trace);
    EXPECT_EQ(Rep.Desync, DesyncKind::None) << Rep.DesyncInfo.Message;
    EXPECT_EQ(Trace, RecTrace);
    EXPECT_EQ(Rep.VirtualNs, Rec.VirtualNs);
    // Strict replay must not engage any recovery machinery.
    EXPECT_FALSE(Rep.Recovered.Any);
    EXPECT_EQ(Rep.Recovered.Actions.size(), 0u);
    EXPECT_EQ(Rep.Metrics.counterOr("recovery.actions", 0), 0u);
    EXPECT_EQ(Rep.Metrics.gaugeOr("recovery.mode", 99),
              static_cast<int64_t>(RecoveryMode::Strict));
  }
}

// --- The divergence matrix ----------------------------------------------

TEST(RecoveryMatrix, SkippedCallsStrictHardDesyncs) {
  std::vector<int64_t> RecTrace, Trace;
  RunReport Rec = recordSixSends(RecTrace);
  RunReport Rep =
      replayWith(Rec.RecordedDemo, RecoveryMode::Strict, fourSends, Trace);
  EXPECT_EQ(Rep.Desync, DesyncKind::Hard);
  EXPECT_EQ(Rep.DesyncInfo.Reason, DesyncReason::SyscallKindMismatch);
  EXPECT_FALSE(Rep.Recovered.Any);
}

TEST(RecoveryMatrix, SkippedCallsResyncForwardSkipsAndCompletes) {
  std::vector<int64_t> RecTrace;
  RunReport Rec = recordSixSends(RecTrace);
  for (const RecoveryMode Mode :
       {RecoveryMode::Resync, RecoveryMode::Adaptive}) {
    std::vector<int64_t> Trace;
    RunReport Rep = replayWith(Rec.RecordedDemo, Mode, fourSends, Trace);
    EXPECT_NE(Rep.Desync, DesyncKind::Hard) << Rep.DesyncInfo.Message;
    EXPECT_TRUE(Rep.Recovered.Any);
    EXPECT_GE(Rep.Recovered.SkipsForward, 1u);
    // The skip is annotated on the timeline.
    bool SawSkip = false;
    for (const RecoveryAction &A : Rep.Recovered.Actions)
      SawSkip |= A.Kind == RecoveryActionKind::SkipForward &&
                 A.Stream == StreamKind::Syscall && A.Count == 2;
    EXPECT_TRUE(SawSkip);
    // The surviving calls replayed their recorded results.
    ASSERT_EQ(Trace.size(), RecTrace.size() - 2);
    EXPECT_EQ(Trace[0], RecTrace[0]);
    EXPECT_EQ(Trace.back(), RecTrace.back());
  }
}

TEST(RecoveryMatrix, ExtraCallResyncHardDesyncsAdaptiveSynthesizes) {
  std::vector<int64_t> RecTrace;
  RunReport Rec = recordSixSends(RecTrace);

  {
    std::vector<int64_t> Trace;
    RunReport Rep = replayWith(Rec.RecordedDemo, RecoveryMode::Resync,
                               sixSendsOneRecv, Trace);
    EXPECT_EQ(Rep.Desync, DesyncKind::Hard);
    EXPECT_EQ(Rep.DesyncInfo.Reason, DesyncReason::SyscallKindMismatch);
  }

  {
    std::vector<int64_t> Trace;
    RunReport Rep = replayWith(Rec.RecordedDemo, RecoveryMode::Adaptive,
                               sixSendsOneRecv, Trace);
    EXPECT_NE(Rep.Desync, DesyncKind::Hard) << Rep.DesyncInfo.Message;
    EXPECT_TRUE(Rep.Recovered.Any);
    EXPECT_GE(Rep.Recovered.SyscallsSynthesized, 1u);
    // Everything before and after the synthesized recv replayed exactly.
    ASSERT_EQ(Trace.size(), RecTrace.size() + 1);
    EXPECT_EQ(Trace[0], RecTrace[0]);
    EXPECT_EQ(Trace.back(), RecTrace.back());
  }
}

TEST(RecoveryMatrix, PersistentDivergenceDegradesThreadToFreeRun) {
  std::vector<int64_t> RecTrace;
  RunReport Rec = recordSixSends(RecTrace);
  std::vector<int64_t> Trace;
  RunReport Rep = replayWith(Rec.RecordedDemo, RecoveryMode::Adaptive,
                             sixSendsManyRecvs, Trace);
  EXPECT_NE(Rep.Desync, DesyncKind::Hard) << Rep.DesyncInfo.Message;
  EXPECT_TRUE(Rep.Recovered.Any);
  EXPECT_GE(Rep.Recovered.ThreadFreeRuns, 1u);
  EXPECT_EQ(Rep.Metrics.counterOr("recovery.thread_free_runs", 0),
            Rep.Recovered.ThreadFreeRuns);
}

TEST(RecoveryMatrix, AdaptiveRecoveryIsDeterministic) {
  std::vector<int64_t> RecTrace;
  RunReport Rec = recordSixSends(RecTrace);
  std::vector<int64_t> TraceA, TraceB;
  RunReport A = replayWith(Rec.RecordedDemo, RecoveryMode::Adaptive,
                           sixSendsOneRecv, TraceA);
  RunReport B = replayWith(Rec.RecordedDemo, RecoveryMode::Adaptive,
                           sixSendsOneRecv, TraceB);
  EXPECT_EQ(TraceA, TraceB);
  EXPECT_EQ(A.VirtualNs, B.VirtualNs);
  EXPECT_EQ(A.Recovered.SyscallsSynthesized, B.Recovered.SyscallsSynthesized);
  EXPECT_EQ(A.Recovered.SkipsForward, B.Recovered.SkipsForward);
  EXPECT_EQ(A.Recovered.Actions.size(), B.Recovered.Actions.size());
}

TEST(RecoveryMatrix, MissingThreadQueueEntriesRecoverNonStrict) {
  // Record a two-thread program; replay a single-threaded one. Every
  // QUEUE designation of the missing thread is unenforceable: Strict
  // hard-desyncs, Resync/Adaptive skip forward (or free-run) and finish.
  SessionConfig C = baseConfig(Mode::Record, clientPolicy());
  Session SRec(C);
  SRec.env().addPeer("echo", std::make_unique<Echo>(), 7001);
  RunReport Rec = SRec.run([] {
    Atomic<int> Counter(0);
    Thread T = Thread::spawn([&] {
      for (int I = 0; I != 8; ++I)
        Counter.fetchAdd(1);
    });
    std::vector<int64_t> Sink;
    sixSends(Sink);
    T.join();
  });
  ASSERT_EQ(Rec.Desync, DesyncKind::None);

  {
    std::vector<int64_t> Trace;
    RunReport Rep =
        replayWith(Rec.RecordedDemo, RecoveryMode::Strict, sixSends, Trace);
    EXPECT_EQ(Rep.Desync, DesyncKind::Hard);
  }
  for (const RecoveryMode Mode :
       {RecoveryMode::Resync, RecoveryMode::Adaptive}) {
    std::vector<int64_t> Trace;
    RunReport Rep = replayWith(Rec.RecordedDemo, Mode, sixSends, Trace);
    EXPECT_NE(Rep.Desync, DesyncKind::Hard) << Rep.DesyncInfo.Message;
    EXPECT_TRUE(Rep.Recovered.Any);
    EXPECT_GE(Rep.Recovered.SkipsForward + Rep.Recovered.ScheduleFreeRuns, 1u);
  }
}

// --- Tick-watchdog supervision ------------------------------------------

TEST(Watchdog, ScriptedLivelockEscalatesWarnNudgeSalvage) {
  // A thread that spins on a RAW std::atomic performs no visible op, so
  // under controlled scheduling the tick frontier freezes the moment it
  // is designated — a livelock no deadlock detector can see. The
  // watchdog must climb the full ladder and salvage a replayable demo.
  //
  // The escape flag and the session leak deliberately: the salvaged
  // session detaches its parked threads, which may still reference both
  // after run() returns.
  static std::atomic<bool> Escape{false};
  Escape.store(false);

  const std::string Dir = "/tmp/tsr-recovery-watchdog";
  std::filesystem::remove_all(Dir);

  SessionConfig C = baseConfig(Mode::Record, clientPolicy());
  C.Flush.Directory = Dir;
  C.Flush.EveryTicks = 4;
  C.Watchdog.WarnAfterMs = 100;
  C.Watchdog.NudgeAfterMs = 250;
  C.Watchdog.SalvageAfterMs = 500;
  Session *S = new Session(C); // leaked: parked threads outlive the test
  S->env().addPeer("echo", std::make_unique<Echo>(), 7001);
  RunReport R = S->run([] {
    std::vector<int64_t> Sink;
    sixSends(Sink); // some real recorded work before the livelock
    Thread T = Thread::spawn([] {
      while (!Escape.load(std::memory_order_relaxed)) {
      }
    });
    T.join(); // parks forever: the spinner never reaches a visible op
  });
  Escape.store(true); // free the spinning OS thread

  EXPECT_TRUE(R.StallSalvaged);
  EXPECT_GE(R.Recovered.WatchdogWarns, 1u);
  EXPECT_GE(R.Recovered.WatchdogNudges, 1u);
  EXPECT_EQ(R.Recovered.WatchdogSalvages, 1u);
  EXPECT_EQ(R.Desync, DesyncKind::Hard);
  EXPECT_EQ(R.DesyncInfo.Reason, DesyncReason::WatchdogStall);
  EXPECT_EQ(R.Metrics.counterOr("watchdog.salvages", 0), 1u);
  EXPECT_EQ(R.Metrics.gaugeOr("watchdog.stall_salvaged", 0), 1);

  // The in-memory demo is a truncated-but-consistent prefix...
  EXPECT_TRUE(R.RecordedDemo.truncated());

  // ...and the on-disk one salvages into a replayable demo with the
  // RECOVERY sidecar alongside it.
  Demo::SalvageReport Salvage;
  std::string Error;
  ASSERT_TRUE(Demo::salvageDirectory(Dir, Salvage, Error)) << Error;
  Demo D;
  ASSERT_TRUE(D.loadFromDirectory(Dir, Error)) << Error;
  EXPECT_TRUE(D.truncated());

  RecoverySidecarInfo Side;
  ASSERT_TRUE(loadRecoverySidecar(Dir, Side));
  ASSERT_TRUE(Side.Valid) << Side.Error;
  EXPECT_GE(Side.ByKind[static_cast<unsigned>(
                RecoveryActionKind::WatchdogSalvage)],
            1u);

  // The salvaged prefix replays to completion (the livelock itself was
  // never recorded — replay just runs out of script and free-runs).
  std::vector<int64_t> Trace;
  RunReport Rep =
      replayWith(D, RecoveryMode::Adaptive, sixSends, Trace);
  EXPECT_NE(Rep.Desync, DesyncKind::Hard) << Rep.DesyncInfo.Message;
  std::filesystem::remove_all(Dir);
}

TEST(Watchdog, QuietRunNeverFires) {
  SessionConfig C = baseConfig(Mode::Record, clientPolicy());
  C.Watchdog.WarnAfterMs = 2000;
  C.Watchdog.NudgeAfterMs = 4000;
  C.Watchdog.SalvageAfterMs = 8000;
  Session S(C);
  S.env().addPeer("echo", std::make_unique<Echo>(), 7001);
  std::vector<int64_t> Trace;
  RunReport R = S.run([&Trace] { sixSends(Trace); });
  EXPECT_EQ(R.Desync, DesyncKind::None);
  EXPECT_FALSE(R.StallSalvaged);
  EXPECT_EQ(R.Recovered.WatchdogWarns, 0u);
  EXPECT_EQ(R.Recovered.WatchdogNudges, 0u);
  EXPECT_EQ(R.Recovered.WatchdogSalvages, 0u);
}

// --- Deterministic retry/backoff ----------------------------------------

TEST(Retry, AbsorbsTransientStormDeterministically) {
  auto RunOnce = [](std::vector<int64_t> &Trace) {
    SessionConfig C = baseConfig();
    C.Faults = FaultPlan::none().storm(SyscallKind::Send, 2, 2, VEAGAIN);
    C.Retry.Enabled = true;
    C.Retry.MaxAttempts = 4;
    Session S(C);
    S.env().addPeer("echo", std::make_unique<Echo>(), 7001);
    return S.run([&Trace] {
      const int Fd = sys::socket();
      Trace.push_back(sys::connect(Fd, 7001));
      const uint8_t Msg[2] = {'o', 'k'};
      // The storm fails occurrences 2-3; the retry loop re-issues until
      // occurrence 4 succeeds, so the app never sees VEAGAIN.
      for (int I = 0; I != 3; ++I) {
        Trace.push_back(sys::send(Fd, Msg, sizeof Msg));
        Trace.push_back(sys::lastError());
      }
      Trace.push_back(sys::close(Fd));
    });
  };
  std::vector<int64_t> TraceA, TraceB;
  RunReport A = RunOnce(TraceA);
  RunReport B = RunOnce(TraceB);
  for (size_t I = 1; I < TraceA.size(); I += 2)
    EXPECT_NE(TraceA[I], -1) << "send " << I << " saw the transient error";
  EXPECT_GE(A.Recovered.Retries, 2u);
  EXPECT_EQ(A.Metrics.counterOr("recovery.retries", 0), A.Recovered.Retries);
  // Same seeds, same backoff jitter, same virtual timeline.
  EXPECT_EQ(TraceA, TraceB);
  EXPECT_EQ(A.VirtualNs, B.VirtualNs);
  EXPECT_EQ(A.Recovered.Retries, B.Recovered.Retries);
}

TEST(Retry, RecordedRunReplaysOnlyFinalResults) {
  // Record with retries absorbing a storm: only the final (successful)
  // result of each retried call lands in the SYSCALL stream, so a Strict
  // replay needs no retry machinery at all.
  std::vector<int64_t> RecTrace;
  SessionConfig C = baseConfig(Mode::Record, clientPolicy());
  C.Faults = FaultPlan::none().storm(SyscallKind::Send, 2, 2, VEAGAIN);
  C.Retry.Enabled = true;
  C.Retry.MaxAttempts = 4;
  Session SRec(C);
  SRec.env().addPeer("echo", std::make_unique<Echo>(), 7001);
  RunReport Rec = SRec.run([&RecTrace] { sixSends(RecTrace); });
  ASSERT_EQ(Rec.Desync, DesyncKind::None);
  EXPECT_GE(Rec.Recovered.Retries, 2u);
  for (size_t I = 2; I < RecTrace.size() - 1; ++I)
    EXPECT_EQ(RecTrace[I], 2) << "send " << I;

  std::vector<int64_t> Trace;
  RunReport Rep =
      replayWith(Rec.RecordedDemo, RecoveryMode::Strict, sixSends, Trace);
  EXPECT_EQ(Rep.Desync, DesyncKind::None) << Rep.DesyncInfo.Message;
  EXPECT_EQ(Trace, RecTrace);
  EXPECT_EQ(Rep.Recovered.Retries, 0u);
}

TEST(Retry, ShortTransferContinuationCompletesAndRoundTrips) {
  // shortWrites(1.0) truncates every multi-byte transfer; with
  // RetryShortTransfers each continuation is its own recorded visible
  // op, so the total goes through and the demo replays the same path.
  std::vector<int64_t> RecTrace;
  SessionConfig C = baseConfig(Mode::Record, clientPolicy());
  C.Faults = FaultPlan::none().shortWrites(1.0);
  C.Retry.Enabled = true;
  C.Retry.RetryShortTransfers = true;
  Session SRec(C);
  SRec.env().addPeer("echo", std::make_unique<Echo>(), 7001);
  RunReport Rec = SRec.run([&RecTrace] {
    const int Fd = sys::socket();
    RecTrace.push_back(sys::connect(Fd, 7001));
    const uint8_t Msg[8] = {'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'};
    RecTrace.push_back(sys::send(Fd, Msg, sizeof Msg));
    RecTrace.push_back(sys::close(Fd));
  });
  ASSERT_EQ(Rec.Desync, DesyncKind::None);
  EXPECT_EQ(RecTrace[1], 8); // the full transfer went through
  EXPECT_GE(Rec.Recovered.Retries, 1u);

  std::vector<int64_t> Trace;
  SessionConfig CR = baseConfig(Mode::Replay, clientPolicy());
  CR.ReplayDemo = &Rec.RecordedDemo;
  CR.Retry.Enabled = true;
  CR.Retry.RetryShortTransfers = true;
  Session SRep(CR);
  RunReport Rep = SRep.run([&Trace] {
    const int Fd = sys::socket();
    Trace.push_back(sys::connect(Fd, 7001));
    const uint8_t Msg[8] = {'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'};
    Trace.push_back(sys::send(Fd, Msg, sizeof Msg));
    Trace.push_back(sys::close(Fd));
  });
  EXPECT_EQ(Rep.Desync, DesyncKind::None) << Rep.DesyncInfo.Message;
  EXPECT_EQ(Trace, RecTrace);
}

TEST(Retry, DisabledByDefaultPreservesTransientErrors) {
  // The retry policy must default OFF: scripted transient faults stay
  // visible to the application (DemoIntegrityTest relies on this too).
  SessionConfig C = baseConfig();
  EXPECT_FALSE(C.Retry.Enabled);
  C.Faults = FaultPlan::none().storm(SyscallKind::Send, 2, 1, VEAGAIN);
  Session S(C);
  S.env().addPeer("echo", std::make_unique<Echo>(), 7001);
  RunReport R = S.run([] {
    const int Fd = sys::socket();
    ASSERT_EQ(sys::connect(Fd, 7001), 0);
    const uint8_t Msg[2] = {'o', 'k'};
    EXPECT_EQ(sys::send(Fd, Msg, 2), 2);
    EXPECT_EQ(sys::send(Fd, Msg, 2), -1);
    EXPECT_EQ(sys::lastError(), VEAGAIN);
    EXPECT_EQ(sys::send(Fd, Msg, 2), 2);
  });
  EXPECT_EQ(R.Recovered.Retries, 0u);
}

// --- The RECOVERY sidecar round-trip ------------------------------------

TEST(RecoverySidecar, ExplicitSidecarDirPersistsAdaptiveTimeline) {
  std::vector<int64_t> RecTrace;
  RunReport Rec = recordSixSends(RecTrace);

  const std::string Dir = "/tmp/tsr-recovery-sidecar";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  std::vector<int64_t> Trace;
  SessionConfig C = baseConfig(Mode::Replay, clientPolicy());
  C.ReplayDemo = &Rec.RecordedDemo;
  C.Recovery.Mode = RecoveryMode::Adaptive;
  C.Recovery.SidecarDir = Dir;
  Session S(C);
  RunReport Rep = S.run([&Trace] { sixSendsOneRecv(Trace); });
  EXPECT_TRUE(Rep.Recovered.Any);

  RecoverySidecarInfo Side;
  ASSERT_TRUE(loadRecoverySidecar(Dir, Side));
  ASSERT_TRUE(Side.Valid) << Side.Error;
  EXPECT_EQ(Side.Total, Rep.Recovered.Actions.size());
  EXPECT_GE(Side.ByKind[static_cast<unsigned>(
                RecoveryActionKind::SynthesizeSyscall)],
            1u);
  std::filesystem::remove_all(Dir);
}

} // namespace
