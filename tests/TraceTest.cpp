//===-- tests/TraceTest.cpp - Virtual-time tracing & metrics tests -------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// The observability contract: a recording and its synchronised replay
// produce identical virtual-time traces (same ticks, threads, kinds);
// ring-buffer overflow drops the oldest events and accounts them; tracing
// off means zero events; the Chrome trace-event and demo-timeline JSON
// exports are structurally valid; desync reports carry a virtual-time
// excerpt; and the unified metrics registry agrees with the legacy
// per-subsystem stats structs.
//
//===----------------------------------------------------------------------===//

#include "apps/litmus/Litmus.h"
#include "apps/pbzip/Pbzip.h"
#include "runtime/Tsr.h"
#include "support/DemoInspect.h"
#include "support/Diag.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace tsr;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON structural validator (objects, arrays, strings, numbers,
// bools, null) — enough to prove the exporters emit well-formed JSON
// without a JSON library in the tree.
//===----------------------------------------------------------------------===//

struct JsonCursor {
  const char *P;
  const char *End;
  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
};

bool validValue(JsonCursor &C, int Depth);

bool validString(JsonCursor &C) {
  if (C.P == C.End || *C.P != '"')
    return false;
  ++C.P;
  while (C.P != C.End && *C.P != '"') {
    if (*C.P == '\\') {
      ++C.P;
      if (C.P == C.End)
        return false;
    }
    ++C.P;
  }
  if (C.P == C.End)
    return false;
  ++C.P; // closing quote
  return true;
}

bool validNumber(JsonCursor &C) {
  const char *Start = C.P;
  if (C.P != C.End && (*C.P == '-' || *C.P == '+'))
    ++C.P;
  bool Digits = false;
  while (C.P != C.End && (std::isdigit(static_cast<unsigned char>(*C.P)) ||
                          *C.P == '.' || *C.P == 'e' || *C.P == 'E' ||
                          *C.P == '-' || *C.P == '+')) {
    Digits = Digits || std::isdigit(static_cast<unsigned char>(*C.P));
    ++C.P;
  }
  return C.P != Start && Digits;
}

bool validValue(JsonCursor &C, int Depth) {
  if (Depth > 64)
    return false;
  C.skipWs();
  if (C.P == C.End)
    return false;
  switch (*C.P) {
  case '{': {
    ++C.P;
    C.skipWs();
    if (C.P != C.End && *C.P == '}') {
      ++C.P;
      return true;
    }
    for (;;) {
      C.skipWs();
      if (!validString(C))
        return false;
      C.skipWs();
      if (C.P == C.End || *C.P != ':')
        return false;
      ++C.P;
      if (!validValue(C, Depth + 1))
        return false;
      C.skipWs();
      if (C.P == C.End)
        return false;
      if (*C.P == ',') {
        ++C.P;
        continue;
      }
      if (*C.P == '}') {
        ++C.P;
        return true;
      }
      return false;
    }
  }
  case '[': {
    ++C.P;
    C.skipWs();
    if (C.P != C.End && *C.P == ']') {
      ++C.P;
      return true;
    }
    for (;;) {
      if (!validValue(C, Depth + 1))
        return false;
      C.skipWs();
      if (C.P == C.End)
        return false;
      if (*C.P == ',') {
        ++C.P;
        continue;
      }
      if (*C.P == ']') {
        ++C.P;
        return true;
      }
      return false;
    }
  }
  case '"':
    return validString(C);
  case 't':
    if (C.End - C.P >= 4 && std::strncmp(C.P, "true", 4) == 0) {
      C.P += 4;
      return true;
    }
    return false;
  case 'f':
    if (C.End - C.P >= 5 && std::strncmp(C.P, "false", 5) == 0) {
      C.P += 5;
      return true;
    }
    return false;
  case 'n':
    if (C.End - C.P >= 4 && std::strncmp(C.P, "null", 4) == 0) {
      C.P += 4;
      return true;
    }
    return false;
  default:
    return validNumber(C);
  }
}

bool validJson(const std::string &S) {
  JsonCursor C{S.data(), S.data() + S.size()};
  if (!validValue(C, 0))
    return false;
  C.skipWs();
  return C.P == C.End;
}

//===----------------------------------------------------------------------===//
// Workloads and config helpers
//===----------------------------------------------------------------------===//

SessionConfig tracedConfig(StrategyKind K, Mode M) {
  SessionConfig C = presets::tsan11rec(K, M, RecordPolicy::full());
  C.Seed0 = 21;
  C.Seed1 = 22;
  C.Env.Seed0 = 23;
  C.Env.Seed1 = 24;
  C.LivenessIntervalMs = 0;
  C.Trace.Enabled = true;
  return C;
}

void pbzipWorkload(Session &S, pbzip::PbzipConfig &PC) {
  PC.Threads = 3;
  PC.BlockSize = 256;
  std::vector<uint8_t> Input;
  for (int I = 0; I != 80; ++I) {
    const std::string Chunk = "pack my box with five dozen liquor jugs " +
                              std::to_string(I % 13) + " ";
    Input.insert(Input.end(), Chunk.begin(), Chunk.end());
  }
  S.env().putFile(PC.InputPath, Input);
}

/// Identity of one virtual event for record≡replay comparison. Args are
/// excluded on purpose: the injected-fault bit of SyscallExit and similar
/// annotations legitimately differ across modes.
struct VirtualKey {
  uint64_t Tick;
  Tid Thread;
  TraceEventKind Kind;
  bool operator==(const VirtualKey &O) const {
    return Tick == O.Tick && Thread == O.Thread && Kind == O.Kind;
  }
};

std::vector<VirtualKey> virtualKeys(const TraceSnapshot &S) {
  std::vector<VirtualKey> Keys;
  for (const TraceEvent &E : S.virtualEvents())
    Keys.push_back({E.Tick, E.Thread, E.Kind});
  return Keys;
}

/// Records \p Body traced, replays it traced, and asserts the virtual
/// event sequences are identical.
template <typename SetupFn, typename BodyFn>
void checkRecordReplayIdentity(SetupFn Setup, BodyFn Body) {
  Demo D;
  TraceSnapshot Recorded;
  {
    SessionConfig C = tracedConfig(StrategyKind::Queue, Mode::Record);
    Session S(C);
    Setup(S);
    RunReport R = S.run(Body);
    ASSERT_EQ(R.Desync, DesyncKind::None) << R.DesyncMessage;
    ASSERT_GT(R.Trace.Events.size(), 0u);
    EXPECT_EQ(R.Trace.Dropped, 0u);
    D = R.RecordedDemo;
    Recorded = R.Trace;
  }
  SessionConfig C = tracedConfig(StrategyKind::Queue, Mode::Replay);
  C.ReplayDemo = &D;
  Session S(C);
  Setup(S);
  RunReport R = S.run(Body);
  ASSERT_EQ(R.Desync, DesyncKind::None) << R.DesyncMessage;

  const TraceDivergence Div = diffTraces(Recorded, R.Trace);
  EXPECT_FALSE(Div.Diverged) << Div.Summary << "\n" << Div.Excerpt;
  EXPECT_EQ(virtualKeys(Recorded), virtualKeys(R.Trace));
  EXPECT_GT(virtualKeys(Recorded).size(), 0u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Record ≡ replay in virtual time
//===----------------------------------------------------------------------===//

TEST(TraceIdentity, PbzipRecordReplayVirtualIdentity) {
  pbzip::PbzipConfig PC;
  checkRecordReplayIdentity(
      [&](Session &S) { pbzipWorkload(S, PC); },
      [&] {
        pbzip::PbzipResult R = pbzip::compressFile(PC);
        ASSERT_GT(R.Blocks, 1);
      });
}

TEST(TraceIdentity, LitmusRecordReplayVirtualIdentity) {
  // One representative CDSchecker benchmark (mutexes + atomics + spawns).
  checkRecordReplayIdentity([](Session &) {}, [] { litmus::mcsLock(); });
}

//===----------------------------------------------------------------------===//
// Ring-buffer overflow
//===----------------------------------------------------------------------===//

TEST(TraceBuffer, OverflowDropsOldestAndAccounts) {
  SessionConfig C = tracedConfig(StrategyKind::Queue, Mode::Free);
  C.Trace.BufferEvents = 16; // tiny: force every buffer to wrap
  Session S(C);
  Atomic<int> Counter(0);
  RunReport R = S.run([&] {
    Thread A = Thread::spawn([&] {
      for (int I = 0; I != 200; ++I)
        Counter.fetchAdd(1);
    });
    for (int I = 0; I != 200; ++I)
      Counter.fetchAdd(1);
    A.join();
  });
  EXPECT_GT(R.Trace.Dropped, 0u);
  EXPECT_LT(R.Trace.Events.size(), R.Metrics.counterOr("trace.events", 0));
  EXPECT_EQ(R.Metrics.counterOr("trace.dropped", 0), R.Trace.Dropped);
  // Rings drop the *oldest* events: the final emission is always retained.
  uint64_t MaxSeq = 0;
  for (const TraceEvent &E : R.Trace.Events)
    MaxSeq = E.Seq > MaxSeq ? E.Seq : MaxSeq;
  EXPECT_EQ(MaxSeq, R.Metrics.counterOr("trace.events", 0) - 1);
}

TEST(TraceBuffer, EveryControlledTidHasARing) {
  // The ring table covers the whole thread table: the first and the last
  // tid a session can hand out both keep their events, and the survivors
  // carry a dense Seq sequence.
  TraceOptions Opts;
  Opts.Enabled = true;
  Opts.WallClock = false;
  TraceRecorder Rec(Opts);
  Rec.emit(0, TraceEventKind::Tick, 1);
  Rec.emit(MaxThreads - 1, TraceEventKind::Tick, 2);
  Rec.emit(0, TraceEventKind::Tick, 3);
  EXPECT_EQ(Rec.emitted(), 3u);
  EXPECT_EQ(Rec.dropped(), 0u);
  const TraceSnapshot Snap = Rec.snapshot();
  ASSERT_EQ(Snap.Events.size(), 3u);
  for (uint64_t I = 0; I != 3; ++I) {
    EXPECT_EQ(Snap.Events[I].Seq, I);
    EXPECT_EQ(Snap.Events[I].Tick, I + 1);
  }
  EXPECT_EQ(Snap.Events[0].Thread, 0u);
  EXPECT_EQ(Snap.Events[1].Thread, MaxThreads - 1);
  EXPECT_EQ(Snap.Events[2].Thread, 0u);
  EXPECT_EQ(Snap.Emitted, 3u);
  EXPECT_EQ(Snap.Dropped, 0u);
}

//===----------------------------------------------------------------------===//
// Disabled tracing
//===----------------------------------------------------------------------===//

TEST(TraceDisabled, NoRecorderNoEvents) {
  SessionConfig C = presets::tsan11rec(StrategyKind::Queue, Mode::Free);
  ASSERT_FALSE(C.Trace.Enabled); // off by default
  Session S(C);
  Atomic<int> X(0);
  RunReport R = S.run([&] {
    Thread T = Thread::spawn([&] { X.store(1); });
    T.join();
  });
  EXPECT_TRUE(R.Trace.Events.empty());
  EXPECT_EQ(R.Trace.Emitted, 0u);
  EXPECT_EQ(R.Metrics.counterOr("trace.events", 99), 0u);
  // The metrics snapshot itself is still filled from the legacy structs.
  EXPECT_EQ(R.Metrics.counterOr("sched.ticks", 0), R.Sched.Ticks);
}

//===----------------------------------------------------------------------===//
// Divergence detection
//===----------------------------------------------------------------------===//

TEST(TraceDiff, DifferentRunsDiverge) {
  // Two different programs cannot share a virtual trace: the second spawns
  // an extra thread.
  auto Trace = [](int Threads) {
    SessionConfig C = tracedConfig(StrategyKind::Queue, Mode::Free);
    Session S(C);
    Atomic<int> X(0);
    RunReport R = S.run([&] {
      std::vector<Thread> Pool;
      for (int T = 0; T != Threads; ++T)
        Pool.push_back(Thread::spawn([&] { X.fetchAdd(1); }));
      for (Thread &T : Pool)
        T.join();
    });
    return R.Trace;
  };
  const TraceSnapshot A = Trace(2);
  const TraceSnapshot B = Trace(3);
  const TraceDivergence Div = diffTraces(A, B);
  EXPECT_TRUE(Div.Diverged);
  EXPECT_FALSE(Div.Summary.empty());
  EXPECT_FALSE(Div.Excerpt.empty());
  // Identity is reflexive.
  EXPECT_FALSE(diffTraces(A, A).Diverged);
}

//===----------------------------------------------------------------------===//
// Desync reports carry a timeline excerpt
//===----------------------------------------------------------------------===//

TEST(TraceDesync, HardDesyncReportCarriesTimeline) {
  Demo D;
  {
    SessionConfig C = tracedConfig(StrategyKind::Queue, Mode::Record);
    Session S(C);
    RunReport R = S.run([] {
      (void)sys::clockNs();
      (void)sys::clockNs();
    });
    D = R.RecordedDemo;
  }
  SessionConfig C = tracedConfig(StrategyKind::Queue, Mode::Replay);
  C.ReplayDemo = &D;
  Session S(C);
  const bool QuietWas = quietWarnings(true);
  RunReport R = S.run([] {
    (void)sys::socket(); // demo says clock: SYSCALL kind mismatch
  });
  quietWarnings(QuietWas);
  ASSERT_EQ(R.Desync, DesyncKind::Hard);
  EXPECT_FALSE(R.DesyncInfo.Timeline.empty());
  // The excerpt names at least one event near the divergence tick.
  EXPECT_NE(R.DesyncInfo.Timeline.find("tick"), std::string::npos);
}

TEST(TraceDesync, TruncatedDemoReportCarriesTimeline) {
  Demo D;
  uint64_t Ticks = 0;
  {
    SessionConfig C = tracedConfig(StrategyKind::Queue, Mode::Record);
    Session S(C);
    RunReport R = S.run([] {
      Atomic<int> X(0);
      Thread T = Thread::spawn([&] {
        for (int I = 0; I != 20; ++I)
          X.fetchAdd(1);
      });
      for (int I = 0; I != 20; ++I)
        X.fetchAdd(1);
      T.join();
    });
    D = R.RecordedDemo;
    Ticks = R.Sched.Ticks;
  }
  // Cut the demo to a prefix and declare the truncation, as salvage does.
  std::vector<uint8_t> Q = D.stream(StreamKind::Queue);
  Q.resize(Q.size() / 2);
  D.setStream(StreamKind::Queue, Q);
  D.setStream(StreamKind::Syscall, {});
  D.markTruncated(Ticks / 2);

  SessionConfig C = tracedConfig(StrategyKind::Queue, Mode::Replay);
  C.ReplayDemo = &D;
  Session S(C);
  const bool QuietWas = quietWarnings(true);
  RunReport R = S.run([] {
    Atomic<int> X(0);
    Thread T = Thread::spawn([&] {
      for (int I = 0; I != 20; ++I)
        X.fetchAdd(1);
    });
    for (int I = 0; I != 20; ++I)
      X.fetchAdd(1);
    T.join();
  });
  quietWarnings(QuietWas);
  ASSERT_NE(R.DesyncInfo.Kind, DesyncKind::None);
  EXPECT_FALSE(R.DesyncInfo.Timeline.empty());
}

//===----------------------------------------------------------------------===//
// JSON exports
//===----------------------------------------------------------------------===//

TEST(TraceExport, ChromeTraceJsonIsStructurallyValid) {
  SessionConfig C = tracedConfig(StrategyKind::Queue, Mode::Free);
  const std::string Path = ::testing::TempDir() + "tsr-trace-export.json";
  C.Trace.ExportChromePath = Path;
  Session S(C);
  Atomic<int> X(0);
  RunReport R = S.run([&] {
    Thread T = Thread::spawn([&] { X.store(1); });
    (void)sys::clockNs();
    T.join();
  });
  const std::string Json = chromeTraceJson(R.Trace);
  EXPECT_TRUE(validJson(Json)) << Json.substr(0, 200);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\""), std::string::npos);
  EXPECT_NE(Json.find("syscall"), std::string::npos);

  // The session wrote the same export to the configured path.
  FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  std::string OnDisk;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    OnDisk.append(Buf, N);
  std::fclose(F);
  EXPECT_EQ(OnDisk, Json);
  std::remove(Path.c_str());
}

TEST(TraceExport, DemoTimelineJsonIsStructurallyValid) {
  Demo D;
  {
    SessionConfig C = tracedConfig(StrategyKind::Queue, Mode::Record);
    Session S(C);
    RunReport R = S.run([] {
      Atomic<int> X(0);
      Thread T = Thread::spawn([&] { X.fetchAdd(1); });
      T.join();
    });
    D = R.RecordedDemo;
  }
  const DemoInfo Info = inspectDemo(D);
  ASSERT_GT(Info.Schedule.size(), 0u);
  const std::string Json = demoTimelineJson(Info);
  EXPECT_TRUE(validJson(Json)) << Json.substr(0, 200);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"run\""), std::string::npos);
}

TEST(TraceExport, FormatTraceEventAndExcerpt) {
  TraceEvent E;
  E.Tick = 42;
  E.Thread = 1;
  E.Kind = TraceEventKind::SyscallEnter;
  E.A = 5;
  const std::string Line = formatTraceEvent(E);
  EXPECT_NE(Line.find("42"), std::string::npos);
  EXPECT_NE(Line.find("syscall-enter"), std::string::npos);

  TraceSnapshot S;
  for (uint64_t T = 0; T != 20; ++T) {
    TraceEvent Ev;
    Ev.Seq = T;
    Ev.Tick = T;
    Ev.Thread = 0;
    Ev.Kind = TraceEventKind::Tick;
    S.Events.push_back(Ev);
  }
  const std::string Excerpt = excerptAround(S, 10, 2);
  EXPECT_FALSE(Excerpt.empty());
  // Only ticks 8..12 are within the window.
  EXPECT_EQ(Excerpt.find("[tick 5]"), std::string::npos);
  EXPECT_NE(Excerpt.find("[tick 10]"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST(Metrics, SnapshotBasics) {
  MetricsSnapshot M;
  EXPECT_TRUE(M.empty());
  M.counter("a.one", 1);
  M.counter("a.two", 2);
  M.counter("a.one", 10); // overwrite, not append
  M.gauge("g.pi", 3.5);
  EXPECT_FALSE(M.empty());
  EXPECT_EQ(M.counterOr("a.one", 0), 10u);
  EXPECT_EQ(M.counterOr("missing", 7), 7u);
  EXPECT_TRUE(M.hasCounter("a.two"));
  EXPECT_FALSE(M.hasCounter("a.three"));
  EXPECT_DOUBLE_EQ(M.gaugeOr("g.pi", 0), 3.5);
  EXPECT_EQ(M.counters().size(), 2u);

  SampleStats &H = M.histogram("h.lat", 4);
  for (int I = 1; I <= 8; ++I)
    H.add(I);
  const std::string Json = M.toJson();
  EXPECT_TRUE(validJson(Json)) << Json;
  EXPECT_NE(Json.find("\"a.one\":10"), std::string::npos);
  EXPECT_NE(Json.find("\"h.lat\""), std::string::npos);
  EXPECT_NE(Json.find("\"buckets\""), std::string::npos);
}

TEST(Metrics, JsonEscaping) {
  MetricsSnapshot M;
  M.counter("weird\"name\\with\ncontrol\x01", 1);
  const std::string Json = M.toJson();
  EXPECT_TRUE(validJson(Json)) << Json;
  EXPECT_NE(Json.find("\\\"name\\\\"), std::string::npos);
  EXPECT_NE(Json.find("\\n"), std::string::npos);
  EXPECT_NE(Json.find("\\u0001"), std::string::npos);
}

TEST(Metrics, SampleStatsHistogramAndJson) {
  SampleStats S;
  for (int I = 0; I != 100; ++I)
    S.add(I);
  const auto Buckets = S.histogram(10);
  ASSERT_EQ(Buckets.size(), 10u);
  size_t Total = 0;
  for (const SampleStats::Bucket &B : Buckets) {
    EXPECT_LE(B.Lo, B.Hi);
    Total += B.Count;
  }
  EXPECT_EQ(Total, 100u); // every sample lands in exactly one bucket
  const std::string Json = S.toJson(10);
  EXPECT_TRUE(validJson(Json)) << Json;
  EXPECT_NE(Json.find("\"count\":100"), std::string::npos);

  // Degenerate cases: empty and constant samples.
  SampleStats Empty;
  EXPECT_TRUE(Empty.histogram(4).empty());
  EXPECT_TRUE(validJson(Empty.toJson()));
  SampleStats Constant;
  Constant.add(5);
  Constant.add(5);
  ASSERT_EQ(Constant.histogram(4).size(), 1u);
  EXPECT_EQ(Constant.histogram(4)[0].Count, 2u);
}

TEST(Metrics, RunReportSnapshotMatchesLegacyStructs) {
  SessionConfig C = tracedConfig(StrategyKind::Queue, Mode::Record);
  Session S(C);
  RunReport R = S.run([] {
    Atomic<int> X(0);
    Thread T = Thread::spawn([&] {
      X.store(1, std::memory_order_release);
      (void)sys::clockNs();
    });
    while (X.load(std::memory_order_acquire) == 0) {
    }
    T.join();
  });
  EXPECT_EQ(R.Metrics.counterOr("sched.ticks", 0), R.Sched.Ticks);
  EXPECT_EQ(R.Metrics.counterOr("atomics.loads", 0), R.Atomics.Loads);
  EXPECT_EQ(R.Metrics.counterOr("atomics.stores", 0), R.Atomics.Stores);
  EXPECT_EQ(R.Metrics.counterOr("syscalls.issued", 0), R.SyscallsIssued);
  EXPECT_EQ(R.Metrics.counterOr("faults.errnos_injected", 0),
            R.FaultsInjected.ErrnosInjected);
  EXPECT_EQ(R.Metrics.counterOr("races.reported", 0), R.Races.size());
  EXPECT_EQ(R.Metrics.counterOr("trace.events", 0), R.Trace.Emitted);
  EXPECT_GT(R.Metrics.gaugeOr("run.wall_seconds", -1), 0.0);
  EXPECT_TRUE(validJson(R.Metrics.toJson()));
}
