//===-- perfbench/src/Probes.cpp - Per-layer wrapper probes --------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Each probe is a short session that calls one wrapper operation many
// times and times 1 in ProbeEvery calls with steady_clock. The probe
// session records with the workload's own configuration; its demo is then
// replayed so the pipe probe is timed on both sides of the SYSCALL
// stream. The timing itself is invisible to the scheduler, so the replay
// makes exactly the recorded visible operations.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <filesystem>
#include <memory>

using namespace tsr;

namespace perfbench {
namespace {

constexpr int ProbeOpsPerThread = 2000;
constexpr int ProbeEvery = 4;
constexpr int SpawnJoinPairs = 64;
constexpr int PipePairs = 1000;
constexpr size_t PipeMessageBytes = 64;
constexpr int ExploreProbeRuns = 200;
constexpr int DemoProbeReps = 5;

double nsSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - T0).count();
}

struct ThreadTimes {
  Samples RmwNs;
  Samples MutexPairNs;
  Samples VarRwNs;
};

struct ProbeTimes {
  Samples SpawnJoinUs;
  Samples PipeRwNs;
  std::vector<ThreadTimes> PerThread;
  uint64_t Counter = 0;
};

/// The controlled main thread of a probe session.
void probeBody(int Threads, ProbeTimes &Out) {
  for (int I = 0; I != SpawnJoinPairs; ++I) {
    const auto T0 = Clock::now();
    Thread T = Thread::spawn([] {});
    T.join();
    Out.SpawnJoinUs.add(nsSince(T0) / 1e3);
  }

  Atomic<uint64_t> Counter(0);
  Mutex Mu;
  std::vector<Thread> Workers;
  for (int W = 0; W != Threads; ++W)
    Workers.push_back(Thread::spawn([&, W] {
      ThreadTimes &T = Out.PerThread[W];
      alignas(64) Var<uint64_t> Local(0);
      for (int I = 0; I != ProbeOpsPerThread; ++I) {
        const bool Timed = I % ProbeEvery == 0;
        auto T0 = Clock::now();
        Counter.fetchAdd(1);
        if (Timed)
          T.RmwNs.add(nsSince(T0));
        T0 = Clock::now();
        Mu.lock();
        Mu.unlock();
        if (Timed)
          T.MutexPairNs.add(nsSince(T0));
        T0 = Clock::now();
        Local.set(Local.get() + 1);
        if (Timed)
          T.VarRwNs.add(nsSince(T0));
      }
    }));
  for (Thread &W : Workers)
    W.join();
  Out.Counter = Counter.load();

  int Fds[2] = {-1, -1};
  if (sys::pipe(Fds) != 0)
    return;
  std::vector<uint8_t> Buf(PipeMessageBytes, 0x5A);
  for (int I = 0; I != PipePairs; ++I) {
    const auto T0 = Clock::now();
    sys::write(Fds[1], Buf.data(), Buf.size());
    sys::read(Fds[0], Buf.data(), Buf.size());
    if (I % 2 == 0)
      Out.PipeRwNs.add(nsSince(T0));
  }
  sys::close(Fds[0]);
  sys::close(Fds[1]);
}

bool healthy(const RunReport &R) {
  return !R.Deadlocked && !R.StallSalvaged && R.Desync == DesyncKind::None;
}

} // namespace

void runProbes(const ProbeSpec &Spec, Layers &L, Report &R) {
  SessionConfig C = Spec.Config;
  C.ExecMode = Mode::Record;
  C.Flush = RecordFlushPolicy();
  C.Trace = TraceOptions();

  ProbeTimes Rec;
  Rec.PerThread.resize(static_cast<size_t>(Spec.Threads));
  RunReport RecReport;
  {
    Session S(C);
    RecReport = S.run([&] { probeBody(Spec.Threads, Rec); });
  }
  const uint64_t Expected =
      static_cast<uint64_t>(Spec.Threads) * ProbeOpsPerThread;
  R.check(healthy(RecReport) && Rec.Counter == Expected,
          "probe session records cleanly");

  SessionConfig RC = C;
  RC.ExecMode = Mode::Replay;
  RC.ReplayDemo = &RecReport.RecordedDemo;
  ProbeTimes Rep;
  Rep.PerThread.resize(static_cast<size_t>(Spec.Threads));
  RunReport RepReport;
  {
    Session S(RC);
    RepReport = S.run([&] { probeBody(Spec.Threads, Rep); });
  }
  R.check(healthy(RepReport) && RepReport.Sched.Ticks == RecReport.Sched.Ticks,
          "probe session replays without desync");

  Samples Rmw, MutexPair, VarRw;
  for (const ThreadTimes &T : Rec.PerThread) {
    Rmw.append(T.RmwNs);
    MutexPair.append(T.MutexPairNs);
    VarRw.append(T.VarRwNs);
  }
  const std::string Threads = std::to_string(Spec.Threads) + " threads";
  R.metric("runtime.spawn_join_us.p50", Rec.SpawnJoinUs.median(), "us",
           "n=" + std::to_string(Rec.SpawnJoinUs.size()));
  R.metric("sched.rmw_ns.p50", Rmw.percentile(50), "ns", Threads);
  R.metric("sched.rmw_ns.p90", Rmw.percentile(90), "ns", Threads);
  R.metric("sched.mutex_pair_ns.p50", MutexPair.percentile(50), "ns", Threads);
  R.metric("sched.mutex_pair_ns.p90", MutexPair.percentile(90), "ns", Threads);
  R.metric("race.var_rw_ns.p50", VarRw.percentile(50), "ns", Threads);
  R.metric("env.pipe_rw_ns.record.p50", Rec.PipeRwNs.median(), "ns",
           "n=" + std::to_string(Rec.PipeRwNs.size()));
  R.metric("env.pipe_rw_ns.replay.p50", Rep.PipeRwNs.median(), "ns",
           "n=" + std::to_string(Rep.PipeRwNs.size()));

  if (Spec.ExploreProbe) {
    ExploreOptions EO;
    EO.Base = Spec.Config;
    EO.Base.ExecMode = Mode::Free;
    EO.Base.Flush = RecordFlushPolicy();
    EO.Base.Trace = TraceOptions();
    EO.Runs = ExploreProbeRuns;
    EO.SeedBase = Spec.Config.Seed0;
    const int Threads = Spec.Threads;
    const auto T0 = Clock::now();
    ExploreResult X = explore(EO, [Threads] {
      Atomic<uint64_t> Counter(0);
      Mutex Mu;
      std::vector<Thread> Workers;
      for (int W = 0; W != Threads; ++W)
        Workers.push_back(Thread::spawn([&] {
          for (int I = 0; I != 8; ++I) {
            Counter.fetchAdd(1);
            LockGuard G(Mu);
          }
        }));
      for (Thread &W : Workers)
        W.join();
      return Counter.load();
    });
    L.ExploreUsPerSchedule = secondsSince(T0) * 1e6 / ExploreProbeRuns;
    R.check(X.Runs == ExploreProbeRuns && X.Outcomes.size() == 1,
            "explore probe runs every schedule to the same outcome");
  }

  Samples SaveMs, VerifyMs, LoadMs;
  const std::string Dir = Spec.WorkDir + "/probe-demo";
  for (int Rep = 0; Rep != DemoProbeReps; ++Rep) {
    std::filesystem::remove_all(Dir);
    std::string Err;
    auto T0 = Clock::now();
    const bool Saved = L.ProbeDemo.saveToDirectory(Dir, Err);
    SaveMs.add(secondsSince(T0) * 1e3);
    std::array<Demo::StreamCheck, NumStreamKinds> Checks;
    T0 = Clock::now();
    const bool Verified = Saved && Demo::verifyDirectory(Dir, Checks, Err);
    VerifyMs.add(secondsSince(T0) * 1e3);
    Demo Loaded;
    T0 = Clock::now();
    const bool LoadedOk = Verified && Loaded.loadFromDirectory(Dir, Err);
    LoadMs.add(secondsSince(T0) * 1e3);
    R.check(LoadedOk && streamSizes(Loaded) == streamSizes(L.ProbeDemo),
            "workload demo saves, verifies and loads back intact " + Err);
  }
  std::filesystem::remove_all(Dir);
  const std::string Bytes = std::to_string(L.ProbeDemo.totalSize()) +
                            " B, n=" + std::to_string(DemoProbeReps);
  R.metric("support.demo_save_ms", SaveMs.median(), "ms", Bytes);
  R.metric("support.demo_verify_ms", VerifyMs.median(), "ms", Bytes);
  R.metric("support.demo_load_ms", LoadMs.median(), "ms", Bytes);
}

} // namespace perfbench
