//===-- perfbench/src/Workloads.cpp - The four benchmark workloads -------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Every workload is a closed loop of iterations run in this one process.
// One warm-up iteration is run and discarded, then iterations repeat
// until Options::Seconds have elapsed; all timings are medians over the
// measured iterations. Every iteration of a run uses the same inputs and
// session seeds (all derived from --seed), which is what lets the
// determinism ledger compare iterations field by field. In a per-layer
// run, even iterations are traced and odd ones are not, so the trace
// overhead is measured on the same workload in the same run.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/httpd/Httpd.h"
#include "apps/litmus/Litmus.h"
#include "apps/pbzip/Pbzip.h"
#include "runtime/SessionPool.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>

using namespace tsr;

namespace perfbench {
namespace {

constexpr size_t MinIterations = 3;

/// End-to-end samples, one per measured untraced iteration unless noted.
struct EndToEnd {
  Samples SetupS;
  Samples RecordOpsPerS;
  Samples ReplayOpsPerS;
  Samples RecordSlowdownX;
  Samples DemoBytesPerOp;
  Samples SessionsPerS;
  Samples SessionMs; ///< One per session (see each workload).
  Samples PeakRssMb;

  void emit(Report &R) const {
    const std::string N = "n=" + std::to_string(SetupS.size());
    R.metric("setup_s", SetupS.median(), "s", N);
    R.metric("record_ops_per_s", RecordOpsPerS.median(), "1/s", N);
    R.metric("replay_ops_per_s", ReplayOpsPerS.median(), "1/s", N);
    R.metric("record_slowdown_x", RecordSlowdownX.median(), "x", N);
    R.metric("demo_bytes_per_op", DemoBytesPerOp.median(), "B", N);
    R.metric("sessions_per_s", SessionsPerS.median(), "1/s", N);
    const std::string NS = "n=" + std::to_string(SessionMs.size());
    R.metric("session_ms.p50", SessionMs.percentile(50), "ms", NS);
    R.metric("session_ms.p90", SessionMs.percentile(90), "ms", NS);
    R.metric("peak_rss_mb", PeakRssMb.median(), "MB",
             "n=" + std::to_string(PeakRssMb.size()));
  }
};

/// Runs one warm-up iteration, then measured ones until the run's time is
/// up, recording each untraced iteration's peak resident memory.
/// \p Iteration(Measured, Traced).
template <typename Fn>
void loop(const Options &O, EndToEnd &E, Fn &&Iteration) {
  Iteration(false, false);
  const auto T0 = Clock::now();
  for (size_t I = 0; I < MinIterations || secondsSince(T0) < O.Seconds; ++I) {
    const bool Traced = O.Trace && I % 2 == 0;
    resetPeakRss();
    Iteration(true, Traced);
    if (!Traced)
      E.PeakRssMb.add(peakRssMb());
  }
}

/// One session's outcome with the wall time spent outside and inside
/// Session::run, timed from here.
struct Timed {
  RunReport Report;
  double SetupS = 0; ///< Construction + world setup + teardown.
  double CtorS = 0;
  double WorldS = 0;
  double RunS = 0;
};

Timed runSession(const SessionConfig &C,
                 const std::function<void(Session &)> &World,
                 const std::function<void()> &Body) {
  Timed T;
  auto T0 = Clock::now();
  auto S = std::make_unique<Session>(C);
  T.CtorS = secondsSince(T0);
  T0 = Clock::now();
  if (World)
    World(*S);
  T.WorldS = secondsSince(T0);
  T0 = Clock::now();
  T.Report = S->run(Body);
  T.RunS = secondsSince(T0);
  T0 = Clock::now();
  S.reset();
  T.SetupS = T.CtorS + T.WorldS + secondsSince(T0);
  return T;
}

bool healthy(const RunReport &R) {
  return !R.Deadlocked && !R.StallSalvaged && R.Desync == DesyncKind::None;
}

std::string why(const RunReport &R) {
  if (R.Deadlocked)
    return " (deadlock)";
  if (R.StallSalvaged)
    return " (watchdog salvage)";
  if (R.Desync != DesyncKind::None)
    return " (desync: " + R.DesyncInfo.Message + ")";
  return "";
}

Fingerprint fingerprint(const RunReport &R) {
  return {R.Sched.Ticks, streamSizes(R.RecordedDemo), R.SyscallsRecorded};
}

void addFingerprint(Fingerprint &Into, const Fingerprint &F) {
  Into.Ticks += F.Ticks;
  for (unsigned I = 0; I != NumStreamKinds; ++I)
    Into.Bytes[I] += F.Bytes[I];
  Into.SyscallsRecorded += F.SyscallsRecorded;
}

/// Controlled-session configuration shared by every workload: the
/// tsan11rec random-strategy preset with wall-clock liveness off, since
/// liveness reschedules inject extra ticks into slower runs.
SessionConfig controlled(Mode M, RecordPolicy Policy, uint64_t Seed,
                         uint64_t Index) {
  SessionConfig C = presets::tsan11rec(StrategyKind::Random, M, Policy);
  C.LivenessIntervalMs = 0;
  seedSession(C, Seed, Index);
  return C;
}

SessionConfig native(uint64_t Seed, uint64_t Index) {
  SessionConfig C = presets::native();
  seedSession(C, Seed, Index);
  return C;
}

SessionConfig replayOf(SessionConfig C, const Demo &D) {
  C.ExecMode = Mode::Replay;
  C.ReplayDemo = &D;
  C.Flush = RecordFlushPolicy();
  C.Trace = TraceOptions();
  return C;
}

void noteLedger(const Ledger &L) {
  std::printf("  ledger over %zu iterations: ticks %s, demo bytes %s, "
              "recorded syscalls %s\n",
              L.size(), L.ticksExact() ? "exact" : "VARY",
              L.bytesExact() ? "exact" : "VARY",
              L.syscallsExact() ? "exact" : "VARY");
}

/// Books one measured native -> record -> replay round trip of pbzip-rr or
/// httpd-rr. \p BetweenS is set-up work between the sessions (demo verify
/// and load); \p IterS is the whole iteration's wall time.
void bookRoundTrip(const Timed &N, const Timed &Rr, const Timed &Rp,
                   double BetweenS, double IterS, bool Traced, EndToEnd &E,
                   Layers &L, Ledger &Led) {
  const RunReport &RR = Rr.Report;
  const double Ticks = static_cast<double>(RR.Sched.Ticks);
  Led.add(fingerprint(RR));
  if (Traced) {
    L.Spans.add(RR.Trace);
    L.TracedWallS.add(Rr.RunS);
    L.ProbeDemo = RR.RecordedDemo;
  } else {
    L.PlainWallS.add(Rr.RunS);
    E.SetupS.add(N.SetupS + Rr.SetupS + BetweenS + Rp.SetupS);
    E.RecordOpsPerS.add(Ticks / Rr.RunS);
    E.ReplayOpsPerS.add(static_cast<double>(Rp.Report.Sched.Ticks) / Rp.RunS);
    E.RecordSlowdownX.add(Rr.RunS / N.RunS);
    E.DemoBytesPerOp.add(static_cast<double>(RR.RecordedDemo.totalSize()) /
                         Ticks);
    E.SessionsPerS.add(1.0 / IterS);
    E.SessionMs.add(Rr.RunS * 1e3);
  }
  for (const Timed *T : {&N, &Rr, &Rp}) {
    L.SessionCtorUs.add(T->CtorS * 1e6);
    L.WorldSetupUs.add(T->WorldS * 1e6);
  }
  L.Counters = RR.Metrics;
  L.SyscallsReplayed = Rp.Report.SyscallsReplayed;
  L.DemoBytes = streamSizes(RR.RecordedDemo);
  L.RacesPerSchedule = RR.Races.empty() ? 0.0 : 1.0;
}

/// Finishes a run: the end-to-end metrics, or the probes and the
/// per-layer metrics.
void finish(const Options &O, const EndToEnd &E, Layers &L, const Ledger &Led,
            ProbeSpec Probe, Report &R) {
  noteLedger(Led);
  if (!O.Trace) {
    E.emit(R);
    return;
  }
  Probe.WorkDir = O.WorkDir;
  runProbes(Probe, L, R);
  emitLayers(L, Led, R);
}

// --- pbzip-rr ---------------------------------------------------------------

constexpr size_t PbzipInputBytes = 2400 * 1024;
constexpr int PbzipThreads = 4;

/// Compressible seeded text: words drawn from a fixed vocabulary with
/// seeded numbers mixed in, so blocks compress but differ.
std::vector<uint8_t> pbzipInput(uint64_t Seed) {
  static const char *const Words[] = {
      "record", "replay", "sparse", "schedule", "thread",  "visible",
      "demo",   "tick",   "queue",  "signal",   "syscall", "race",
      "mutex",  "atomic", "load",   "store",    "fence",   "happens",
      "before", "epoch",  "clock",  "vector",   "shadow",  "granule"};
  constexpr uint64_t NumWords = sizeof(Words) / sizeof(Words[0]);
  std::vector<uint8_t> Out;
  Out.reserve(PbzipInputBytes);
  uint64_t State = Seed;
  while (Out.size() < PbzipInputBytes) {
    State = mix(State, 0);
    const char *W = Words[State % NumWords];
    Out.insert(Out.end(), W, W + std::strlen(W));
    if ((State >> 8) % 7 == 0) {
      const std::string Num = std::to_string((State >> 16) % 100000);
      Out.insert(Out.end(), Num.begin(), Num.end());
    }
    Out.push_back((State >> 32) % 11 == 0 ? '\n' : ' ');
  }
  Out.resize(PbzipInputBytes);
  return Out;
}

} // namespace

void runPbzipRr(const Options &O, Report &R) {
  const std::vector<uint8_t> Input = pbzipInput(mix(O.Seed, 1000));
  pbzip::PbzipConfig PC;
  PC.Threads = PbzipThreads;
  const SessionConfig Rec = controlled(Mode::Record, RecordPolicy::full(),
                                       O.Seed, 0);
  const SessionConfig Nat = native(O.Seed, 0);
  const std::string Dir = O.WorkDir + "/pbzip-demo";
  auto World = [&](Session &S) { S.env().putFile(PC.InputPath, Input); };
  std::printf("pbzip-rr: %zu B input, %d compressors, %zu B blocks, "
              "full record policy, demo flushed to disk\n",
              Input.size(), PC.Threads, PC.BlockSize);

  EndToEnd E;
  Layers L;
  Ledger Led;
  loop(O, E, [&](bool Measured, bool Traced) {
    const auto IterT0 = Clock::now();
    pbzip::PbzipResult NatOut, RecOut, RepOut;
    Timed N = runSession(Nat, World,
                         [&] { NatOut = pbzip::compressFile(PC); });
    R.check(healthy(N.Report) && NatOut.BytesIn == Input.size(),
            "pbzip native run" + why(N.Report));

    std::filesystem::remove_all(Dir);
    SessionConfig RC = Rec;
    RC.Flush.Directory = Dir;
    if (Traced)
      RC.Trace = traceOptions(size_t(1) << 16);
    Timed Rr = runSession(RC, World, [&] { RecOut = pbzip::compressFile(PC); });
    const RunReport &RR = Rr.Report;
    R.check(healthy(RR), "pbzip record" + why(RR));
    R.check(RecOut.OutputHash == NatOut.OutputHash,
            "pbzip output hash equal in native and record");

    std::string Err;
    std::array<Demo::StreamCheck, NumStreamKinds> Checks;
    auto T0 = Clock::now();
    bool Verified = Demo::verifyDirectory(Dir, Checks, Err);
    const double VerifyS = secondsSince(T0);
    for (const Demo::StreamCheck &C : Checks)
      Verified &= C.Present && C.Closed;
    R.check(Verified, "pbzip demo verifies " + Err);
    Demo D;
    T0 = Clock::now();
    const bool Loaded = D.loadFromDirectory(Dir, Err);
    const double LoadS = secondsSince(T0);
    R.check(Loaded && !D.truncated(), "pbzip demo loads " + Err);
    if (!Loaded)
      return;

    Timed Rp = runSession(replayOf(Rec, D), World,
                          [&] { RepOut = pbzip::compressFile(PC); });
    R.check(healthy(Rp.Report) && Rp.Report.Sched.Ticks == RR.Sched.Ticks,
            "pbzip replay" + why(Rp.Report));
    R.check(RepOut.OutputHash == RecOut.OutputHash,
            "pbzip output hash equal in record and replay");
    std::filesystem::remove_all(Dir);
    if (!Measured)
      return;

    bookRoundTrip(N, Rr, Rp, VerifyS + LoadS, secondsSince(IterT0), Traced,
                  E, L, Led);
  });

  ProbeSpec Probe;
  Probe.Config = Rec;
  Probe.Threads = PbzipThreads;
  finish(O, E, L, Led, std::move(Probe), R);
}

// --- httpd-rr ---------------------------------------------------------------

namespace {

constexpr int HttpdWorkers = 4;
constexpr int HttpdConnections = 4;
constexpr int HttpdRequestsPerConnection = 2400;

httpd::HttpdConfig httpdConfig(int Workers, int Connections, int PerConn) {
  httpd::HttpdConfig HC;
  HC.Workers = Workers;
  HC.Connections = Connections;
  HC.TotalRequests = Connections * PerConn;
  return HC;
}

std::function<void(Session &)> loadGenWorld(const httpd::HttpdConfig &HC) {
  return [HC](Session &S) {
    S.env().addPeer("ab",
                    httpd::makeLoadGen(HC.Port, HC.Connections,
                                       HC.TotalRequests / HC.Connections));
  };
}

} // namespace

void runHttpdRr(const Options &O, Report &R) {
  const httpd::HttpdConfig HC = httpdConfig(
      HttpdWorkers, HttpdConnections, HttpdRequestsPerConnection);
  const SessionConfig Rec = controlled(Mode::Record, RecordPolicy::httpd(),
                                       O.Seed, 0);
  const SessionConfig Nat = native(O.Seed, 0);
  const auto World = loadGenWorld(HC);
  std::printf("httpd-rr: %d workers, closed-loop load generator with %d "
              "connections x %d requests, httpd record policy, demo in "
              "memory\n",
              HC.Workers, HC.Connections, HttpdRequestsPerConnection);

  EndToEnd E;
  Layers L;
  Ledger Led;
  loop(O, E, [&](bool Measured, bool Traced) {
    const auto IterT0 = Clock::now();
    httpd::HttpdResult NatOut, RecOut, RepOut;
    Timed N = runSession(Nat, World, [&] { NatOut = httpd::runServer(HC); });
    R.check(healthy(N.Report) && NatOut.Served == HC.TotalRequests,
            "httpd native run serves every request" + why(N.Report));

    SessionConfig RC = Rec;
    if (Traced)
      RC.Trace = traceOptions(size_t(1) << 18);
    Timed Rr = runSession(RC, World, [&] { RecOut = httpd::runServer(HC); });
    const RunReport &RR = Rr.Report;
    R.check(healthy(RR) && RecOut.Served == HC.TotalRequests,
            "httpd record serves every request" + why(RR));

    Timed Rp = runSession(replayOf(Rec, RR.RecordedDemo), World,
                          [&] { RepOut = httpd::runServer(HC); });
    R.check(healthy(Rp.Report) && Rp.Report.Sched.Ticks == RR.Sched.Ticks &&
                RepOut.Served == HC.TotalRequests,
            "httpd replay" + why(Rp.Report));
    R.check(RepOut.PayloadHash == RecOut.PayloadHash,
            "httpd payload hash equal in record and replay");
    if (!Measured)
      return;

    bookRoundTrip(N, Rr, Rp, 0.0, secondsSince(IterT0), Traced, E, L, Led);
  });

  ProbeSpec Probe;
  Probe.Config = Rec;
  Probe.Threads = HttpdWorkers;
  finish(O, E, L, Led, std::move(Probe), R);
}

// --- litmus-explore ---------------------------------------------------------

namespace {

constexpr int LitmusRunsPerProgram = 400;
/// Recorded schedules per program (their own seeds, not the sweep's).
constexpr size_t LitmusReproducers = 4;
constexpr int LitmusProbeThreads = 2;

} // namespace

void runLitmusExplore(const Options &O, Report &R) {
  const std::vector<litmus::LitmusTest> &Suite = litmus::suite();
  std::printf("litmus-explore: explore() over %zu litmus programs, %d "
              "schedules each, Free mode, race detection and weak memory "
              "on; %zu reproducers per program recorded and replayed\n",
              Suite.size(), LitmusRunsPerProgram, LitmusReproducers);

  EndToEnd E;
  Layers L;
  Ledger Led;
  uint64_t SweepSchedules = 0, SweepRacy = 0;
  double SweepS = 0;
  loop(O, E, [&](bool Measured, bool Traced) {
    double ExploreS = 0, SetupS = 0, RecS = 0, RepS = 0, NatS = 0;
    uint64_t RecTicks = 0, RepTicks = 0, DemoBytes = 0, Racy = 0;
    uint64_t Unique = 0;
    Fingerprint Sum;
    MetricsSnapshot Counters;
    uint64_t Replayed = 0;
    for (size_t P = 0; P != Suite.size(); ++P) {
      const litmus::LitmusTest &Test = Suite[P];
      ExploreOptions EO;
      EO.Base = controlled(Mode::Free, RecordPolicy::none(), O.Seed, 0);
      EO.Runs = LitmusRunsPerProgram;
      EO.SeedBase = mix(O.Seed, 2000 + P) | 1;
      const auto T0 = Clock::now();
      const ExploreResult X = explore(EO, [&Test] {
        Test.Body();
        return uint64_t(0);
      });
      const double S = secondsSince(T0);
      R.check(X.Runs == LitmusRunsPerProgram,
              "litmus " + Test.Name + " explores every schedule");
      ExploreS += S;
      Racy += static_cast<uint64_t>(X.RacyRuns);
      Unique += X.UniqueRaces.size();

      // Reproducers: schedules of the program recorded, replayed, and run
      // natively for the slowdown.
      for (size_t K = 0; K != LitmusReproducers; ++K) {
        const uint64_t Index = 100 + P * LitmusReproducers + K;
        Timed N = runSession(native(O.Seed, Index), nullptr, Test.Body);
        R.check(healthy(N.Report),
                "litmus " + Test.Name + " native run" + why(N.Report));
        const SessionConfig Rec =
            controlled(Mode::Record, RecordPolicy::none(), O.Seed, Index);
        SessionConfig RC = Rec;
        if (Traced)
          RC.Trace = traceOptions(size_t(1) << 12);
        Timed Rr = runSession(RC, nullptr, Test.Body);
        const RunReport &RR = Rr.Report;
        R.check(healthy(RR), "litmus " + Test.Name + " record" + why(RR));
        Timed Rp = runSession(replayOf(Rec, RR.RecordedDemo), nullptr,
                              Test.Body);
        R.check(healthy(Rp.Report) && Rp.Report.Sched.Ticks == RR.Sched.Ticks,
                "litmus " + Test.Name + " replay" + why(Rp.Report));

        SetupS += N.SetupS + Rr.SetupS + Rp.SetupS;
        NatS += N.RunS;
        RecS += Rr.RunS;
        RepS += Rp.RunS;
        RecTicks += RR.Sched.Ticks;
        RepTicks += Rp.Report.Sched.Ticks;
        DemoBytes += RR.RecordedDemo.totalSize();
        addFingerprint(Sum, fingerprint(RR));
        sumCounters(Counters, RR.Metrics);
        Replayed += Rp.Report.SyscallsReplayed;
        if (Measured && !Traced)
          E.SessionMs.add(Rr.RunS * 1e3);
        if (Measured) {
          for (const Timed *T : {&N, &Rr, &Rp})
            L.SessionCtorUs.add(T->CtorS * 1e6);
          if (Traced)
            L.Spans.add(RR.Trace);
        }
        if (Traced)
          L.ProbeDemo = RR.RecordedDemo;
      }
    }
    if (!Measured)
      return;

    const uint64_t Schedules = Suite.size() * LitmusRunsPerProgram;
    Led.add(Sum);
    SweepSchedules += Schedules;
    SweepRacy += Racy;
    SweepS += ExploreS;
    if (Traced) {
      L.TracedWallS.add(RecS);
    } else {
      L.PlainWallS.add(RecS);
      E.SetupS.add(SetupS);
      E.RecordOpsPerS.add(static_cast<double>(RecTicks) / RecS);
      E.ReplayOpsPerS.add(static_cast<double>(RepTicks) / RepS);
      E.RecordSlowdownX.add(RecS / NatS);
      E.DemoBytesPerOp.add(static_cast<double>(DemoBytes) /
                           static_cast<double>(RecTicks));
      E.SessionsPerS.add(static_cast<double>(Schedules) / ExploreS);
    }
    L.Counters = Counters;
    L.SyscallsReplayed = Replayed;
    L.DemoBytes = Sum.Bytes;
    std::printf("  sweep: %llu schedules, %llu racy, %llu unique races, "
                "%.0f schedules/s\n",
                static_cast<unsigned long long>(Schedules),
                static_cast<unsigned long long>(Racy),
                static_cast<unsigned long long>(Unique),
                static_cast<double>(Schedules) / ExploreS);
  });
  L.RacesPerSchedule = SweepSchedules
                           ? static_cast<double>(SweepRacy) /
                                 static_cast<double>(SweepSchedules)
                           : 0.0;
  L.ExploreUsPerSchedule =
      SweepSchedules ? SweepS * 1e6 / static_cast<double>(SweepSchedules) : 0;
  Report::note("schedules_per_s", SweepS > 0 ? SweepSchedules / SweepS : 0,
               "1/s", "all measured sweeps (= sessions_per_s here)");
  Report::note("races_per_schedule", L.RacesPerSchedule, "ratio",
               "racy schedules / explored schedules");

  ProbeSpec Probe;
  Probe.Config = controlled(Mode::Record, RecordPolicy::none(), O.Seed, 0);
  Probe.Threads = LitmusProbeThreads;
  Probe.ExploreProbe = false;
  finish(O, E, L, Led, std::move(Probe), R);
}

// --- httpd-fleet ------------------------------------------------------------

namespace {

constexpr size_t FleetSessions = 256;
constexpr int FleetWorkers = 2;
constexpr int FleetConnections = 2;
constexpr int FleetRequestsPerConnection = 16;
/// Fleet sessions replayed and run natively after each fleet.
constexpr size_t FleetChecked = 16;

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

bool sameStreams(const std::string &DirA, const std::string &DirB) {
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const char *Name = streamName(static_cast<StreamKind>(I));
    const std::vector<uint8_t> A = readFile(DirA + "/" + Name);
    if (A.empty() || A != readFile(DirB + "/" + Name))
      return false;
  }
  return true;
}

std::string sessionName(size_t I) {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "httpd-%03zu", I);
  return Name;
}

} // namespace

void runHttpdFleet(const Options &O, Report &R) {
  const httpd::HttpdConfig HC = httpdConfig(FleetWorkers, FleetConnections,
                                            FleetRequestsPerConnection);
  const auto World = loadGenWorld(HC);
  const unsigned Concurrency = std::max(1u, std::thread::hardware_concurrency());
  auto Config = [&](size_t I) {
    return controlled(Mode::Record, RecordPolicy::httpd(), O.Seed, I);
  };
  const std::string Root = O.WorkDir + "/fleet";
  std::printf("httpd-fleet: SessionPool of %zu httpd record sessions (%d "
              "workers, %d connections x %d requests each), %u at a time, "
              "shared async demo writer\n",
              FleetSessions, HC.Workers, HC.Connections,
              FleetRequestsPerConnection, Concurrency);

  EndToEnd E;
  Layers L;
  Ledger Led;
  std::mutex WorldMu;
  loop(O, E, [&](bool Measured, bool Traced) {
    std::filesystem::remove_all(Root);
    std::vector<httpd::HttpdResult> Results(FleetSessions);
    Samples WorldUs;
    auto T0 = Clock::now();
    auto Pool = std::make_unique<SessionPool>([&] {
      SessionPool::Options PO;
      PO.Concurrency = Concurrency;
      PO.DemoRoot = Root;
      PO.FlushEveryTicks = 64;
      return PO;
    }());
    for (size_t I = 0; I != FleetSessions; ++I) {
      PoolSessionSpec Spec;
      Spec.Name = sessionName(I);
      Spec.Config = Config(I);
      if (Traced)
        Spec.Config.Trace = traceOptions(size_t(1) << 12);
      Spec.Setup = [&](Session &S) {
        const auto W0 = Clock::now();
        World(S);
        const double Us = secondsSince(W0) * 1e6;
        std::lock_guard<std::mutex> G(WorldMu);
        WorldUs.add(Us);
      };
      Spec.Body = [&Results, &HC, I] { Results[I] = httpd::runServer(HC); };
      Pool->submit(std::move(Spec));
    }
    double SetupS = secondsSince(T0);
    T0 = Clock::now();
    FleetReport F = Pool->runAll();
    const double FleetS = secondsSince(T0);
    T0 = Clock::now();
    Pool.reset();
    SetupS += secondsSince(T0);

    R.check(F.SessionsRun == FleetSessions && F.Deadlocks == 0 &&
                F.StallSalvages == 0 && F.HardDesyncs == 0,
            "fleet runs every session without deadlock or salvage");
    uint64_t Ticks = 0, DemoBytes = 0, RacySessions = 0;
    Fingerprint Sum;
    Samples Walls;
    for (const PoolSessionResult &S : F.Sessions) {
      R.check(healthy(S.Report) && !S.Salvaged &&
                  Results[S.Index].Served == HC.TotalRequests,
              "fleet session " + S.Name + " serves every request" +
                  why(S.Report));
      Ticks += S.Report.Sched.Ticks;
      DemoBytes += S.Report.RecordedDemo.totalSize();
      RacySessions += S.Report.Races.empty() ? 0 : 1;
      addFingerprint(Sum, fingerprint(S.Report));
      Walls.add(S.WallSeconds * 1e3);
      if (Measured && Traced)
        L.Spans.add(S.Report.Trace);
    }
    if (Traced && !F.Sessions.empty())
      L.ProbeDemo = F.Sessions.front().Report.RecordedDemo;

    // Session 0 against a solo recording with the same seeds.
    const std::string SoloDir = Root + "/solo";
    SessionConfig Solo = Config(0);
    Solo.Flush.Directory = SoloDir;
    Solo.Flush.EveryTicks = 64;
    httpd::HttpdResult SoloOut;
    Timed SoloRun =
        runSession(Solo, World, [&] { SoloOut = httpd::runServer(HC); });
    SetupS += SoloRun.SetupS;
    R.check(healthy(SoloRun.Report) &&
                sameStreams(SoloDir, Root + "/" + sessionName(0)),
            "fleet session 0 demo is byte-identical to the solo recording");

    // The first sessions: verify + load + replay, and a native run.
    uint64_t Replayed = 0;
    Samples RepOpsPerS;
    Samples NatMs;
    for (size_t I = 0; I != FleetChecked && I < F.Sessions.size(); ++I) {
      const std::string Dir = Root + "/" + sessionName(I);
      std::string Err;
      std::array<Demo::StreamCheck, NumStreamKinds> Checks;
      T0 = Clock::now();
      const bool Verified = Demo::verifyDirectory(Dir, Checks, Err);
      Demo D;
      const bool Loaded = Verified && D.loadFromDirectory(Dir, Err);
      SetupS += secondsSince(T0);
      R.check(Loaded && !D.truncated(),
              "fleet demo " + sessionName(I) + " verifies and loads " + Err);
      if (!Loaded)
        continue;
      httpd::HttpdResult RepOut, NatOut;
      Timed Rp = runSession(replayOf(Config(I), D), World,
                            [&] { RepOut = httpd::runServer(HC); });
      const RunReport &Recorded = F.Sessions[I].Report;
      R.check(healthy(Rp.Report) &&
                  Rp.Report.Sched.Ticks == Recorded.Sched.Ticks &&
                  RepOut.PayloadHash == Results[I].PayloadHash,
              "fleet demo " + sessionName(I) + " replays" + why(Rp.Report));
      Timed N = runSession(native(O.Seed, I), World,
                           [&] { NatOut = httpd::runServer(HC); });
      R.check(healthy(N.Report) && NatOut.Served == HC.TotalRequests,
              "fleet session " + sessionName(I) + " native run" +
                  why(N.Report));
      SetupS += Rp.SetupS + N.SetupS;
      RepOpsPerS.add(static_cast<double>(Rp.Report.Sched.Ticks) / Rp.RunS);
      Replayed += Rp.Report.SyscallsReplayed;
      NatMs.add(N.RunS * 1e3);
      if (Measured)
        for (const Timed *T : {&Rp, &N})
          L.SessionCtorUs.add(T->CtorS * 1e6);
    }
    std::filesystem::remove_all(Root);
    if (!Measured)
      return;

    Led.add(Sum);
    L.WorldSetupUs.append(WorldUs);
    if (Traced) {
      L.TracedWallS.add(FleetS);
    } else {
      L.PlainWallS.add(FleetS);
      E.SetupS.add(SetupS);
      E.RecordOpsPerS.add(static_cast<double>(Ticks) / FleetS);
      E.ReplayOpsPerS.append(RepOpsPerS);
      E.RecordSlowdownX.add(Walls.median() / NatMs.median());
      E.DemoBytesPerOp.add(static_cast<double>(DemoBytes) /
                           static_cast<double>(Ticks));
      E.SessionsPerS.add(static_cast<double>(F.SessionsRun) / FleetS);
      E.SessionMs.append(Walls);
    }
    L.Counters = F.Totals;
    L.SyscallsReplayed = Replayed;
    L.DemoBytes = Sum.Bytes;
    L.RacesPerSchedule = static_cast<double>(RacySessions) /
                         static_cast<double>(FleetSessions);
  });

  ProbeSpec Probe;
  Probe.Config = Config(0);
  Probe.Threads = FleetWorkers;
  finish(O, E, L, Led, std::move(Probe), R);
}

} // namespace perfbench
