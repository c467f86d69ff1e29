//===-- bench/fleet_throughput.cpp - Multi-session record service --------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Measures record-as-a-service capacity: a SessionPool records N
// concurrent MiniHttpd+LoadGen sessions (each with its own scheduler,
// environment, demo directory and demo writer) for N in
// {1, 8, 64, 256}. Reports
// sessions/sec, aggregate controlled ticks/sec and the amortised
// per-session overhead vs a solo recording; verifies that a fleet
// session's demo is bit-identical to the same workload recorded solo
// (Random strategy — the schedule is a pure function of the seeds) and
// that it replays with zero desync. Emits BENCH_fleet_throughput.json.
//
// The host has one CPU, so "concurrent" means all N sessions are live in
// one process at once (every scheduler, every straggler registry, every
// demo writer) while the OS timeslices them; per-session overhead
// is therefore the amortised batch cost (BatchWall / N) / SoloWall, the
// fleet analogue of throughput per session.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "apps/httpd/Httpd.h"
#include "runtime/SessionPool.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace tsr;
using namespace tsr::bench;

namespace {

struct FleetResult {
  size_t Sessions = 0;
  SampleStats WallMs;
  SampleStats SessionsPerSec;
  SampleStats AggTicksPerSec;
  uint64_t HardDesyncs = 0;
  uint64_t Deadlocks = 0;
  bool DemoBitIdentical = false; ///< session-0 streams == solo streams
  bool ReplayClean = false;      ///< session-0 demo replays with no desync
};

httpd::HttpdConfig serverConfig() {
  httpd::HttpdConfig HC;
  HC.Workers = 2;
  HC.Connections = 2;
  HC.TotalRequests = 2 * envInt("TSR_BENCH_FLEET_PERCONN", 8);
  return HC;
}

SessionConfig sessionConfig(uint64_t SessionIndex) {
  SessionConfig C = presets::tsan11rec(StrategyKind::Random, Mode::Record,
                                       RecordPolicy::httpd());
  seedFor(C, SessionIndex, 57);
  // No wall-clock reschedules: a session's demo stays a pure function of
  // its seeds, so it can be compared with the solo recording.
  C.LivenessIntervalMs = 0;
  // Fleets timeslice the CPUs across many sessions; be patient before
  // the watchdog escalates.
  C.Watchdog.WarnAfterMs = 30000;
  C.Watchdog.NudgeAfterMs = 60000;
  C.Watchdog.SalvageAfterMs = 120000;
  return C;
}

void setupWorld(Session &S) {
  const httpd::HttpdConfig HC = serverConfig();
  S.env().addPeer("ab", httpd::makeLoadGen(HC.Port, HC.Connections,
                                           HC.TotalRequests / HC.Connections));
}

void serveOnce() { (void)httpd::runServer(serverConfig()); }

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

bool streamsIdentical(const std::string &DirA, const std::string &DirB) {
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const char *Name = streamName(static_cast<StreamKind>(I));
    const std::vector<uint8_t> A = readFile(DirA + "/" + Name);
    if (A.empty() || A != readFile(DirB + "/" + Name))
      return false;
  }
  return true;
}

/// Records session 0's workload through a plain solo Session (its own
/// synchronous writer) into \p Dir; returns the wall milliseconds.
double recordSolo(const std::string &Dir) {
  std::filesystem::remove_all(Dir);
  SessionConfig C = sessionConfig(0);
  C.Flush.Directory = Dir;
  C.Flush.EveryTicks = 64;
  Session S(C);
  setupWorld(S);
  const auto T0 = std::chrono::steady_clock::now();
  RunReport R = S.run(serveOnce);
  const double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - T0)
                        .count();
  if (R.Deadlocked || R.Desync == DesyncKind::Hard)
    std::fprintf(stderr, "solo recording unhealthy: %s\n",
                 R.DesyncInfo.Message.c_str());
  return Ms;
}

FleetResult measureFleet(size_t N, int Reps, const std::string &SoloDir) {
  FleetResult Out;
  Out.Sessions = N;
  const std::string Root = std::filesystem::temp_directory_path().string() +
                           "/tsr-bench-fleet-" + std::to_string(N);
  for (int Rep = 0; Rep != Reps; ++Rep) {
    std::filesystem::remove_all(Root);
    SessionPool::Options PO;
    PO.DemoRoot = Root;
    PO.FlushEveryTicks = 64;
    PO.Concurrency = static_cast<unsigned>(N); // all N live at once
    SessionPool Pool(PO);
    for (size_t I = 0; I != N; ++I) {
      PoolSessionSpec Spec;
      char Name[32];
      std::snprintf(Name, sizeof(Name), "httpd-%03zu", I);
      Spec.Name = Name;
      Spec.Config = sessionConfig(I);
      Spec.Setup = setupWorld;
      Spec.Body = serveOnce;
      Pool.submit(std::move(Spec));
    }
    FleetReport Fleet = Pool.runAll();
    const double Ms = Fleet.WallSeconds * 1000.0;
    Out.WallMs.add(Ms);
    Out.SessionsPerSec.add(static_cast<double>(N) / Fleet.WallSeconds);
    Out.AggTicksPerSec.add(
        static_cast<double>(Fleet.Totals.counterOr("sched.ticks")) /
        Fleet.WallSeconds);
    Out.HardDesyncs += Fleet.HardDesyncs;
    Out.Deadlocks += Fleet.Deadlocks;

    if (Rep + 1 == Reps) {
      // Session 0 runs the solo recording's exact config and seeds: its
      // fleet demo must be byte-identical despite N sessions recording
      // in one process at once.
      const std::string Dir0 = Root + "/httpd-000";
      Out.DemoBitIdentical = streamsIdentical(SoloDir, Dir0);
      Demo D;
      std::string Error;
      if (D.loadFromDirectory(Dir0, Error) && !D.truncated()) {
        SessionConfig RC = sessionConfig(0);
        RC.ExecMode = Mode::Replay;
        RC.Flush = RecordFlushPolicy();
        RC.ReplayDemo = &D;
        Session RS(RC);
        setupWorld(RS);
        RunReport RR = RS.run(serveOnce);
        Out.ReplayClean = RR.Desync == DesyncKind::None && !RR.Deadlocked;
      } else {
        std::fprintf(stderr, "fleet-%zu: cannot load %s: %s\n", N,
                     Dir0.c_str(), Error.c_str());
      }
    }
    std::filesystem::remove_all(Root);
  }
  return Out;
}

} // namespace

int main() {
  const int Reps = envInt("TSR_BENCH_REPS", 3);
  const int MaxSessions = envInt("TSR_BENCH_FLEET_MAX", 256);
  const httpd::HttpdConfig HC = serverConfig();

  std::printf("Fleet recording throughput: N concurrent MiniHttpd+LoadGen "
              "record sessions\nin one process (%d workers, %d connections, "
              "%d requests each; %d reps)\n\n",
              HC.Workers, HC.Connections, HC.TotalRequests, Reps);

  const std::string SoloDir =
      std::filesystem::temp_directory_path().string() + "/tsr-bench-fleet-solo";
  SampleStats SoloWallMs;
  for (int Rep = 0; Rep != Reps; ++Rep)
    SoloWallMs.add(recordSolo(SoloDir));

  std::vector<FleetResult> Results;
  for (size_t N : {size_t(1), size_t(8), size_t(64), size_t(256)}) {
    if (N > static_cast<size_t>(MaxSessions))
      break;
    Results.push_back(measureFleet(N, Reps, SoloDir));
  }
  std::filesystem::remove_all(SoloDir);

  const std::vector<int> W = {10, 16, 14, 16, 12, 10, 8};
  printRule(W);
  printRow({"sessions", "wall ms", "sessions/s", "agg ticks/s",
            "overhead", "demo ==", "replay"},
           W);
  printRule(W);
  const double Solo = SoloWallMs.mean();
  for (const FleetResult &R : Results) {
    const double Amortised =
        R.WallMs.mean() / static_cast<double>(R.Sessions) / Solo;
    printRow({std::to_string(R.Sessions), meanSd(R.WallMs, 1),
              meanSd(R.SessionsPerSec, 0), meanSd(R.AggTicksPerSec, 0),
              fmt(Amortised, 3) + "x", R.DemoBitIdentical ? "yes" : "NO",
              R.ReplayClean ? "clean" : "DESYNC"},
             W);
  }
  printRule(W);
  std::printf("\noverhead = amortised per-session cost (batch wall / N) / "
              "solo wall; 1.0x = batching\nis free. demo == : the fleet "
              "session sharing the solo run's seeds produced a\nbyte-"
              "identical demo inside the fleet.\n");

  FILE *F = std::fopen("BENCH_fleet_throughput.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_fleet_throughput.json\n");
    return 1;
  }
  std::fprintf(F,
               "{\n  \"bench\": \"fleet_throughput\",\n"
               "  \"workload\": \"httpd\",\n  \"reps\": %d,\n"
               "  \"requests_per_session\": %d,\n"
               "  \"solo_wall_ms\": %s,\n"
               "  \"max_sessions\": %zu,\n  \"fleet\": [\n",
               Reps, HC.TotalRequests, SoloWallMs.toJson(8).c_str(),
               Results.empty() ? size_t(0) : Results.back().Sessions);
  for (size_t I = 0; I != Results.size(); ++I) {
    const FleetResult &R = Results[I];
    const double Amortised =
        Solo > 0 ? R.WallMs.mean() / static_cast<double>(R.Sessions) / Solo
                 : 0.0;
    std::fprintf(
        F,
        "    {\"name\": \"fleet-%zu\", \"sessions\": %zu,\n"
        "     \"sessions_per_sec\": %.2f, \"agg_ticks_per_sec\": %.0f,\n"
        "     \"per_session_overhead_vs_solo\": %.3f,\n"
        "     \"hard_desyncs\": %llu, \"deadlocks\": %llu,\n"
        "     \"demo_bit_identical_to_solo\": %s, \"replay_identical\": %s,\n"
        "     \"wall_ms\": %s}%s\n",
        R.Sessions, R.Sessions, R.SessionsPerSec.mean(),
        R.AggTicksPerSec.mean(), Amortised,
        static_cast<unsigned long long>(R.HardDesyncs),
        static_cast<unsigned long long>(R.Deadlocks),
        R.DemoBitIdentical ? "true" : "false",
        R.DemoBitIdentical && R.ReplayClean ? "true" : "false",
        R.WallMs.toJson(8).c_str(), I + 1 == Results.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("\nwrote BENCH_fleet_throughput.json\n");
  return 0;
}
