//===-- bench/sched_throughput.cpp - Tick commit/wake throughput ---------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Measures the scheduler hot path on a contended atomic-counter workload:
// controlled-run tick throughput swept over {2, 4, 8} threads x {mutex,
// pipelined} tick-commit modes x {random, queue} strategies. The schedule
// is identical under both commit modes (neither moves a scheduling
// decision); only the handoff cost differs. Repetitions run interleaved
// round-robin across all cells with a discarded warm-up round, and the
// speedup column is the median of per-round paired ratios, so host drift
// (frequency scaling, neighbours) cancels instead of flattering whichever
// cell ran last. Emits BENCH_sched_throughput.json alongside the table.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <chrono>

using namespace tsr;
using namespace tsr::bench;

namespace {

struct CellResult {
  std::string Name;
  const char *Commit = "";   ///< "pipelined" | "mutex"
  const char *Strategy = ""; ///< "random" | "queue"
  StrategyKind Strat = StrategyKind::Random;
  TickCommitMode Mode = TickCommitMode::Mutex;
  int Threads = 0;
  SampleStats TicksPerSec;
  SampleStats WallMs;
  std::vector<double> PerRound; ///< ticks/sec, one entry per round.
  uint64_t Ticks = 0;           ///< Controlled ticks of the last repetition.
  uint64_t SpuriousWakeups = 0; ///< Last repetition.
  uint64_t TargetedWakeups = 0;
  uint64_t BroadcastWakeups = 0;
  uint64_t FastPathCommits = 0;
  uint64_t SlowPathCommits = 0;
  uint64_t FastPathAborts = 0;
  double SpeedupVsMutex = 1.0; ///< vs mutex commit, same cell otherwise.
};

/// Every fetchAdd is one visible op = one tick, so ticks/sec is a direct
/// read of scheduler handoff cost. Detectors are off to keep the tick
/// itself as thin as possible. One repetition; discarded when \p Warmup.
void runOnce(CellResult &Out, int Rep, int OpsPerThread, bool Warmup) {
  SessionConfig C;
  C.Strategy = Out.Strat;
  C.ExecMode = Mode::Free;
  C.Controlled = true;
  C.TickCommit = Out.Mode;
  C.RaceDetection = false;
  C.WeakMemory = false;
  C.LivenessIntervalMs = 0;
  seedFor(C, static_cast<uint64_t>(Rep), 37 + Out.Threads);
  Session S(C);
  const int Threads = Out.Threads;
  const auto Start = std::chrono::steady_clock::now();
  RunReport R = S.run([Threads, OpsPerThread] {
    Atomic<uint64_t> Counter(0);
    std::vector<Thread> Ts;
    Ts.reserve(static_cast<size_t>(Threads));
    for (int T = 0; T != Threads; ++T)
      Ts.push_back(Thread::spawn([&Counter, OpsPerThread] {
        for (int I = 0; I != OpsPerThread; ++I)
          Counter.fetchAdd(1);
      }));
    for (Thread &T : Ts)
      T.join();
  });
  const double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
  if (Warmup)
    return;
  Out.WallMs.add(Ms);
  const double Tps = static_cast<double>(R.Sched.Ticks) / (Ms / 1000.0);
  Out.TicksPerSec.add(Tps);
  Out.PerRound.push_back(Tps);
  Out.Ticks = R.Sched.Ticks;
  Out.SpuriousWakeups = R.Sched.SpuriousWakeups;
  Out.TargetedWakeups = R.Sched.TargetedWakeups;
  Out.BroadcastWakeups = R.Sched.BroadcastWakeups;
  Out.FastPathCommits = R.Sched.FastPathCommits;
  Out.SlowPathCommits = R.Sched.SlowPathCommits;
  Out.FastPathAborts = R.Sched.FastPathAborts;
}

CellResult makeCell(StrategyKind Strat, TickCommitMode Mode, int Threads) {
  CellResult C;
  C.Strat = Strat;
  C.Mode = Mode;
  C.Threads = Threads;
  C.Commit = Mode == TickCommitMode::Pipelined ? "pipelined" : "mutex";
  C.Strategy = Strat == StrategyKind::Queue ? "queue" : "random";
  C.Name =
      std::string(C.Strategy) + "-" + C.Commit + "-" + std::to_string(Threads);
  return C;
}

} // namespace

int main() {
  const int Reps = envInt("TSR_BENCH_REPS", 5);
  const int OpsPerThread = envInt("TSR_BENCH_SCHED_OPS", 20000);

  std::printf("Scheduler tick throughput: commit mode x strategy\n"
              "(atomic-counter workload, %d reps interleaved + 1 warm-up, "
              "%d ops/thread)\n\n",
              Reps, OpsPerThread);

  // Each pipelined cell pairs with the mutex cell that differs only in
  // commit mode for speedup_vs_mutex.
  std::vector<CellResult> Cells;
  for (int Threads : {2, 4, 8})
    for (StrategyKind Strat : {StrategyKind::Random, StrategyKind::Queue})
      for (TickCommitMode Mode :
           {TickCommitMode::Mutex, TickCommitMode::Pipelined})
        Cells.push_back(makeCell(Strat, Mode, Threads));

  // Interleave repetitions round-robin across every cell; the first round
  // is a discarded warm-up paying one-time costs (page faults, allocator
  // growth).
  for (int Rep = -1; Rep != Reps; ++Rep)
    for (CellResult &C : Cells)
      runOnce(C, Rep < 0 ? 0 : Rep, OpsPerThread, /*Warmup=*/Rep < 0);

  for (CellResult &C : Cells)
    for (const CellResult &Base : Cells)
      if (Base.Threads == C.Threads && Base.Strat == C.Strat &&
          Base.Mode == TickCommitMode::Mutex &&
          C.Mode == TickCommitMode::Pipelined)
        C.SpeedupVsMutex = medianPairedRatio(C.PerRound, Base.PerRound);

  const std::vector<int> W = {20, 18, 12, 9, 8, 8, 8, 9};
  printRule(W);
  printRow({"config", "ticks/sec", "wall ms", "vs mutex", "fast", "slow",
            "aborts", "spurious"},
           W);
  printRule(W);
  for (const CellResult &R : Cells)
    printRow({R.Name, meanSd(R.TicksPerSec, 0), meanSd(R.WallMs, 1),
              fmt(R.SpeedupVsMutex, 2) + "x",
              std::to_string(R.FastPathCommits),
              std::to_string(R.SlowPathCommits),
              std::to_string(R.FastPathAborts),
              std::to_string(R.SpuriousWakeups)},
             W);
  printRule(W);
  std::printf(
      "\nvs mutex = median per-round ratio against the cell differing only "
      "in commit\nmode. fast/slow/aborts split ticks between the lock-free "
      "ticket pipeline and the\nmutex slow path; spurious stays zero in "
      "every mode.\n");

  FILE *F = std::fopen("BENCH_sched_throughput.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_sched_throughput.json\n");
    return 1;
  }
  std::fprintf(F,
               "{\n  \"bench\": \"sched_throughput\",\n"
               "  \"workload\": \"atomic-counter\",\n  \"reps\": %d,\n"
               "  \"ops_per_thread\": %d,\n  \"configs\": [\n",
               Reps, OpsPerThread);
  for (size_t I = 0; I != Cells.size(); ++I) {
    const CellResult &R = Cells[I];
    std::fprintf(
        F,
        "    {\"name\": \"%s\", \"commit\": \"%s\", "
        "\"strategy\": \"%s\", \"threads\": %d, \"ticks\": %llu,\n"
        "     \"spurious_wakeups\": %llu, \"targeted_wakeups\": %llu, "
        "\"broadcast_wakeups\": %llu,\n"
        "     \"fast_path_commits\": %llu, \"slow_path_commits\": %llu, "
        "\"fast_path_aborts\": %llu,\n"
        "     \"speedup_vs_mutex\": %.3f,\n"
        "     \"ticks_per_sec\": %s,\n     \"wall_ms\": %s}%s\n",
        R.Name.c_str(), R.Commit, R.Strategy, R.Threads,
        static_cast<unsigned long long>(R.Ticks),
        static_cast<unsigned long long>(R.SpuriousWakeups),
        static_cast<unsigned long long>(R.TargetedWakeups),
        static_cast<unsigned long long>(R.BroadcastWakeups),
        static_cast<unsigned long long>(R.FastPathCommits),
        static_cast<unsigned long long>(R.SlowPathCommits),
        static_cast<unsigned long long>(R.FastPathAborts),
        R.SpeedupVsMutex,
        R.TicksPerSec.toJson(8).c_str(), R.WallMs.toJson(8).c_str(),
        I + 1 == Cells.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("\nwrote BENCH_sched_throughput.json\n");
  return 0;
}
