//===-- bench/trace_overhead.cpp - Execution tracing overhead ------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Measures what virtual-time execution tracing costs: record-mode tick
// throughput over the pbzip workload with tracing {off, on, on + Chrome
// JSON export}. The observability contract (DESIGN.md section 8): the
// disabled path — one branch on a null pointer per instrumentation site —
// must stay within 1% of the untraced baseline, and full tracing within
// 10%. Emits BENCH_trace_overhead.json with SampleStats::toJson
// distributions per mode.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "apps/pbzip/Pbzip.h"

#include <chrono>
#include <cstdio>
#include <filesystem>

using namespace tsr;
using namespace tsr::bench;

namespace {

struct ModeResult {
  std::string Name;
  bool Traced = false;
  bool WallClock = false;
  bool Export = false;
  SampleStats TicksPerSec;
  SampleStats WallMs;
  std::vector<double> PerRound; ///< ticks/sec, one entry per round.
  uint64_t Ticks = 0;       ///< Controlled ticks of the last repetition.
  uint64_t TraceEvents = 0; ///< Events emitted in the last repetition.
  uint64_t TraceDropped = 0;
};

/// One repetition of one mode; records the sample unless \p Warmup.
void runOnce(ModeResult &Out, int Rep, int InputRepeats, bool Warmup) {
  const std::string ExportPath =
      std::filesystem::temp_directory_path().string() +
      "/tsr-bench-trace.json";
  SessionConfig C = presets::tsan11rec(StrategyKind::Queue, Mode::Record,
                                       RecordPolicy::full());
  seedFor(C, static_cast<uint64_t>(Rep), 29);
  // Wall-clock liveness wakeups would inject extra ticks into slower
  // repetitions, corrupting the cross-mode tick/sec comparison; without
  // them the schedule is a pure function of the seed.
  C.LivenessIntervalMs = 0;
  C.Trace.Enabled = Out.Traced;
  C.Trace.WallClock = Out.WallClock;
  if (Out.Export)
    C.Trace.ExportChromePath = ExportPath;
  Session S(C);
  pbzip::PbzipConfig PC;
  PC.Threads = 4;
  PC.BlockSize = 512;
  std::vector<uint8_t> Input;
  for (int I = 0; I != InputRepeats; ++I) {
    const std::string Chunk =
        "execution tracing benchmark " + std::to_string(I % 13) + " ";
    Input.insert(Input.end(), Chunk.begin(), Chunk.end());
  }
  S.env().putFile(PC.InputPath, Input);
  const auto Start = std::chrono::steady_clock::now();
  RunReport R = S.run([&PC] { (void)pbzip::compressFile(PC); });
  const double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
  std::error_code Ec;
  std::filesystem::remove(ExportPath, Ec);
  if (Warmup)
    return;
  Out.WallMs.add(Ms);
  const double Tps = static_cast<double>(R.Sched.Ticks) / (Ms / 1000.0);
  Out.TicksPerSec.add(Tps);
  Out.PerRound.push_back(Tps);
  Out.Ticks = R.Sched.Ticks;
  Out.TraceEvents = R.Trace.Emitted;
  Out.TraceDropped = R.Trace.Dropped;
}

} // namespace

int main() {
  const int Reps = envInt("TSR_BENCH_REPS", 5);
  const int InputRepeats = envInt("TSR_BENCH_INPUT_REPEATS", 2000);

  std::printf("Virtual-time tracing overhead\n(pbzip record mode, %d reps, "
              "~%d KB input)\n\n",
              Reps, InputRepeats * 30 / 1024);

  std::vector<ModeResult> Results(4);
  Results[0].Name = "trace-off";
  Results[1].Name = "trace-virtual";
  Results[1].Traced = true;
  Results[2].Name = "trace-on";
  Results[2].Traced = Results[2].WallClock = true;
  Results[3].Name = "trace-on+export";
  Results[3].Traced = Results[3].WallClock = Results[3].Export = true;

  // Interleave repetitions round-robin across modes so slow drift in host
  // throughput hits every mode equally instead of flattering whichever
  // mode runs last. The first round is a discarded warm-up paying
  // one-time costs (page faults, allocator growth).
  for (int Rep = -1; Rep != Reps; ++Rep)
    for (ModeResult &M : Results)
      runOnce(M, Rep < 0 ? 0 : Rep, InputRepeats, /*Warmup=*/Rep < 0);

  const std::vector<int> W = {16, 18, 14, 10, 12, 10};
  printRule(W);
  printRow({"mode", "ticks/sec", "wall ms", "overhead", "events", "dropped"},
           W);
  printRule(W);
  for (const ModeResult &R : Results)
    printRow({R.Name, meanSd(R.TicksPerSec, 0), meanSd(R.WallMs, 1),
              overhead(medianPairedRatio(Results[0].PerRound, R.PerRound),
                       1.0),
              std::to_string(R.TraceEvents),
              std::to_string(R.TraceDropped)},
             W);
  printRule(W);
  std::printf("\noverhead = trace-off throughput / mode throughput "
              "(1.0x = free).\nContract: off-path <= 1.01x (one null-pointer "
              "branch per site),\nfull tracing <= 1.10x.\n");

  FILE *F = std::fopen("BENCH_trace_overhead.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_trace_overhead.json\n");
    return 1;
  }
  std::fprintf(F, "{\n  \"bench\": \"trace_overhead\",\n"
                  "  \"workload\": \"pbzip\",\n  \"reps\": %d,\n"
                  "  \"modes\": [\n",
               Reps);
  for (size_t I = 0; I != Results.size(); ++I) {
    const ModeResult &R = Results[I];
    std::fprintf(
        F,
        "    {\"name\": \"%s\", \"ticks\": %llu, \"trace_events\": %llu, "
        "\"trace_dropped\": %llu, \"overhead_vs_off\": %.3f,\n"
        "     \"ticks_per_sec\": %s,\n     \"wall_ms\": %s}%s\n",
        R.Name.c_str(), static_cast<unsigned long long>(R.Ticks),
        static_cast<unsigned long long>(R.TraceEvents),
        static_cast<unsigned long long>(R.TraceDropped),
        medianPairedRatio(Results[0].PerRound, R.PerRound),
        R.TicksPerSec.toJson(8).c_str(), R.WallMs.toJson(8).c_str(),
        I + 1 == Results.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("\nwrote BENCH_trace_overhead.json\n");
  return 0;
}
