//===-- perfbench/src/Bench.h - End-to-end benchmark plumbing ---*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end record/replay benchmark: run options,
/// seed derivation, sample statistics, the metric/correctness report a run
/// prints, trace-span extraction and the layer probes. Everything here
/// reaches the runtime only through its public API (Session, SessionPool,
/// explore(), Demo, the tsr:: wrapper types and RunReport); spans are
/// timed from outside, around the calls into each layer.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_PERFBENCH_BENCH_H
#define TSR_PERFBENCH_BENCH_H

#include "runtime/Tsr.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// What one invocation runs.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  /// Per-layer run: tracing on in alternate iterations, probes after.
  bool Trace = false;
  /// Scratch directory for demos; created and removed by main().
  std::string WorkDir;
};

/// SplitMix64 step: every input of a run is derived from --seed through
/// this, salted per use, so one seed names one set of inputs.
uint64_t mix(uint64_t Seed, uint64_t Salt);

/// Scheduler and environment seeds for session \p Index of a run.
void seedSession(tsr::SessionConfig &C, uint64_t Seed, uint64_t Index);

/// A set of measurements of one quantity.
class Samples {
public:
  void add(double V) { Values.push_back(V); }
  void append(const Samples &Other) {
    Values.insert(Values.end(), Other.Values.begin(), Other.Values.end());
  }
  size_t size() const { return Values.size(); }
  /// Linear-interpolated percentile, \p P in [0, 100]; 0 when empty.
  double percentile(double P) const;
  double median() const { return percentile(50); }

private:
  std::vector<double> Values;
};

/// The metrics and correctness tally one run prints.
class Report {
public:
  /// Counts one checked operation; a false \p Ok is a failure.
  void check(bool Ok, const std::string &What);

  /// Adds a metric to the final JSON object (in insertion order) and
  /// prints it with \p Detail (sample counts, definitions).
  void metric(const std::string &Name, double Value, const std::string &Unit,
              const std::string &Detail = "");

  /// Prints a human-readable line ("  name = value unit  note").
  static void note(const std::string &Name, double Value,
                   const std::string &Unit, const std::string &Detail = "");

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Peak resident set of this process since the last resetPeakRss() (or
/// since it started, where the kernel cannot reset the mark), in MiB.
double peakRssMb();
void resetPeakRss();

/// Byte sizes of a demo's five streams, in StreamKind order.
using StreamSizes = std::array<uint64_t, tsr::NumStreamKinds>;
StreamSizes streamSizes(const tsr::Demo &D);

/// What one recorded iteration produced that must repeat exactly for a
/// fixed seed: ticks, per-stream demo bytes, recorded syscalls.
struct Fingerprint {
  uint64_t Ticks = 0;
  StreamSizes Bytes = {};
  uint64_t SyscallsRecorded = 0;
};

/// The determinism ledger: compares every iteration's fingerprint with
/// the first one, field by field.
class Ledger {
public:
  void add(const Fingerprint &F);
  bool ticksExact() const { return TicksExact; }
  bool bytesExact() const { return BytesExact; }
  bool syscallsExact() const { return SyscallsExact; }
  size_t size() const { return Count; }

private:
  Fingerprint First;
  size_t Count = 0;
  bool TicksExact = true;
  bool BytesExact = true;
  bool SyscallsExact = true;
};

/// Wall-clock spans recovered from a WallClock trace: Park->Wake and
/// SyscallEnter->SyscallExit per thread, plus event counts.
struct TraceSpans {
  Samples ParkWaitUs;
  Samples SyscallUs;
  uint64_t Parks = 0;
  uint64_t Ticks = 0;
  uint64_t Dropped = 0;

  void add(const tsr::TraceSnapshot &T);
};

/// Trace options for a traced session: wall-clock stamps on, rings sized
/// to hold \p Events per thread so nothing is dropped.
tsr::TraceOptions traceOptions(size_t Events);

/// Everything the per-layer run reports, gathered by a workload and
/// printed by emitLayers().
struct Layers {
  Samples SessionCtorUs;
  Samples WorldSetupUs;
  TraceSpans Spans;
  /// Counters of the workload's recorded session(s) (summed when the
  /// workload records several per iteration).
  tsr::MetricsSnapshot Counters;
  uint64_t SyscallsReplayed = 0;
  StreamSizes DemoBytes = {};
  double RacesPerSchedule = 0;
  double ExploreUsPerSchedule = 0;
  /// Record-session wall seconds with and without tracing.
  Samples TracedWallS;
  Samples PlainWallS;
  /// A recording of the workload, for the demo save/verify/load probe.
  tsr::Demo ProbeDemo;
};

/// Adds every counter of \p From into \p Into.
void sumCounters(tsr::MetricsSnapshot &Into, const tsr::MetricsSnapshot &From);

/// Prints the per-layer metrics (trace run) from a workload's Layers,
/// the probes' results and the ledger.
void emitLayers(const Layers &L, const Ledger &Led, Report &R);

/// Layer probes: short sessions that time 1 in N calls of one wrapper
/// operation with steady_clock, inside a session with the workload's own
/// preset, mode, record policy and thread count.
struct ProbeSpec {
  /// Record-mode configuration of the workload (seeds included).
  tsr::SessionConfig Config;
  /// Controlled threads that contend in the rmw/mutex/var probes.
  int Threads = 2;
  /// Measure explore() on the probe body (workloads without their own
  /// sweep); litmus-explore reports its sweep instead.
  bool ExploreProbe = true;
  std::string WorkDir;
};

void runProbes(const ProbeSpec &Spec, Layers &L, Report &R);

/// The four workloads. Each runs its iterations for Options::Seconds,
/// checks every output into \p R and, depending on Options::Trace, adds
/// either the end-to-end metrics or the per-layer ones.
void runPbzipRr(const Options &O, Report &R);
void runHttpdRr(const Options &O, Report &R);
void runLitmusExplore(const Options &O, Report &R);
void runHttpdFleet(const Options &O, Report &R);

} // namespace perfbench

#endif // TSR_PERFBENCH_BENCH_H
