//===-- perfbench/src/Harness.cpp - Stats, report, trace spans -----------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <sys/resource.h>

using namespace tsr;

namespace perfbench {

uint64_t mix(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

void seedSession(SessionConfig &C, uint64_t Seed, uint64_t Index) {
  // Zero would ask the runtime for fresh entropy; force a nonzero seed.
  C.Seed0 = mix(Seed, 4 * Index + 0) | 1;
  C.Seed1 = mix(Seed, 4 * Index + 1) | 1;
  C.Env.Seed0 = mix(Seed, 4 * Index + 2) | 1;
  C.Env.Seed1 = mix(Seed, 4 * Index + 3) | 1;
}

double Samples::percentile(double P) const {
  if (Values.empty())
    return 0.0;
  std::vector<double> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  const double Rank = P / 100.0 * static_cast<double>(Sorted.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Rank));
  const size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * (Rank - Lo);
}

namespace {

/// Shortest decimal that reads back as exactly \p V.
std::string number(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  const auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

std::string quoted(const std::string &S) { return "\"" + jsonEscape(S) + "\""; }

} // namespace

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::printf("  FAILED: %s\n", What.c_str());
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit, const std::string &Detail) {
  Metrics.push_back({Name, Value, Unit});
  note(Name, Value, Unit, Detail);
}

void Report::note(const std::string &Name, double Value,
                  const std::string &Unit, const std::string &Detail) {
  std::printf("  %-34s %14s %-6s %s\n", Name.c_str(), number(Value).c_str(),
              Unit.c_str(), Detail.c_str());
}

std::string Report::json() const {
  std::string Out = "{\"correct\": ";
  Out += Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    if (I)
      Out += ", ";
    Out += quoted(Metrics[I].Name) + ": {\"value\": " +
           number(Metrics[I].Value) + ", \"unit\": " +
           quoted(Metrics[I].Unit) + "}";
  }
  Out += "}}";
  return Out;
}

void resetPeakRss() {
  // "5" resets the VmHWM high-water mark (Linux >= 4.0).
  if (FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

double peakRssMb() {
  if (FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    unsigned long Kib = 0;
    bool Found = false;
    while (!Found && std::fgets(Line, sizeof(Line), F))
      Found = std::sscanf(Line, "VmHWM: %lu kB", &Kib) == 1;
    std::fclose(F);
    if (Found)
      return static_cast<double>(Kib) / 1024.0;
  }
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

StreamSizes streamSizes(const Demo &D) {
  StreamSizes Out = {};
  for (unsigned I = 0; I != NumStreamKinds; ++I)
    Out[I] = D.streamSize(static_cast<StreamKind>(I));
  return Out;
}

void Ledger::add(const Fingerprint &F) {
  if (Count++ == 0) {
    First = F;
    return;
  }
  TicksExact &= F.Ticks == First.Ticks;
  BytesExact &= F.Bytes == First.Bytes;
  SyscallsExact &= F.SyscallsRecorded == First.SyscallsRecorded;
}

void TraceSpans::add(const TraceSnapshot &T) {
  Dropped += T.Dropped;
  std::map<Tid, uint64_t> ParkAt, EnterAt;
  for (const TraceEvent &E : T.Events) {
    switch (E.Kind) {
    case TraceEventKind::Tick:
      ++Ticks;
      break;
    case TraceEventKind::Park:
      ++Parks;
      ParkAt[E.Thread] = E.WallNs;
      break;
    case TraceEventKind::Wake:
      if (auto It = ParkAt.find(E.Thread); It != ParkAt.end()) {
        ParkWaitUs.add(static_cast<double>(E.WallNs - It->second) / 1e3);
        ParkAt.erase(It);
      }
      break;
    case TraceEventKind::SyscallEnter:
      EnterAt[E.Thread] = E.WallNs;
      break;
    case TraceEventKind::SyscallExit:
      if (auto It = EnterAt.find(E.Thread); It != EnterAt.end()) {
        SyscallUs.add(static_cast<double>(E.WallNs - It->second) / 1e3);
        EnterAt.erase(It);
      }
      break;
    default:
      break;
    }
  }
}

TraceOptions traceOptions(size_t Events) {
  TraceOptions T;
  T.Enabled = true;
  T.WallClock = true;
  T.BufferEvents = Events;
  return T;
}

void sumCounters(MetricsSnapshot &Into, const MetricsSnapshot &From) {
  for (const MetricCounter &C : From.counters())
    Into.counter(C.Name, Into.counterOr(C.Name) + C.Value);
}

namespace {

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

} // namespace

void emitLayers(const Layers &L, const Ledger &Led, Report &R) {
  const MetricsSnapshot &C = L.Counters;
  const uint64_t Ticks = C.counterOr("sched.ticks");
  R.check(C.counterOr("sched.spurious_wakeups") == 0,
          "no spurious wakeups in the recorded sessions");
  R.check(L.Spans.Dropped == 0, "no trace events dropped");
  R.metric("runtime.session_ctor_us", L.SessionCtorUs.median(), "us");
  R.metric("runtime.explore_us_per_schedule", L.ExploreUsPerSchedule, "us");
  R.metric("sched.ticks", static_cast<double>(Ticks), "count");
  R.metric("sched.park_wait_us.p50", L.Spans.ParkWaitUs.percentile(50), "us");
  R.metric("sched.park_wait_us.p90", L.Spans.ParkWaitUs.percentile(90), "us");
  R.metric("sched.parks_per_tick", ratio(L.Spans.Parks, L.Spans.Ticks),
           "ratio");
  R.metric("sched.fast_path_frac",
           ratio(C.counterOr("sched.fast_path_commits"), Ticks), "ratio");
  R.metric("sched.fast_path_aborts",
           static_cast<double>(C.counterOr("sched.fast_path_aborts")),
           "count");
  R.metric("sched.spurious_wakeups",
           static_cast<double>(C.counterOr("sched.spurious_wakeups")),
           "count");
  R.metric("sched.targeted_wakeups_per_tick",
           ratio(C.counterOr("sched.targeted_wakeups"), Ticks), "ratio");
  const uint64_t Plain = C.counterOr("race.plain_accesses");
  R.metric("race.plain_accesses", static_cast<double>(Plain), "count");
  R.metric("race.same_epoch_frac",
           ratio(C.counterOr("race.same_epoch_hits"), Plain), "ratio");
  R.metric("race.fast_path_frac",
           ratio(C.counterOr("race.fast_path_hits"), Plain), "ratio");
  R.metric("race.races_per_schedule", L.RacesPerSchedule, "ratio");
  const uint64_t Loads = C.counterOr("atomics.loads");
  R.metric("atomics.loads", static_cast<double>(Loads), "count");
  R.metric("atomics.stores", static_cast<double>(C.counterOr("atomics.stores")),
           "count");
  R.metric("atomics.rmws", static_cast<double>(C.counterOr("atomics.rmws")),
           "count");
  R.metric("atomics.stale_read_frac",
           ratio(C.counterOr("atomics.stale_reads"), Loads), "ratio");
  R.metric("env.syscall_us.p50", L.Spans.SyscallUs.percentile(50), "us");
  R.metric("env.syscall_us.p90", L.Spans.SyscallUs.percentile(90), "us");
  R.metric("env.syscalls_recorded",
           static_cast<double>(C.counterOr("syscalls.recorded")), "count");
  R.metric("env.syscalls_replayed", static_cast<double>(L.SyscallsReplayed),
           "count");
  R.metric("env.world_setup_us", L.WorldSetupUs.median(), "us");
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    std::string Name = streamName(static_cast<StreamKind>(I));
    std::transform(Name.begin(), Name.end(), Name.begin(),
                   [](unsigned char Ch) { return std::tolower(Ch); });
    R.metric("support.demo_bytes." + Name,
             static_cast<double>(L.DemoBytes[I]), "B");
  }
  R.metric("support.demo_flushes",
           static_cast<double>(C.counterOr("demo.flushes")), "count");
  R.metric("trace.overhead_x",
           L.PlainWallS.median() > 0
               ? L.TracedWallS.median() / L.PlainWallS.median()
               : 0.0,
           "x");
  R.metric("trace.dropped", static_cast<double>(L.Spans.Dropped), "count");
  R.metric("ledger.ticks_exact", Led.ticksExact() ? 1 : 0, "bool");
  R.metric("ledger.demo_bytes_exact", Led.bytesExact() ? 1 : 0, "bool");
  R.metric("ledger.syscalls_recorded_exact", Led.syscallsExact() ? 1 : 0,
           "bool");
}

} // namespace perfbench
