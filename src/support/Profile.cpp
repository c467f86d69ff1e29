//===-- support/Profile.cpp - Schedule-aware causal profiling ------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/Profile.h"

#include "support/DemoInspect.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <tuple>

namespace tsr {

const char *profileWaitKindName(ProfileWaitKind K) {
  switch (K) {
  case ProfileWaitKind::Turn:
    return "turn";
  case ProfileWaitKind::Mutex:
    return "mutex";
  case ProfileWaitKind::Cond:
    return "cond";
  case ProfileWaitKind::Join:
    return "join";
  case ProfileWaitKind::Signal:
    return "signal";
  case ProfileWaitKind::Syscall:
    return "syscall";
  case ProfileWaitKind::NumKinds:
    break;
  }
  return "?";
}

namespace {

/// printf-append onto a std::string.
void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  const int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Out.append(Buf, std::min(static_cast<size_t>(N), sizeof(Buf) - 1));
}

/// Renders UINT64_MAX (no holder / engine) as -1, else the value.
void appendTidOrNone(std::string &Out, uint64_t V) {
  if (V == UINT64_MAX)
    Out += "-1";
  else
    appendf(Out, "%" PRIu64, V);
}

} // namespace

ProfileInputs profileInputsFromDemo(const DemoInfo &Info) {
  return {Info.Schedule, Info.Signals, Info.Syscalls};
}

ProfileCore analyzeProfile(const ProfileInputs &In) {
  ProfileCore C;
  C.TotalTicks = In.Schedule.size();

  uint64_t MaxTid = 0;
  bool AnyThread = !In.Schedule.empty();
  for (uint64_t T : In.Schedule)
    MaxTid = std::max(MaxTid, T);
  for (const SignalRecord &S : In.Signals) {
    MaxTid = std::max(MaxTid, S.Thread);
    AnyThread = true;
  }
  C.Threads = AnyThread ? MaxTid + 1 : 0;

  // Coalesce the schedule into critical-path segments.
  for (size_t I = 0; I != In.Schedule.size();) {
    size_t J = I + 1;
    while (J != In.Schedule.size() && In.Schedule[J] == In.Schedule[I])
      ++J;
    ProfileSegment Seg;
    Seg.Thread = In.Schedule[I];
    Seg.StartTick = I;
    Seg.Ticks = J - I;
    C.CriticalPath.push_back(Seg);
    C.LongestSegmentTicks = std::max(C.LongestSegmentTicks, Seg.Ticks);
    I = J;
  }
  if (!C.CriticalPath.empty())
    C.ContextSwitches = C.CriticalPath.size() - 1;

  // Per-handoff gap attribution and the aggregated waiter→blocker matrix:
  // each gap of thread T charges its ticks to the threads occupying the
  // processor during the gap — the schedule's turn-wait edges, computable
  // from the QUEUE stream alone.
  std::vector<uint64_t> PrevEnd(C.Threads, UINT64_MAX); // exclusive
  std::map<std::pair<uint64_t, uint64_t>, ProfileEdge> Edges;
  std::vector<uint64_t> Occupancy(C.Threads, 0);
  std::vector<uint64_t> Touched; // hoisted: one allocation, not per gap
  for (ProfileSegment &Seg : C.CriticalPath) {
    const uint64_t Prev = PrevEnd[Seg.Thread];
    if (Prev != UINT64_MAX && Prev < Seg.StartTick) {
      Seg.GapTicks = Seg.StartTick - Prev;
      Touched.clear();
      for (uint64_t T = Prev; T != Seg.StartTick; ++T) {
        const uint64_t Holder = In.Schedule[T];
        if (Occupancy[Holder]++ == 0)
          Touched.push_back(Holder);
      }
      uint64_t Best = 0;
      std::sort(Touched.begin(), Touched.end());
      for (uint64_t Holder : Touched) {
        if (Occupancy[Holder] > Best) {
          Best = Occupancy[Holder];
          Seg.GapHolder = Holder;
        }
        ProfileEdge &E = Edges[{Seg.Thread, Holder}];
        E.Waiter = Seg.Thread;
        E.Blocker = Holder;
        E.Ticks += Occupancy[Holder];
        E.Gaps += 1;
        Occupancy[Holder] = 0;
      }
    }
    PrevEnd[Seg.Thread] = Seg.StartTick + Seg.Ticks;
  }
  for (const auto &KV : Edges)
    C.Contention.push_back(KV.second);
  std::sort(C.Contention.begin(), C.Contention.end(),
            [](const ProfileEdge &A, const ProfileEdge &B) {
              if (A.Ticks != B.Ticks)
                return A.Ticks > B.Ticks;
              if (A.Waiter != B.Waiter)
                return A.Waiter < B.Waiter;
              return A.Blocker < B.Blocker;
            });

  // Per-thread utilization.
  C.Usage.resize(C.Threads);
  std::vector<uint64_t> First(C.Threads, UINT64_MAX), Last(C.Threads, 0);
  for (size_t I = 0; I != In.Schedule.size(); ++I) {
    const uint64_t T = In.Schedule[I];
    ++C.Usage[T].RunningTicks;
    if (First[T] == UINT64_MAX)
      First[T] = I;
    Last[T] = I;
  }
  for (uint64_t T = 0; T != C.Threads; ++T) {
    ProfileThreadUsage &U = C.Usage[T];
    U.Thread = T;
    if (First[T] == UINT64_MAX) {
      U.AbsentTicks = C.TotalTicks;
      continue;
    }
    U.FirstTick = First[T];
    U.LastTick = Last[T];
    const uint64_t Span = Last[T] - First[T] + 1;
    U.WaitingTicks = Span - U.RunningTicks;
    U.AbsentTicks = C.TotalTicks - Span;
  }
  for (const ProfileSegment &Seg : C.CriticalPath)
    ++C.Usage[Seg.Thread].Segments;

  // Signal and syscall tallies.
  C.SignalCount = In.Signals.size();
  C.SyscallCount = In.Syscalls.size();
  std::map<uint64_t, uint64_t> ByKind;
  for (const SyscallRecord &S : In.Syscalls) {
    if (S.Err != 0)
      ++C.SyscallErrors;
    ++ByKind[S.Kind];
  }
  C.SyscallsByKind.assign(ByKind.begin(), ByKind.end());
  return C;
}

std::string profileCoreJson(const ProfileCore &C) {
  std::string Out;
  Out.reserve(1024 + C.CriticalPath.size() * 64);
  Out += "{\n  \"schema\": \"tsr-profile-core-v1\",\n";
  appendf(Out,
          "  \"total_ticks\": %" PRIu64 ",\n  \"threads\": %" PRIu64
          ",\n  \"context_switches\": %" PRIu64
          ",\n  \"longest_segment_ticks\": %" PRIu64
          ",\n  \"signals\": %" PRIu64 ",\n",
          C.TotalTicks, C.Threads, C.ContextSwitches, C.LongestSegmentTicks,
          C.SignalCount);
  appendf(Out,
          "  \"syscalls\": {\"count\": %" PRIu64 ", \"errors\": %" PRIu64
          ", \"by_kind\": {",
          C.SyscallCount, C.SyscallErrors);
  for (size_t I = 0; I != C.SyscallsByKind.size(); ++I)
    appendf(Out, "%s\"%" PRIu64 "\": %" PRIu64, I ? ", " : "",
            C.SyscallsByKind[I].first, C.SyscallsByKind[I].second);
  Out += "}},\n  \"critical_path\": [";
  for (size_t I = 0; I != C.CriticalPath.size(); ++I) {
    const ProfileSegment &S = C.CriticalPath[I];
    appendf(Out,
            "%s\n    {\"thread\": %" PRIu64 ", \"start\": %" PRIu64
            ", \"ticks\": %" PRIu64 ", \"gap\": %" PRIu64
            ", \"gap_holder\": ",
            I ? "," : "", S.Thread, S.StartTick, S.Ticks, S.GapTicks);
    appendTidOrNone(Out, S.GapHolder);
    Out += "}";
  }
  Out += "\n  ],\n  \"utilization\": [";
  for (size_t I = 0; I != C.Usage.size(); ++I) {
    const ProfileThreadUsage &U = C.Usage[I];
    appendf(Out,
            "%s\n    {\"thread\": %" PRIu64 ", \"running\": %" PRIu64
            ", \"waiting\": %" PRIu64 ", \"absent\": %" PRIu64
            ", \"first\": %" PRIu64 ", \"last\": %" PRIu64
            ", \"segments\": %" PRIu64 "}",
            I ? "," : "", U.Thread, U.RunningTicks, U.WaitingTicks,
            U.AbsentTicks, U.FirstTick, U.LastTick, U.Segments);
  }
  Out += "\n  ],\n  \"contention\": [";
  for (size_t I = 0; I != C.Contention.size(); ++I) {
    const ProfileEdge &E = C.Contention[I];
    appendf(Out,
            "%s\n    {\"waiter\": %" PRIu64 ", \"blocker\": %" PRIu64
            ", \"ticks\": %" PRIu64 ", \"gaps\": %" PRIu64 "}",
            I ? "," : "", E.Waiter, E.Blocker, E.Ticks, E.Gaps);
  }
  Out += "\n  ]\n}\n";
  return Out;
}

std::string profileReportJson(const ProfileReport &R) {
  std::string Out;
  Out += "{\n\"schema\": \"tsr-profile-v1\",\n\"enabled\": ";
  Out += R.Enabled ? "true" : "false";
  Out += ",\n\"core\": ";
  Out += profileCoreJson(R.Core);
  Out += ",\n\"locks\": [";
  for (size_t I = 0; I != R.Locks.size(); ++I) {
    const ProfileLockStats &L = R.Locks[I];
    appendf(Out,
            "%s\n  {\"id\": %" PRIu64 ", \"name\": \"%s\", "
            "\"acquisitions\": %" PRIu64 ", \"contended\": %" PRIu64
            ", \"hold_ticks\": %" PRIu64 ", \"wait_ticks\": %" PRIu64
            ", \"waiters\": %" PRIu64 "}",
            I ? "," : "", L.LockId, jsonEscape(L.Name).c_str(),
            L.Acquisitions, L.Contended, L.HoldTicks, L.WaitTicks,
            L.Waiters);
  }
  Out += "\n],\n\"waits\": [";
  for (size_t I = 0; I != R.Waits.size(); ++I) {
    const ProfileThreadWaits &W = R.Waits[I];
    appendf(Out,
            "%s\n  {\"thread\": %" PRIu64 ", \"runnable_wait_ticks\": %" PRIu64
            ", \"blocked\": {",
            I ? "," : "", W.Thread, W.RunnableWaitTicks);
    bool FirstKind = true;
    for (unsigned K = 1; K != NumProfileWaitKinds; ++K) {
      appendf(Out, "%s\"%s\": {\"ticks\": %" PRIu64 ", \"events\": %" PRIu64 "}",
              FirstKind ? "" : ", ",
              profileWaitKindName(static_cast<ProfileWaitKind>(K)),
              W.BlockedTicks[K], W.BlockEvents[K]);
      FirstKind = false;
    }
    Out += "}}";
  }
  Out += "\n],\n\"blocked_on\": [";
  for (size_t I = 0; I != R.BlockedOn.size(); ++I) {
    const ProfileBlockEdge &E = R.BlockedOn[I];
    appendf(Out, "%s\n  {\"waiter\": %" PRIu64 ", \"blocker\": ",
            I ? "," : "", E.Waiter);
    appendTidOrNone(Out, E.Blocker);
    appendf(Out,
            ", \"kind\": \"%s\", \"ticks\": %" PRIu64 ", \"events\": %" PRIu64
            "}",
            profileWaitKindName(E.Kind), E.Ticks, E.Events);
  }
  appendf(Out,
          "\n],\n\"totals\": {\"lock_acquisitions\": %" PRIu64
          ", \"lock_contended\": %" PRIu64 ", \"lock_hold_ticks\": %" PRIu64
          ", \"lock_wait_ticks\": %" PRIu64 ", \"blocked_ticks\": %" PRIu64
          ", \"runnable_wait_ticks\": %" PRIu64 "}\n}\n",
          R.LockAcquisitions, R.LockContended, R.LockHoldTicks,
          R.LockWaitTicks, R.BlockedTicks, R.RunnableWaitTicks);
  return Out;
}

ProfileReport Profiler::finish(const NameResolver &Names) const {
  ProfileReport R;
  R.Enabled = true;
  R.Core = analyzeProfile(In);
  const uint64_t EndTick = R.Core.TotalTicks;

  // Widen the per-thread tables to any tid seen only in block events.
  uint64_t Threads = R.Core.Threads;
  for (const BlockEvent &E : Blocks)
    Threads = std::max(Threads, E.Thread + 1);
  R.Waits.resize(Threads);
  for (uint64_t T = 0; T != Threads; ++T)
    R.Waits[T].Thread = T;

  // Replay the park / re-enable log. A park left open at the end of the
  // run (a thread parked forever by a salvaging shutdown) closes at the
  // final tick with an engine edge.
  struct OpenPark {
    bool Open = false;
    uint64_t Tick = 0;
    uint64_t Obj = 0;
    ProfileWaitKind Kind = ProfileWaitKind::Mutex;
  };
  std::vector<OpenPark> Open(Threads);
  std::map<uint64_t, ProfileLockStats> Locks; // keyed by LockId
  std::map<std::tuple<uint64_t, uint64_t, uint8_t>, ProfileBlockEdge> EdgeMap;
  auto ClosePark = [&](uint64_t Thread, uint64_t Tick, uint64_t Waker) {
    OpenPark &P = Open[Thread];
    if (!P.Open)
      return;
    P.Open = false;
    const uint64_t Dur = Tick >= P.Tick ? Tick - P.Tick : 0;
    ProfileThreadWaits &W = R.Waits[Thread];
    W.BlockedTicks[static_cast<unsigned>(P.Kind)] += Dur;
    R.BlockedTicks += Dur;
    if (P.Kind == ProfileWaitKind::Mutex) {
      ProfileLockStats &L = Locks[P.Obj];
      L.LockId = P.Obj;
      L.WaitTicks += Dur;
    }
    ProfileBlockEdge &E =
        EdgeMap[{Thread, Waker, static_cast<uint8_t>(P.Kind)}];
    E.Waiter = Thread;
    E.Blocker = Waker;
    E.Kind = P.Kind;
    E.Ticks += Dur;
    E.Events += 1;
  };
  for (const BlockEvent &E : Blocks) {
    if (E.Block) {
      // A re-park without an observed re-enable (defensive): close first.
      ClosePark(E.Thread, E.Tick, UINT64_MAX);
      Open[E.Thread] = {true, E.Tick, E.Obj, E.Kind};
      ProfileThreadWaits &W = R.Waits[E.Thread];
      ++W.BlockEvents[static_cast<unsigned>(E.Kind)];
      if (E.Kind == ProfileWaitKind::Mutex) {
        ProfileLockStats &L = Locks[E.Obj];
        L.LockId = E.Obj;
        ++L.Waiters;
      }
    } else {
      ClosePark(E.Thread, E.Tick, E.Waker);
    }
  }
  for (uint64_t T = 0; T != Threads; ++T)
    ClosePark(T, EndTick, UINT64_MAX);

  // The lock ledger: acquisition / hold accounting plus name resolution.
  struct OpenHold {
    bool Open = false;
    uint64_t Since = 0;
  };
  std::map<uint64_t, OpenHold> Holds;
  for (const LockEvent &E : LockEvents) {
    ProfileLockStats &L = Locks[E.LockId];
    L.LockId = E.LockId;
    if (E.Acquire) {
      ++L.Acquisitions;
      if (E.Contended)
        ++L.Contended;
      if (L.Name.empty() && E.Addr != 0 && Names) {
        L.Name = Names(E.Addr);
      }
      Holds[E.LockId] = {true, E.Tick};
    } else {
      OpenHold &H = Holds[E.LockId];
      if (H.Open) {
        L.HoldTicks += E.Tick >= H.Since ? E.Tick - H.Since : 0;
        H.Open = false;
      }
    }
  }
  for (auto &KV : Holds)
    if (KV.second.Open)
      Locks[KV.first].HoldTicks += EndTick >= KV.second.Since
                                       ? EndTick - KV.second.Since
                                       : 0;

  // Raw lock ids come from a process-global counter, so a replay in the
  // same process sees different values than its recording. Publish
  // run-local ids instead: rank by first appearance in the event logs,
  // which the controlled schedule makes identical across record and
  // replay.
  std::map<uint64_t, uint64_t> LockRank;
  auto rankOf = [&LockRank](uint64_t Raw) {
    return LockRank.emplace(Raw, LockRank.size()).first->second;
  };
  for (const LockEvent &E : LockEvents)
    rankOf(E.LockId);
  for (const BlockEvent &E : Blocks)
    if (E.Kind == ProfileWaitKind::Mutex)
      rankOf(E.Obj);

  for (const auto &KV : Locks) {
    ProfileLockStats L = KV.second;
    L.LockId = rankOf(L.LockId);
    R.Locks.push_back(L);
    R.LockAcquisitions += KV.second.Acquisitions;
    R.LockContended += KV.second.Contended;
    R.LockHoldTicks += KV.second.HoldTicks;
    R.LockWaitTicks += KV.second.WaitTicks;
  }
  std::sort(R.Locks.begin(), R.Locks.end(),
            [](const ProfileLockStats &A, const ProfileLockStats &B) {
              if (A.WaitTicks != B.WaitTicks)
                return A.WaitTicks > B.WaitTicks;
              if (A.HoldTicks != B.HoldTicks)
                return A.HoldTicks > B.HoldTicks;
              return A.LockId < B.LockId;
            });

  for (const auto &KV : EdgeMap)
    R.BlockedOn.push_back(KV.second);
  std::sort(R.BlockedOn.begin(), R.BlockedOn.end(),
            [](const ProfileBlockEdge &A, const ProfileBlockEdge &B) {
              if (A.Ticks != B.Ticks)
                return A.Ticks > B.Ticks;
              if (A.Waiter != B.Waiter)
                return A.Waiter < B.Waiter;
              if (A.Blocker != B.Blocker)
                return A.Blocker < B.Blocker;
              return static_cast<uint8_t>(A.Kind) <
                     static_cast<uint8_t>(B.Kind);
            });

  // Runnable-but-not-scheduled: the waiting ticks parking cannot explain.
  for (uint64_t T = 0; T != Threads; ++T) {
    ProfileThreadWaits &W = R.Waits[T];
    uint64_t Blocked = 0;
    for (unsigned K = 0; K != NumProfileWaitKinds; ++K)
      Blocked += W.BlockedTicks[K];
    const uint64_t Waiting =
        T < R.Core.Usage.size() ? R.Core.Usage[T].WaitingTicks : 0;
    W.RunnableWaitTicks = Waiting > Blocked ? Waiting - Blocked : 0;
    R.RunnableWaitTicks += W.RunnableWaitTicks;
  }
  return R;
}

std::string profileChromeEvents(const ProfileCore &Core) {
  std::string Out;
  if (Core.CriticalPath.empty())
    return Out;
  // Counter track: how many live threads are waiting for the processor at
  // each segment boundary (live = between their first and last tick).
  bool First = true;
  for (const ProfileSegment &Seg : Core.CriticalPath) {
    uint64_t Waiting = 0;
    for (const ProfileThreadUsage &U : Core.Usage) {
      if (U.RunningTicks == 0 || U.Thread == Seg.Thread)
        continue;
      if (U.FirstTick <= Seg.StartTick && Seg.StartTick <= U.LastTick)
        ++Waiting;
    }
    appendf(Out,
            "%s{\"ph\": \"C\", \"pid\": 0, \"name\": \"waiting threads\", "
            "\"ts\": %" PRIu64 ", \"args\": {\"waiting\": %" PRIu64 "}}",
            First ? "" : ",\n    ", Seg.StartTick, Waiting);
    First = false;
  }
  // Flow arrows along the critical path: one handoff per context switch,
  // from the last tick of a segment to the first tick of the next.
  for (size_t I = 1; I < Core.CriticalPath.size(); ++I) {
    const ProfileSegment &From = Core.CriticalPath[I - 1];
    const ProfileSegment &To = Core.CriticalPath[I];
    appendf(Out,
            ",\n    {\"ph\": \"s\", \"cat\": \"profile\", \"name\": "
            "\"handoff\", \"id\": %zu, \"pid\": 0, \"tid\": %" PRIu64
            ", \"ts\": %" PRIu64 "}",
            I, From.Thread, From.StartTick + From.Ticks - 1);
    appendf(Out,
            ",\n    {\"ph\": \"f\", \"bp\": \"e\", \"cat\": \"profile\", "
            "\"name\": \"handoff\", \"id\": %zu, \"pid\": 0, \"tid\": %" PRIu64
            ", \"ts\": %" PRIu64 "}",
            I, To.Thread, To.StartTick);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// TelemetrySink
//===----------------------------------------------------------------------===//

TelemetrySink::TelemetrySink(const TelemetryOptions &Opts) {
  if (Opts.Path == "-") {
    Out = stdout;
    OwnsFile = false;
  } else if (!Opts.Path.empty()) {
    Out = std::fopen(Opts.Path.c_str(), "w");
    OwnsFile = Out != nullptr;
  }
}

TelemetrySink::~TelemetrySink() {
  if (Out && OwnsFile)
    std::fclose(static_cast<FILE *>(Out));
}

void TelemetrySink::emitFrame(
    uint64_t Tick, const std::vector<std::pair<std::string, uint64_t>> &Counters,
    bool Final) {
  if (!Out)
    return;
  std::string Line;
  Line.reserve(256);
  appendf(Line,
          "{\"type\": \"tsr-telemetry\", \"seq\": %" PRIu64
          ", \"tick\": %" PRIu64 ", \"final\": %s, \"counters\": {",
          Seq, Tick, Final ? "true" : "false");
  for (size_t I = 0; I != Counters.size(); ++I)
    appendf(Line, "%s\"%s\": %" PRIu64, I ? ", " : "",
            jsonEscape(Counters[I].first).c_str(), Counters[I].second);
  Line += "}, \"deltas\": {";
  for (size_t I = 0; I != Counters.size(); ++I) {
    uint64_t Prev = 0;
    for (const auto &KV : Last)
      if (KV.first == Counters[I].first) {
        Prev = KV.second;
        break;
      }
    const uint64_t Delta =
        Counters[I].second >= Prev ? Counters[I].second - Prev : 0;
    appendf(Line, "%s\"%s\": %" PRIu64, I ? ", " : "",
            jsonEscape(Counters[I].first).c_str(), Delta);
  }
  Line += "}}\n";
  FILE *F = static_cast<FILE *>(Out);
  std::fwrite(Line.data(), 1, Line.size(), F);
  std::fflush(F);
  Bytes += Line.size();
  ++Seq;
  ++Frames;
  Last = Counters;
}

} // namespace tsr
