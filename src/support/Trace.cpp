//===-- support/Trace.cpp - Virtual-time execution tracing ------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Compiler.h"
#include "support/Diag.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>

using namespace tsr;

const char *tsr::traceEventKindName(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::Tick:
    return "tick";
  case TraceEventKind::ThreadStart:
    return "thread-start";
  case TraceEventKind::ThreadExit:
    return "thread-exit";
  case TraceEventKind::SyscallEnter:
    return "syscall-enter";
  case TraceEventKind::SyscallExit:
    return "syscall-exit";
  case TraceEventKind::Park:
    return "park";
  case TraceEventKind::Wake:
    return "wake";
  case TraceEventKind::StrategyDecision:
    return "strategy-decision";
  case TraceEventKind::SignalDeliver:
    return "signal-deliver";
  case TraceEventKind::DemoFlush:
    return "demo-flush";
  case TraceEventKind::RaceReport:
    return "race-report";
  case TraceEventKind::Desync:
    return "desync";
  case TraceEventKind::NumKinds:
    break;
  }
  return "unknown";
}

namespace {
uint64_t monotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
} // namespace

/// One single-writer ring. The writer is the owning thread (or, for the
/// engine slot, whoever holds the scheduler lock); readers only run after
/// the writers are joined.
struct TraceRecorder::Buffer {
  explicit Buffer(size_t Capacity) : Ring(Capacity) {}
  std::vector<TraceEvent> Ring;
  size_t Next = 0;       ///< Next write position.
  uint64_t Written = 0;  ///< Total events ever written here.
};

TraceRecorder::TraceRecorder(const TraceOptions &Opts) : Opts(Opts) {
  if (this->Opts.BufferEvents == 0)
    this->Opts.BufferEvents = 1;
  for (auto &Slot : Buffers)
    Slot.store(nullptr, std::memory_order_relaxed);
  EpochNs = monotonicNowNs();
}

TraceRecorder::~TraceRecorder() {
  for (auto &Slot : Buffers)
    delete Slot.load(std::memory_order_acquire);
}

TraceRecorder::Buffer *TraceRecorder::bufferForSlot(size_t Slot) {
  Buffer *B = Buffers[Slot].load(std::memory_order_acquire);
  if (TSR_LIKELY(B != nullptr))
    return B;
  // Each slot has exactly one writer, so no allocation race is possible;
  // the release store publishes the buffer to the post-run snapshot.
  B = new Buffer(Opts.BufferEvents);
  Buffers[Slot].store(B, std::memory_order_release);
  return B;
}

void TraceRecorder::emitToSlot(size_t Slot, Tid Thread, TraceEventKind Kind,
                               uint64_t Tick, uint64_t A, uint64_t B) {
  assert(Slot < MaxBuffers && "trace emission from a tid beyond MaxThreads");
  Buffer &Buf = *bufferForSlot(Slot);
  TraceEvent &E = Buf.Ring[Buf.Next];
  E.Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  E.Tick = Tick;
  // The two per-tick kinds are displayed in tick units and never feed the
  // wall-latency histogram, so they skip the clock read — it is the
  // dominant per-event cost on the scheduler-lock-held paths.
  const bool WantsWall = Opts.WallClock &&
                         Kind != TraceEventKind::Tick &&
                         Kind != TraceEventKind::StrategyDecision;
  E.WallNs = WantsWall ? monotonicNowNs() - EpochNs : 0;
  E.A = A;
  E.B = B;
  E.Thread = Thread;
  E.Kind = Kind;
  Buf.Next = Buf.Next + 1 == Buf.Ring.size() ? 0 : Buf.Next + 1;
  ++Buf.Written;
  if (Kind == TraceEventKind::Tick)
    LastTick.store(Tick, std::memory_order_relaxed);
}

void TraceRecorder::emit(Tid Thread, TraceEventKind Kind, uint64_t Tick,
                         uint64_t A, uint64_t B) {
  emitToSlot(static_cast<size_t>(Thread) + 1, Thread, Kind, Tick, A, B);
}

void TraceRecorder::emitEngine(TraceEventKind Kind, uint64_t Tick,
                               Tid Thread, uint64_t A, uint64_t B) {
  emitToSlot(0, Thread, Kind, Tick, A, B);
}

uint64_t TraceRecorder::emitted() const {
  return NextSeq.load(std::memory_order_relaxed);
}

uint64_t TraceRecorder::dropped() const {
  uint64_t N = 0;
  for (const auto &Slot : Buffers)
    if (const Buffer *B = Slot.load(std::memory_order_acquire))
      if (B->Written > B->Ring.size())
        N += B->Written - B->Ring.size();
  return N;
}

TraceSnapshot TraceRecorder::snapshot() const {
  TraceSnapshot S;
  S.Emitted = emitted();
  S.Dropped = dropped();
  S.Events.reserve(S.Emitted > S.Dropped
                       ? static_cast<size_t>(S.Emitted - S.Dropped)
                       : 0);
  for (const auto &Slot : Buffers) {
    const Buffer *B = Slot.load(std::memory_order_acquire);
    if (!B || B->Written == 0)
      continue;
    if (B->Written <= B->Ring.size()) {
      S.Events.insert(S.Events.end(), B->Ring.begin(),
                      B->Ring.begin() + static_cast<ptrdiff_t>(B->Written));
    } else {
      // Wrapped: the oldest surviving event sits at Next.
      S.Events.insert(S.Events.end(),
                      B->Ring.begin() + static_cast<ptrdiff_t>(B->Next),
                      B->Ring.end());
      S.Events.insert(S.Events.end(), B->Ring.begin(),
                      B->Ring.begin() + static_cast<ptrdiff_t>(B->Next));
    }
  }
  std::sort(S.Events.begin(), S.Events.end(),
            [](const TraceEvent &L, const TraceEvent &R) {
              return L.Seq < R.Seq;
            });
  return S;
}

std::vector<TraceEvent> TraceSnapshot::virtualEvents() const {
  std::vector<TraceEvent> V;
  for (const TraceEvent &E : Events)
    if (traceEventVirtual(E.Kind))
      V.push_back(E);
  // Within one tick only one thread emits virtual events (it holds the
  // critical section), so (Tick, Seq) is a deterministic order: Seq only
  // breaks ties within a single thread's program order.
  std::stable_sort(V.begin(), V.end(),
                   [](const TraceEvent &L, const TraceEvent &R) {
                     return L.Tick != R.Tick ? L.Tick < R.Tick
                                             : L.Seq < R.Seq;
                   });
  return V;
}

std::string tsr::formatTraceEvent(const TraceEvent &E) {
  std::string Out = formatString(
      "[tick %llu] ", static_cast<unsigned long long>(E.Tick));
  Out += E.Thread == InvalidTid
             ? "engine"
             : formatString("t%u", static_cast<unsigned>(E.Thread));
  Out += formatString(" %s", traceEventKindName(E.Kind));
  if (E.A || E.B)
    Out += formatString(" a=%llu b=%llu",
                        static_cast<unsigned long long>(E.A),
                        static_cast<unsigned long long>(E.B));
  if (E.WallNs)
    Out += formatString(" wall=%lluns",
                        static_cast<unsigned long long>(E.WallNs));
  return Out;
}

std::string tsr::excerptAround(const TraceSnapshot &S, uint64_t Tick,
                               unsigned Context, size_t MaxLines) {
  const uint64_t Lo = Tick > Context ? Tick - Context : 0;
  const uint64_t Hi = Tick + Context;
  std::string Out;
  size_t Lines = 0, Skipped = 0;
  for (const TraceEvent &E : S.Events) {
    if (E.Tick < Lo || E.Tick > Hi)
      continue;
    if (Lines == MaxLines) {
      ++Skipped;
      continue;
    }
    Out += formatTraceEvent(E);
    Out += '\n';
    ++Lines;
  }
  if (Skipped)
    Out += formatString("... %zu more events in window\n", Skipped);
  return Out;
}

TraceDivergence tsr::diffTraces(const TraceSnapshot &Recorded,
                                const TraceSnapshot &Replayed,
                                unsigned Context) {
  const std::vector<TraceEvent> A = Recorded.virtualEvents();
  const std::vector<TraceEvent> B = Replayed.virtualEvents();
  const size_t N = std::min(A.size(), B.size());
  TraceDivergence D;
  size_t I = 0;
  while (I != N && A[I].Tick == B[I].Tick && A[I].Thread == B[I].Thread &&
         A[I].Kind == B[I].Kind)
    ++I;
  if (I == N && A.size() == B.size())
    return D; // Identical in virtual time.
  D.Diverged = true;
  D.Index = I;
  if (I < N) {
    D.Tick = std::min(A[I].Tick, B[I].Tick);
    D.Summary = formatString(
        "virtual traces diverge at event %zu: recorded {%s}, replayed {%s}",
        I, formatTraceEvent(A[I]).c_str(), formatTraceEvent(B[I]).c_str());
  } else {
    const bool RecLonger = A.size() > B.size();
    const TraceEvent &Next = RecLonger ? A[I] : B[I];
    D.Tick = Next.Tick;
    D.Summary = formatString(
        "%s trace ends at event %zu; %s continues with {%s}",
        RecLonger ? "replayed" : "recorded", I,
        RecLonger ? "recording" : "replay",
        formatTraceEvent(Next).c_str());
  }
  D.Excerpt = "recorded:\n" + excerptAround(Recorded, D.Tick, Context) +
              "replayed:\n" + excerptAround(Replayed, D.Tick, Context);
  return D;
}

//===----------------------------------------------------------------------===//
// Chrome trace-event export
//===----------------------------------------------------------------------===//

namespace {

void appendEvent(std::string &Out, bool &First, const std::string &Ev) {
  if (!First)
    Out += ",\n";
  First = false;
  Out += "    ";
  Out += Ev;
}

std::string metaEvent(uint64_t Tid, const char *What,
                      const std::string &Name) {
  return formatString("{\"name\":\"%s\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":%llu,\"args\":{\"name\":\"%s\"}}",
                      What, static_cast<unsigned long long>(Tid),
                      jsonEscape(Name).c_str());
}

std::string instantEvent(const std::string &Name, uint64_t Ts, uint64_t Tid,
                         const std::string &Args) {
  return formatString("{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":%llu,\"pid\":0,\"tid\":%llu,\"args\":{%s}}",
                      jsonEscape(Name).c_str(),
                      static_cast<unsigned long long>(Ts),
                      static_cast<unsigned long long>(Tid), Args.c_str());
}

std::string sliceEvent(const std::string &Name, uint64_t Ts, uint64_t Dur,
                       uint64_t Tid, const std::string &Args) {
  return formatString("{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%llu,"
                      "\"dur\":%llu,\"pid\":0,\"tid\":%llu,\"args\":{%s}}",
                      jsonEscape(Name).c_str(),
                      static_cast<unsigned long long>(Ts),
                      static_cast<unsigned long long>(Dur),
                      static_cast<unsigned long long>(Tid), Args.c_str());
}

/// Row used for engine events (no controlled thread).
constexpr uint64_t EngineRow = 1000000;

uint64_t rowFor(Tid T) { return T == InvalidTid ? EngineRow : T; }

} // namespace

std::string tsr::chromeTraceJson(const TraceSnapshot &S) {
  return chromeTraceJson(S, std::string());
}

std::string tsr::chromeTraceJson(const TraceSnapshot &S,
                                 const std::string &ExtraEvents) {
  std::string Out = "{\n  \"displayTimeUnit\": \"ms\",\n"
                    "  \"otherData\": {\"clock\": \"virtual (scheduler "
                    "ticks)\"},\n  \"traceEvents\": [\n";
  bool First = true;

  // Thread-name metadata for every row that appears.
  std::vector<uint64_t> Rows;
  for (const TraceEvent &E : S.Events) {
    const uint64_t Row = rowFor(E.Thread);
    if (std::find(Rows.begin(), Rows.end(), Row) == Rows.end())
      Rows.push_back(Row);
  }
  std::sort(Rows.begin(), Rows.end());
  appendEvent(Out, First, metaEvent(0, "process_name", "tsr virtual time"));
  for (uint64_t Row : Rows)
    appendEvent(Out, First,
                metaEvent(Row, "thread_name",
                          Row == EngineRow
                              ? "engine"
                              : formatString("t%llu",
                                             static_cast<unsigned long long>(
                                                 Row))));

  // Coalesce consecutive Tick events by the same thread into one
  // execution slice per run: ts = first tick, dur = run length.
  {
    bool Open = false;
    Tid RunThread = InvalidTid;
    uint64_t RunStart = 0, RunEnd = 0;
    auto Close = [&] {
      if (Open)
        appendEvent(Out, First,
                    sliceEvent("run", RunStart, RunEnd - RunStart + 1,
                               rowFor(RunThread), ""));
      Open = false;
    };
    for (const TraceEvent &E : S.Events) {
      if (E.Kind != TraceEventKind::Tick)
        continue;
      if (Open && E.Thread == RunThread && E.Tick == RunEnd + 1) {
        RunEnd = E.Tick;
        continue;
      }
      Close();
      Open = true;
      RunThread = E.Thread;
      RunStart = RunEnd = E.Tick;
    }
    Close();
  }

  // Everything else becomes instants (syscall enter/exit pairs merge into
  // one instant carrying the exit's result annotations).
  for (size_t I = 0; I != S.Events.size(); ++I) {
    const TraceEvent &E = S.Events[I];
    switch (E.Kind) {
    case TraceEventKind::Tick:
    case TraceEventKind::Park:
    case TraceEventKind::Wake:
      break; // Ticks became slices; park/wake pair up below.
    case TraceEventKind::SyscallEnter: {
      std::string Args =
          formatString("\"kind\":%llu,\"fd_class\":%llu",
                       static_cast<unsigned long long>(E.A),
                       static_cast<unsigned long long>(E.B));
      // The matching exit is the next syscall event of this thread.
      for (size_t J = I + 1; J != S.Events.size(); ++J) {
        const TraceEvent &X = S.Events[J];
        if (X.Thread != E.Thread ||
            (X.Kind != TraceEventKind::SyscallExit &&
             X.Kind != TraceEventKind::SyscallEnter))
          continue;
        if (X.Kind == TraceEventKind::SyscallExit)
          Args += formatString(
              ",\"errno\":%llu,\"injected\":%s,\"cost_ns\":%llu",
              static_cast<unsigned long long>(syscallExitErr(X.B)),
              syscallExitInjected(X.B) ? "true" : "false",
              static_cast<unsigned long long>(syscallExitCostNs(X.B)));
        break;
      }
      appendEvent(Out, First,
                  instantEvent(formatString("syscall %llu",
                                            static_cast<unsigned long long>(
                                                E.A)),
                               E.Tick, rowFor(E.Thread), Args));
      break;
    }
    case TraceEventKind::SyscallExit:
      break; // Folded into the enter instant.
    default:
      appendEvent(
          Out, First,
          instantEvent(traceEventKindName(E.Kind), E.Tick, rowFor(E.Thread),
                       formatString("\"a\":%llu,\"b\":%llu",
                                    static_cast<unsigned long long>(E.A),
                                    static_cast<unsigned long long>(E.B))));
      break;
    }
  }

  // Park→wake pairs become "parked" slices on the thread's row.
  {
    std::vector<std::pair<Tid, uint64_t>> Pending;
    for (const TraceEvent &E : S.Events) {
      if (E.Kind == TraceEventKind::Park) {
        Pending.emplace_back(E.Thread, E.Tick);
      } else if (E.Kind == TraceEventKind::Wake) {
        for (size_t I = Pending.size(); I-- > 0;) {
          if (Pending[I].first != E.Thread)
            continue;
          appendEvent(Out, First,
                      sliceEvent("parked", Pending[I].second,
                                 E.Tick - Pending[I].second,
                                 rowFor(E.Thread), ""));
          Pending.erase(Pending.begin() + static_cast<ptrdiff_t>(I));
          break;
        }
      }
    }
  }

  // Caller-supplied events (profile counter tracks and flow arrows) are
  // spliced in verbatim, already rendered as comma-separated objects.
  if (!ExtraEvents.empty()) {
    if (!First)
      Out += ",\n    ";
    Out += ExtraEvents;
    First = false;
  }

  Out += "\n  ]\n}\n";
  return Out;
}
