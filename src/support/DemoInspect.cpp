//===-- support/DemoInspect.cpp - Demo decoding & inspection ---*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/DemoInspect.h"

#include "support/Diag.h"
#include "support/Metrics.h"
#include "support/Recovery.h"

using namespace tsr;

DemoInfo tsr::inspectDemo(const Demo &D) {
  DemoInfo Info;

  Info.MetaValid =
      decodeMeta(D.stream(StreamKind::Meta), Info.Meta) == MetaField::End;
  if (!Info.MetaValid && D.streamSize(StreamKind::Meta))
    Info.Problems.push_back("META: not a valid tsr demo header");

  // QUEUE.
  {
    RleU64Reader R(D.reader(StreamKind::Queue));
    uint64_t V;
    while (R.pop(V))
      Info.Schedule.push_back(V);
    if (!R.atEnd())
      Info.Problems.push_back("QUEUE: trailing bytes after last run");
  }

  if (decodeSignals(D.stream(StreamKind::Signal), Info.Signals) !=
      D.streamSize(StreamKind::Signal))
    Info.Problems.push_back("SIGNAL: truncated record");

  if (decodeAsyncs(D.stream(StreamKind::Async), Info.Asyncs) !=
      D.streamSize(StreamKind::Async))
    Info.Problems.push_back("ASYNC: truncated record");

  {
    ByteReader R = D.reader(StreamKind::Syscall);
    SyscallRecord S;
    std::vector<uint8_t> OutBuf;
    while (!R.atEnd()) {
      if (!decodeSyscallKind(R, S) || !decodeSyscallBody(R, S, OutBuf)) {
        Info.Problems.push_back("SYSCALL: truncated record");
        break;
      }
      Info.Syscalls.push_back(S);
      Info.SyscallPayloadBytes.push_back(OutBuf.size());
    }
  }

  return Info;
}

namespace {

const char *strategyNameByIndex(unsigned I) {
  static const char *Names[] = {"random", "queue", "round-robin", "pct",
                                "delay-bounded"};
  return I < 5 ? Names[I] : "unknown";
}

const char *syscallNameByIndex(uint64_t I) {
  static const char *Names[] = {
      "read",    "write",  "recv",          "send",   "recvmsg",
      "sendmsg", "accept", "accept4",       "clock_gettime", "ioctl",
      "select",  "poll",   "bind",          "socket", "listen",
      "connect", "open",   "close",         "pipe",   "sleep_ms",
      "alloc_hint"};
  return I < sizeof(Names) / sizeof(Names[0]) ? Names[I] : "unknown";
}

} // namespace

std::string tsr::formatDemoInfo(const DemoInfo &Info,
                                size_t MaxEntriesPerStream) {
  std::string Out;
  if (Info.MetaValid) {
    const MetaRecord &M = Info.Meta;
    Out += formatString(
        "META: version %llu strategy=%s controlled=%s weak-memory=%s\n"
        "      seeds=%016llx/%016llx policy=%016llx\n",
        static_cast<unsigned long long>(M.FormatVersion),
        strategyNameByIndex(M.Strategy), M.Controlled ? "yes" : "no",
        M.WeakMemory ? "yes" : "no",
        static_cast<unsigned long long>(M.Seed0),
        static_cast<unsigned long long>(M.Seed1),
        static_cast<unsigned long long>(M.PolicyHash));
    if (M.FaultPlanHash)
      Out += formatString(
          "      recorded under fault injection (plan %016llx)\n",
          static_cast<unsigned long long>(M.FaultPlanHash));
  } else {
    Out += "META: absent or invalid\n";
  }

  Out += formatString("QUEUE: %zu scheduled ticks\n", Info.Schedule.size());
  if (!Info.Schedule.empty() && MaxEntriesPerStream) {
    Out += "  schedule (run-length):";
    size_t Shown = 0;
    for (size_t I = 0; I < Info.Schedule.size() && Shown < MaxEntriesPerStream;) {
      size_t Run = 1;
      while (I + Run < Info.Schedule.size() &&
             Info.Schedule[I + Run] == Info.Schedule[I])
        ++Run;
      Out += formatString(" t%llu x%zu",
                          static_cast<unsigned long long>(Info.Schedule[I]),
                          Run);
      I += Run;
      ++Shown;
    }
    if (Shown == MaxEntriesPerStream)
      Out += " ...";
    Out += "\n";
  }

  Out += formatString("SIGNAL: %zu entries\n", Info.Signals.size());
  for (size_t I = 0; I < Info.Signals.size() && I < MaxEntriesPerStream; ++I)
    Out += formatString(
        "  thread %llu receives signal %llu at tick %llu\n",
        static_cast<unsigned long long>(Info.Signals[I].Thread),
        static_cast<unsigned long long>(Info.Signals[I].Signo),
        static_cast<unsigned long long>(Info.Signals[I].Tick));

  Out += formatString("ASYNC: %zu events\n", Info.Asyncs.size());
  for (size_t I = 0; I < Info.Asyncs.size() && I < MaxEntriesPerStream; ++I)
    Out += formatString(
        "  tick %llu: %s (thread %llu)\n",
        static_cast<unsigned long long>(Info.Asyncs[I].Tick),
        Info.Asyncs[I].Kind == AsyncEventKind::Reschedule ? "reschedule"
                                                          : "signal-wakeup",
        static_cast<unsigned long long>(Info.Asyncs[I].Thread));

  Out += formatString("SYSCALL: %zu records\n", Info.Syscalls.size());
  for (size_t I = 0; I < Info.Syscalls.size() && I < MaxEntriesPerStream;
       ++I)
    Out += formatString(
        "  %s ret=%lld errno=%llu payload=%zuB\n",
        syscallNameByIndex(Info.Syscalls[I].Kind),
        static_cast<long long>(Info.Syscalls[I].Ret),
        static_cast<unsigned long long>(Info.Syscalls[I].Err),
        Info.SyscallPayloadBytes[I]);

  for (const std::string &P : Info.Problems)
    Out += "warning: " + P + "\n";
  return Out;
}

std::string tsr::demoTimelineJson(const DemoInfo &Info) {
  return demoTimelineJson(Info, nullptr);
}

std::string tsr::demoTimelineJson(const DemoInfo &Info,
                                  const RecoverySidecarInfo *Recovery) {
  // Same layout conventions as chromeTraceJson (support/Trace.h): one
  // process, one row per thread, the engine on a high sentinel row.
  constexpr uint64_t EngineRow = 1000000;
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  const auto Emit = [&](const std::string &Event) {
    if (!First)
      Out += ',';
    First = false;
    Out += Event;
  };

  Emit("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
       "\"tsr demo\"}}");
  Emit(formatString("{\"ph\":\"M\",\"pid\":1,\"tid\":%llu,\"name\":"
                    "\"thread_name\",\"args\":{\"name\":\"engine\"}}",
                    static_cast<unsigned long long>(EngineRow)));
  uint64_t MaxTid = 0;
  for (uint64_t T : Info.Schedule)
    MaxTid = T > MaxTid ? T : MaxTid;
  for (uint64_t T = 0; T <= MaxTid && !Info.Schedule.empty(); ++T)
    Emit(formatString("{\"ph\":\"M\",\"pid\":1,\"tid\":%llu,\"name\":"
                      "\"thread_name\",\"args\":{\"name\":\"thread %llu\"}}",
                      static_cast<unsigned long long>(T),
                      static_cast<unsigned long long>(T)));

  // QUEUE: coalesce consecutive ticks by the same thread into one slice.
  for (size_t I = 0; I < Info.Schedule.size();) {
    size_t J = I + 1;
    while (J < Info.Schedule.size() && Info.Schedule[J] == Info.Schedule[I])
      ++J;
    Emit(formatString("{\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%zu,"
                      "\"dur\":%zu,\"name\":\"run\",\"args\":{\"ticks\":%zu}}",
                      static_cast<unsigned long long>(Info.Schedule[I]), I,
                      J - I, J - I));
    I = J;
  }

  for (const SignalRecord &S : Info.Signals)
    Emit(formatString("{\"ph\":\"i\",\"pid\":1,\"tid\":%llu,\"ts\":%llu,"
                      "\"s\":\"t\",\"name\":\"signal\",\"args\":{\"signo\":"
                      "%llu}}",
                      static_cast<unsigned long long>(S.Thread),
                      static_cast<unsigned long long>(S.Tick),
                      static_cast<unsigned long long>(S.Signo)));

  for (const AsyncRecord &A : Info.Asyncs)
    Emit(formatString("{\"ph\":\"i\",\"pid\":1,\"tid\":%llu,\"ts\":%llu,"
                      "\"s\":\"t\",\"name\":\"%s\",\"args\":{\"thread\":"
                      "%llu}}",
                      static_cast<unsigned long long>(EngineRow),
                      static_cast<unsigned long long>(A.Tick),
                      A.Kind == AsyncEventKind::Reschedule ? "reschedule"
                                                           : "signal-wakeup",
                      static_cast<unsigned long long>(A.Thread)));

  // RECOVERY sidecar actions (PR 6) land on the engine row as instants,
  // so a recovered run shows *where* resync / free-run kicked in.
  if (Recovery && Recovery->Valid)
    for (const RecoveryAction &A : Recovery->Actions)
      Emit(formatString(
          "{\"ph\":\"i\",\"pid\":1,\"tid\":%llu,\"ts\":%llu,\"s\":\"t\","
          "\"name\":\"recovery:%s\",\"args\":{\"thread\":%lld,\"count\":"
          "%llu,\"detail\":\"%s\"}}",
          static_cast<unsigned long long>(EngineRow),
          static_cast<unsigned long long>(A.Tick),
          recoveryActionKindName(A.Kind),
          A.Thread == InvalidTid ? -1LL : static_cast<long long>(A.Thread),
          static_cast<unsigned long long>(A.Count),
          jsonEscape(A.Detail).c_str()));

  Out += "]}";
  return Out;
}
