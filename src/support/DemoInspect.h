//===-- support/DemoInspect.h - Demo decoding & inspection -----*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured decoding of a demo's streams, for the tsr-demo-dump tool,
/// debugging and tests. Decoding is read-only and tolerant: a truncated
/// stream yields the valid prefix plus an error note, mirroring how the
/// replayer treats exhausted streams.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_DEMOINSPECT_H
#define TSR_SUPPORT_DEMOINSPECT_H

#include "support/Demo.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tsr {

/// Everything a demo contains, decoded through the stream codecs of
/// support/Demo.h.
struct DemoInfo {
  /// META decoded completely (any format version).
  bool MetaValid = false;
  MetaRecord Meta;

  /// QUEUE: tid per tick.
  std::vector<uint64_t> Schedule;

  std::vector<SignalRecord> Signals;
  std::vector<AsyncRecord> Asyncs;
  std::vector<SyscallRecord> Syscalls;
  /// Out-buffer size of each SYSCALL record, parallel to Syscalls.
  std::vector<size_t> SyscallPayloadBytes;

  /// Non-fatal decoding problems (truncated streams etc).
  std::vector<std::string> Problems;
};

/// Decodes every stream of \p D.
DemoInfo inspectDemo(const Demo &D);

/// Renders \p Info as a human-readable multi-line report.
/// \p MaxEntriesPerStream bounds the per-stream detail lines (0 = summary
/// only).
std::string formatDemoInfo(const DemoInfo &Info,
                           size_t MaxEntriesPerStream = 20);

/// Renders \p Info as Chrome trace-event JSON ("traceEvents" array)
/// loadable in Perfetto / chrome://tracing. The QUEUE schedule becomes
/// one "X" slice per consecutive run of ticks by the same thread (ts =
/// tick index); SIGNAL deliveries and ASYNC injections become "i"
/// instant events. Purely virtual time: a demo records no wall clock.
/// Unlike chromeTraceJson (support/Trace.h) this needs no traced run —
/// any demo directory on disk can be visualised after the fact.
std::string demoTimelineJson(const DemoInfo &Info);

struct RecoverySidecarInfo;

/// Same, with the demo's RECOVERY sidecar (PR 6) merged in: every
/// recovery action becomes an "i" instant on the engine row, so a
/// recovered run shows where resync / free-run kicked in. \p Recovery
/// may be null or invalid (ignored).
std::string demoTimelineJson(const DemoInfo &Info,
                             const RecoverySidecarInfo *Recovery);

} // namespace tsr

#endif // TSR_SUPPORT_DEMOINSPECT_H
