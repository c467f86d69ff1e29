//===-- tools/DemoDump.cpp - tsr-demo-dump ---------------------------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Inspects a demo directory: decodes META, the QUEUE schedule, SIGNAL and
// ASYNC events and the SYSCALL records, and prints a human-readable
// report. Handy for debugging replay divergence.
//
// Usage: tsr-demo-dump <demo-dir> [max-entries-per-stream]
//        tsr-demo-dump verify <demo-dir>
//        tsr-demo-dump repair <demo-dir>
//
// The verify subcommand checks every stream file's integrity framing
// (magic, format version, kind byte, chunk CRCs) and the record structure
// of each stream, printing per-stream sizes, chunk counts and closure
// state. Only the current demo format (v3) verifies; a stream of any other
// version fails with an error naming the stream and its version. The
// repair subcommand salvages a demo directory left behind by a crashed
// recording: it drops torn chunk tails and cross-trims every stream to the
// last consistent tick frontier.
//
//===----------------------------------------------------------------------===//

#include "support/DemoInspect.h"
#include "support/Profile.h"
#include "support/Recovery.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

using namespace tsr;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s <demo-dir> [max-entries-per-stream]\n"
      "       %s verify <demo-dir>\n"
      "       %s repair <demo-dir>\n"
      "       %s timeline <demo-dir> [out.json]\n"
      "       %s profile <demo-dir> [out.json]\n"
      "\n"
      "timeline renders the demo's QUEUE/SIGNAL/ASYNC streams as Chrome\n"
      "trace-event JSON (ts = scheduler tick) to out.json, or stdout when\n"
      "omitted. Open it at https://ui.perfetto.dev or chrome://tracing.\n"
      "Recovery sidecar actions (RECOVERY) appear as instant events.\n"
      "\n"
      "profile reconstructs the schedule-level causal profile offline\n"
      "from the QUEUE/SIGNAL/SYSCALL streams — no re-execution: the\n"
      "virtual-time critical path with per-handoff gap attribution,\n"
      "per-thread utilization and the waiter/blocker contention matrix\n"
      "as canonical JSON (tsr-profile-core-v1), bit-identical to the\n"
      "in-process profile of the run that recorded the demo.\n"
      "\n"
      "verify exit status:\n"
      "  0  every stream is intact\n"
      "  1  the directory is a demo but at least one stream is corrupt\n"
      "     (try `repair` if it was recorded incrementally)\n"
      "  2  the directory is unreadable or not a tsr demo at all\n"
      "     (also returned for usage errors)\n"
      "\n"
      "repair exit status:\n"
      "  0  demo is intact, or was salvaged to a consistent prefix\n"
      "  1  salvage failed (damage beyond torn chunk tails)\n"
      "  2  the directory is unreadable or not a tsr demo at all\n",
      Prog, Prog, Prog, Prog, Prog);
  return 2;
}

/// True when \p Dir cannot possibly hold a demo: not a directory, or the
/// META stream file is absent. Distinguishes "you pointed me at the wrong
/// path" (exit 2) from "this demo is damaged" (exit 1).
bool unreadableDirectory(const char *Dir) {
  std::error_code Ec;
  if (!std::filesystem::is_directory(Dir, Ec) || Ec)
    return true;
  const std::string MetaFile =
      std::string(Dir) + "/" + streamName(StreamKind::Meta);
  return !std::filesystem::exists(MetaFile, Ec) || Ec;
}

/// Number of decoded records in a stream, for the verify listing. META is
/// a single header, QUEUE counts ticks, the rest count records.
size_t recordCount(const DemoInfo &Info, StreamKind Kind) {
  switch (Kind) {
  case StreamKind::Meta:
    return Info.MetaValid ? 1 : 0;
  case StreamKind::Queue:
    return Info.Schedule.size();
  case StreamKind::Signal:
    return Info.Signals.size();
  case StreamKind::Syscall:
    return Info.Syscalls.size();
  case StreamKind::Async:
    return Info.Asyncs.size();
  }
  return 0;
}

/// Prints the RECOVERY sidecar summary (if any) under a verify/repair
/// listing. The sidecar is advisory metadata: damage to it is reported as
/// a warning but never changes the exit-code contract.
void printRecoverySidecar(const char *Dir) {
  RecoverySidecarInfo Side;
  if (!loadRecoverySidecar(Dir, Side))
    return;
  if (!Side.Valid) {
    std::printf("  RECOVERY sidecar damaged (ignored): %s\n",
                Side.Error.c_str());
    return;
  }
  std::printf("  RECOVERY sidecar: %llu action%s",
              static_cast<unsigned long long>(Side.Total),
              Side.Total == 1 ? "" : "s");
  bool FirstStream = true;
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    if (!Side.ByStream[I])
      continue;
    std::printf("%s%s=%llu", FirstStream ? "  (" : " ",
                streamName(static_cast<StreamKind>(I)),
                static_cast<unsigned long long>(Side.ByStream[I]));
    FirstStream = false;
  }
  if (!FirstStream)
    std::printf(")");
  std::printf("\n");
  for (unsigned I = 0; I != NumRecoveryActionKinds; ++I) {
    if (!Side.ByKind[I])
      continue;
    std::printf("    %-18s %llu\n",
                recoveryActionKindName(static_cast<RecoveryActionKind>(I)),
                static_cast<unsigned long long>(Side.ByKind[I]));
  }
}

int verifyCommand(const char *Dir) {
  if (unreadableDirectory(Dir)) {
    std::fprintf(stderr, "error: %s: unreadable or not a tsr demo directory\n",
                 Dir);
    return 2;
  }
  std::array<Demo::StreamCheck, NumStreamKinds> Checks;
  std::string Error;
  const bool HeadersOk = Demo::verifyDirectory(Dir, Checks, Error);

  // Headers fine: also decode the records so the listing can show counts
  // and catch in-payload structural damage the CRC already rules out for
  // on-disk demos (but not for hand-assembled ones).
  Demo D;
  DemoInfo Info;
  bool Decoded = false;
  if (HeadersOk && D.loadFromDirectory(Dir, Error, Demo::LoadMode::Strict)) {
    Info = inspectDemo(D);
    Decoded = true;
  }

  bool AllOk = HeadersOk && Decoded && Info.Problems.empty();
  std::printf("verify %s\n", Dir);
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const Demo::StreamCheck &C = Checks[I];
    const char *Name = streamName(C.Kind);
    if (!C.Error.empty()) {
      std::printf("  %-7s FAIL  %s\n", Name, C.Error.c_str());
      continue;
    }
    if (!C.Present) {
      std::printf("  %-7s absent (loads as an empty stream)\n", Name);
      continue;
    }
    char Framing[64];
    std::snprintf(Framing, sizeof(Framing), "v%u %zu chunk%s %s",
                  Demo::FormatVersion, C.Chunks, C.Chunks == 1 ? "" : "s",
                  C.Closed ? "closed" : "OPEN");
    if (Decoded)
      std::printf("  %-7s ok    %6zu bytes  crc32=%08x  [%s]  %zu record%s\n",
                  Name, C.PayloadBytes, C.Crc, Framing,
                  recordCount(Info, C.Kind),
                  recordCount(Info, C.Kind) == 1 ? "" : "s");
    else
      std::printf("  %-7s ok    %6zu bytes  crc32=%08x  [%s]\n", Name,
                  C.PayloadBytes, C.Crc, Framing);
  }
  if (Decoded && D.truncated())
    std::printf("  demo is a salvaged prefix truncated at tick %llu\n",
                static_cast<unsigned long long>(D.frontier()));
  printRecoverySidecar(Dir);
  for (const std::string &P : Info.Problems) {
    std::printf("  record damage: %s\n", P.c_str());
    AllOk = false;
  }
  if (!AllOk && !Error.empty())
    std::printf("error: %s\n", Error.c_str());
  std::printf("%s\n", AllOk ? "OK" : "CORRUPT");
  return AllOk ? 0 : 1;
}

int repairCommand(const char *Dir) {
  if (unreadableDirectory(Dir)) {
    std::fprintf(stderr, "error: %s: unreadable or not a tsr demo directory\n",
                 Dir);
    return 2;
  }
  Demo::SalvageReport Rep;
  std::string Error;
  if (!Demo::salvageDirectory(Dir, Rep, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("repair %s\n", Dir);
  for (const Demo::StreamFix &F : Rep.Streams) {
    const char *Name = streamName(F.Kind);
    if (!F.Present) {
      std::printf("  %-7s absent\n", Name);
      continue;
    }
    if (!F.Rewritten) {
      std::printf("  %-7s intact (%zu chunk%s kept)\n", Name, F.ChunksKept,
                  F.ChunksKept == 1 ? "" : "s");
      continue;
    }
    std::printf("  %-7s rewritten: kept %zu chunk%s, dropped %zu chunk%s "
                "(%zu byte%s)\n",
                Name, F.ChunksKept, F.ChunksKept == 1 ? "" : "s",
                F.ChunksDropped, F.ChunksDropped == 1 ? "" : "s",
                F.BytesDropped, F.BytesDropped == 1 ? "" : "s");
  }
  printRecoverySidecar(Dir);
  if (Rep.Clean)
    std::printf("demo was already consistent; nothing to do\n");
  else
    std::printf("salvaged prefix is consistent up to tick %llu\n",
                static_cast<unsigned long long>(Rep.Frontier));
  return 0;
}

int timelineCommand(const char *Dir, const char *OutPath) {
  if (unreadableDirectory(Dir)) {
    std::fprintf(stderr, "error: %s: unreadable or not a tsr demo directory\n",
                 Dir);
    return 2;
  }
  Demo D;
  std::string Error;
  if (!D.loadFromDirectory(Dir, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  const DemoInfo Info = inspectDemo(D);
  for (const std::string &P : Info.Problems)
    std::fprintf(stderr, "warning: %s\n", P.c_str());
  // A RECOVERY sidecar (if present and intact) lands on the engine row.
  RecoverySidecarInfo Side;
  const bool HasSidecar = loadRecoverySidecar(Dir, Side) && Side.Valid;
  const std::string Json =
      demoTimelineJson(Info, HasSidecar ? &Side : nullptr);
  if (!OutPath) {
    std::fwrite(Json.data(), 1, Json.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  FILE *F = std::fopen(OutPath, "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath);
    return 1;
  }
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fclose(F);
  std::printf("wrote %zu ticks, %zu signals, %zu async events, %zu "
              "recovery actions to %s\n",
              Info.Schedule.size(), Info.Signals.size(), Info.Asyncs.size(),
              HasSidecar ? Side.Actions.size() : 0, OutPath);
  return 0;
}

int profileCommand(const char *Dir, const char *OutPath) {
  if (unreadableDirectory(Dir)) {
    std::fprintf(stderr, "error: %s: unreadable or not a tsr demo directory\n",
                 Dir);
    return 2;
  }
  Demo D;
  std::string Error;
  if (!D.loadFromDirectory(Dir, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  const DemoInfo Info = inspectDemo(D);
  for (const std::string &P : Info.Problems)
    std::fprintf(stderr, "warning: %s\n", P.c_str());
  const ProfileCore Core = analyzeProfile(profileInputsFromDemo(Info));
  const std::string Json = profileCoreJson(Core);
  if (!OutPath) {
    std::fwrite(Json.data(), 1, Json.size(), stdout);
    return 0;
  }
  FILE *F = std::fopen(OutPath, "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath);
    return 1;
  }
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fclose(F);
  std::printf("wrote profile of %llu ticks across %llu threads (%zu "
              "critical-path segments) to %s\n",
              static_cast<unsigned long long>(Core.TotalTicks),
              static_cast<unsigned long long>(Core.Threads),
              Core.CriticalPath.size(), OutPath);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2 || std::strcmp(Argv[1], "--help") == 0 ||
      std::strcmp(Argv[1], "-h") == 0)
    return usage(Argv[0]);

  if (std::strcmp(Argv[1], "verify") == 0) {
    if (Argc != 3)
      return usage(Argv[0]);
    return verifyCommand(Argv[2]);
  }

  if (std::strcmp(Argv[1], "repair") == 0) {
    if (Argc != 3)
      return usage(Argv[0]);
    return repairCommand(Argv[2]);
  }

  if (std::strcmp(Argv[1], "timeline") == 0) {
    if (Argc != 3 && Argc != 4)
      return usage(Argv[0]);
    return timelineCommand(Argv[2], Argc == 4 ? Argv[3] : nullptr);
  }

  if (std::strcmp(Argv[1], "profile") == 0) {
    if (Argc != 3 && Argc != 4)
      return usage(Argv[0]);
    return profileCommand(Argv[2], Argc == 4 ? Argv[3] : nullptr);
  }

  const size_t MaxEntries =
      Argc > 2 ? static_cast<size_t>(std::atoi(Argv[2])) : 20;

  Demo D;
  std::string Error;
  if (!D.loadFromDirectory(Argv[1], Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("demo %s: %zu bytes (META=%zu QUEUE=%zu SIGNAL=%zu "
              "SYSCALL=%zu ASYNC=%zu)\n\n",
              Argv[1], D.totalSize(), D.streamSize(StreamKind::Meta),
              D.streamSize(StreamKind::Queue),
              D.streamSize(StreamKind::Signal),
              D.streamSize(StreamKind::Syscall),
              D.streamSize(StreamKind::Async));
  if (D.truncated())
    std::printf("demo is a salvaged prefix truncated at tick %llu\n\n",
                static_cast<unsigned long long>(D.frontier()));
  const DemoInfo Info = inspectDemo(D);
  std::fputs(formatDemoInfo(Info, MaxEntries).c_str(), stdout);
  return Info.Problems.empty() ? 0 : 1;
}
