//===-- support/Recovery.cpp - Adaptive replay recovery ---------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/Recovery.h"

#include "support/ByteStream.h"
#include "support/Compiler.h"
#include "support/Crc32.h"
#include "support/Diag.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

using namespace tsr;

const char *tsr::recoveryModeName(RecoveryMode Mode) {
  switch (Mode) {
  case RecoveryMode::Strict:
    return "strict";
  case RecoveryMode::Resync:
    return "resync";
  case RecoveryMode::Adaptive:
    return "adaptive";
  }
  TSR_UNREACHABLE("invalid RecoveryMode");
}

const char *tsr::recoveryActionKindName(RecoveryActionKind Kind) {
  switch (Kind) {
  case RecoveryActionKind::SkipForward:
    return "skip-forward";
  case RecoveryActionKind::SynthesizeSyscall:
    return "synthesize-syscall";
  case RecoveryActionKind::ThreadFreeRun:
    return "thread-free-run";
  case RecoveryActionKind::ScheduleFreeRun:
    return "schedule-free-run";
  case RecoveryActionKind::RetryBackoff:
    return "retry-backoff";
  case RecoveryActionKind::WatchdogWarn:
    return "watchdog-warn";
  case RecoveryActionKind::WatchdogNudge:
    return "watchdog-nudge";
  case RecoveryActionKind::WatchdogSalvage:
    return "watchdog-salvage";
  }
  TSR_UNREACHABLE("invalid RecoveryActionKind");
}

std::string tsr::renderRecoveryAction(const RecoveryAction &A) {
  std::string Out = formatString(
      "[%s] tick %llu %s stream", recoveryActionKindName(A.Kind),
      static_cast<unsigned long long>(A.Tick), streamName(A.Stream));
  if (A.Thread != InvalidTid)
    Out += formatString(" thread %u", A.Thread);
  if (A.Count)
    Out += formatString(" (x%llu)", static_cast<unsigned long long>(A.Count));
  if (!A.Detail.empty())
    Out += ": " + A.Detail;
  return Out;
}

void RecoveryLog::record(RecoveryAction A) {
  std::lock_guard<std::mutex> L(Mu);
  ++ByKind[static_cast<unsigned>(A.Kind)];
  ++ByStream[static_cast<unsigned>(A.Stream)];
  if (Actions.size() >= MaxActions) {
    ++Dropped;
    return;
  }
  Actions.push_back(std::move(A));
}

std::vector<RecoveryAction> RecoveryLog::snapshot() const {
  std::lock_guard<std::mutex> L(Mu);
  return Actions;
}

uint64_t RecoveryLog::countOf(RecoveryActionKind Kind) const {
  std::lock_guard<std::mutex> L(Mu);
  return ByKind[static_cast<unsigned>(Kind)];
}

uint64_t RecoveryLog::countForStream(StreamKind Stream) const {
  std::lock_guard<std::mutex> L(Mu);
  return ByStream[static_cast<unsigned>(Stream)];
}

uint64_t RecoveryLog::total() const {
  std::lock_guard<std::mutex> L(Mu);
  uint64_t N = 0;
  for (uint64_t K : ByKind)
    N += K;
  return N;
}

uint64_t RecoveryLog::dropped() const {
  std::lock_guard<std::mutex> L(Mu);
  return Dropped;
}

// The sidecar is a single checksummed record: "TSRV" magic, a version
// byte, a varint action count, the serialised actions, then a CRC-32 of
// everything before it. It is auxiliary metadata — a damaged sidecar must
// degrade to a typed warning, never affect demo loading or replay.
namespace {
constexpr char SidecarMagic[4] = {'T', 'S', 'R', 'V'};
constexpr uint8_t SidecarVersion = 1;
} // namespace

bool tsr::saveRecoverySidecar(const std::string &Dir,
                              const std::vector<RecoveryAction> &Actions,
                              std::string &Error) {
  ByteWriter W;
  W.writeRaw(SidecarMagic, sizeof(SidecarMagic));
  W.writeByte(SidecarVersion);
  W.writeVarU64(Actions.size());
  for (const RecoveryAction &A : Actions) {
    W.writeByte(static_cast<uint8_t>(A.Kind));
    W.writeVarU64(A.Tick);
    W.writeVarU64(A.Thread);
    W.writeByte(static_cast<uint8_t>(A.Stream));
    W.writeVarU64(A.Count);
    W.writeString(A.Detail);
  }
  const uint32_t Crc = crc32(W.bytes());
  W.writeVarU64(Crc);
  const std::string Path = Dir + "/" + RecoverySidecarFileName;
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Error = formatString("%s: cannot write recovery sidecar: %s",
                         Path.c_str(), std::strerror(errno));
    return false;
  }
  const bool Ok =
      std::fwrite(W.data(), 1, W.size(), F) == W.size() && !std::fflush(F);
  if (std::fclose(F) != 0 || !Ok) {
    Error = formatString("%s: short write", Path.c_str());
    return false;
  }
  return true;
}

bool tsr::loadRecoverySidecar(const std::string &Dir,
                              RecoverySidecarInfo &Out) {
  Out = RecoverySidecarInfo();
  const std::string Path = Dir + "/" + RecoverySidecarFileName;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false; // Absent (or unreadable): not present, not an error.
  Out.Present = true;
  std::fseek(F, 0, SEEK_END);
  const long Size = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  std::vector<uint8_t> Bytes;
  if (Size > 0) {
    Bytes.resize(static_cast<size_t>(Size));
    if (std::fread(Bytes.data(), 1, Bytes.size(), F) != Bytes.size()) {
      std::fclose(F);
      Out.Error = "short read";
      return true;
    }
  }
  std::fclose(F);

  ByteReader R(Bytes);
  char Magic[4];
  uint8_t Version;
  if (!R.readRaw(Magic, sizeof(Magic)) ||
      std::memcmp(Magic, SidecarMagic, sizeof(Magic)) != 0) {
    Out.Error = "bad magic (not a recovery sidecar)";
    return true;
  }
  if (!R.readByte(Version) || Version != SidecarVersion) {
    Out.Error = "unsupported sidecar version";
    return true;
  }
  uint64_t Count;
  if (!R.readVarU64(Count)) {
    Out.Error = "truncated header";
    return true;
  }
  std::vector<RecoveryAction> Actions;
  for (uint64_t I = 0; I != Count; ++I) {
    RecoveryAction A;
    uint8_t Kind, Stream;
    uint64_t Thread;
    if (!R.readByte(Kind) || Kind >= NumRecoveryActionKinds ||
        !R.readVarU64(A.Tick) || !R.readVarU64(Thread) ||
        !R.readByte(Stream) || Stream >= NumStreamKinds ||
        !R.readVarU64(A.Count) || !R.readString(A.Detail)) {
      Out.Error = formatString("truncated or corrupt action record %llu",
                               static_cast<unsigned long long>(I));
      return true;
    }
    A.Kind = static_cast<RecoveryActionKind>(Kind);
    A.Thread = static_cast<Tid>(Thread);
    A.Stream = static_cast<StreamKind>(Stream);
    Actions.push_back(std::move(A));
  }
  const size_t PayloadEnd = R.position();
  uint64_t Crc;
  if (!R.readVarU64(Crc) || !R.atEnd()) {
    Out.Error = "truncated or trailing checksum";
    return true;
  }
  if (crc32(Bytes.data(), PayloadEnd) != Crc) {
    Out.Error = "checksum mismatch";
    return true;
  }
  Out.Valid = true;
  Out.Total = Actions.size();
  for (const RecoveryAction &A : Actions) {
    ++Out.ByKind[static_cast<unsigned>(A.Kind)];
    ++Out.ByStream[static_cast<unsigned>(A.Stream)];
  }
  Out.Actions = std::move(Actions);
  return true;
}
