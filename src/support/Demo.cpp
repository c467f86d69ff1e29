//===-- support/Demo.cpp - Demo files (record/replay logs) -----*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/Demo.h"

#include "support/Compiler.h"
#include "support/Crc32.h"
#include "support/Diag.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

using namespace tsr;

const char *tsr::streamName(StreamKind Kind) {
  switch (Kind) {
  case StreamKind::Meta:
    return "META";
  case StreamKind::Queue:
    return "QUEUE";
  case StreamKind::Signal:
    return "SIGNAL";
  case StreamKind::Syscall:
    return "SYSCALL";
  case StreamKind::Async:
    return "ASYNC";
  }
  TSR_UNREACHABLE("invalid StreamKind");
}

size_t Demo::totalSize() const {
  size_t Total = 0;
  for (const auto &S : Streams)
    Total += S.size();
  return Total;
}

//===----------------------------------------------------------------------===//
// Stream records
//===----------------------------------------------------------------------===//

namespace {
constexpr const char *MetaMagic = "tsrdemo";
} // namespace

void tsr::encodeMeta(ByteWriter &W, const MetaRecord &M) {
  W.writeString(MetaMagic);
  W.writeVarU64(M.FormatVersion);
  W.writeByte(M.Strategy);
  W.writeByte(M.Controlled ? 1 : 0);
  W.writeByte(M.WeakMemory ? 1 : 0);
  W.writeVarU64(M.Seed0);
  W.writeVarU64(M.Seed1);
  W.writeVarU64(M.PolicyHash);
  W.writeVarU64(M.FaultPlanHash);
}

MetaField tsr::decodeMeta(const std::vector<uint8_t> &Bytes, MetaRecord &Out) {
  ByteReader R(Bytes);
  std::string Magic;
  if (!R.readString(Magic) || Magic != MetaMagic)
    return MetaField::Magic;
  if (!R.readVarU64(Out.FormatVersion))
    return MetaField::Version;
  uint8_t Controlled = 0, Weak = 0;
  if (!R.readByte(Out.Strategy) || !R.readByte(Controlled) ||
      !R.readByte(Weak) || !R.readVarU64(Out.Seed0) ||
      !R.readVarU64(Out.Seed1) || !R.readVarU64(Out.PolicyHash) ||
      !R.readVarU64(Out.FaultPlanHash))
    return MetaField::Body;
  Out.Controlled = Controlled != 0;
  Out.WeakMemory = Weak != 0;
  return MetaField::End;
}

namespace {

/// Decodes records with \p DecodeOne until \p Bytes is exhausted or a
/// record is cut short; returns the offset where decoding stopped.
template <class Record, class DecodeFn>
size_t decodeRecords(const std::vector<uint8_t> &Bytes,
                     std::vector<Record> &Out, DecodeFn DecodeOne) {
  ByteReader R(Bytes);
  size_t Stop = 0;
  for (Record Rec; !R.atEnd() && DecodeOne(R, Rec); Stop = R.position())
    Out.push_back(Rec);
  return Stop;
}

} // namespace

size_t tsr::decodeSignals(const std::vector<uint8_t> &Bytes,
                          std::vector<SignalRecord> &Out) {
  return decodeRecords(Bytes, Out, [](ByteReader &R, SignalRecord &S) {
    return R.readVarU64(S.Thread) && R.readVarU64(S.Tick) &&
           R.readVarU64(S.Signo);
  });
}

size_t tsr::decodeAsyncs(const std::vector<uint8_t> &Bytes,
                         std::vector<AsyncRecord> &Out) {
  return decodeRecords(Bytes, Out, [](ByteReader &R, AsyncRecord &A) {
    uint8_t Kind = 0;
    if (!R.readVarU64(A.Tick) || !R.readByte(Kind) ||
        !R.readVarU64(A.Thread))
      return false;
    A.Kind = static_cast<AsyncEventKind>(Kind);
    return true;
  });
}

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

namespace {

void packU32(uint8_t *Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out[I] = static_cast<uint8_t>(V >> (8 * I));
}

void packU64(uint8_t *Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out[I] = static_cast<uint8_t>(V >> (8 * I));
}

uint32_t unpackU32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 |
         static_cast<uint32_t>(P[3]) << 24;
}

uint64_t unpackU64(const uint8_t *P) {
  return static_cast<uint64_t>(unpackU32(P)) |
         static_cast<uint64_t>(unpackU32(P + 4)) << 32;
}

} // namespace

void tsr::packStreamHeader(uint8_t (&Out)[Demo::StreamHeaderSize],
                           StreamKind Kind) {
  // The zero bytes are validated on load so a bit flip anywhere in the
  // header is caught.
  std::memcpy(Out, Demo::StreamMagic, 4);
  Out[4] = static_cast<uint8_t>(Demo::FormatVersion);
  Out[5] = static_cast<uint8_t>(Kind);
  std::memset(Out + 6, 0, Demo::StreamHeaderSize - 6);
}

void tsr::packChunkHeader(uint8_t (&Out)[Demo::ChunkHeaderSize],
                          const uint8_t *Data, size_t Size,
                          uint64_t Frontier) {
  std::memcpy(Out, Demo::ChunkMagic, 4);
  packU32(Out + 4, static_cast<uint32_t>(Size));
  packU32(Out + 8, crc32(Data, Size));
  packU64(Out + 12, Frontier);
  packU32(Out + 20, crc32(Out, 20));
}

bool tsr::writeAllFd(int Fd, const uint8_t *P, size_t N,
                     std::atomic<bool> *IoError) {
  // Runs on the fatal-signal flush path: errno belongs to the code the
  // signal interrupted and must be preserved across the retries here. A
  // zero-byte result is treated as an error rather than retried — on the
  // fds this writer targets it means no forward progress, and looping on
  // it from a signal handler would hang the dying process.
  const int SavedErrno = errno;
  bool Ok = true;
  while (N) {
    const ssize_t W = ::write(Fd, P, N);
    if (W < 0 && errno == EINTR)
      continue; // Interrupted before any byte moved: retry, no data lost.
    if (W <= 0) {
      if (IoError)
        IoError->store(true, std::memory_order_relaxed);
      Ok = false;
      break;
    }
    // Short write (signal after some bytes moved, or a full pipe):
    // advance past what landed and push the rest.
    P += W;
    N -= static_cast<size_t>(W);
  }
  errno = SavedErrno;
  return Ok;
}

bool tsr::writeStreamHeader(int Fd, StreamKind Kind) {
  uint8_t Header[Demo::StreamHeaderSize];
  packStreamHeader(Header, Kind);
  return writeAllFd(Fd, Header, sizeof(Header), nullptr);
}

bool tsr::writeChunkFrame(int Fd, const uint8_t *Data, size_t Size,
                          uint64_t Frontier, std::atomic<bool> *IoError) {
  uint8_t Header[Demo::ChunkHeaderSize];
  packChunkHeader(Header, Data, Size, Frontier);
  return writeAllFd(Fd, Header, sizeof(Header), IoError) &&
         (Size == 0 || writeAllFd(Fd, Data, Size, IoError));
}

//===----------------------------------------------------------------------===//
// Stream files
//===----------------------------------------------------------------------===//

namespace {

/// One intact data chunk, as byte offsets into StreamScan::Payload.
struct ChunkRef {
  uint64_t Frontier = 0;
  size_t Begin = 0;
  size_t End = 0;
};

/// Result of parsing one stream file.
struct StreamScan {
  bool Missing = false;
  std::vector<uint8_t> Payload;  ///< Concatenated data-chunk payloads.
  std::vector<ChunkRef> Chunks;  ///< Data chunks (closing chunk excluded).
  bool Closed = false;           ///< The closing sentinel chunk was seen.
  size_t IntactBytes = 0;        ///< File prefix that parsed clean.
  size_t FileSize = 0;
  std::string TailError;         ///< Salvage mode: why parsing stopped early.

  /// Largest data-chunk frontier (0 when the stream has no data chunks).
  uint64_t lastFrontier() const {
    uint64_t F = 0;
    for (const ChunkRef &C : Chunks)
      F = std::max(F, C.Frontier);
    return F;
  }
};

bool readWholeFile(const std::string &Path, StreamKind Kind,
                   std::vector<uint8_t> &Bytes, bool &Missing,
                   std::string &Error) {
  Missing = false;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    if (errno == ENOENT) {
      Missing = true;
      return true;
    }
    Error = formatString("%s: %s stream unreadable: %s", Path.c_str(),
                         streamName(Kind), std::strerror(errno));
    return false;
  }
  std::fseek(F, 0, SEEK_END);
  const long Size = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  if (Size < 0) {
    Error = formatString("%s: %s stream unreadable: %s", Path.c_str(),
                         streamName(Kind), std::strerror(errno));
    std::fclose(F);
    return false;
  }
  Bytes.resize(static_cast<size_t>(Size));
  bool Ok = Size == 0 ||
            std::fread(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  std::fclose(F);
  if (!Ok) {
    Error = formatString("%s: %s stream short read", Path.c_str(),
                         streamName(Kind));
    return false;
  }
  return true;
}

/// Parses one stream file. With \p AllowTornTail (salvage mode) damage
/// after the header stops the scan and is described in S.TailError instead
/// of failing; header-level damage (bad magic, unknown version, wrong kind
/// byte) is always an error.
bool scanStreamFile(const std::string &Path, StreamKind Kind,
                    bool AllowTornTail, StreamScan &S, std::string &Error) {
  S = StreamScan();
  const char *Name = streamName(Kind);
  std::vector<uint8_t> Bytes;
  if (!readWholeFile(Path, Kind, Bytes, S.Missing, Error))
    return false;
  if (S.Missing)
    return true;
  S.FileSize = Bytes.size();
  if (Bytes.size() < Demo::StreamHeaderSize) {
    Error = formatString(
        "%s: %s stream truncated in its header: %zu bytes on disk, the "
        "%zu-byte header does not fit",
        Path.c_str(), Name, Bytes.size(), Demo::StreamHeaderSize);
    return false;
  }
  const uint8_t *H = Bytes.data();
  if (std::memcmp(H, Demo::StreamMagic, 4) != 0) {
    Error = formatString(
        "%s: %s stream has bad magic at offset 0 — not a tsr demo stream",
        Path.c_str(), Name);
    return false;
  }
  if (H[4] != Demo::FormatVersion) {
    Error = formatString(
        "%s: %s stream is demo format version %u, this build reads only "
        "version %u",
        Path.c_str(), Name, H[4], Demo::FormatVersion);
    return false;
  }
  if (H[5] != static_cast<uint8_t>(Kind)) {
    const unsigned Claimed = H[5];
    Error = formatString(
        "%s: stream kind byte at offset 5 says %s but the file is named "
        "%s — demo files swapped or renamed",
        Path.c_str(),
        Claimed < NumStreamKinds
            ? streamName(static_cast<StreamKind>(Claimed))
            : "an unknown stream",
        Name);
    return false;
  }
  // Bytes [6..15] must be zero; per-chunk CRCs carry the integrity.
  for (size_t I = 6; I != Demo::StreamHeaderSize; ++I) {
    if (H[I]) {
      Error = formatString(
          "%s: %s stream header byte at offset %zu is nonzero — corrupted "
          "header",
          Path.c_str(), Name, I);
      return false;
    }
  }
  S.IntactBytes = Demo::StreamHeaderSize;
  size_t Off = Demo::StreamHeaderSize;
  size_t Index = 0;
  auto Torn = [&](const std::string &What) {
    if (AllowTornTail) {
      S.TailError = What;
      return true; // stop scanning, keep the intact prefix
    }
    Error = formatString(
        "%s: %s stream chunk %zu at offset %zu: %s — run `tsr-demo-dump "
        "repair` to cut the stream back to its last intact chunk",
        Path.c_str(), Name, Index, Off, What.c_str());
    return false;
  };
  while (Off != Bytes.size()) {
    const size_t Remain = Bytes.size() - Off;
    if (S.Closed)
      return Torn(formatString("%zu trailing bytes after the closing chunk",
                               Remain));
    if (Remain < Demo::ChunkHeaderSize)
      return Torn(formatString(
          "torn frame: %zu bytes on disk, the %zu-byte chunk header does "
          "not fit",
          Remain, Demo::ChunkHeaderSize));
    const uint8_t *C = Bytes.data() + Off;
    if (std::memcmp(C, Demo::ChunkMagic, 4) != 0)
      return Torn("bad chunk magic");
    if (crc32(C, 20) != unpackU32(C + 20))
      return Torn("chunk header CRC mismatch");
    const uint32_t Len = unpackU32(C + 4);
    const uint32_t WantCrc = unpackU32(C + 8);
    const uint64_t Frontier = unpackU64(C + 12);
    if (Remain - Demo::ChunkHeaderSize < Len)
      return Torn(formatString(
          "torn payload: chunk promises %u bytes, file holds %zu", Len,
          Remain - Demo::ChunkHeaderSize));
    const uint8_t *P = C + Demo::ChunkHeaderSize;
    if (crc32(P, Len) != WantCrc)
      return Torn("chunk payload CRC mismatch");
    if (Frontier == Demo::ClosedFrontier) {
      if (Len != 0)
        return Torn("closing chunk has a nonempty payload");
      S.Closed = true;
    } else {
      ChunkRef R;
      R.Frontier = Frontier;
      R.Begin = S.Payload.size();
      S.Payload.insert(S.Payload.end(), P, P + Len);
      R.End = S.Payload.size();
      S.Chunks.push_back(R);
    }
    Off += Demo::ChunkHeaderSize + Len;
    S.IntactBytes = Off;
    ++Index;
  }
  return true;
}

/// Writes one stream file: header, the \p Chunks of \p Payload, and —
/// unless the stream is an (intentionally unclosed) truncated prefix —
/// the closing sentinel chunk.
bool writeStreamFile(const std::string &Path, StreamKind Kind,
                     const uint8_t *Payload,
                     const std::vector<ChunkRef> &Chunks, bool Close,
                     std::string &Error) {
  const int Fd =
      ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (Fd < 0) {
    Error = formatString("%s: cannot create %s stream file: %s", Path.c_str(),
                         streamName(Kind), std::strerror(errno));
    return false;
  }
  bool Ok = writeStreamHeader(Fd, Kind);
  for (size_t I = 0; Ok && I != Chunks.size(); ++I)
    Ok = writeChunkFrame(Fd, Payload + Chunks[I].Begin,
                         Chunks[I].End - Chunks[I].Begin, Chunks[I].Frontier,
                         nullptr);
  if (Ok && Close)
    Ok = writeChunkFrame(Fd, nullptr, 0, Demo::ClosedFrontier, nullptr);
  if (::close(Fd) != 0)
    Ok = false;
  if (!Ok)
    Error = formatString("%s: %s stream short write", Path.c_str(),
                         streamName(Kind));
  return Ok;
}

bool isDataStream(StreamKind Kind) { return Kind != StreamKind::Meta; }

} // namespace

bool Demo::saveToDirectory(const std::string &Path, std::string &Error) const {
  std::error_code EC;
  std::filesystem::create_directories(Path, EC);
  if (EC) {
    Error = Path + ": " + EC.message();
    return false;
  }
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const StreamKind Kind = static_cast<StreamKind>(I);
    const std::string File = Path + "/" + streamName(Kind);
    // One data chunk carrying the whole in-memory stream. A truncated demo
    // writes its data chunks at frontier() and omits the closing chunk on
    // data streams, so the truncation marker round-trips.
    std::vector<ChunkRef> Chunks;
    const bool KeepOpen = Truncated && isDataStream(Kind);
    if (!Streams[I].empty() || KeepOpen)
      Chunks.push_back({Truncated ? Frontier : 0, 0, Streams[I].size()});
    if (!writeStreamFile(File, Kind, Streams[I].data(), Chunks, !KeepOpen,
                         Error))
      return false;
  }
  return true;
}

bool Demo::loadFromDirectory(const std::string &Path, std::string &Error,
                             LoadMode Mode) {
  std::error_code EC;
  if (!std::filesystem::is_directory(Path, EC)) {
    Error = Path + ": not a directory";
    return false;
  }
  std::array<StreamScan, NumStreamKinds> Scans;
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const StreamKind Kind = static_cast<StreamKind>(I);
    const std::string File = Path + "/" + streamName(Kind);
    if (!scanStreamFile(File, Kind, /*AllowTornTail=*/false, Scans[I], Error))
      return false;
    if (Scans[I].Missing) {
      // A demo with no META was never recorded: refuse it up front
      // instead of letting an all-empty "demo" desynchronise mid-replay.
      if (Kind == StreamKind::Meta) {
        Error = formatString(
            "%s: no META stream — this directory does not contain a tsr "
            "demo (nothing was recorded here, or the path is wrong)",
            Path.c_str());
        return false;
      }
      if (Mode == LoadMode::Strict) {
        Error = formatString(
            "%s: %s stream file is missing (strict load: an absent sparse "
            "stream is saved as an empty file, so a missing file means "
            "deletion or truncation)",
            Path.c_str(), streamName(Kind));
        return false;
      }
    }
  }
  if (!Scans[0].Missing && !Scans[0].Closed && Scans[0].Chunks.empty()) {
    Error = formatString(
        "%s: META stream holds no intact chunk — the recording died before "
        "its metadata became durable; nothing is replayable",
        Path.c_str());
    return false;
  }

  // Unclosed data streams mean the recording was interrupted between
  // flushes: cross-trim every data stream to the smallest last frontier F
  // so the in-memory prefix is mutually consistent, and mark the demo
  // truncated at F.
  bool AnyOpen = false;
  uint64_t F = ClosedFrontier;
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const StreamKind Kind = static_cast<StreamKind>(I);
    if (!isDataStream(Kind) || Scans[I].Missing || Scans[I].Closed)
      continue;
    AnyOpen = true;
    F = std::min(F, Scans[I].lastFrontier());
  }

  std::array<std::vector<uint8_t>, NumStreamKinds> LoadedStreams;
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const StreamKind Kind = static_cast<StreamKind>(I);
    StreamScan &S = Scans[I];
    if (S.Missing)
      continue;
    if (!AnyOpen || !isDataStream(Kind)) {
      LoadedStreams[I] = std::move(S.Payload);
      continue;
    }
    for (const ChunkRef &C : S.Chunks)
      if (C.Frontier <= F)
        LoadedStreams[I].insert(LoadedStreams[I].end(),
                                S.Payload.begin() + C.Begin,
                                S.Payload.begin() + C.End);
  }
  Streams = std::move(LoadedStreams);
  Truncated = AnyOpen;
  Frontier = AnyOpen ? F : 0;
  return true;
}

bool Demo::verifyDirectory(const std::string &Path,
                           std::array<StreamCheck, NumStreamKinds> &Out,
                           std::string &Error) {
  Error.clear();
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    Out[I] = StreamCheck();
    Out[I].Kind = static_cast<StreamKind>(I);
  }
  std::error_code EC;
  if (!std::filesystem::is_directory(Path, EC)) {
    Error = Path + ": not a directory";
    for (StreamCheck &C : Out)
      C.Error = Error;
    return false;
  }
  bool AllOk = true;
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const StreamKind Kind = static_cast<StreamKind>(I);
    StreamCheck &C = Out[I];
    const std::string File = Path + "/" + streamName(Kind);
    StreamScan S;
    if (!scanStreamFile(File, Kind, /*AllowTornTail=*/false, S, C.Error)) {
      AllOk = false;
      C.Present = true;
      if (Error.empty())
        Error = C.Error;
      continue;
    }
    if (S.Missing) {
      if (Kind == StreamKind::Meta) {
        C.Error = formatString(
            "%s: META stream file is missing — not a tsr demo directory",
            File.c_str());
        AllOk = false;
        if (Error.empty())
          Error = C.Error;
      }
      continue;
    }
    C.Present = true;
    C.PayloadBytes = S.Payload.size();
    C.Chunks = S.Chunks.size();
    C.Closed = S.Closed;
    C.Crc = crc32(S.Payload);
  }
  return AllOk;
}

bool Demo::salvageDirectory(const std::string &Path, SalvageReport &Out,
                            std::string &Error) {
  Out = SalvageReport();
  for (unsigned I = 0; I != NumStreamKinds; ++I)
    Out.Streams[I].Kind = static_cast<StreamKind>(I);
  std::error_code EC;
  if (!std::filesystem::is_directory(Path, EC)) {
    Error = Path + ": not a directory";
    return false;
  }
  std::array<StreamScan, NumStreamKinds> Scans;
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const StreamKind Kind = static_cast<StreamKind>(I);
    const std::string File = Path + "/" + streamName(Kind);
    // Header-level damage is unsalvageable: fail with the scanner's
    // diagnostic rather than quietly rewriting the file.
    if (!scanStreamFile(File, Kind, /*AllowTornTail=*/true, Scans[I], Error))
      return false;
    Out.Streams[I].Present = !Scans[I].Missing;
  }
  if (Scans[0].Missing) {
    Error = formatString(
        "%s: no META stream — this directory does not contain a tsr demo",
        Path.c_str());
    return false;
  }
  if (Scans[0].Chunks.empty()) {
    Error = formatString(
        "%s: META stream holds no intact chunk — the recording died before "
        "its metadata became durable; nothing is salvageable",
        Path.c_str());
    return false;
  }

  bool AllClosed = true;
  for (unsigned I = 0; I != NumStreamKinds; ++I)
    if (!Scans[I].Missing &&
        (!Scans[I].Closed || !Scans[I].TailError.empty()))
      AllClosed = false;
    else if (Scans[I].Missing && isDataStream(static_cast<StreamKind>(I)))
      AllClosed = false;
  if (AllClosed) {
    Out.Clean = true;
    for (unsigned I = 0; I != NumStreamKinds; ++I)
      Out.Streams[I].ChunksKept = Scans[I].Chunks.size();
    return true;
  }

  // Consistent frontier: the smallest last-intact-chunk frontier among
  // unclosed data streams. Closed streams are complete, so they never
  // constrain F — but their chunks beyond F are still cut, because the
  // schedule needed to consume them died with the unclosed streams.
  uint64_t F = ClosedFrontier;
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const StreamKind Kind = static_cast<StreamKind>(I);
    if (!isDataStream(Kind))
      continue;
    const StreamScan &S = Scans[I];
    if (S.Missing || S.Closed)
      continue;
    F = std::min(F, S.lastFrontier());
  }
  if (F == ClosedFrontier)
    F = 0; // only closed/missing data streams: nothing constrains F
  Out.Frontier = F;

  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const StreamKind Kind = static_cast<StreamKind>(I);
    const StreamScan &S = Scans[I];
    StreamFix &Fix = Out.Streams[I];
    const std::string File = Path + "/" + streamName(Kind);
    std::vector<ChunkRef> Keep;
    for (const ChunkRef &C : S.Chunks) {
      if (Kind != StreamKind::Meta && C.Frontier > F) {
        ++Fix.ChunksDropped;
        continue;
      }
      Keep.push_back(C);
      ++Fix.ChunksKept;
    }
    Fix.BytesDropped = S.FileSize - S.IntactBytes;
    // META stays closed (its payload is complete once its chunk landed);
    // data streams are left unclosed so a later load marks the demo
    // truncated at F.
    const bool Close = Kind == StreamKind::Meta;
    const bool AlreadyRight = !S.Missing && Fix.BytesDropped == 0 &&
                              Fix.ChunksDropped == 0 && S.Closed == Close;
    if (AlreadyRight)
      continue;
    const std::string Tmp = File + ".tmp";
    if (!writeStreamFile(Tmp, Kind, S.Payload.data(), Keep, Close, Error))
      return false;
    std::filesystem::rename(Tmp, File, EC);
    if (EC) {
      Error = formatString("%s: cannot replace %s stream file: %s",
                           File.c_str(), streamName(Kind),
                           EC.message().c_str());
      return false;
    }
    Fix.Rewritten = true;
    Out.Changed = true;
  }
  return true;
}
