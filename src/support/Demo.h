//===-- support/Demo.h - Demo files (record/replay logs) -------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demo container. The paper (§4) captures an execution into a "demo"
/// made of several files, one per source of nondeterminism:
///
///   META    — format version, strategy, PRNG seeds, recording policy hash
///   QUEUE   — the tick-by-tick thread schedule (queue strategy only; §4.2)
///   SIGNAL  — (tid, tick, signo) records for asynchronous signals (§4.3)
///   SYSCALL — return value, errno and out-buffers per recorded call (§4.4)
///   ASYNC   — tick-stamped Reschedule / SignalWakeup events (§4.5)
///
/// A Demo holds the five streams in memory and can round-trip through a
/// directory of files with those exact names.
///
/// This header is the one owner of the format. Each stream's records have
/// one codec here (MetaRecord/encodeMeta/decodeMeta and so on): the
/// recorder encodes through it, and replay, inspectDemo and the offline
/// profiler decode through it. Each on-disk frame has one packer
/// (packStreamHeader, packChunkHeader), and every byte reaches a stream
/// file through writeStreamHeader and writeChunkFrame.
///
/// On disk (format v3) every stream is a fixed 16-byte header followed by
/// an append-only sequence of CRC-framed *chunks*, each stamped with the
/// scheduler tick it was flushed at (its "frontier"). A closing sentinel
/// chunk marks a stream that was serialised to completion; a stream
/// without one is the durable prefix of a recording that was interrupted
/// (crash, SIGKILL, power loss). Chunking is what makes incremental
/// flushing crash-consistent: a torn tail write damages at most the last
/// chunk, and salvageDirectory can cut every stream back to a mutually
/// consistent frontier. A stream file of any other format version is
/// rejected with an error naming the stream and the version.
///
/// Corruption — truncation, bit rot, a file from a different tool — is
/// diagnosed at load time with a message naming the file and stream,
/// instead of surfacing later as a replay desynchronisation (see
/// support/Desync.h for that taxonomy).
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_DEMO_H
#define TSR_SUPPORT_DEMO_H

#include "support/ByteStream.h"
#include "support/Rle.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace tsr {

/// Identifies one of the demo's component streams.
enum class StreamKind : unsigned {
  Meta = 0,
  Queue,
  Signal,
  Syscall,
  Async,
};

/// Number of StreamKind values.
inline constexpr unsigned NumStreamKinds = 5;

/// Returns the on-disk file name for \p Kind ("META", "QUEUE", ...).
const char *streamName(StreamKind Kind);

//===----------------------------------------------------------------------===//
// Stream records: one type and one encode/decode pair per record kind.
// QUEUE is a run-length coded tid sequence (RleU64Writer/RleU64Reader).
//===----------------------------------------------------------------------===//

/// META: what a replay must match, written once when recording starts.
struct MetaRecord {
  uint64_t FormatVersion = 0;
  uint8_t Strategy = 0; ///< StrategyKind.
  bool Controlled = false;
  bool WeakMemory = false;
  uint64_t Seed0 = 0;
  uint64_t Seed1 = 0;
  uint64_t PolicyHash = 0; ///< RecordPolicy::hash().
  /// FaultPlan::hash(); nonzero marks a demo recorded under fault
  /// injection (informational: the faults replay from SYSCALL).
  uint64_t FaultPlanHash = 0;
};

/// Where decodeMeta stopped: the first field it could not decode.
enum class MetaField : uint8_t {
  Magic,   ///< Empty, or not a tsr demo ("tsrdemo" missing).
  Version, ///< The format version varint is missing.
  Body,    ///< The stream ends after the version.
  End,     ///< The whole record decoded.
};

/// Appends \p M: the string "tsrdemo", the format version, one byte each
/// for strategy, controlled and weak memory, then the seeds and hashes as
/// varints.
void encodeMeta(ByteWriter &W, const MetaRecord &M);

/// Decodes the META stream \p Bytes into \p Out (fields before the stop
/// are filled). Any format version decodes; the caller judges it.
MetaField decodeMeta(const std::vector<uint8_t> &Bytes, MetaRecord &Out);

/// SIGNAL: signal \c Signo became deliverable to \c Thread at \c Tick
/// (§4.3). Encoded as three varints in that order.
struct SignalRecord {
  uint64_t Thread = 0;
  uint64_t Tick = 0;
  uint64_t Signo = 0;
};

inline void encodeSignal(ByteWriter &W, const SignalRecord &S) {
  W.writeVarU64(S.Thread);
  W.writeVarU64(S.Tick);
  W.writeVarU64(S.Signo);
}

/// Appends every record of the SIGNAL stream \p Bytes to \p Out. Returns
/// where decoding stopped: Bytes.size() for a whole stream, else the
/// offset of the truncated record that ends it.
size_t decodeSignals(const std::vector<uint8_t> &Bytes,
                     std::vector<SignalRecord> &Out);

/// Kinds of asynchronous events stored in the ASYNC demo stream (§4.5).
enum class AsyncEventKind : unsigned {
  Reschedule = 0,   ///< Liveness rescheduling fired (§3.3).
  SignalWakeup = 1, ///< A disabled thread was re-enabled by a signal.
};

/// ASYNC: event \c Kind concerning \c Thread happened at \c Tick (§4.5).
/// Encoded as a varint tick, a kind byte and a varint tid.
struct AsyncRecord {
  uint64_t Tick = 0;
  AsyncEventKind Kind = AsyncEventKind::Reschedule;
  uint64_t Thread = 0;
};

inline void encodeAsync(ByteWriter &W, const AsyncRecord &A) {
  W.writeVarU64(A.Tick);
  W.writeByte(static_cast<uint8_t>(A.Kind));
  W.writeVarU64(A.Thread);
}

/// Appends every record of the ASYNC stream \p Bytes to \p Out; returns
/// where decoding stopped, as decodeSignals does.
size_t decodeAsyncs(const std::vector<uint8_t> &Bytes,
                    std::vector<AsyncRecord> &Out);

/// SYSCALL: the result of one recorded call (§4.4). Encoded as a varint
/// kind, a zigzag return value, a varint errno and the call's out-buffer,
/// which travels beside the record and is run-length coded on the wire.
struct SyscallRecord {
  uint64_t Kind = 0; ///< SyscallKind.
  int64_t Ret = 0;
  uint64_t Err = 0;
};

inline void encodeSyscall(ByteWriter &W, const SyscallRecord &S,
                          const std::vector<uint8_t> &OutBuf) {
  W.writeVarU64(S.Kind);
  W.writeVarI64(S.Ret);
  W.writeVarU64(S.Err);
  rle::encodeBytes(W, OutBuf);
}

/// Decodes the kind that opens the next SYSCALL record into \p Out.Kind.
/// False at the end of \p R or on a malformed varint; \p R's position
/// then shows where decoding stopped. Whether the kind is known is the
/// caller's call.
inline bool decodeSyscallKind(ByteReader &R, SyscallRecord &Out) {
  return R.readVarU64(Out.Kind);
}

/// Decodes the rest of the record whose kind was just read: Ret and Err
/// into \p Out, the out-buffer into \p OutBuf. False when \p R ends
/// mid-record.
inline bool decodeSyscallBody(ByteReader &R, SyscallRecord &Out,
                              std::vector<uint8_t> &OutBuf) {
  return R.readVarI64(Out.Ret) && R.readVarU64(Out.Err) &&
         rle::decodeBytes(R, OutBuf);
}

/// An in-memory demo: five named byte streams plus load/save/salvage.
class Demo {
public:
  /// Demo format version; bumped on incompatible stream layout changes.
  /// Version history:
  ///   1 — raw stream payloads on disk, no integrity protection.
  ///   2 — per-stream on-disk header (magic/version/kind/length/CRC-32);
  ///       META gained the fault-plan hash field.
  ///   3 — chunked streams: the header is followed by CRC-framed chunks
  ///       with tick frontiers and a closing sentinel, enabling
  ///       incremental crash-consistent flushing and post-crash salvage.
  static constexpr uint32_t FormatVersion = 3;

  /// First bytes of every on-disk stream file: "TSRS".
  static constexpr uint8_t StreamMagic[4] = {'T', 'S', 'R', 'S'};

  /// Size of the fixed on-disk per-stream header (little-endian):
  ///   [0..3]   magic "TSRS"
  ///   [4]      demo format version
  ///   [5]      stream kind
  ///   [6..15]  zero, validated as such — integrity lives in the
  ///            per-chunk frames
  static constexpr size_t StreamHeaderSize = 16;

  /// First bytes of every chunk frame: "TSRC".
  static constexpr uint8_t ChunkMagic[4] = {'T', 'S', 'R', 'C'};

  /// Size of the fixed chunk frame header (little-endian):
  ///   [0..3]   magic "TSRC"
  ///   [4..7]   payload length
  ///   [8..11]  CRC-32 of the payload
  ///   [12..19] tick frontier: every event in this chunk happened at or
  ///            before this scheduler tick
  ///   [20..23] CRC-32 of frame bytes [0..19]
  static constexpr size_t ChunkHeaderSize = 24;

  /// Frontier sentinel marking the closing chunk of a completely
  /// serialised stream. A closing chunk always has an empty payload; a
  /// stream whose last intact chunk is not a closing chunk was cut off
  /// mid-recording.
  static constexpr uint64_t ClosedFrontier = ~0ull;

  /// How loadFromDirectory treats a missing stream file.
  enum class LoadMode {
    /// Missing stream files (other than META) load as empty streams — a
    /// sparse demo saved by an older tool or hand-assembled directory.
    Tolerant,
    /// Every stream file must be present with a valid header. This
    /// distinguishes "stream recorded as empty" (file present, zero-length
    /// payload) from "file missing or deleted", which Tolerant conflates.
    Strict,
  };

  /// Integrity facts about one on-disk stream file, from verifyDirectory.
  struct StreamCheck {
    StreamKind Kind = StreamKind::Meta;
    bool Present = false;      ///< The file exists.
    size_t PayloadBytes = 0;   ///< Total payload bytes across chunks.
    size_t Chunks = 0;         ///< Number of intact data chunks.
    bool Closed = false;       ///< Serialised to completion.
    uint32_t Crc = 0;          ///< CRC-32 of the concatenated payload.
    std::string Error;         ///< Empty when the file verified clean.
  };

  /// What salvageDirectory did to one stream file.
  struct StreamFix {
    StreamKind Kind = StreamKind::Meta;
    bool Present = false;     ///< The file existed before salvage.
    bool Rewritten = false;   ///< The file was rewritten on disk.
    size_t ChunksKept = 0;    ///< Intact data chunks surviving the trim.
    size_t ChunksDropped = 0; ///< Intact data chunks cut by cross-trim.
    size_t BytesDropped = 0;  ///< Torn/corrupt tail bytes discarded.
  };

  /// Outcome of salvageDirectory.
  struct SalvageReport {
    bool Clean = false;    ///< Demo was fully closed; nothing to do.
    bool Changed = false;  ///< At least one file was rewritten.
    uint64_t Frontier = 0; ///< Consistent tick frontier after salvage.
    std::array<StreamFix, NumStreamKinds> Streams;
  };

  /// Mutable access to a stream's bytes (record side).
  std::vector<uint8_t> &stream(StreamKind Kind) {
    return Streams[static_cast<unsigned>(Kind)];
  }
  const std::vector<uint8_t> &stream(StreamKind Kind) const {
    return Streams[static_cast<unsigned>(Kind)];
  }

  /// Replaces a stream's contents (typically from a ByteWriter::take()).
  void setStream(StreamKind Kind, std::vector<uint8_t> Bytes) {
    Streams[static_cast<unsigned>(Kind)] = std::move(Bytes);
  }

  /// Returns a fresh reader over a stream.
  ByteReader reader(StreamKind Kind) const {
    return ByteReader(stream(Kind));
  }

  /// True when this demo is the salvaged prefix of an interrupted
  /// recording: its streams were cut (consistently) at frontier() and
  /// replay will run out of recorded events mid-run. Session reports the
  /// exhaustion as a soft TruncatedDemo desync and free-runs to the end.
  bool truncated() const { return Truncated; }

  /// Tick frontier the streams were cut at (0 when !truncated()).
  uint64_t frontier() const { return Frontier; }

  /// Marks this demo as a truncated prefix ending at tick \p Tick.
  void markTruncated(uint64_t Tick) {
    Truncated = true;
    Frontier = Tick;
  }

  /// Sum of all stream sizes in bytes — the paper's "demo file size"
  /// metric (§5.2, §5.4).
  size_t totalSize() const;

  /// Size of one stream in bytes.
  size_t streamSize(StreamKind Kind) const { return stream(Kind).size(); }

  /// Writes all streams into directory \p Path (created if missing), each
  /// framed by the integrity header. A truncated() demo keeps its marker:
  /// its data streams are written without closing chunks. Returns false
  /// and sets \p Error on I/O failure.
  bool saveToDirectory(const std::string &Path, std::string &Error) const;

  /// Reads all streams from directory \p Path, verifying each file's
  /// header and every chunk frame. A directory containing no META
  /// file fails fast — it is not a demo (never recorded, or the wrong
  /// path) and replaying it would only manufacture a confusing
  /// desynchronisation later. Torn or corrupt chunk tails are an error —
  /// run salvageDirectory (tsr-demo-dump repair) first. Streams that are
  /// intact but unclosed (clean kill between flushes) are cross-trimmed
  /// in memory to the smallest last frontier and the demo is marked
  /// truncated(). Returns false and sets \p Error (naming the offending
  /// file and stream) on any integrity violation.
  bool loadFromDirectory(const std::string &Path, std::string &Error,
                         LoadMode Mode = LoadMode::Tolerant);

  /// Checks every stream file of an on-disk demo: header magic, version,
  /// kind byte, and every chunk frame's CRCs.
  /// Fills one StreamCheck per stream. Returns true iff the directory is
  /// readable, META is present and no present file is corrupt. An
  /// unclosed-but-intact stream is not corrupt — it is a truncated
  /// recording (Closed=false).
  static bool verifyDirectory(const std::string &Path,
                              std::array<StreamCheck, NumStreamKinds> &Out,
                              std::string &Error);

  /// Repairs the directory of an interrupted recording in place: cuts
  /// every stream back to its last intact chunk (discarding torn tail
  /// writes), then cross-trims all data streams to a mutually consistent
  /// tick frontier F (the smallest "last frontier" among unclosed
  /// streams) so the surviving prefix replays deterministically. Files
  /// are rewritten atomically (temp file + rename) without closing
  /// chunks, so a later load marks the demo truncated() at F. A fully
  /// closed demo is left untouched (Out.Clean). Returns false and sets
  /// \p Error when the directory is unreadable, a header is damaged or of
  /// another format version, META never became durable, or a rewrite
  /// fails.
  static bool salvageDirectory(const std::string &Path, SalvageReport &Out,
                               std::string &Error);

  bool operator==(const Demo &Other) const { return Streams == Other.Streams; }

private:
  std::array<std::vector<uint8_t>, NumStreamKinds> Streams;
  bool Truncated = false;
  uint64_t Frontier = 0;
};

//===----------------------------------------------------------------------===//
// Frames: one packer per on-disk frame, and the fd writers that carry every
// byte to a stream file (whole-demo saves, salvage and the live writer).
//===----------------------------------------------------------------------===//

/// Packs the stream header of \p Kind (layout at Demo::StreamHeaderSize).
void packStreamHeader(uint8_t (&Out)[Demo::StreamHeaderSize],
                      StreamKind Kind);

/// Packs the header of the chunk frame carrying [\p Data, \p Data +
/// \p Size) at tick frontier \p Frontier (layout at
/// Demo::ChunkHeaderSize).
void packChunkHeader(uint8_t (&Out)[Demo::ChunkHeaderSize],
                     const uint8_t *Data, size_t Size, uint64_t Frontier);

/// Pushes all \p N bytes to \p Fd, retrying EINTR and resuming short
/// writes; preserves the caller's errno (fatal-signal path). Returns
/// false — latching \p IoError when non-null — on any unrecoverable
/// failure, including a zero-byte write (no forward progress).
bool writeAllFd(int Fd, const uint8_t *P, size_t N,
                std::atomic<bool> *IoError);

/// Writes the v3 header of stream \p Kind to \p Fd.
bool writeStreamHeader(int Fd, StreamKind Kind);

/// Appends one chunk frame — header packed on the stack, then the payload
/// — to \p Fd. Async-signal-safe: no heap, no locks, no stdio. A false
/// return may leave the frame torn.
bool writeChunkFrame(int Fd, const uint8_t *Data, size_t Size,
                     uint64_t Frontier, std::atomic<bool> *IoError);

} // namespace tsr

#endif // TSR_SUPPORT_DEMO_H
