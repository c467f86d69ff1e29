//===-- support/DemoWriter.h - Incremental chunked demo writer -*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ChunkedDemoWriter appends CRC-framed format-v3 chunks (see
/// support/Demo.h) to the five stream files of a live recording, so a
/// crash at any instant leaves a salvageable prefix on disk instead of
/// losing the whole demo. Every recording, solo or inside a SessionPool,
/// writes through its own writer. The append path is async-signal-safe
/// by construction: a chunk frame is assembled on the stack and pushed
/// out with raw write(2) calls — no locks, no heap, no stdio — so
/// Session's fatal-signal handler can flush the final partial chunks
/// from inside the handler.
///
/// Durability model: every append lands one atomic-enough frame; a torn
/// final write is detected (and cut) by the chunk CRCs at load/salvage
/// time. Writers never seek or rewrite, which is what keeps the crash
/// window trivial.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_DEMOWRITER_H
#define TSR_SUPPORT_DEMOWRITER_H

#include "support/Demo.h"

#include <atomic>
#include <cstddef>
#include <string>

namespace tsr {

/// Appends v3 chunks to the stream files of a recording in progress
/// through fds it owns. Not thread-safe by itself: Session serialises all
/// calls under the scheduler lock (the fatal-signal path only runs after
/// try-locking it).
class ChunkedDemoWriter {
public:
  ChunkedDemoWriter() = default;
  ~ChunkedDemoWriter() { closeAll(); }
  ChunkedDemoWriter(const ChunkedDemoWriter &) = delete;
  ChunkedDemoWriter &operator=(const ChunkedDemoWriter &) = delete;

  /// Creates \p Dir (and parents) and opens all five stream files,
  /// truncating any previous contents and writing each v3 stream header.
  /// Returns false and sets \p Error on I/O failure.
  bool open(const std::string &Dir, std::string &Error);

  bool isOpen() const { return Open; }

  /// Appends one data chunk ([\p Data, \p Data + \p Size), possibly
  /// empty) with tick frontier \p Frontier to stream \p Kind.
  /// Async-signal-safe (EINTR is retried, short writes are resumed, and
  /// errno is preserved for the interrupted code). I/O errors set
  /// ioError() but never throw or abort: losing durability must not kill
  /// the run being recorded. A write failure may have torn the frame
  /// mid-chunk, so the stream is closed on the spot — later appends to it
  /// become no-ops and the durable prefix stays the salvage point.
  void appendChunk(StreamKind Kind, const uint8_t *Data, size_t Size,
                   uint64_t Frontier);

  /// Test seam: hands ownership of an externally created \p Fd to stream
  /// \p Kind as if open() had created it (no stream header is written).
  /// Lets tests drive appendChunk against pipes to exercise the short-
  /// write and error-latch paths, which regular files cannot produce.
  void adoptStreamFdForTest(StreamKind Kind, int Fd);

  /// Appends the closing sentinel chunk to \p Kind and closes its file.
  /// A stream closed this way reads back as complete; streams never
  /// closed read back as a truncated recording.
  void closeStream(StreamKind Kind);

  /// Closes any still-open stream files *without* writing closing chunks
  /// (the demo stays marked as interrupted unless closeStream was called
  /// per stream).
  void closeAll();

  /// True when any write failed (disk full, fd revoked, ...). The
  /// on-disk demo is then best-effort: its intact prefix still salvages.
  bool ioError() const { return IoError.load(std::memory_order_relaxed); }

private:
  int Fds[NumStreamKinds] = {-1, -1, -1, -1, -1};
  bool Open = false;
  std::atomic<bool> IoError{false};
};

} // namespace tsr

#endif // TSR_SUPPORT_DEMOWRITER_H
