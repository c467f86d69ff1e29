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
/// losing the whole demo. The direct (owned-fd) append path is
/// async-signal-safe by construction: a chunk frame is assembled on the
/// stack and pushed out with raw write(2) calls — no locks, no heap, no
/// stdio — so Session's fatal-signal handler can flush the final partial
/// chunks from inside the handler.
///
/// AsyncDemoBackend multiplexes many concurrent recordings through one
/// writer thread: each registered client gets its own five stream files,
/// producers enqueue fully framed chunks (per-session framing — a frame
/// never interleaves with another client's bytes), and a single
/// background thread drains the queue with the same durable-prefix
/// write discipline. ChunkedDemoWriter::attach() switches a writer from
/// owned fds to a backend client, so Session's flush path is identical
/// in both modes.
///
/// Durability model: every append lands one atomic-enough frame; a torn
/// final write is detected (and cut) by the chunk CRCs at load/salvage
/// time. Writers never seek or rewrite, which is what keeps the crash
/// window trivial. In attached mode, durability of the queued suffix is
/// best-effort on a crash: emergencyDrain() pushes out already-queued
/// frames with raw writes, but frames not yet submitted are lost.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_DEMOWRITER_H
#define TSR_SUPPORT_DEMOWRITER_H

#include "support/Demo.h"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tsr {

/// Appends a complete v3 chunk frame (24-byte CRC header + payload) for
/// [\p Data, \p Data + \p Size) at tick frontier \p Frontier to \p Out:
/// the async backend's producers pre-frame chunks before enqueueing. The
/// direct writer packs the same frame on the stack (writeChunkFrame).
void buildChunkFrame(std::vector<uint8_t> &Out, const uint8_t *Data,
                     size_t Size, uint64_t Frontier);

/// One writer thread multiplexing the demo streams of many concurrent
/// recording sessions. Producers register a demo directory (opening the
/// five stream files and writing their v3 headers synchronously), then
/// enqueue pre-framed chunks; the writer thread drains them in FIFO
/// order per stream. Enqueueing blocks when more than MaxQueuedBytes of
/// frames are outstanding (backpressure, so a slow disk bounds memory).
///
/// Thread-safe throughout. Client ids are never reused within one
/// backend's lifetime.
class AsyncDemoBackend {
public:
  explicit AsyncDemoBackend(size_t MaxQueuedBytes = size_t(32) << 20);
  ~AsyncDemoBackend();
  AsyncDemoBackend(const AsyncDemoBackend &) = delete;
  AsyncDemoBackend &operator=(const AsyncDemoBackend &) = delete;

  /// Creates \p Dir (and parents), opens all five stream files
  /// (truncating previous contents) and writes each v3 stream header
  /// synchronously. Returns the new client id, or -1 with \p Error set.
  int registerStreams(const std::string &Dir, std::string &Error);

  /// Enqueues one fully framed chunk (from buildChunkFrame) for stream
  /// \p Kind of client \p Client. Blocks while the queue is over the
  /// byte budget. Frames for a dead stream (prior write failure) or an
  /// unregistered client are dropped.
  void submit(int Client, StreamKind Kind, std::vector<uint8_t> Frame);

  /// Enqueues the closing sentinel chunk for (\p Client, \p Kind); the
  /// writer thread closes the fd after writing it. Idempotent.
  void closeStream(int Client, StreamKind Kind);

  /// Blocks until every queued frame of \p Client has been written (or
  /// dropped on a dead stream) and none is in flight.
  void drain(int Client);

  /// Drains \p Client, closes any stream fds still open (without
  /// writing closing sentinels — closeStream per stream does that), and
  /// retires the id. Further submits for the id are dropped.
  void unregister(int Client);

  /// True when any write for \p Client failed (disk full, fd revoked,
  /// ...). The affected stream keeps its durable prefix; later frames
  /// for it are dropped.
  bool ioError(int Client) const;

  /// Fatal-signal path: best-effort synchronous push of \p Client's
  /// already-queued frames with raw writes. Skips the frame the writer
  /// thread is currently writing (its stream may be torn mid-frame) and
  /// does nothing when the queue lock cannot be acquired. Frames that
  /// were never submitted are lost — attached-mode crash durability is
  /// the queued prefix, not the last tick.
  void emergencyDrain(int Client);

  /// Test seam: bytes currently queued across all clients.
  size_t queuedBytesForTest() const;

private:
  struct ClientState {
    int Fds[NumStreamKinds] = {-1, -1, -1, -1, -1};
    std::atomic<bool> IoError{false};
    size_t QueuedItems = 0; ///< guarded by Mu
    bool Live = false;      ///< guarded by Mu
  };

  struct Item {
    int Client = -1;
    StreamKind Kind = StreamKind::Meta;
    std::vector<uint8_t> Bytes;
    bool CloseAfter = false; ///< close the stream fd after writing
    bool Written = false;    ///< emergencyDrain already pushed the bytes
  };

  void writerLoop();

  mutable std::mutex Mu;
  std::condition_variable WorkCv;  ///< signals the writer thread
  std::condition_variable SpaceCv; ///< signals producers (space / drain)
  std::deque<Item> Queue;
  size_t QueuedBytes = 0;
  const size_t MaxQueuedBytes;
  bool Stop = false;
  int InFlightClient = -1;
  int InFlightKind = -1;
  std::vector<std::unique_ptr<ClientState>> Clients;
  std::thread Writer;
};

/// Appends v3 chunks to the stream files of a recording in progress,
/// either through fds it owns (open) or through a shared AsyncDemoBackend
/// client (attach). Not thread-safe by itself: Session serialises all
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

  /// Like open(), but routes all writes through \p Backend instead of
  /// owned fds. \p Backend must outlive this writer (closeAll()
  /// unregisters the client). Appends are no longer async-signal-safe in
  /// this mode — the emergency path must use emergencyFlushQueued().
  bool attach(AsyncDemoBackend &Backend, const std::string &Dir,
              std::string &Error);

  bool isOpen() const { return Open; }
  bool isAttached() const { return Back != nullptr; }

  /// Appends one data chunk ([\p Data, \p Data + \p Size), possibly
  /// empty) with tick frontier \p Frontier to stream \p Kind.
  /// Owned-fd mode is async-signal-safe (EINTR is retried, short writes
  /// are resumed, and errno is preserved for the interrupted code);
  /// attached mode enqueues on the backend and may block on
  /// backpressure. I/O errors set ioError() but never throw or abort:
  /// losing durability must not kill the run being recorded. A write
  /// failure may have torn the frame mid-chunk, so the stream is closed
  /// on the spot — later appends to it become no-ops and the durable
  /// prefix stays the salvage point.
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
  /// per stream). In attached mode this drains and unregisters the
  /// backend client.
  void closeAll();

  /// Attached-mode fatal-signal path: synchronously pushes this client's
  /// already-queued frames out through the backend (best-effort; see
  /// AsyncDemoBackend::emergencyDrain). No-op in owned-fd mode, where
  /// appendChunk itself is signal-safe.
  void emergencyFlushQueued();

  /// True when any write failed (disk full, fd revoked, ...). The
  /// on-disk demo is then best-effort: its intact prefix still salvages.
  bool ioError() const {
    return Back ? Back->ioError(Client)
                : IoError.load(std::memory_order_relaxed);
  }

private:
  int Fds[NumStreamKinds] = {-1, -1, -1, -1, -1};
  bool StreamClosed[NumStreamKinds] = {false, false, false, false, false};
  bool Open = false;
  AsyncDemoBackend *Back = nullptr;
  int Client = -1;
  std::atomic<bool> IoError{false};
};

} // namespace tsr

#endif // TSR_SUPPORT_DEMOWRITER_H
