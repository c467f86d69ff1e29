//===-- support/DemoWriter.cpp - Incremental chunked demo writer ---------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/DemoWriter.h"

#include <cassert>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

using namespace tsr;

namespace {

/// Opens the five stream files of \p Dir and writes their v3 headers.
/// On failure closes whatever it opened, leaves every fd slot at -1,
/// and reports through \p Error.
bool openStreamFiles(const std::string &Dir, int (&Fds)[NumStreamKinds],
                     std::string &Error) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    Error = Dir + ": " + EC.message();
    return false;
  }
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const StreamKind Kind = static_cast<StreamKind>(I);
    const std::string Path = Dir + "/" + streamName(Kind);
    const int Fd =
        ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    bool Ok = Fd >= 0;
    if (Ok) {
      Fds[I] = Fd;
      Ok = writeStreamHeader(Fd, Kind);
      if (!Ok)
        Error = Path + ": cannot write stream header";
    } else {
      Error = Path + ": " + std::strerror(errno);
    }
    if (!Ok) {
      for (int &Open : Fds) {
        if (Open >= 0)
          ::close(Open);
        Open = -1;
      }
      return false;
    }
  }
  return true;
}

} // namespace

void tsr::buildChunkFrame(std::vector<uint8_t> &Out, const uint8_t *Data,
                          size_t Size, uint64_t Frontier) {
  uint8_t Header[Demo::ChunkHeaderSize];
  packChunkHeader(Header, Data, Size, Frontier);
  Out.reserve(Out.size() + sizeof(Header) + Size);
  Out.insert(Out.end(), Header, Header + sizeof(Header));
  if (Size)
    Out.insert(Out.end(), Data, Data + Size);
}

//===----------------------------------------------------------------------===//
// AsyncDemoBackend
//===----------------------------------------------------------------------===//

AsyncDemoBackend::AsyncDemoBackend(size_t MaxQueuedBytes)
    : MaxQueuedBytes(MaxQueuedBytes) {
  Writer = std::thread([this] { writerLoop(); });
}

AsyncDemoBackend::~AsyncDemoBackend() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Stop = true;
  }
  WorkCv.notify_all();
  Writer.join();
  // Queued frames were all written by the loop's drain-before-exit;
  // close whatever fds clients never unregistered.
  for (auto &C : Clients)
    for (int &Fd : C->Fds) {
      if (Fd >= 0)
        ::close(Fd);
      Fd = -1;
    }
}

int AsyncDemoBackend::registerStreams(const std::string &Dir,
                                      std::string &Error) {
  auto C = std::make_unique<ClientState>();
  if (!openStreamFiles(Dir, C->Fds, Error))
    return -1;
  C->Live = true;
  std::lock_guard<std::mutex> L(Mu);
  Clients.push_back(std::move(C));
  return static_cast<int>(Clients.size()) - 1;
}

void AsyncDemoBackend::submit(int Client, StreamKind Kind,
                              std::vector<uint8_t> Frame) {
  std::unique_lock<std::mutex> L(Mu);
  if (Client < 0 || static_cast<size_t>(Client) >= Clients.size())
    return;
  ClientState &C = *Clients[Client];
  if (!C.Live || C.Fds[static_cast<unsigned>(Kind)] < 0)
    return; // unregistered, or the stream died on a write failure
  // Backpressure: a slow disk bounds queue memory, not the other way
  // around. The writer thread frees space as it drains.
  SpaceCv.wait(L, [this] { return QueuedBytes < MaxQueuedBytes || Stop; });
  QueuedBytes += Frame.size();
  C.QueuedItems++;
  Queue.push_back(Item{Client, Kind, std::move(Frame), false, false});
  WorkCv.notify_one();
}

void AsyncDemoBackend::closeStream(int Client, StreamKind Kind) {
  std::vector<uint8_t> Sentinel;
  buildChunkFrame(Sentinel, nullptr, 0, Demo::ClosedFrontier);
  std::unique_lock<std::mutex> L(Mu);
  if (Client < 0 || static_cast<size_t>(Client) >= Clients.size())
    return;
  ClientState &C = *Clients[Client];
  if (!C.Live || C.Fds[static_cast<unsigned>(Kind)] < 0)
    return;
  SpaceCv.wait(L, [this] { return QueuedBytes < MaxQueuedBytes || Stop; });
  QueuedBytes += Sentinel.size();
  C.QueuedItems++;
  Queue.push_back(Item{Client, Kind, std::move(Sentinel), true, false});
  WorkCv.notify_one();
}

void AsyncDemoBackend::drain(int Client) {
  std::unique_lock<std::mutex> L(Mu);
  if (Client < 0 || static_cast<size_t>(Client) >= Clients.size())
    return;
  ClientState &C = *Clients[Client];
  SpaceCv.wait(L, [this, &C, Client] {
    return C.QueuedItems == 0 && InFlightClient != Client;
  });
}

void AsyncDemoBackend::unregister(int Client) {
  drain(Client);
  std::lock_guard<std::mutex> L(Mu);
  if (Client < 0 || static_cast<size_t>(Client) >= Clients.size())
    return;
  ClientState &C = *Clients[Client];
  C.Live = false;
  for (int &Fd : C.Fds) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
}

bool AsyncDemoBackend::ioError(int Client) const {
  std::lock_guard<std::mutex> L(Mu);
  if (Client < 0 || static_cast<size_t>(Client) >= Clients.size())
    return false;
  return Clients[Client]->IoError.load(std::memory_order_relaxed);
}

void AsyncDemoBackend::emergencyDrain(int Client) {
  // Fatal-signal path: best effort only. try_lock because the crashing
  // thread may be the writer thread itself, or may have interrupted a
  // producer mid-enqueue; blocking here would hang the dying process.
  if (!Mu.try_lock())
    return;
  if (Client >= 0 && static_cast<size_t>(Client) < Clients.size()) {
    ClientState &C = *Clients[Client];
    for (Item &I : Queue) {
      if (I.Client != Client || I.Written)
        continue;
      if (InFlightClient == Client && InFlightKind == static_cast<int>(I.Kind))
        continue; // that stream may be torn mid-frame right now
      const int Fd = C.Fds[static_cast<unsigned>(I.Kind)];
      if (Fd >= 0)
        writeAllFd(Fd, I.Bytes.data(), I.Bytes.size(), &C.IoError);
      // Mark rather than erase: no heap mutation in a signal handler.
      // The writer thread skips written items when it gets back in.
      I.Written = true;
    }
  }
  Mu.unlock();
}

size_t AsyncDemoBackend::queuedBytesForTest() const {
  std::lock_guard<std::mutex> L(Mu);
  return QueuedBytes;
}

void AsyncDemoBackend::writerLoop() {
  std::unique_lock<std::mutex> L(Mu);
  while (true) {
    WorkCv.wait(L, [this] { return Stop || !Queue.empty(); });
    if (Queue.empty()) {
      if (Stop)
        return; // drained everything that will ever arrive
      continue;
    }
    // Write the front item with the lock dropped: deque references stay
    // valid across concurrent push_backs, and InFlight{Client,Kind} tell
    // emergencyDrain to keep its hands off this stream meanwhile.
    Item &I = Queue.front();
    ClientState &C = *Clients[I.Client];
    const int Fd = C.Fds[static_cast<unsigned>(I.Kind)];
    if (!I.Written && Fd >= 0) {
      InFlightClient = I.Client;
      InFlightKind = static_cast<int>(I.Kind);
      L.unlock();
      const bool Ok = writeAllFd(Fd, I.Bytes.data(), I.Bytes.size(),
                                 &C.IoError);
      L.lock();
      InFlightClient = -1;
      InFlightKind = -1;
      if (!Ok) {
        // The frame may be torn mid-chunk; kill the stream so the
        // durable prefix stays the salvage point (mirrors the owned-fd
        // writer's dead-stream latch).
        int &Slot = C.Fds[static_cast<unsigned>(I.Kind)];
        if (Slot >= 0)
          ::close(Slot);
        Slot = -1;
      }
    }
    if (I.CloseAfter) {
      int &Slot = C.Fds[static_cast<unsigned>(I.Kind)];
      if (Slot >= 0)
        ::close(Slot);
      Slot = -1;
    }
    QueuedBytes -= I.Bytes.size();
    assert(C.QueuedItems > 0);
    C.QueuedItems--;
    Queue.pop_front();
    SpaceCv.notify_all();
  }
}

//===----------------------------------------------------------------------===//
// ChunkedDemoWriter
//===----------------------------------------------------------------------===//

bool ChunkedDemoWriter::open(const std::string &Dir, std::string &Error) {
  closeAll();
  if (!openStreamFiles(Dir, Fds, Error))
    return false;
  Open = true;
  IoError.store(false, std::memory_order_relaxed);
  return true;
}

bool ChunkedDemoWriter::attach(AsyncDemoBackend &Backend,
                               const std::string &Dir, std::string &Error) {
  closeAll();
  const int Id = Backend.registerStreams(Dir, Error);
  if (Id < 0)
    return false;
  Back = &Backend;
  Client = Id;
  Open = true;
  IoError.store(false, std::memory_order_relaxed);
  return true;
}

void ChunkedDemoWriter::appendChunk(StreamKind Kind, const uint8_t *Data,
                                    size_t Size, uint64_t Frontier) {
  if (Back) {
    if (StreamClosed[static_cast<unsigned>(Kind)])
      return;
    std::vector<uint8_t> Frame;
    buildChunkFrame(Frame, Data, Size, Frontier);
    Back->submit(Client, Kind, std::move(Frame));
    return;
  }
  int &Fd = Fds[static_cast<unsigned>(Kind)];
  if (Fd < 0)
    return;
  if (!writeChunkFrame(Fd, Data, Size, Frontier, &IoError)) {
    // The frame may be torn mid-chunk. Any bytes appended after it would
    // sit behind garbage that could masquerade as a plausible chunk
    // header, so kill the stream: the durable prefix up to the previous
    // intact frame stays the salvage point. ::close is async-signal-safe.
    ::close(Fd);
    Fd = -1;
  }
}

void ChunkedDemoWriter::closeStream(StreamKind Kind) {
  if (Back) {
    if (StreamClosed[static_cast<unsigned>(Kind)])
      return;
    StreamClosed[static_cast<unsigned>(Kind)] = true;
    Back->closeStream(Client, Kind);
    return;
  }
  int &Fd = Fds[static_cast<unsigned>(Kind)];
  if (Fd < 0)
    return;
  appendChunk(Kind, nullptr, 0, Demo::ClosedFrontier);
  ::close(Fd);
  Fd = -1;
}

void ChunkedDemoWriter::adoptStreamFdForTest(StreamKind Kind, int Fd) {
  int &Slot = Fds[static_cast<unsigned>(Kind)];
  if (Slot >= 0)
    ::close(Slot);
  Slot = Fd;
  Open = true;
  IoError.store(false, std::memory_order_relaxed);
}

void ChunkedDemoWriter::closeAll() {
  if (Back) {
    Back->unregister(Client);
    Back = nullptr;
    Client = -1;
  }
  for (int &Fd : Fds) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
  for (bool &Closed : StreamClosed)
    Closed = false;
  Open = false;
}

void ChunkedDemoWriter::emergencyFlushQueued() {
  if (Back)
    Back->emergencyDrain(Client);
}
