//===-- support/DemoWriter.cpp - Incremental chunked demo writer ---------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/DemoWriter.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

using namespace tsr;

bool ChunkedDemoWriter::open(const std::string &Dir, std::string &Error) {
  closeAll();
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
      closeAll();
      return false;
    }
  }
  Open = true;
  IoError.store(false, std::memory_order_relaxed);
  return true;
}

void ChunkedDemoWriter::appendChunk(StreamKind Kind, const uint8_t *Data,
                                    size_t Size, uint64_t Frontier) {
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
  for (int &Fd : Fds) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
  Open = false;
}
