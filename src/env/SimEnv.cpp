//===-- env/SimEnv.cpp - Simulated OS environment ---------------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "env/SimEnv.h"

#include "env/FaultPlan.h"

#include "support/Compiler.h"
#include "support/Diag.h"

#include <algorithm>
#include <cstring>

using namespace tsr;

Peer::~Peer() = default;
void Peer::onStart(PeerApi &) {}
void Peer::onConnected(PeerApi &, uint64_t) {}
void Peer::onMessage(PeerApi &, uint64_t, const std::vector<uint8_t> &) {}
void Peer::onClosed(PeerApi &, uint64_t) {}

namespace {

/// Serializes a little-endian u64 into a result buffer.
void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

} // namespace

/// PeerApi implementation; constructed per callback with the interaction
/// time. SimEnv's lock is held for the whole callback.
class SimEnv::ApiImpl final : public PeerApi {
public:
  ApiImpl(SimEnv &Env, VTime Now) : Env(Env), Now_(Now) {}

  VTime now() const override { return Now_; }

  void send(uint64_t Conn, std::vector<uint8_t> Data,
            VTime ExtraDelay) override {
    auto It = Env.PeerConnMap.find(Conn);
    if (It == Env.PeerConnMap.end())
      return;
    Connection &C = Env.Conns[It->second];
    if (C.AppClosed)
      return;
    auto Fate = FaultInjector::MessageFate::Deliver;
    if (Env.Faults)
      Fate = Env.Faults->messageFate();
    if (Fate == FaultInjector::MessageFate::Drop)
      return; // Lost on the simulated wire.
    Message M;
    M.ArriveAt = Now_ + Env.latency() + ExtraDelay;
    M.Data = std::move(Data);
    // Keep the queue sorted by arrival: a later send with a shorter extra
    // delay may not overtake in-order stream transport.
    if (!C.ToApp.empty())
      M.ArriveAt = std::max(M.ArriveAt, C.ToApp.back().ArriveAt);
    if (Fate == FaultInjector::MessageFate::Duplicate) {
      Message Dup = M; // Same arrival: back-to-back duplicate delivery.
      C.ToApp.push_back(std::move(Dup));
    }
    C.ToApp.push_back(std::move(M));
  }

  void close(uint64_t Conn) override {
    auto It = Env.PeerConnMap.find(Conn);
    if (It == Env.PeerConnMap.end())
      return;
    Env.Conns[It->second].PeerClosed = true;
  }

  uint64_t connect(uint16_t Port, VTime ExtraDelay) override {
    Listener *L = nullptr;
    auto It = Env.PortMap.find(Port);
    if (It != Env.PortMap.end()) {
      L = It->second;
    } else {
      Env.Listeners.emplace_back();
      L = &Env.Listeners.back();
      L->Port = Port;
      Env.PortMap[Port] = L;
    }
    PendingConn P;
    P.ArriveAt = Now_ + Env.latency() + ExtraDelay;
    P.P = CurrentPeer;
    P.PeerConn = Env.NextPeerConn++;
    L->Backlog.push_back(P);
    return P.PeerConn;
  }

  uint64_t rand(uint64_t Bound) override { return Env.Rng.nextBelow(Bound); }

  Peer *CurrentPeer = nullptr;

private:
  SimEnv &Env;
  VTime Now_;
};

SimEnv::SimEnv(CostModel &Cost, Options Opts) : Cost(Cost), Opts(Opts) {
  if (Opts.Seed0 == 0 && Opts.Seed1 == 0) {
    const auto Seeds = Prng::freshEntropy();
    Rng.reseed(Seeds.first, Seeds.second);
  } else {
    Rng.reseed(Opts.Seed0, Opts.Seed1);
  }
  // fd 0/1/2 reserved (stdin/out/err are not simulated).
  Fds.resize(3);
}

SimEnv::SimEnv(CostModel &Cost) : SimEnv(Cost, Options()) {}

SimEnv::~SimEnv() = default;

Peer &SimEnv::addPeer(std::string Name, std::unique_ptr<Peer> P,
                      uint16_t ServicePort) {
  std::lock_guard<std::mutex> L(Mu);
  assert(!Started && "peers must be added before the environment starts");
  Peers.push_back({std::move(Name), std::move(P), ServicePort});
  return *Peers.back().P;
}

void SimEnv::start() {
  std::lock_guard<std::mutex> L(Mu);
  if (Started)
    return;
  Started = true;
  for (auto &Slot : Peers) {
    ApiImpl Api(*this, 0);
    Api.CurrentPeer = Slot.P.get();
    Slot.P->onStart(Api);
  }
}

int SimEnv::allocFd(FdClass Class, size_t Index, bool ReadEnd) {
  FdEntry E;
  E.Class = Class;
  E.Open = true;
  E.Index = Index;
  E.ReadEnd = ReadEnd;
  Fds.push_back(E);
  return static_cast<int>(Fds.size() - 1);
}

SimEnv::FdEntry *SimEnv::entry(int Fd) {
  if (Fd < 0 || static_cast<size_t>(Fd) >= Fds.size() || !Fds[Fd].Open)
    return nullptr;
  return &Fds[Fd];
}

VTime SimEnv::localNow(Tid T) { return Cost.localTime(T); }

VTime SimEnv::latency() {
  // One-way network latency and jitter bound: LAN scale.
  constexpr VTime BaseLatencyNs = 60000;
  constexpr VTime JitterNs = 40000;
  return BaseLatencyNs + Rng.nextBelow(JitterNs);
}

SyscallResult SimEnv::sysSocket(Tid) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  Listeners.emplace_back();
  R.Ret = allocFd(FdClass::Socket, Listeners.size() - 1);
  return R;
}

SyscallResult SimEnv::sysBind(Tid, int Fd, uint16_t Port) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  FdEntry *E = entry(Fd);
  if (!E || E->Class != FdClass::Socket) {
    R.Ret = -1;
    R.Err = VEBADF;
    return R;
  }
  auto It = PortMap.find(Port);
  if (It != PortMap.end() && It->second->Listening) {
    R.Ret = -1;
    R.Err = VEADDRINUSE;
    return R;
  }
  Listener &Self = Listeners[E->Index];
  Self.Port = Port;
  if (It != PortMap.end()) {
    // A peer raced us: adopt the backlog accumulated for this port.
    Self.Backlog = std::move(It->second->Backlog);
    It->second->Backlog.clear();
  }
  PortMap[Port] = &Self;
  return R;
}

SyscallResult SimEnv::sysListen(Tid, int Fd) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  FdEntry *E = entry(Fd);
  if (!E || E->Class != FdClass::Socket) {
    R.Ret = -1;
    R.Err = VEBADF;
    return R;
  }
  Listeners[E->Index].Listening = true;
  return R;
}

SyscallResult SimEnv::sysAccept(Tid T, int Fd) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  FdEntry *E = entry(Fd);
  if (!E || E->Class != FdClass::Socket) {
    R.Ret = -1;
    R.Err = VEBADF;
    return R;
  }
  Listener &Lst = Listeners[E->Index];
  const VTime Now = localNow(T);
  if (Lst.Backlog.empty() || Lst.Backlog.front().ArriveAt > Now) {
    R.Ret = -1;
    R.Err = VEAGAIN;
    return R;
  }
  PendingConn P = Lst.Backlog.front();
  Lst.Backlog.pop_front();
  Conns.emplace_back();
  Connection &C = Conns.back();
  const size_t ConnIdx = Conns.size() - 1;
  C.P = P.P;
  C.PeerConn = P.PeerConn;
  C.AppFd = allocFd(FdClass::Socket, ConnIdx);
  Fds[C.AppFd].IsConn = true;
  PeerConnMap[P.PeerConn] = ConnIdx;
  if (C.P) {
    ApiImpl Api(*this, std::max(Now, P.ArriveAt));
    Api.CurrentPeer = C.P;
    C.P->onConnected(Api, C.PeerConn);
  }
  R.Ret = C.AppFd;
  return R;
}

SyscallResult SimEnv::sysConnect(Tid T, int Fd, uint16_t Port) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  FdEntry *E = entry(Fd);
  if (!E || E->Class != FdClass::Socket) {
    R.Ret = -1;
    R.Err = VEBADF;
    return R;
  }
  // Find the peer exposing this service port.
  Peer *Target = nullptr;
  for (auto &Slot : Peers)
    if (Slot.ServicePort == Port) {
      Target = Slot.P.get();
      break;
    }
  if (!Target) {
    R.Ret = -1;
    R.Err = VECONNREFUSED;
    return R;
  }
  Conns.emplace_back();
  Connection &C = Conns.back();
  const size_t ConnIdx = Conns.size() - 1;
  C.P = Target;
  C.PeerConn = NextPeerConn++;
  C.AppFd = Fd;
  // The connecting fd becomes the connection fd.
  E->Index = ConnIdx;
  E->IsConn = true;
  PeerConnMap[C.PeerConn] = ConnIdx;
  ApiImpl Api(*this, localNow(T) + latency());
  Api.CurrentPeer = Target;
  Target->onConnected(Api, C.PeerConn);
  return R;
}

void SimEnv::deliverToPeer(Connection &C, VTime At,
                           const std::vector<uint8_t> &Data) {
  if (!C.P)
    return;
  ApiImpl Api(*this, At);
  Api.CurrentPeer = C.P;
  C.P->onMessage(Api, C.PeerConn, Data);
}

bool SimEnv::connReadable(const Connection &C, VTime Now) const {
  if (!C.ToApp.empty() && C.ToApp.front().ArriveAt <= Now)
    return true;
  return C.PeerClosed && C.ToApp.empty();
}

VTime SimEnv::connNextArrival(const Connection &C) const {
  return C.ToApp.empty() ? ~VTime(0) : C.ToApp.front().ArriveAt;
}

SyscallResult SimEnv::sysSend(Tid T, int Fd, const void *Data, size_t Len) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  FdEntry *E = entry(Fd);
  if (!E || E->Class != FdClass::Socket || !E->IsConn) {
    R.Ret = -1;
    R.Err = VEBADF;
    return R;
  }
  Connection &C = Conns[E->Index];
  if (C.PeerClosed) {
    R.Ret = -1;
    R.Err = VENOTCONN;
    return R;
  }
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  deliverToPeer(C, localNow(T) + latency(),
                std::vector<uint8_t>(P, P + Len));
  R.Ret = static_cast<int64_t>(Len);
  return R;
}

SyscallResult SimEnv::sysRecv(Tid T, int Fd, size_t MaxLen) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  FdEntry *E = entry(Fd);
  if (!E || E->Class != FdClass::Socket || !E->IsConn) {
    R.Ret = -1;
    R.Err = VEBADF;
    return R;
  }
  Connection &C = Conns[E->Index];
  const VTime Now = localNow(T);
  if (C.ToApp.empty() || C.ToApp.front().ArriveAt > Now) {
    if (C.PeerClosed && C.ToApp.empty()) {
      R.Ret = 0; // EOF
      return R;
    }
    R.Ret = -1;
    R.Err = VEAGAIN;
    return R;
  }
  Message &M = C.ToApp.front();
  const size_t N = std::min(MaxLen, M.Data.size());
  R.OutBuf.assign(M.Data.begin(), M.Data.begin() + N);
  if (N == M.Data.size()) {
    C.ToApp.pop_front();
  } else {
    M.Data.erase(M.Data.begin(), M.Data.begin() + N);
  }
  R.Ret = static_cast<int64_t>(N);
  return R;
}

SyscallResult SimEnv::sysPoll(Tid T, PollFd *Fds_, size_t NFds,
                              int TimeoutMs) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;

  auto Evaluate = [&](VTime Now, VTime &NextArrival) -> int {
    int Ready = 0;
    NextArrival = ~VTime(0);
    for (size_t I = 0; I != NFds; ++I) {
      PollFd &P = Fds_[I];
      P.Revents = 0;
      FdEntry *E = entry(P.Fd);
      if (!E)
        continue;
      bool In = false, Hup = false;
      VTime Arrival = ~VTime(0);
      switch (E->Class) {
      case FdClass::Socket: {
        // Listener sockets signal readiness for accept; connection
        // sockets for data or EOF.
        if (E->IsConn) {
          const Connection &C = Conns[E->Index];
          In = connReadable(C, Now);
          Hup = C.PeerClosed;
          Arrival = connNextArrival(C);
        } else if (E->Index < Listeners.size()) {
          const Listener &Lst = Listeners[E->Index];
          if (!Lst.Backlog.empty()) {
            In = Lst.Backlog.front().ArriveAt <= Now;
            Arrival = Lst.Backlog.front().ArriveAt;
          }
        }
        break;
      }
      case FdClass::Pipe: {
        const auto &Pipe = Pipes[E->Index];
        if (E->ReadEnd) {
          if (!Pipe->Buffer.empty()) {
            In = Pipe->Buffer.front().ArriveAt <= Now;
            Arrival = Pipe->Buffer.front().ArriveAt;
          }
          Hup = Pipe->WriteClosed && Pipe->Buffer.empty();
          In = In || Hup;
        }
        break;
      }
      case FdClass::File:
      case FdClass::Device:
        In = true; // Always ready.
        break;
      case FdClass::None:
        break;
      }
      if (In && (P.Events & PollIn))
        P.Revents |= PollIn;
      if (P.Events & PollOut)
        P.Revents |= PollOut; // Writes never block in the simulation.
      if (Hup)
        P.Revents |= PollHup;
      if (P.Revents)
        ++Ready;
      else
        NextArrival = std::min(NextArrival, Arrival);
    }
    return Ready;
  };

  VTime Now = localNow(T);
  VTime NextArrival;
  int Ready = Evaluate(Now, NextArrival);
  if (Ready == 0 && TimeoutMs != 0) {
    const VTime Deadline =
        TimeoutMs < 0 ? ~VTime(0)
                      : Now + static_cast<VTime>(TimeoutMs) * 1000000;
    if (NextArrival <= Deadline) {
      Cost.waitUntil(T, NextArrival);
      Now = NextArrival;
      Ready = Evaluate(Now, NextArrival);
    } else if (TimeoutMs > 0) {
      Cost.waitUntil(T, Deadline);
    }
    // Infinite timeout with no future arrival: return 0 and let the
    // caller's loop decide; a real blocking poll with nothing coming
    // would hang forever.
  }
  // Result buffer: revents per entry, two bytes little-endian.
  for (size_t I = 0; I != NFds; ++I) {
    R.OutBuf.push_back(static_cast<uint8_t>(Fds_[I].Revents & 0xFF));
    R.OutBuf.push_back(static_cast<uint8_t>((Fds_[I].Revents >> 8) & 0xFF));
  }
  R.Ret = Ready;
  return R;
}

SyscallResult SimEnv::sysIoctl(Tid T, int Fd, IoctlReq Req) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  FdEntry *E = entry(Fd);
  if (!E || E->Class != FdClass::Device) {
    R.Ret = -1;
    R.Err = VEBADF;
    return R;
  }
  const VTime Now = localNow(T);
  switch (Req) {
  case IoctlReq::DisplayVsync:
    putU64(R.OutBuf, Now + 16666667 - (Now % 16666667) + Rng.nextBelow(5000));
    break;
  case IoctlReq::DisplayFrameDone:
    putU64(R.OutBuf, 1000000000 / 60 + Rng.nextBelow(2000000));
    break;
  case IoctlReq::AudioLatency:
    putU64(R.OutBuf, 5000000 + Rng.nextBelow(1000000));
    break;
  case IoctlReq::QueryDriver:
    for (int I = 0; I != 16; ++I)
      R.OutBuf.push_back(static_cast<uint8_t>(Rng.nextBelow(256)));
    break;
  }
  return R;
}

SyscallResult SimEnv::sysClockGettime(Tid T) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  // Monotone, shared, jittered: two threads racing on the clock observe
  // environment nondeterminism, which is why clock_gettime is in the
  // paper's recorded set.
  const VTime V =
      std::max(LastClock + 1, localNow(T) + Rng.nextBelow(1000));
  LastClock = V;
  putU64(R.OutBuf, V);
  return R;
}

SyscallResult SimEnv::sysOpen(Tid, const std::string &Path, bool Create) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  if (Path.rfind("/dev/", 0) == 0) {
    Devices.push_back(Path);
    R.Ret = allocFd(FdClass::Device, Devices.size() - 1);
    return R;
  }
  if (auto It = DynamicFs.find(Path); It != DynamicFs.end()) {
    // /proc-style file: snapshot fresh, jittered content at open.
    Files.push_back({Path, 0, false, true, It->second(Rng)});
    R.Ret = allocFd(FdClass::File, Files.size() - 1);
    return R;
  }
  if (!Fs.count(Path)) {
    if (!Create) {
      R.Ret = -1;
      R.Err = VENOENT;
      return R;
    }
    Fs[Path] = {};
  }
  Files.push_back({Path, 0, Create, false, {}});
  R.Ret = allocFd(FdClass::File, Files.size() - 1);
  return R;
}

SyscallResult SimEnv::sysRead(Tid T, int Fd, size_t MaxLen) {
  {
    // POSIX read on a connected socket behaves like recv.
    std::unique_lock<std::mutex> L(Mu);
    FdEntry *E = entry(Fd);
    if (E && E->Class == FdClass::Socket && E->IsConn) {
      L.unlock();
      return sysRecv(T, Fd, MaxLen);
    }
  }
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  FdEntry *E = entry(Fd);
  if (!E) {
    R.Ret = -1;
    R.Err = VEBADF;
    return R;
  }
  if (E->Class == FdClass::File) {
    FileHandle &F = Files[E->Index];
    const auto &Data = F.Dynamic ? F.Snapshot : Fs[F.Path];
    const size_t N =
        F.Offset >= Data.size() ? 0 : std::min(MaxLen, Data.size() - F.Offset);
    R.OutBuf.assign(Data.begin() + F.Offset, Data.begin() + F.Offset + N);
    F.Offset += N;
    R.Ret = static_cast<int64_t>(N);
    return R;
  }
  if (E->Class == FdClass::Pipe && E->ReadEnd) {
    auto &P = Pipes[E->Index];
    const VTime Now = localNow(T);
    if (P->Buffer.empty() || P->Buffer.front().ArriveAt > Now) {
      if (P->WriteClosed && P->Buffer.empty()) {
        R.Ret = 0;
        return R;
      }
      R.Ret = -1;
      R.Err = VEAGAIN;
      return R;
    }
    Message &M = P->Buffer.front();
    const size_t N = std::min(MaxLen, M.Data.size());
    R.OutBuf.assign(M.Data.begin(), M.Data.begin() + N);
    if (N == M.Data.size())
      P->Buffer.pop_front();
    else
      M.Data.erase(M.Data.begin(), M.Data.begin() + N);
    R.Ret = static_cast<int64_t>(N);
    return R;
  }
  R.Ret = -1;
  R.Err = VEBADF;
  return R;
}

SyscallResult SimEnv::sysWrite(Tid T, int Fd, const void *Data, size_t Len) {
  {
    // POSIX write on a connected socket behaves like send.
    std::unique_lock<std::mutex> L(Mu);
    FdEntry *E = entry(Fd);
    if (E && E->Class == FdClass::Socket && E->IsConn) {
      L.unlock();
      return sysSend(T, Fd, Data, Len);
    }
  }
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  FdEntry *E = entry(Fd);
  if (!E) {
    R.Ret = -1;
    R.Err = VEBADF;
    return R;
  }
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  if (E->Class == FdClass::File) {
    FileHandle &F = Files[E->Index];
    if (!F.Writable) {
      R.Ret = -1;
      R.Err = VEINVAL;
      return R;
    }
    auto &Bytes = Fs[F.Path];
    if (F.Offset + Len > Bytes.size())
      Bytes.resize(F.Offset + Len);
    std::memcpy(Bytes.data() + F.Offset, P, Len);
    F.Offset += Len;
    R.Ret = static_cast<int64_t>(Len);
    return R;
  }
  if (E->Class == FdClass::Pipe && !E->ReadEnd) {
    auto &Pipe = Pipes[E->Index];
    if (Pipe->ReadClosed) {
      R.Ret = -1;
      R.Err = VENOTCONN;
      return R;
    }
    Message M;
    constexpr VTime PipeLatencyNs = 2000;
    M.ArriveAt = localNow(T) + PipeLatencyNs;
    if (!Pipe->Buffer.empty())
      M.ArriveAt = std::max(M.ArriveAt, Pipe->Buffer.back().ArriveAt);
    M.Data.assign(P, P + Len);
    Pipe->Buffer.push_back(std::move(M));
    R.Ret = static_cast<int64_t>(Len);
    return R;
  }
  R.Ret = -1;
  R.Err = VEBADF;
  return R;
}

SyscallResult SimEnv::sysClose(Tid T, int Fd) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  FdEntry *E = entry(Fd);
  if (!E) {
    R.Ret = -1;
    R.Err = VEBADF;
    return R;
  }
  E->Open = false;
  if (E->Class == FdClass::Socket && E->IsConn) {
    Connection &C = Conns[E->Index];
    C.AppClosed = true;
    if (C.P) {
      ApiImpl Api(*this, localNow(T) + latency());
      Api.CurrentPeer = C.P;
      C.P->onClosed(Api, C.PeerConn);
    }
  } else if (E->Class == FdClass::Pipe) {
    auto &P = Pipes[E->Index];
    if (E->ReadEnd)
      P->ReadClosed = true;
    else
      P->WriteClosed = true;
  }
  return R;
}

SyscallResult SimEnv::sysPipe(Tid, int OutFds[2]) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  Pipes.push_back(std::make_shared<PipeState>());
  const size_t Idx = Pipes.size() - 1;
  OutFds[0] = allocFd(FdClass::Pipe, Idx, /*ReadEnd=*/true);
  OutFds[1] = allocFd(FdClass::Pipe, Idx, /*ReadEnd=*/false);
  // The fd pair is part of the observable result.
  putU64(R.OutBuf, static_cast<uint64_t>(OutFds[0]));
  putU64(R.OutBuf, static_cast<uint64_t>(OutFds[1]));
  return R;
}

SyscallResult SimEnv::sysSleepMs(Tid T, uint64_t Ms) {
  SyscallResult R;
  Cost.waitUntil(T, Cost.localTime(T) + Ms * 1000000);
  return R;
}

SyscallResult SimEnv::sysAllocHint(Tid) {
  std::lock_guard<std::mutex> L(Mu);
  SyscallResult R;
  // A pseudo heap address: allocation order plus environment jitter, so
  // pointer-ordered containers behave differently run to run (§5.5).
  const uint64_t Addr = 0x7f0000000000ull + (++AllocCounter) * 64 +
                        Rng.nextBelow(4) * 16;
  putU64(R.OutBuf, Addr);
  R.Ret = static_cast<int64_t>(Addr);
  return R;
}

FdClass SimEnv::fdClass(int Fd) {
  std::lock_guard<std::mutex> L(Mu);
  FdEntry *E = entry(Fd);
  return E ? E->Class : FdClass::None;
}

void SimEnv::putFile(const std::string &Path, std::vector<uint8_t> Contents) {
  std::lock_guard<std::mutex> L(Mu);
  Fs[Path] = std::move(Contents);
}

void SimEnv::putDynamicFile(const std::string &Path,
                            DynamicFileFn Generator) {
  std::lock_guard<std::mutex> L(Mu);
  DynamicFs[Path] = std::move(Generator);
}

std::vector<uint8_t> SimEnv::fileContents(const std::string &Path) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Fs.find(Path);
  return It == Fs.end() ? std::vector<uint8_t>() : It->second;
}
