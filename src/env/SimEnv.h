//===-- env/SimEnv.h - Simulated OS environment -----------------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A discrete-event simulated operating system environment. This is the
/// substitution for the real external world the paper records from —
/// network peers, the clock, devices behind ioctl, files and pipes.
///
/// Genuine nondeterminism comes from an environment PRNG (wall-clock
/// seeded by default) that jitters message latencies, clock reads, device
/// responses and allocator layout hints. Recording a run therefore
/// captures information that cannot be regenerated, exactly like
/// recording a real network.
///
/// Time is virtual and per-thread: a message sent at the sender's local
/// time t arrives at t + latency; readiness of an fd is evaluated against
/// the *reading* thread's local clock, and a poll() with a timeout
/// advances the reader to the earliest arrival. Combined with the cost
/// model this yields a deterministic performance model in which
/// parallelism is visible (see CostModel.h).
///
/// Peers are scripted endpoints driven by callbacks — there are no peer
/// threads. A peer's logic runs inside the syscall that delivers data to
/// it, at the appropriate virtual time.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_ENV_SIMENV_H
#define TSR_ENV_SIMENV_H

#include "env/CostModel.h"
#include "env/Syscall.h"
#include "support/Prng.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tsr {

/// poll() event bits (virtual; values mirror POSIX for readability).
inline constexpr short PollIn = 0x1;
inline constexpr short PollOut = 0x4;
inline constexpr short PollHup = 0x10;

/// One entry of a virtual poll() call.
struct PollFd {
  int Fd = -1;
  short Events = 0;
  short Revents = 0;
};

/// Virtual errno values (mirroring POSIX numbers).
inline constexpr int VEBADF = 9;
inline constexpr int VEAGAIN = 11;
inline constexpr int VEINVAL = 22;
inline constexpr int VENOTCONN = 107;
inline constexpr int VEADDRINUSE = 98;
inline constexpr int VECONNREFUSED = 111;
inline constexpr int VENOENT = 2;
// Used (so far) only by injected faults (env/FaultPlan.h).
inline constexpr int VEINTR = 4;
inline constexpr int VECONNRESET = 104;

/// Transient failures worth retrying (the session's deterministic
/// retry/backoff policy, RetryPolicy): a retried EINTR/EAGAIN can
/// legitimately succeed; everything else is a stable outcome.
inline bool isTransientVirtualErrno(int Err) {
  return Err == VEINTR || Err == VEAGAIN;
}

/// ioctl request codes understood by virtual devices.
enum class IoctlReq : uint64_t {
  DisplayVsync = 1,   ///< Returns a jittered vsync timestamp (8 bytes).
  DisplayFrameDone,   ///< Returns a jittered per-frame GPU latency.
  AudioLatency,       ///< Returns the audio pipeline latency.
  QueryDriver,        ///< Returns an opaque driver blob (jittered).
};

class SimEnv;
class FaultInjector;

/// Interface a scripted peer uses to act on the world. Valid only for the
/// duration of the callback it is passed to.
class PeerApi {
public:
  virtual ~PeerApi() = default;

  /// Virtual time at which the peer is acting.
  virtual VTime now() const = 0;

  /// Sends \p Data on \p Conn towards the application; it arrives after
  /// the network latency plus \p ExtraDelay.
  virtual void send(uint64_t Conn, std::vector<uint8_t> Data,
                    VTime ExtraDelay = 0) = 0;

  /// Half-closes \p Conn from the peer side (the app sees EOF).
  virtual void close(uint64_t Conn) = 0;

  /// Initiates a connection to an application listener on \p Port,
  /// arriving at now() + latency + \p ExtraDelay. Returns the peer-side
  /// connection id (usable once the app accepts).
  virtual uint64_t connect(uint16_t Port, VTime ExtraDelay = 0) = 0;

  /// Draws from the environment PRNG.
  virtual uint64_t rand(uint64_t Bound) = 0;
};

/// A scripted external endpoint (server, client fleet, ...).
class Peer {
public:
  virtual ~Peer();

  /// Called once when the environment starts (virtual time 0); schedule
  /// initial connects here.
  virtual void onStart(PeerApi &Api);

  /// A connection this peer initiated was accepted, or an application
  /// connect() to this peer's service completed.
  virtual void onConnected(PeerApi &Api, uint64_t Conn);

  /// Data from the application arrived on \p Conn.
  virtual void onMessage(PeerApi &Api, uint64_t Conn,
                         const std::vector<uint8_t> &Data);

  /// The application closed \p Conn.
  virtual void onClosed(PeerApi &Api, uint64_t Conn);
};

/// The simulated environment. Thread-safe; every syscall takes the calling
/// thread's id so per-thread virtual time drives readiness.
class SimEnv {
public:
  struct Options {
    /// Environment PRNG seeds; defaults to wall-clock entropy (the
    /// environment is *supposed* to be nondeterministic — fix the seeds in
    /// tests that need a reproducible world).
    uint64_t Seed0 = 0;
    uint64_t Seed1 = 0;
  };

  SimEnv(CostModel &Cost, Options Opts);
  explicit SimEnv(CostModel &Cost);
  ~SimEnv();

  SimEnv(const SimEnv &) = delete;
  SimEnv &operator=(const SimEnv &) = delete;

  /// Registers a scripted peer. \p ServicePort, if nonzero, lets the
  /// application connect() to this peer.
  Peer &addPeer(std::string Name, std::unique_ptr<Peer> P,
                uint16_t ServicePort = 0);

  /// Fires every peer's onStart. Called by the session when the run
  /// begins.
  void start();

  // --- Virtual syscalls -------------------------------------------------
  SyscallResult sysSocket(Tid T);
  SyscallResult sysBind(Tid T, int Fd, uint16_t Port);
  SyscallResult sysListen(Tid T, int Fd);
  SyscallResult sysAccept(Tid T, int Fd);
  SyscallResult sysConnect(Tid T, int Fd, uint16_t Port);
  SyscallResult sysSend(Tid T, int Fd, const void *Data, size_t Len);
  SyscallResult sysRecv(Tid T, int Fd, size_t MaxLen);
  SyscallResult sysPoll(Tid T, PollFd *Fds, size_t NFds, int TimeoutMs);
  SyscallResult sysIoctl(Tid T, int Fd, IoctlReq Req);
  SyscallResult sysClockGettime(Tid T);
  SyscallResult sysOpen(Tid T, const std::string &Path, bool Create);
  SyscallResult sysRead(Tid T, int Fd, size_t MaxLen);
  SyscallResult sysWrite(Tid T, int Fd, const void *Data, size_t Len);
  SyscallResult sysClose(Tid T, int Fd);
  SyscallResult sysPipe(Tid T, int OutFds[2]);
  SyscallResult sysSleepMs(Tid T, uint64_t Ms);
  SyscallResult sysAllocHint(Tid T);

  /// Classifies \p Fd for the recording policy. Unknown fds map to None.
  FdClass fdClass(int Fd);

  /// Seeds a virtual file (world setup for tests and workloads).
  void putFile(const std::string &Path, std::vector<uint8_t> Contents);

  /// Generator for a dynamic file's contents; drawn fresh at every open,
  /// with access to environment randomness.
  using DynamicFileFn = std::function<std::vector<uint8_t>(Prng &Rng)>;

  /// Registers a dynamic file (e.g. /proc/stat): each open snapshots
  /// freshly generated, environment-jittered content — the
  /// nondeterminism source behind the paper's htop discussion (§4.4).
  void putDynamicFile(const std::string &Path, DynamicFileFn Generator);

  /// Reads back a virtual file (empty if absent).
  std::vector<uint8_t> fileContents(const std::string &Path);

  /// Attaches (or detaches, with null) the session's fault injector: each
  /// peer->application message then asks it for a deliver/drop/duplicate
  /// fate. Null and disarmed injectors deliver everything.
  void setFaultInjector(FaultInjector *F) { Faults = F; }

  CostModel &cost() { return Cost; }

private:
  struct Message {
    VTime ArriveAt = 0;
    std::vector<uint8_t> Data;
  };

  struct Connection {
    int AppFd = -1;
    Peer *P = nullptr;
    uint64_t PeerConn = 0;
    std::deque<Message> ToApp;
    bool PeerClosed = false;
    bool AppClosed = false;
  };

  struct PendingConn {
    VTime ArriveAt = 0;
    Peer *P = nullptr;
    uint64_t PeerConn = 0;
  };

  struct Listener {
    uint16_t Port = 0;
    bool Listening = false;
    std::deque<PendingConn> Backlog;
  };

  struct FileHandle {
    std::string Path;
    size_t Offset = 0;
    bool Writable = false;
    /// Dynamic files snapshot their generated content at open.
    bool Dynamic = false;
    std::vector<uint8_t> Snapshot;
  };

  struct PipeState {
    std::deque<Message> Buffer;
    bool WriteClosed = false;
    bool ReadClosed = false;
  };

  struct FdEntry {
    FdClass Class = FdClass::None;
    bool Open = false;
    // Index into the table matching Class (connections, listeners,
    // files, pipes, devices). For pipes, ReadEnd tells the direction; for
    // sockets, IsConn distinguishes connections from listeners.
    size_t Index = 0;
    bool ReadEnd = false;
    bool IsConn = false;
  };

  class ApiImpl;

  int allocFd(FdClass Class, size_t Index, bool ReadEnd = false);
  FdEntry *entry(int Fd);
  VTime localNow(Tid T);
  /// Draws one network message's one-way latency (virtual ns).
  VTime latency();
  void deliverToPeer(Connection &C, VTime At,
                     const std::vector<uint8_t> &Data);
  bool connReadable(const Connection &C, VTime Now) const;
  VTime connNextArrival(const Connection &C) const;

  CostModel &Cost;
  Options Opts;
  Prng Rng;
  FaultInjector *Faults = nullptr;
  std::mutex Mu;

  struct PeerSlot {
    std::string Name;
    std::unique_ptr<Peer> P;
    uint16_t ServicePort = 0;
  };
  std::vector<PeerSlot> Peers;

  // Object tables use deque: references must stay valid while new objects
  // are created (peer callbacks run mid-syscall).
  std::vector<FdEntry> Fds;
  std::deque<Connection> Conns;
  std::deque<Listener> Listeners;
  std::deque<FileHandle> Files;
  std::deque<std::shared_ptr<PipeState>> Pipes;
  std::deque<std::string> Devices;

  std::map<std::string, std::vector<uint8_t>> Fs;
  std::map<std::string, DynamicFileFn> DynamicFs;
  std::map<uint16_t, Listener *> PortMap;

  /// Peer-side connection registry: peer conn id -> app connection index.
  std::map<uint64_t, size_t> PeerConnMap;
  uint64_t NextPeerConn = 1;

  VTime LastClock = 0;
  uint64_t AllocCounter = 0;
  bool Started = false;
};

} // namespace tsr

#endif // TSR_ENV_SIMENV_H
