//===-- tests/DemoIntegrityTest.cpp - Demo corruption & fault tests ------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// The robustness surface: on-disk demo integrity (per-stream headers,
// CRC-32, strict vs tolerant loading, the corruption matrix), structured
// desync reports for damaged replays, and deterministic fault injection —
// including the key property that a demo recorded under injection replays
// the faults bit-for-bit with the injector disarmed.
//
//===----------------------------------------------------------------------===//

#include "runtime/Tsr.h"
#include "support/DemoInspect.h"
#include "support/Prng.h"
#include "support/Recovery.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

using namespace tsr;

namespace {

SessionConfig baseConfig(Mode M = Mode::Free,
                         RecordPolicy P = RecordPolicy::none()) {
  SessionConfig C = presets::tsan11rec(StrategyKind::Queue, M, P);
  C.Seed0 = 91;
  C.Seed1 = 92;
  C.Env.Seed0 = 93;
  C.Env.Seed1 = 94;
  C.LivenessIntervalMs = 0;
  // Record and replay charge identical virtual cost, so the round-trip
  // tests can assert VirtualNs equality across the mode switch.
  C.Cost.SyscallRecordCost = 0;
  return C;
}

/// An echo service peer.
class Echo final : public Peer {
public:
  void onMessage(PeerApi &Api, uint64_t Conn,
                 const std::vector<uint8_t> &Data) override {
    Api.send(Conn, Data);
  }
};

/// A client that keeps talking through injected failures: every return
/// value, errno and received byte lands in \p Trace, which must be
/// identical between a faulted recording and its replay.
void hostileClient(std::vector<int64_t> &Trace) {
  const int Fd = sys::socket();
  Trace.push_back(Fd);
  Trace.push_back(sys::connect(Fd, 7001));
  for (int Round = 0; Round != 4; ++Round) {
    const uint8_t Msg[4] = {'p', 'i', 'n', static_cast<uint8_t>('0' + Round)};
    Trace.push_back(sys::send(Fd, Msg, sizeof Msg));
    Trace.push_back(sys::lastError());
    sys::sleepMs(5);
    uint8_t Buf[8] = {0};
    const int64_t Got = sys::recv(Fd, Buf, sizeof Buf);
    Trace.push_back(Got);
    Trace.push_back(sys::lastError());
    for (int64_t I = 0; I < Got; ++I)
      Trace.push_back(Buf[I]);
  }
  Trace.push_back(static_cast<int64_t>(sys::clockNs()));
  Trace.push_back(sys::close(Fd));
}

/// A hostile-but-deterministic plan: a VEAGAIN storm on sends 2-3, a
/// connection reset on the 2nd socket recv, and randomized short reads
/// plus message drop/duplication from the dedicated fault PRNG.
FaultPlan hostilePlan() {
  return FaultPlan::none()
      .storm(SyscallKind::Send, 2, 2, VEAGAIN)
      .failNthOn(SyscallKind::Recv, FdClass::Socket, 2, VECONNRESET)
      .shortReads(0.6)
      .dropPeerMessages(0.3)
      .duplicatePeerMessages(0.2);
}

/// Policy for the round-trip tests: the httpd network/clock set plus
/// close. SleepMs stays unrecorded on purpose — the sleeps re-issue
/// natively during replay and advance virtual time exactly as recording
/// did, so the VirtualNs comparison is meaningful.
RecordPolicy hostilePolicy() {
  return RecordPolicy::httpd().enable(SyscallKind::Close);
}

/// Records hostileClient under hostilePlan and returns the report (the
/// demo is in Report.RecordedDemo).
RunReport recordHostileDemo(std::vector<int64_t> &Trace) {
  SessionConfig C = baseConfig(Mode::Record, hostilePolicy());
  C.Faults = hostilePlan();
  Session S(C);
  S.env().addPeer("echo", std::make_unique<Echo>(), 7001);
  return S.run([&Trace] { hostileClient(Trace); });
}

/// Fresh scratch directory under /tmp.
std::string scratchDir(const char *Name) {
  std::string Path = std::string("/tmp/tsr-integrity-") + Name;
  std::filesystem::remove_all(Path);
  std::filesystem::create_directories(Path);
  return Path;
}

std::string streamPath(const std::string &Dir, StreamKind Kind) {
  return Dir + "/" + streamName(Kind);
}

void truncateFile(const std::string &Path, size_t DropBytes) {
  const auto Size = std::filesystem::file_size(Path);
  ASSERT_GE(Size, DropBytes);
  std::filesystem::resize_file(Path, Size - DropBytes);
}

void flipBit(const std::string &Path, size_t Offset) {
  std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(F.is_open());
  F.seekg(static_cast<std::streamoff>(Offset));
  char Byte = 0;
  F.read(&Byte, 1);
  ASSERT_TRUE(F.good());
  Byte = static_cast<char>(Byte ^ 0x40);
  F.seekp(static_cast<std::streamoff>(Offset));
  F.write(&Byte, 1);
}

// --- Loading errors -----------------------------------------------------

TEST(DemoIntegrity, EmptyDirectoryFailsFast) {
  const std::string Dir = scratchDir("empty");
  Demo D;
  std::string Error;
  EXPECT_FALSE(D.loadFromDirectory(Dir, Error));
  EXPECT_NE(Error.find("META"), std::string::npos) << Error;

  std::array<Demo::StreamCheck, NumStreamKinds> Checks;
  EXPECT_FALSE(Demo::verifyDirectory(Dir, Checks, Error));
  std::filesystem::remove_all(Dir);
}

TEST(DemoIntegrity, MissingMetaFailsEvenWithOtherStreamsPresent) {
  std::vector<int64_t> Trace;
  RunReport R = recordHostileDemo(Trace);
  const std::string Dir = scratchDir("no-meta");
  std::string Error;
  ASSERT_TRUE(R.RecordedDemo.saveToDirectory(Dir, Error)) << Error;
  std::filesystem::remove(streamPath(Dir, StreamKind::Meta));

  Demo D;
  EXPECT_FALSE(D.loadFromDirectory(Dir, Error));
  EXPECT_NE(Error.find("META"), std::string::npos) << Error;
  std::filesystem::remove_all(Dir);
}

TEST(DemoIntegrity, StrictModeDistinguishesMissingStreamFile) {
  std::vector<int64_t> Trace;
  RunReport R = recordHostileDemo(Trace);
  const std::string Dir = scratchDir("strict");
  std::string Error;
  ASSERT_TRUE(R.RecordedDemo.saveToDirectory(Dir, Error)) << Error;
  std::filesystem::remove(streamPath(Dir, StreamKind::Signal));

  // Tolerant: the absent SIGNAL stream loads as empty.
  Demo Tolerant;
  EXPECT_TRUE(Tolerant.loadFromDirectory(Dir, Error)) << Error;
  EXPECT_EQ(Tolerant.streamSize(StreamKind::Signal), 0u);

  // Strict: the absence itself is the error, and it names the stream.
  Demo Strict;
  EXPECT_FALSE(Strict.loadFromDirectory(Dir, Error, Demo::LoadMode::Strict));
  EXPECT_NE(Error.find("SIGNAL"), std::string::npos) << Error;
  std::filesystem::remove_all(Dir);
}

TEST(DemoIntegrity, VerifyDirectoryReportsCleanDemo) {
  std::vector<int64_t> Trace;
  RunReport R = recordHostileDemo(Trace);
  const std::string Dir = scratchDir("clean");
  std::string Error;
  ASSERT_TRUE(R.RecordedDemo.saveToDirectory(Dir, Error)) << Error;

  std::array<Demo::StreamCheck, NumStreamKinds> Checks;
  EXPECT_TRUE(Demo::verifyDirectory(Dir, Checks, Error)) << Error;
  for (const Demo::StreamCheck &C : Checks) {
    EXPECT_TRUE(C.Present) << streamName(C.Kind);
    EXPECT_TRUE(C.Error.empty()) << C.Error;
    EXPECT_EQ(C.PayloadBytes, R.RecordedDemo.streamSize(C.Kind));
  }
  std::filesystem::remove_all(Dir);
}

/// The corruption matrix: every stream x {truncation, bit-flip} must
/// produce a load error naming the damaged stream — never a crash, hang
/// or silent acceptance.
TEST(DemoIntegrity, CorruptionMatrixNamesTheDamagedStream) {
  std::vector<int64_t> Trace;
  RunReport R = recordHostileDemo(Trace);
  ASSERT_GT(R.RecordedDemo.streamSize(StreamKind::Syscall), 0u);
  ASSERT_GT(R.RecordedDemo.streamSize(StreamKind::Queue), 0u);

  const std::string Dir = scratchDir("matrix");
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const StreamKind Kind = static_cast<StreamKind>(I);
    for (const bool Truncate : {true, false}) {
      std::string Error;
      ASSERT_TRUE(R.RecordedDemo.saveToDirectory(Dir, Error)) << Error;
      const std::string File = streamPath(Dir, Kind);
      const size_t Size = std::filesystem::file_size(File);
      if (Truncate) {
        // Dropping the last byte truncates either the payload (length /
        // CRC mismatch) or, for empty streams, the header itself.
        truncateFile(File, 1);
      } else {
        // Flip a payload bit when there is a payload, a header bit (in
        // the length field) otherwise.
        flipBit(File, Size > Demo::StreamHeaderSize
                          ? Demo::StreamHeaderSize + (Size - 16) / 2
                          : 10);
      }

      const std::string Case = std::string(streamName(Kind)) +
                               (Truncate ? " truncated" : " bit-flipped");
      Demo D;
      EXPECT_FALSE(D.loadFromDirectory(Dir, Error)) << Case;
      EXPECT_NE(Error.find(streamName(Kind)), std::string::npos)
          << Case << ": " << Error;

      std::array<Demo::StreamCheck, NumStreamKinds> Checks;
      EXPECT_FALSE(Demo::verifyDirectory(Dir, Checks, Error)) << Case;
      EXPECT_FALSE(Checks[I].Error.empty()) << Case;
    }
  }
  std::filesystem::remove_all(Dir);
}

TEST(DemoIntegrity, SwappedStreamFilesAreRejectedByKindByte) {
  std::vector<int64_t> Trace;
  RunReport R = recordHostileDemo(Trace);
  const std::string Dir = scratchDir("swap");
  std::string Error;
  ASSERT_TRUE(R.RecordedDemo.saveToDirectory(Dir, Error)) << Error;
  // A QUEUE file posing as SIGNAL has a self-consistent header and CRC —
  // only the kind byte can catch it.
  std::filesystem::copy_file(streamPath(Dir, StreamKind::Queue),
                             streamPath(Dir, StreamKind::Signal),
                             std::filesystem::copy_options::overwrite_existing);
  Demo D;
  EXPECT_FALSE(D.loadFromDirectory(Dir, Error));
  EXPECT_NE(Error.find("SIGNAL"), std::string::npos) << Error;
  std::filesystem::remove_all(Dir);
}

// --- Fault injection ----------------------------------------------------

TEST(FaultInjection, ScriptedStormFiresOnExactOccurrences) {
  SessionConfig C = baseConfig();
  C.Faults = FaultPlan::none().storm(SyscallKind::Send, 2, 2, VEAGAIN);
  Session S(C);
  S.env().addPeer("echo", std::make_unique<Echo>(), 7001);
  RunReport R = S.run([] {
    const int Fd = sys::socket();
    ASSERT_EQ(sys::connect(Fd, 7001), 0);
    const uint8_t Msg[2] = {'o', 'k'};
    // Occurrences 2 and 3 fail; 1, 4 and 5 go through.
    EXPECT_EQ(sys::send(Fd, Msg, 2), 2);
    EXPECT_EQ(sys::send(Fd, Msg, 2), -1);
    EXPECT_EQ(sys::lastError(), VEAGAIN);
    EXPECT_EQ(sys::send(Fd, Msg, 2), -1);
    EXPECT_EQ(sys::lastError(), VEAGAIN);
    EXPECT_EQ(sys::send(Fd, Msg, 2), 2);
    EXPECT_EQ(sys::send(Fd, Msg, 2), 2);
  });
  EXPECT_EQ(R.SyscallsInjected, 2u);
  EXPECT_EQ(R.FaultsInjected.ErrnosInjected, 2u);
}

TEST(FaultInjection, TransferAndMessageFaultsAreAccounted) {
  // Each injector counter, driven deterministically with probability 1,
  // and its mirror in the unified metrics snapshot.

  // Short writes truncate every multi-byte transfer.
  {
    SessionConfig C = baseConfig();
    C.Faults = FaultPlan::none().shortWrites(1.0);
    Session S(C);
    S.env().addPeer("echo", std::make_unique<Echo>(), 7001);
    RunReport R = S.run([] {
      const int Fd = sys::socket();
      ASSERT_EQ(sys::connect(Fd, 7001), 0);
      const uint8_t Msg[4] = {'a', 'b', 'c', 'd'};
      const int64_t Sent = sys::send(Fd, Msg, sizeof Msg);
      EXPECT_GE(Sent, 1);
      EXPECT_LT(Sent, 4); // truncated
      sys::close(Fd);
    });
    EXPECT_GT(R.FaultsInjected.ShortTransfers, 0u);
    EXPECT_EQ(R.Metrics.counterOr("faults.short_transfers", 0),
              R.FaultsInjected.ShortTransfers);
  }

  // Dropped peer messages: the echo never hears the client.
  {
    SessionConfig C = baseConfig();
    C.Faults = FaultPlan::none().dropPeerMessages(1.0);
    Session S(C);
    S.env().addPeer("echo", std::make_unique<Echo>(), 7001);
    RunReport R = S.run([] {
      const int Fd = sys::socket();
      ASSERT_EQ(sys::connect(Fd, 7001), 0);
      const uint8_t Msg[2] = {'h', 'i'};
      ASSERT_EQ(sys::send(Fd, Msg, sizeof Msg), 2);
      sys::sleepMs(5);
      uint8_t Buf[8];
      EXPECT_LT(sys::recv(Fd, Buf, sizeof Buf), 1); // no echo came back
      sys::close(Fd);
    });
    EXPECT_GT(R.FaultsInjected.MessagesDropped, 0u);
    EXPECT_EQ(R.Metrics.counterOr("faults.messages_dropped", 0),
              R.FaultsInjected.MessagesDropped);
  }

  // Duplicated peer messages: the echo hears (and answers) twice.
  {
    SessionConfig C = baseConfig();
    C.Faults = FaultPlan::none().duplicatePeerMessages(1.0);
    Session S(C);
    S.env().addPeer("echo", std::make_unique<Echo>(), 7001);
    RunReport R = S.run([] {
      const int Fd = sys::socket();
      ASSERT_EQ(sys::connect(Fd, 7001), 0);
      const uint8_t Msg[2] = {'h', 'i'};
      ASSERT_EQ(sys::send(Fd, Msg, sizeof Msg), 2);
      sys::sleepMs(5);
      uint8_t Buf[8];
      EXPECT_EQ(sys::recv(Fd, Buf, sizeof Buf), 2);
      EXPECT_EQ(sys::recv(Fd, Buf, sizeof Buf), 2); // the duplicate
      sys::close(Fd);
    });
    EXPECT_GT(R.FaultsInjected.MessagesDuplicated, 0u);
    EXPECT_EQ(R.Metrics.counterOr("faults.messages_duplicated", 0),
              R.FaultsInjected.MessagesDuplicated);
  }
}

TEST(FaultInjection, NthRecvOnSocketFailsWithReset) {
  SessionConfig C = baseConfig();
  C.Faults =
      FaultPlan::none().failNthOn(SyscallKind::Recv, FdClass::Socket, 1,
                                  VECONNRESET);
  Session S(C);
  S.env().addPeer("echo", std::make_unique<Echo>(), 7001);
  S.run([] {
    const int Fd = sys::socket();
    ASSERT_EQ(sys::connect(Fd, 7001), 0);
    const uint8_t Msg[3] = {'a', 'b', 'c'};
    ASSERT_EQ(sys::send(Fd, Msg, 3), 3);
    sys::sleepMs(5);
    uint8_t Buf[8] = {0};
    // First socket recv is reset by the plan; the echoed message is still
    // queued, so the retry drains it.
    EXPECT_EQ(sys::recv(Fd, Buf, sizeof Buf), -1);
    EXPECT_EQ(sys::lastError(), VECONNRESET);
    EXPECT_EQ(sys::recv(Fd, Buf, sizeof Buf), 3);
    EXPECT_EQ(Buf[0], 'a');
  });
}

TEST(FaultInjection, IdenticalConfigsRecordIdenticalDemos) {
  std::vector<int64_t> TraceA, TraceB;
  RunReport A = recordHostileDemo(TraceA);
  RunReport B = recordHostileDemo(TraceB);
  // The injector draws from its own PRNG seeded off the META seeds, so a
  // fixed config pins every probabilistic fault.
  EXPECT_EQ(TraceA, TraceB);
  EXPECT_TRUE(A.RecordedDemo == B.RecordedDemo);
  EXPECT_EQ(A.FaultsInjected.total(), B.FaultsInjected.total());
}

/// The acceptance property: a demo recorded under fault injection replays
/// deterministically with the injector disarmed — the program observes
/// the same syscall results (the faults come back through the SYSCALL
/// stream), and the report's races and virtual time match.
TEST(FaultInjection, RecordedFaultsReplayWithInjectorDisarmed) {
  std::vector<int64_t> RecordTrace;
  RunReport Rec = recordHostileDemo(RecordTrace);

  // The plan deterministically fails sends 2-3 (storm) and the 2nd
  // socket recv (scripted reset).
  EXPECT_EQ(Rec.FaultsInjected.ErrnosInjected, 3u);
  EXPECT_GT(Rec.SyscallsInjected, 0u);
  EXPECT_EQ(Rec.Desync, DesyncKind::None);

  // The META stream advertises the plan.
  const DemoInfo Info = inspectDemo(Rec.RecordedDemo);
  ASSERT_TRUE(Info.MetaValid);
  EXPECT_EQ(Info.Meta.FaultPlanHash, hostilePlan().hash());

  // Replay without a peer and without a plan: every recorded result,
  // injected or genuine, must come back from the stream.
  std::vector<int64_t> ReplayTrace;
  SessionConfig C = baseConfig(Mode::Replay, hostilePolicy());
  C.ReplayDemo = &Rec.RecordedDemo;
  Session S(C);
  RunReport Rep = S.run([&ReplayTrace] { hostileClient(ReplayTrace); });

  EXPECT_EQ(Rep.Desync, DesyncKind::None) << Rep.DesyncInfo.Message;
  EXPECT_TRUE(Rep.DesyncMessage.empty()) << Rep.DesyncMessage;
  EXPECT_EQ(ReplayTrace, RecordTrace);
  EXPECT_EQ(Rep.SyscallsInjected, 0u);
  EXPECT_EQ(Rep.FaultsInjected.total(), 0u);
  EXPECT_EQ(Rep.Races.size(), Rec.Races.size());
  EXPECT_EQ(Rep.VirtualNs, Rec.VirtualNs);
  EXPECT_EQ(Rep.DesyncInfo.SoftResyncs, 0u);
}

TEST(FaultInjection, ReplayIgnoresConfiguredPlan) {
  std::vector<int64_t> RecordTrace;
  RunReport Rec = recordHostileDemo(RecordTrace);

  // A plan left in the replay config must be ignored (with a warning),
  // not applied on top of the recorded faults.
  std::vector<int64_t> ReplayTrace;
  SessionConfig C = baseConfig(Mode::Replay, hostilePolicy());
  C.ReplayDemo = &Rec.RecordedDemo;
  C.Faults = hostilePlan();
  Session S(C);
  RunReport Rep = S.run([&ReplayTrace] { hostileClient(ReplayTrace); });

  EXPECT_EQ(Rep.Desync, DesyncKind::None) << Rep.DesyncInfo.Message;
  EXPECT_EQ(ReplayTrace, RecordTrace);
  EXPECT_EQ(Rep.SyscallsInjected, 0u);
}

// --- Seeded random-mutation chaos sweep ---------------------------------

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(F),
                              std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  F.write(reinterpret_cast<const char *>(Bytes.data()),
          static_cast<std::streamsize>(Bytes.size()));
}

/// Applies one seeded random mutation to a random stream file of \p Dir:
/// a bit flip, a truncation, or a duplicated byte range inserted at a
/// random offset. Returns a description for failure messages.
std::string mutateDemoDirectory(const std::string &Dir, Prng &Rng) {
  const StreamKind Kind = static_cast<StreamKind>(Rng.nextBelow(NumStreamKinds));
  const std::string Path = streamPath(Dir, Kind);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  if (Bytes.empty())
    return std::string(streamName(Kind)) + ": empty, left alone";
  char Desc[128];
  switch (Rng.nextBelow(3)) {
  case 0: { // Bit flip anywhere (header, chunk frame or payload).
    const size_t Off = Rng.nextBelow(Bytes.size());
    Bytes[Off] ^= static_cast<uint8_t>(1u << Rng.nextBelow(8));
    std::snprintf(Desc, sizeof(Desc), "%s: bit flip at %zu", streamName(Kind),
                  Off);
    break;
  }
  case 1: { // Truncation: drop a random-length tail.
    const size_t Drop = 1 + Rng.nextBelow(std::min<size_t>(Bytes.size(), 64));
    Bytes.resize(Bytes.size() - Drop);
    std::snprintf(Desc, sizeof(Desc), "%s: truncated %zu bytes",
                  streamName(Kind), Drop);
    break;
  }
  default: { // Duplicated chunk: re-insert a copied range elsewhere.
    const size_t Len = 1 + Rng.nextBelow(std::min<size_t>(Bytes.size(), 32));
    const size_t From = Rng.nextBelow(Bytes.size() - Len + 1);
    const size_t At = Rng.nextBelow(Bytes.size() + 1);
    std::vector<uint8_t> Chunk(Bytes.begin() + From, Bytes.begin() + From + Len);
    Bytes.insert(Bytes.begin() + At, Chunk.begin(), Chunk.end());
    std::snprintf(Desc, sizeof(Desc),
                  "%s: duplicated %zu bytes from %zu at %zu", streamName(Kind),
                  Len, From, At);
    break;
  }
  }
  writeFileBytes(Path, Bytes);
  return Desc;
}

size_t chaosMutantCount() {
  if (const char *Env = std::getenv("TSR_CHAOS_MUTANTS"))
    if (const long N = std::atol(Env); N > 0)
      return static_cast<size_t>(N);
  return 40;
}

/// The chaos acceptance property: EVERY seeded mutant of an on-disk demo
/// must fall into one of three bins — clean load, repairable salvage, or a
/// typed load error — and a loadable mutant must replay to completion
/// under Adaptive recovery.
/// Crashes and hangs are the only failure; the sweep is the fuzz corpus
/// for the demo decoder and the recovery subsystem at once.
TEST(DemoChaos, SeededMutationSweepNeverCrashes) {
  std::vector<int64_t> Trace;
  RunReport Rec = recordHostileDemo(Trace);
  const std::string Dir = scratchDir("chaos");
  const size_t Mutants = chaosMutantCount();

  for (size_t I = 0; I != Mutants; ++I) {
    std::string Error;
    ASSERT_TRUE(Rec.RecordedDemo.saveToDirectory(Dir, Error)) << Error;
    Prng Rng(0xC5A05EEDull + Demo::FormatVersion, 0xD15EA5Eull + I);
    std::string Case;
    const size_t NumMutations = 1 + Rng.nextBelow(3);
    for (size_t M = 0; M != NumMutations; ++M)
      Case += mutateDemoDirectory(Dir, Rng) + "; ";

    Demo D;
    std::string LoadError;
    bool Loadable = D.loadFromDirectory(Dir, LoadError);
    if (!Loadable) {
      // Damaged: the error must be typed (non-empty), and salvage must
      // either repair to a loadable prefix or fail with its own typed
      // error — never crash.
      EXPECT_FALSE(LoadError.empty()) << Case;
      Demo::SalvageReport Rep;
      std::string SalvageError;
      if (Demo::salvageDirectory(Dir, Rep, SalvageError)) {
        Loadable = D.loadFromDirectory(Dir, LoadError);
        EXPECT_TRUE(Loadable || !LoadError.empty()) << Case;
      } else {
        EXPECT_FALSE(SalvageError.empty()) << Case;
      }
    }

    if (Loadable) {
      // Survivors must replay to completion under Adaptive recovery:
      // soft desyncs and recovery actions are fine, wedging is not.
      SessionConfig C = baseConfig(Mode::Replay, hostilePolicy());
      C.ReplayDemo = &D;
      C.Recovery.Mode = RecoveryMode::Adaptive;
      Session S(C);
      std::vector<int64_t> ReplayTrace;
      RunReport Rep = S.run([&ReplayTrace] { hostileClient(ReplayTrace); });
      EXPECT_FALSE(Rep.DesyncInfo.Message.empty()) << Case;
    }
  }
  std::filesystem::remove_all(Dir);
}

/// A RECOVERY sidecar is advisory: any seeded mutation of it must yield
/// Present && !Valid with a typed error — never a crash, and never an
/// effect on demo loading itself.
TEST(DemoChaos, MutatedRecoverySidecarIsToleratedWithTypedError) {
  const std::string Dir = scratchDir("chaos-sidecar");
  std::vector<RecoveryAction> Actions;
  for (unsigned I = 0; I != 5; ++I)
    Actions.push_back({static_cast<RecoveryActionKind>(I % NumRecoveryActionKinds),
                       100 + I, static_cast<Tid>(I), StreamKind::Syscall,
                       I + 1, "chaos sweep action"});
  std::string Error;
  ASSERT_TRUE(saveRecoverySidecar(Dir, Actions, Error)) << Error;

  // The pristine sidecar round-trips.
  RecoverySidecarInfo Clean;
  ASSERT_TRUE(loadRecoverySidecar(Dir, Clean));
  EXPECT_TRUE(Clean.Valid) << Clean.Error;
  EXPECT_EQ(Clean.Total, Actions.size());
  ASSERT_EQ(Clean.Actions.size(), Actions.size());
  EXPECT_EQ(Clean.Actions[2].Detail, "chaos sweep action");

  const std::string Path = Dir + "/" + RecoverySidecarFileName;
  const std::vector<uint8_t> Pristine = readFileBytes(Path);
  ASSERT_FALSE(Pristine.empty());
  for (size_t I = 0; I != 64; ++I) {
    Prng Rng(0x51DECA4ull, I);
    std::vector<uint8_t> Bytes = Pristine;
    switch (Rng.nextBelow(3)) {
    case 0:
      Bytes[Rng.nextBelow(Bytes.size())] ^=
          static_cast<uint8_t>(1u << Rng.nextBelow(8));
      break;
    case 1:
      Bytes.resize(Rng.nextBelow(Bytes.size()));
      break;
    default:
      Bytes.insert(Bytes.begin() + Rng.nextBelow(Bytes.size() + 1),
                   static_cast<uint8_t>(Rng.nextBelow(256)));
      break;
    }
    writeFileBytes(Path, Bytes);
    RecoverySidecarInfo Side;
    EXPECT_TRUE(loadRecoverySidecar(Dir, Side)) << "mutant " << I;
    if (!Side.Valid) {
      EXPECT_FALSE(Side.Error.empty()) << "mutant " << I;
    }
  }
  std::filesystem::remove_all(Dir);
}

// --- Structured desync reports ------------------------------------------

TEST(DesyncReports, WrongProgramYieldsStructuredSyscallDesync) {
  std::vector<int64_t> Trace;
  RunReport Rec = recordHostileDemo(Trace);

  // Replay a program whose first syscall differs from the recording: the
  // stream's next record is 'socket', the program issues 'connect'.
  SessionConfig C = baseConfig(Mode::Replay, hostilePolicy());
  C.ReplayDemo = &Rec.RecordedDemo;
  Session S(C);
  RunReport Rep = S.run([] { (void)sys::connect(5, 80); });

  EXPECT_EQ(Rep.Desync, DesyncKind::Hard);
  EXPECT_EQ(Rep.DesyncInfo.Reason, DesyncReason::SyscallKindMismatch);
  EXPECT_EQ(Rep.DesyncInfo.Stream, StreamKind::Syscall);
  EXPECT_NE(Rep.DesyncMessage.find("SYSCALL"), std::string::npos)
      << Rep.DesyncMessage;
  EXPECT_NE(Rep.DesyncMessage.find("connect"), std::string::npos)
      << Rep.DesyncMessage;
  // The cursors place the divergence at the start of the stream.
  EXPECT_LT(Rep.DesyncInfo.SyscallCursor.Consumed,
            Rep.DesyncInfo.SyscallCursor.Total);
  EXPECT_GT(Rep.DesyncInfo.SyscallCursor.Total, 0u);
}

TEST(DesyncReports, CleanRunReportsSynchronisedCursors) {
  std::vector<int64_t> Trace;
  RunReport Rec = recordHostileDemo(Trace);
  EXPECT_EQ(Rec.DesyncInfo.Kind, DesyncKind::None);
  EXPECT_EQ(Rec.DesyncInfo.Reason, DesyncReason::None);
  EXPECT_TRUE(Rec.DesyncMessage.empty());
  EXPECT_FALSE(Rec.DesyncInfo.Message.empty()); // always rendered
}

} // namespace
